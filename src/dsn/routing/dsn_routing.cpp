// dsn-slint: deterministic — route tables feed byte-identical replay and
// shard-order merges; iteration order here is part of the contract.
#include "dsn/routing/dsn_routing.hpp"

#include "dsn/common/math.hpp"

namespace dsn {

namespace {

/// Clockwise ring distance helper.
std::uint64_t cw(NodeId a, NodeId b, std::uint32_t n) { return ring_cw_distance(a, b, n); }

/// Defensive hop cap: far above the 3p + r routing diameter (Fact 2) so it
/// only fires on a genuine algorithmic bug or out-of-premise parameters.
std::size_t hop_cap(const Dsn& d) {
  return 10u * (d.p() + d.r()) + 50u;
}

}  // namespace

DsnRouter::DsnRouter(const Dsn& dsn, DsnRoutingOptions options)
    : dsn_(&dsn), options_(options) {}

std::uint32_t DsnRouter::level_for_distance(std::uint64_t d) const {
  DSN_ASSERT(d >= 1, "distance must be positive");
  const std::uint32_t n = dsn_->n();
  const std::uint32_t p = dsn_->p();
  // Smallest l >= 1 with n / 2^l <= d in *real* arithmetic (n <= d * 2^l),
  // exactly the paper's l = floor(log(n/d)) + 1. Using floor(n/2^l) here
  // instead would misclassify boundary distances (e.g. d = 37 with n = 300)
  // and break the MAIN-PROCESS level invariant.
  for (std::uint32_t l = 1; l < p; ++l) {
    if (n <= (d << l)) return l;
  }
  return p;
}

// Forced inline: route() takes one step per hop, and an out-of-line call per
// hop made all-pairs route sweeps ~25 % slower.
[[gnu::always_inline]] inline DsnStep DsnRouter::step_impl(NodeId u, NodeId t,
                                                           DsnWalkState state) const {
  const Dsn& d = *dsn_;
  const std::uint32_t n = d.n();
  const std::uint32_t p = d.p();
  const std::uint32_t x = d.x();
  DSN_ASSERT(u != t, "no hop needed at the destination");
  const std::uint64_t dist = cw(u, t, n);

  if (state == DsnWalkState::kSource) {
    // Three kinds of destination are pure FINISH from the source:
    //  - a short counterclockwise walk away: the clockwise machinery would
    //    otherwise tour the whole ring for them;
    //  - a short clockwise distance: MAIN stops at dist <= p anyway, so
    //    PRE-WORK's counterclockwise descent would only detour, and make the
    //    route revisit its own source on the way back;
    //  - a required shortcut level above x: every owned shortcut overshoots,
    //    so the route degenerates to a ring walk (only outside the
    //    x > p - log p premise of Theorems 1-2).
    state = n - dist <= p + d.r() || dist <= p || level_for_distance(dist) > x
                ? DsnWalkState::kFinish
                : DsnWalkState::kPreWork;
  }

  // ----- PRE-WORK: descend to a node whose level matches the required
  // shortcut level for the current clockwise distance to t.
  if (state == DsnWalkState::kPreWork) {
    if (d.level(u) > level_for_distance(dist)) {
      return {d.pred(u), HopKind::kPred, RoutePhase::kPreWork, DsnWalkState::kPreWork};
    }
    state = DsnWalkState::kMain;
  }

  // ----- MAIN-PROCESS: climb with succ links and take distance-halving
  // shortcuts until LOOP-STOP (t is within p, or this level owns no
  // shortcut). The take rule is slightly greedier than the literal
  // pseudo-code ("take own shortcut whenever it does not overshoot"):
  // integer spans can leave the walker one level above the recomputed l,
  // where the literal rule would march to level x+1 and pay a long FINISH.
  // Levels still increase monotonically, so the Theorem 3 deadlock argument
  // is unaffected.
  if (state == DsnWalkState::kMain) {
    const std::uint32_t lu = d.level(u);
    if (dist > p && lu != x + 1) {
      if (lu <= x) {
        const NodeId v = d.shortcut_target(u);
        DSN_ASSERT(v != kInvalidNode, "level <= x node must own a shortcut");
        if (cw(u, v, n) <= dist) {
          return {v, HopKind::kShortcut, RoutePhase::kMain, DsnWalkState::kMain};
        }
        // The designated-level shortcut overshoots t: take it and end MAIN
        // (LOOP-STOP), or, in the §V-D variant, step forward and use the
        // successor's shorter shortcut.
        if (lu >= level_for_distance(dist) && !options_.avoid_overshoot) {
          return {v, HopKind::kShortcut, RoutePhase::kMain, DsnWalkState::kFinish};
        }
      }
      return {d.succ(u), HopKind::kSucc, RoutePhase::kMain, DsnWalkState::kMain};
    }
    state = DsnWalkState::kFinish;
  }

  // ----- FINISH: plain ring walk over the remaining (short) distance. The
  // shorter direction stays the shorter one hop after hop, so a walk that
  // recomputes it never turns around.
  const bool go_succ = state == DsnWalkState::kFinishSucc ||
                       (state == DsnWalkState::kFinish && dist <= n - dist);
  return {go_succ ? d.succ(u) : d.pred(u), go_succ ? HopKind::kSucc : HopKind::kPred,
          RoutePhase::kFinish, state};
}

DsnStep DsnRouter::step(NodeId u, NodeId t, DsnWalkState state) const {
  return step_impl(u, t, state);
}

Route DsnRouter::route(NodeId s, NodeId t) const {
  Route r;
  route(s, t, r);
  return r;
}

void DsnRouter::route(NodeId s, NodeId t, Route& r) const {
  const Dsn& d = *dsn_;
  DSN_REQUIRE(s < d.n() && t < d.n(), "node id out of range");

  r.reset(s, t);
  if (s == t) return;

  NodeId u = s;
  DsnWalkState state = DsnWalkState::kSource;
  if (options_.nearest_prework &&
      step(s, t, DsnWalkState::kSource).phase == RoutePhase::kPreWork) {
    nearest_prework_prefix(u, t, r.hops);
    state = DsnWalkState::kPreWork;
  }
  const std::size_t cap = hop_cap(d);
  while (u != t) {
    if (r.hops.size() >= cap && state < DsnWalkState::kFinish) {
      // The defensive cap hands the walk to FINISH's plain ring walk.
      r.used_fallback = true;
      state = DsnWalkState::kFinish;
    }
    const DsnStep h = step_impl(u, t, state);
    r.hops.push_back({u, h.next, h.phase, h.kind});
    u = h.next;
    state = h.state;
  }
}

void DsnRouter::nearest_prework_prefix(NodeId& u, NodeId t, std::vector<RouteHop>& hops) const {
  const Dsn& d = *dsn_;
  const std::uint32_t l = level_for_distance(cw(u, t, d.n()));
  const std::uint32_t reach = d.p() + d.r();
  NodeId fwd = u, bwd = u;
  std::uint32_t fwd_steps = 0, bwd_steps = 0;
  while (d.level(fwd) != l && fwd_steps <= reach) {
    fwd = d.succ(fwd);
    ++fwd_steps;
  }
  while (d.level(bwd) != l && bwd_steps <= reach) {
    bwd = d.pred(bwd);
    ++bwd_steps;
  }
  const bool go_fwd = d.level(fwd) == l && (fwd_steps <= bwd_steps || d.level(bwd) != l);
  const NodeId target = go_fwd ? fwd : bwd;
  while (u != target && u != t) {
    const NodeId v = go_fwd ? d.succ(u) : d.pred(u);
    hops.push_back({u, v, RoutePhase::kPreWork, go_fwd ? HopKind::kSucc : HopKind::kPred});
    u = v;
  }
}

// ---------------------------------------------------------------------------
// DSN-D routing: express-aware local walks.
// ---------------------------------------------------------------------------

namespace {

/// Walk from u to an exact target node, pred-ward or succ-ward, taking DSN-D
/// express links whenever they jump toward the target without passing it.
void express_walk(const DsnD& dd, NodeId& u, NodeId target, bool succ_ward,
                  RoutePhase phase, std::vector<RouteHop>& hops) {
  const Dsn& d = dd.base();
  const Graph& g = dd.topology().graph;
  const std::uint32_t n = d.n();
  const std::uint32_t q = dd.q();
  while (u != target) {
    if (succ_ward) {
      const std::uint64_t remaining = ring_cw_distance(u, target, n);
      const NodeId jump = static_cast<NodeId>((u + q) % n);
      if (u % q == 0 && remaining >= q && g.has_link(u, jump) && jump != d.succ(u)) {
        hops.push_back({u, jump, phase, HopKind::kExpress});
        u = jump;
        continue;
      }
      const NodeId v = d.succ(u);
      hops.push_back({u, v, phase, HopKind::kSucc});
      u = v;
    } else {
      const std::uint64_t remaining = ring_cw_distance(target, u, n);
      if (u % q == 0 && u >= q && remaining >= q && g.has_link(u, u - q) &&
          u - q != d.pred(u)) {
        hops.push_back({u, u - q, phase, HopKind::kExpress});
        u = u - q;
        continue;
      }
      const NodeId v = d.pred(u);
      hops.push_back({u, v, phase, HopKind::kPred});
      u = v;
    }
  }
}

}  // namespace

Route route_dsn_d(const DsnD& dd, NodeId s, NodeId t) {
  Route r;
  route_dsn_d(dd, s, t, r);
  return r;
}

void route_dsn_d(const DsnD& dd, NodeId s, NodeId t, Route& r) {
  const Dsn& d = dd.base();
  const DsnRouter router(d);
  const std::uint32_t n = d.n();
  const std::uint32_t p = d.p();
  DSN_REQUIRE(s < n && t < n, "node id out of range");

  r.reset(s, t);
  if (s == t) return;

  const std::size_t cap = hop_cap(d);
  NodeId u = s;

  // Short counterclockwise destinations go straight to FINISH (see route()).
  if (n - cw(s, t, n) <= p + d.r()) {
    express_walk(dd, u, t, /*succ_ward=*/false, RoutePhase::kFinish, r.hops);
    return;
  }

  // Short clockwise distances are also pure FINISH: MAIN stops at dist <= p
  // anyway, so the PRE-WORK descent would only detour — and make the route
  // revisit its own source on the way back (mirrors DsnRouter::step).
  if (cw(s, t, n) <= p) {
    express_walk(dd, u, t, /*succ_ward=*/true, RoutePhase::kFinish, r.hops);
    return;
  }

  // When the required shortcut level exceeds x, every owned shortcut
  // overshoots the destination: the route degenerates to an express-assisted
  // ring walk, and PRE-WORK would again detour through already-visited
  // nodes. Only happens outside the x > p - log p premise of Theorems 1-2.
  if (router.level_for_distance(cw(s, t, n)) > d.x()) {
    const std::uint64_t dist_cw = cw(s, t, n);
    express_walk(dd, u, t, /*succ_ward=*/dist_cw <= n - dist_cw, RoutePhase::kFinish, r.hops);
    return;
  }

  // PRE-WORK with express links: target the level-l node reached by walking
  // counterclockwise within the current super node.
  const std::uint32_t l = router.level_for_distance(cw(u, t, n));
  if (d.level(u) > l) {
    const NodeId target = static_cast<NodeId>(u - (d.level(u) - l));  // same super node
    express_walk(dd, u, target, /*succ_ward=*/false, RoutePhase::kPreWork, r.hops);
  }
  while (d.level(u) > router.level_for_distance(cw(u, t, n)) && r.hops.size() < cap) {
    const NodeId v = d.pred(u);
    r.hops.push_back({u, v, RoutePhase::kPreWork, HopKind::kPred});
    u = v;
  }

  // MAIN-PROCESS: the router's own step, until it ends MAIN (an overshooting
  // shortcut) or hands the walk to FINISH (LOOP-STOP).
  while (u != t && r.hops.size() < cap) {
    const DsnStep h = router.step(u, t, DsnWalkState::kMain);
    if (h.phase != RoutePhase::kMain) break;
    r.hops.push_back({u, h.next, h.phase, h.kind});
    u = h.next;
    if (h.state != DsnWalkState::kMain) break;
  }

  if (r.hops.size() >= cap) r.used_fallback = true;

  // FINISH with express links along the shorter ring direction.
  const std::uint64_t dist_cw = cw(u, t, n);
  express_walk(dd, u, t, /*succ_ward=*/dist_cw <= n - dist_cw, RoutePhase::kFinish, r.hops);
}

// ---------------------------------------------------------------------------
// Flexible DSN routing (§V-C).
// ---------------------------------------------------------------------------

Route route_dsn_flex(const FlexDsn& f, NodeId s, NodeId t) {
  const std::uint32_t n_total = f.num_total();
  DSN_REQUIRE(s < n_total && t < n_total, "node id out of range");

  Route r;
  r.src = s;
  r.dst = t;
  if (s == t) return r;

  const Graph& g = f.topology().graph;
  NodeId u = s;

  // A minor source first steps back to its preceding major node.
  if (!f.is_major(u)) {
    const NodeId major_phys = f.preceding_major(u);
    while (u != major_phys) {
      const NodeId v = u == 0 ? n_total - 1 : u - 1;
      r.hops.push_back({u, v, RoutePhase::kPreWork, HopKind::kPred});
      u = v;
    }
  }

  // Route between majors in the logical DSN, then expand each logical hop to
  // physical hops (a logical ring hop may cross one minor node).
  const NodeId t_major_phys = f.is_major(t) ? t : f.preceding_major(t);
  const NodeId s_major = f.major_of(u);
  const NodeId t_major = f.major_of(t_major_phys);
  if (s_major != t_major) {
    DsnRouter base_router(f.base());
    const Route logical = base_router.route(s_major, t_major);
    for (const RouteHop& lh : logical.hops) {
      const NodeId pa = f.phys_of(lh.from);
      const NodeId pb = f.phys_of(lh.to);
      DSN_ASSERT(u == pa, "flex expansion lost track of position");
      if (g.has_link(pa, pb)) {
        r.hops.push_back({pa, pb, lh.phase, lh.kind});
        u = pb;
      } else {
        // One minor node sits between the two majors on the ring.
        DSN_ASSERT(lh.kind == HopKind::kPred || lh.kind == HopKind::kSucc,
                   "only ring hops may cross minors");
        const bool fwd = lh.kind == HopKind::kSucc;
        const NodeId mid = fwd ? (pa + 1) % n_total : (pa == 0 ? n_total - 1 : pa - 1);
        DSN_ASSERT(!f.is_major(mid) && g.has_link(pa, mid) && g.has_link(mid, pb),
                   "expected a single minor between consecutive majors");
        r.hops.push_back({pa, mid, lh.phase, lh.kind});
        r.hops.push_back({mid, pb, lh.phase, lh.kind});
        u = pb;
      }
    }
  }

  // Walk forward (succ) from the destination's preceding major to the minor
  // destination, or we are already there.
  while (u != t) {
    const NodeId v = (u + 1) % n_total;
    r.hops.push_back({u, v, RoutePhase::kFinish, HopKind::kSucc});
    u = v;
  }
  return r;
}

}  // namespace dsn
