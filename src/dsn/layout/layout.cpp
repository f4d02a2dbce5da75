#include "dsn/layout/layout.hpp"

#include <algorithm>
#include <cmath>

#include "dsn/common/math.hpp"

namespace dsn {

PlacementStrategy default_placement(const Topology& topo) {
  return topo.dims.size() == 2 ? PlacementStrategy::kGrid2D : PlacementStrategy::kLinear;
}

FloorLayout::FloorLayout(const Topology& topo, const MachineRoomConfig& config,
                         PlacementStrategy strategy)
    : config_(config) {
  const NodeId n = topo.num_nodes();
  DSN_REQUIRE(n > 0, "empty topology");
  DSN_REQUIRE(config.switches_per_cabinet > 0, "cabinet must hold switches");
  cab_row_.resize(n);
  cab_col_.resize(n);

  if (strategy == PlacementStrategy::kGrid2D) {
    DSN_REQUIRE(topo.dims.size() == 2, "kGrid2D needs a rank-2 topology");
    const std::uint32_t w = topo.dims[0];
    const std::uint32_t h = topo.dims[1];
    // Near-square tile of switches_per_cabinet switches, e.g. 4x4 for 16.
    std::uint32_t tile_w = static_cast<std::uint32_t>(isqrt(config.switches_per_cabinet));
    while (tile_w > 1 && config.switches_per_cabinet % tile_w != 0) --tile_w;
    const std::uint32_t tile_h = config.switches_per_cabinet / tile_w;
    cols_ = static_cast<std::uint32_t>(ceil_div(w, tile_w));
    rows_ = static_cast<std::uint32_t>(ceil_div(h, tile_h));
    num_cabinets_ = rows_ * cols_;
    for (NodeId v = 0; v < n; ++v) {
      const std::uint32_t x = v % w;
      const std::uint32_t y = v / w;
      cab_col_[v] = x / tile_w;
      cab_row_[v] = y / tile_h;
    }
  } else {
    num_cabinets_ =
        static_cast<std::uint32_t>(ceil_div(n, config.switches_per_cabinet));
    rows_ = static_cast<std::uint32_t>(isqrt_ceil(num_cabinets_));  // q = ceil(sqrt m)
    cols_ = static_cast<std::uint32_t>(ceil_div(num_cabinets_, rows_));
    for (NodeId v = 0; v < n; ++v) seat(v, v);
  }
}

FloorLayout::FloorLayout(const Topology& topo, const MachineRoomConfig& config,
                         const std::vector<std::uint32_t>& slot_of)
    : FloorLayout(topo, config, PlacementStrategy::kLinear) {
  DSN_REQUIRE(slot_of.size() == cab_row_.size(), "placement size mismatch");
  for (NodeId v = 0; v < slot_of.size(); ++v) {
    DSN_REQUIRE(slot_of[v] < num_cabinets_ * config.switches_per_cabinet,
                "slot out of range");
    seat(v, slot_of[v]);
  }
}

void FloorLayout::seat(NodeId v, std::uint32_t slot) {
  const std::uint32_t cab = slot / config_.switches_per_cabinet;
  cab_row_[v] = cab / cols_;
  cab_col_[v] = cab % cols_;
}

std::pair<std::uint32_t, std::uint32_t> FloorLayout::cabinet_of(NodeId v) const {
  DSN_REQUIRE(v < cab_row_.size(), "node id out of range");
  return {cab_row_[v], cab_col_[v]};
}

double FloorLayout::cable_length_m(NodeId u, NodeId v) const {
  DSN_REQUIRE(u < cab_row_.size() && v < cab_row_.size(), "node id out of range");
  if (cab_row_[u] == cab_row_[v] && cab_col_[u] == cab_col_[v]) {
    return config_.intra_cabinet_cable_m;
  }
  const double dr = std::abs(static_cast<double>(cab_row_[u]) - cab_row_[v]);
  const double dc = std::abs(static_cast<double>(cab_col_[u]) - cab_col_[v]);
  return dc * config_.cabinet_width_m + dr * config_.cabinet_depth_m +
         config_.inter_cabinet_overhead_m;
}

void FloorLayout::swap_nodes(NodeId a, NodeId b) {
  DSN_REQUIRE(a < cab_row_.size() && b < cab_row_.size(), "node id out of range");
  std::swap(cab_row_[a], cab_row_[b]);
  std::swap(cab_col_[a], cab_col_[b]);
}

CableReport compute_cable_report(const Topology& topo, const FloorLayout& layout) {
  CableReport report;
  const std::size_t links = topo.graph.num_links();
  report.per_link_m.reserve(links);
  for (LinkId id = 0; id < links; ++id) {
    const auto [u, v] = topo.graph.link_endpoints(id);
    const double len = layout.cable_length_m(u, v);
    report.per_link_m.push_back(len);
    report.total_m += len;
    report.max_m = std::max(report.max_m, len);
    const auto [ru, cu] = layout.cabinet_of(u);
    const auto [rv, cv] = layout.cabinet_of(v);
    if (ru == rv && cu == cv)
      ++report.intra_cabinet_links;
    else
      ++report.inter_cabinet_links;
  }
  report.average_m = links == 0 ? 0.0 : report.total_m / static_cast<double>(links);
  return report;
}

CableReport compute_cable_report(const Topology& topo, const MachineRoomConfig& config) {
  return compute_cable_report(topo, FloorLayout(topo, config, default_placement(topo)));
}

LineCableStats compute_line_cable_stats(const Topology& topo) {
  LineCableStats stats;
  const std::uint64_t n = topo.num_nodes();
  double shortcut_total = 0.0;
  double span_total = 0.0;
  for (LinkId id = 0; id < topo.graph.num_links(); ++id) {
    const auto [u, v] = topo.graph.link_endpoints(id);
    const double len = std::abs(static_cast<double>(u) - static_cast<double>(v));
    stats.total_length += len;
    if (id < topo.link_roles.size() && topo.link_roles[id] == LinkRole::kShortcut) {
      shortcut_total += len;
      span_total += static_cast<double>(ring_distance(u, v, n));
      ++stats.shortcut_links;
    }
  }
  if (stats.shortcut_links > 0) {
    stats.avg_shortcut_length = shortcut_total / static_cast<double>(stats.shortcut_links);
    stats.avg_shortcut_span = span_total / static_cast<double>(stats.shortcut_links);
  }
  return stats;
}

}  // namespace dsn
