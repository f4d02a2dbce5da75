#include "dsn/topology/io.hpp"

#include <limits>
#include <sstream>

#include "dsn/common/text_records.hpp"

namespace dsn {

namespace {

const char* dot_style(LinkRole role) {
  switch (role) {
    case LinkRole::kRing: return "color=black";
    case LinkRole::kWrap: return "color=gray,style=dashed";
    case LinkRole::kShortcut: return "color=red";
    case LinkRole::kDLocal: return "color=blue";
    case LinkRole::kUp: return "color=green,style=dashed";
    case LinkRole::kExtra: return "color=orange,style=dashed";
  }
  return "";
}

constexpr LinkRole kRoles[] = {LinkRole::kRing,   LinkRole::kWrap, LinkRole::kShortcut,
                               LinkRole::kDLocal, LinkRole::kUp,   LinkRole::kExtra};
constexpr TopologyKind kKinds[] = {
    TopologyKind::kRing,          TopologyKind::kTorus2D, TopologyKind::kTorus3D,
    TopologyKind::kDln,           TopologyKind::kDlnRandom, TopologyKind::kKleinberg,
    TopologyKind::kRandomRegular, TopologyKind::kDsn,     TopologyKind::kDsnD,
    TopologyKind::kDsnE,          TopologyKind::kDsnFlex, TopologyKind::kDsnBidir};
constexpr std::uint64_t kMaxId = std::numeric_limits<NodeId>::max();

}  // namespace

std::string to_dot(const Topology& topo) {
  std::ostringstream os;
  os << "graph \"" << topo.name << "\" {\n";
  os << "  layout=circo;\n  node [shape=circle, fontsize=10];\n";
  for (LinkId l = 0; l < topo.graph.num_links(); ++l) {
    const auto [u, v] = topo.graph.link_endpoints(l);
    const LinkRole role =
        l < topo.link_roles.size() ? topo.link_roles[l] : LinkRole::kRing;
    os << "  " << u << " -- " << v << " [" << dot_style(role) << "];\n";
  }
  os << "}\n";
  return os.str();
}

std::string to_edge_list(const Topology& topo) {
  std::ostringstream os;
  os << "# dsn-topology " << topo.name << " " << to_string(topo.kind) << " "
     << topo.num_nodes();
  for (const auto d : topo.dims) os << " " << d;
  os << "\n";
  for (LinkId l = 0; l < topo.graph.num_links(); ++l) {
    const auto [u, v] = topo.graph.link_endpoints(l);
    const LinkRole role =
        l < topo.link_roles.size() ? topo.link_roles[l] : LinkRole::kRing;
    os << u << " " << v << " " << to_string(role) << "\n";
  }
  return os.str();
}

Topology read_edge_list(std::istream& is) {
  std::string line;
  std::getline(is, line);  // an empty stream leaves `line` empty: refused below
  const TextRecord header("edge-list", 1, line);
  if (header.size() < 5 || header.field(0) != "#" || header.field(1) != "dsn-topology") {
    header.refuse("\"# dsn-topology <name> <kind> <n> [dims...]\"");
  }
  Topology topo;
  topo.name = header.field(2);
  topo.kind = header.word_field(3, "topology kind", kKinds, to_string);
  const auto n = static_cast<NodeId>(header.unsigned_field(4, "n", kMaxId));
  if (n == 0) header.refuse("n > 0");
  topo.graph = Graph(n);
  for (std::size_t i = 5; i < header.size(); ++i) {
    topo.dims.push_back(static_cast<std::uint32_t>(header.unsigned_field(i, "dims", kMaxId)));
  }

  for_each_record(is, "edge-list", "u v role", 1, [&](const TextRecord& r) {
    const auto u = static_cast<NodeId>(r.unsigned_field(0, "u", kMaxId));
    const auto v = static_cast<NodeId>(r.unsigned_field(1, "v", kMaxId));
    if (u >= n || v >= n) {
      r.refuse("ids below " + std::to_string(n),
               "node id out of range for n = " + std::to_string(n));
    }
    if (u == v) r.refuse("two distinct nodes", "self loop");
    const LinkRole role = r.word_field(2, "link role", kRoles, to_string);
    topo.graph.add_link(u, v);
    topo.link_roles.push_back(role);
  });
  return topo;
}

Topology parse_edge_list(const std::string& text) {
  std::istringstream is(text);
  return read_edge_list(is);
}

}  // namespace dsn
