#include "dsn/topology/io.hpp"

#include <map>
#include <optional>
#include <ostream>
#include <sstream>

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

std::optional<LinkRole> role_from_string(const std::string& s) {
  static const std::map<std::string, LinkRole> kMap = {
      {"ring", LinkRole::kRing},       {"wrap", LinkRole::kWrap},
      {"shortcut", LinkRole::kShortcut}, {"dlocal", LinkRole::kDLocal},
      {"up", LinkRole::kUp},           {"extra", LinkRole::kExtra}};
  const auto it = kMap.find(s);
  if (it == kMap.end()) return std::nullopt;
  return it->second;
}

TopologyKind kind_from_string(const std::string& s) {
  for (const TopologyKind k :
       {TopologyKind::kRing, TopologyKind::kTorus2D, TopologyKind::kTorus3D,
        TopologyKind::kDln, TopologyKind::kDlnRandom, TopologyKind::kKleinberg,
        TopologyKind::kRandomRegular, TopologyKind::kDsn, TopologyKind::kDsnD,
        TopologyKind::kDsnE, TopologyKind::kDsnFlex, TopologyKind::kDsnBidir}) {
    if (s == to_string(k)) return k;
  }
  throw PreconditionError("unknown topology kind: " + s);
}

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

void write_edge_list(std::ostream& os, const Topology& topo) {
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
}

std::string to_edge_list(const Topology& topo) {
  std::ostringstream os;
  write_edge_list(os, topo);
  return os.str();
}

Topology read_edge_list(std::istream& is) {
  std::string line;
  DSN_REQUIRE(static_cast<bool>(std::getline(is, line)), "empty topology stream");
  std::istringstream header(line);
  std::string hash, magic, name, kind_str;
  std::uint32_t n = 0;
  header >> hash >> magic >> name >> kind_str >> n;
  DSN_REQUIRE(hash == "#" && magic == "dsn-topology" && n > 0,
              "bad edge-list header: " + line);

  Topology topo;
  topo.name = name;
  topo.kind = kind_from_string(kind_str);
  topo.graph = Graph(n);
  std::uint32_t dim = 0;
  while (header >> dim) topo.dims.push_back(dim);
  DSN_REQUIRE(header.eof(), "bad edge-list header (dims must be numbers): " + line);

  // Every non-blank line after the header is exactly "u v role"; anything
  // else is refused with its line number rather than ending the link list.
  std::size_t lineno = 1;
  while (std::getline(is, line)) {
    ++lineno;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    const auto where = [&] { return "edge-list line " + std::to_string(lineno) + ": " + line; };
    std::istringstream fields(line);
    NodeId u = 0, v = 0;
    std::string word, rest;
    DSN_REQUIRE(static_cast<bool>(fields >> u >> v >> word) && !(fields >> rest),
                "malformed " + where() + " (expected \"u v role\")");
    DSN_REQUIRE(u < n && v < n,
                "node id out of range for n = " + std::to_string(n) + " on " + where());
    DSN_REQUIRE(u != v, "self loop on " + where());
    const std::optional<LinkRole> role = role_from_string(word);
    DSN_REQUIRE(role.has_value(), "unknown link role '" + word + "' on " + where());
    topo.graph.add_link(u, v);
    topo.link_roles.push_back(*role);
  }
  return topo;
}

Topology parse_edge_list(const std::string& text) {
  std::istringstream is(text);
  return read_edge_list(is);
}

}  // namespace dsn
