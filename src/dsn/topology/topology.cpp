#include "dsn/topology/topology.hpp"

#include <cctype>

namespace dsn {

const char* to_string(TopologyKind kind) {
  switch (kind) {
    case TopologyKind::kRing: return "ring";
    case TopologyKind::kTorus2D: return "torus2d";
    case TopologyKind::kTorus3D: return "torus3d";
    case TopologyKind::kDln: return "dln";
    case TopologyKind::kDlnRandom: return "dln-random";
    case TopologyKind::kKleinberg: return "kleinberg";
    case TopologyKind::kRandomRegular: return "random-regular";
    case TopologyKind::kDsn: return "dsn";
    case TopologyKind::kDsnD: return "dsn-d";
    case TopologyKind::kDsnE: return "dsn-e";
    case TopologyKind::kDsnFlex: return "dsn-flex";
    case TopologyKind::kDsnBidir: return "dsn-bidir";
  }
  return "unknown";
}

const char* to_string(LinkRole role) {
  switch (role) {
    case LinkRole::kRing: return "ring";
    case LinkRole::kShortcut: return "shortcut";
    case LinkRole::kUp: return "up";
    case LinkRole::kExtra: return "extra";
    case LinkRole::kDLocal: return "dlocal";
    case LinkRole::kWrap: return "wrap";
  }
  return "unknown";
}

std::vector<std::uint64_t> name_numbers(std::string_view name) {
  std::vector<std::uint64_t> out;
  std::uint64_t cur = 0;
  bool in_number = false;
  for (const char c : name) {
    if (std::isdigit(static_cast<unsigned char>(c)) != 0) {
      cur = cur * 10 + static_cast<std::uint64_t>(c - '0');
      in_number = true;
    } else if (in_number) {
      out.push_back(cur);
      cur = 0;
      in_number = false;
    }
  }
  if (in_number) out.push_back(cur);
  return out;
}

}  // namespace dsn
