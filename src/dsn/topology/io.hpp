// Topology import/export: Graphviz DOT (for visual inspection), a plain
// edge-list format (one "u v role" line per link) for interchange with other
// tools, and a round-trip parser for the edge-list format.
#pragma once

#include <iosfwd>
#include <string>

#include "dsn/topology/topology.hpp"

namespace dsn {

/// Graphviz DOT with link roles as edge colors (shortcuts red, ring black,
/// express blue, up/extra dashed).
std::string to_dot(const Topology& topo);

/// Plain edge list: header line "# dsn-topology <name> <kind> <n> [dims...]",
/// then one "u v role" line per link.
std::string to_edge_list(const Topology& topo);

/// Parse the edge-list format produced by to_edge_list (dsn/common/
/// text_records.hpp). Blank and '#' lines after the header are skipped;
/// every other line must be exactly "u v role" with distinct decimal ids
/// below n. Throws PreconditionError on malformed input, naming the 1-based
/// line number, its text and what was expected.
Topology read_edge_list(std::istream& is);
Topology parse_edge_list(const std::string& text);

}  // namespace dsn
