// Machine-room floorplan and cable-length model (paper §VI-B).
//
// Cabinets are aligned on a 2-D grid with q = ceil(sqrt(m)) rows and
// ceil(m/q) cabinets per row. Each cabinet is 0.6 m wide and 2.1 m deep
// including aisle space (HP recommendation [21]) and holds 16 switches.
// Inter-cabinet cable length is the Manhattan distance between cabinet
// positions plus a 2 m wiring overhead; intra-cabinet cables are 2 m
// (Kim/Dally/Abts cost model [22]). Host-to-switch cables are constant and
// ignored, as in the paper.
#pragma once

#include <cstdint>
#include <vector>

#include "dsn/topology/topology.hpp"

namespace dsn {

struct MachineRoomConfig {
  double cabinet_width_m = 0.6;
  double cabinet_depth_m = 2.1;  ///< includes aisle space
  std::uint32_t switches_per_cabinet = 16;
  double intra_cabinet_cable_m = 2.0;
  double inter_cabinet_overhead_m = 2.0;
};

/// How node ids map onto cabinets.
enum class PlacementStrategy {
  /// Consecutive node ids fill cabinets in order; cabinets fill the grid
  /// row-major. Natural for ring-based topologies (DSN, DLN, RANDOM).
  kLinear,
  /// 2-D grid/torus topologies tile their coordinate plane onto cabinets
  /// (near-square tiles of switches per cabinet). Requires topo.dims of
  /// rank 2. This is the conventional torus floor layout.
  kGrid2D,
};

/// The conventional placement of a topology: kGrid2D when its dims have
/// rank 2 (2-D meshes/tori), kLinear otherwise.
PlacementStrategy default_placement(const Topology& topo);

/// Physical placement of every switch on the floor: the one §VI-B cable
/// model behind every cable figure, the wire-latency estimate and the
/// placement annealer.
class FloorLayout {
 public:
  FloorLayout(const Topology& topo, const MachineRoomConfig& config,
              PlacementStrategy strategy);

  /// Explicit placement on the kLinear cabinet grid: node v sits in slot
  /// slot_of[v], and slot s in cabinet s / switches_per_cabinet.
  FloorLayout(const Topology& topo, const MachineRoomConfig& config,
              const std::vector<std::uint32_t>& slot_of);

  std::uint32_t num_cabinets() const { return num_cabinets_; }
  std::uint32_t rows() const { return rows_; }
  std::uint32_t cols() const { return cols_; }

  /// Cabinet (row, col) of a switch.
  std::pair<std::uint32_t, std::uint32_t> cabinet_of(NodeId v) const;

  /// Cable length in meters between two switches under the model.
  double cable_length_m(NodeId u, NodeId v) const;

  /// Exchange the cabinets of two switches.
  void swap_nodes(NodeId a, NodeId b);

  const MachineRoomConfig& config() const { return config_; }

 private:
  /// Put v in slot `slot` of the kLinear grid.
  void seat(NodeId v, std::uint32_t slot);

  MachineRoomConfig config_;
  std::uint32_t num_cabinets_ = 0;
  std::uint32_t rows_ = 0;
  std::uint32_t cols_ = 0;
  std::vector<std::uint32_t> cab_row_;  // per node
  std::vector<std::uint32_t> cab_col_;
};

/// Aggregate cabling statistics of a topology under a layout.
struct CableReport {
  double total_m = 0.0;
  double average_m = 0.0;
  double max_m = 0.0;
  std::uint64_t intra_cabinet_links = 0;
  std::uint64_t inter_cabinet_links = 0;
  std::vector<double> per_link_m;  ///< parallel to graph link ids
};

CableReport compute_cable_report(const Topology& topo, const FloorLayout& layout);

/// Convenience: the cable report under default_placement(topo).
CableReport compute_cable_report(const Topology& topo,
                                 const MachineRoomConfig& config = {});

/// Theorem 2b's 1-D line model: nodes evenly spaced (distance 1) on a line;
/// link length is |u - v|. Reports the average length over shortcut-role
/// links and the total length over all links.
struct LineCableStats {
  double avg_shortcut_length = 0.0;  ///< mean |u - v| over shortcut links
  /// Mean *designed span* (minimum ring distance) over shortcut links — the
  /// quantity Theorem 2b bounds by ~n/p; the line metric additionally pays
  /// for shortcuts that wrap past node 0.
  double avg_shortcut_span = 0.0;
  double total_length = 0.0;
  std::uint64_t shortcut_links = 0;
};
LineCableStats compute_line_cable_stats(const Topology& topo);

}  // namespace dsn
