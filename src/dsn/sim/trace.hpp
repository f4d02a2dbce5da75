// Trace-driven injection: replay an explicit (cycle, src_host, dst_host)
// schedule instead of the open-loop Bernoulli generators — for reproducing
// application traces or constructing adversarial workloads in tests.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dsn/common/types.hpp"
#include "dsn/sim/fault.hpp"

namespace dsn {

struct TraceEntry {
  std::uint64_t cycle = 0;
  HostId src = 0;
  HostId dst = 0;
};

/// Parse a whitespace-separated trace ("cycle src dst" per line, unsigned
/// decimals; blank and '#' comment lines allowed; dsn/common/
/// text_records.hpp). Entries are sorted by cycle. Throws PreconditionError
/// naming the line on malformed input.
std::vector<TraceEntry> parse_injection_trace_text(const std::string& text);

/// Render a trace in the same format.
std::string format_injection_trace(const std::vector<TraceEntry>& trace);

/// Parse a fault schedule ("cycle kind id" per line with kind one of
/// link-down, link-up, switch-down, switch-up; blank and '#' comment lines
/// allowed). Entries are sorted by cycle. Throws PreconditionError naming
/// the line on malformed input.
FaultSchedule parse_fault_schedule_text(const std::string& text);

/// Render a schedule in the same format.
std::string format_fault_schedule(const FaultSchedule& schedule);

}  // namespace dsn
