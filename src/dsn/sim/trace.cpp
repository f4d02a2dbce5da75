// dsn-slint: deterministic — output feeds byte-identical replay/merge gates;
// traversal order here must be a function of the data, never a hash seed.
#include "dsn/sim/trace.hpp"

#include <algorithm>
#include <limits>
#include <sstream>

#include "dsn/common/text_records.hpp"

namespace dsn {

std::vector<TraceEntry> parse_injection_trace_text(const std::string& text) {
  constexpr std::uint64_t kMaxHost = std::numeric_limits<HostId>::max();
  std::istringstream is(text);
  std::vector<TraceEntry> trace;
  for_each_record(is, "trace", "cycle src dst", 0, [&](const TextRecord& r) {
    trace.push_back({r.unsigned_field(0, "cycle", std::numeric_limits<std::uint64_t>::max()),
                     static_cast<HostId>(r.unsigned_field(1, "src", kMaxHost)),
                     static_cast<HostId>(r.unsigned_field(2, "dst", kMaxHost))});
  });
  std::stable_sort(trace.begin(), trace.end(),
                   [](const TraceEntry& a, const TraceEntry& b) { return a.cycle < b.cycle; });
  return trace;
}

std::string format_injection_trace(const std::vector<TraceEntry>& trace) {
  std::ostringstream os;
  os << "# cycle src_host dst_host\n";
  for (const TraceEntry& e : trace) {
    os << e.cycle << " " << e.src << " " << e.dst << "\n";
  }
  return os.str();
}

FaultSchedule parse_fault_schedule_text(const std::string& text) {
  std::istringstream is(text);
  FaultSchedule schedule;
  for_each_record(is, "fault schedule", "cycle kind id", 0, [&](const TextRecord& r) {
    const std::uint64_t cycle =
        r.unsigned_field(0, "cycle", std::numeric_limits<std::uint64_t>::max());
    constexpr FaultKind kKinds[] = {FaultKind::kLinkDown, FaultKind::kLinkUp,
                                    FaultKind::kSwitchDown, FaultKind::kSwitchUp};
    const FaultKind kind = r.word_field(1, "fault kind", kKinds, fault_kind_name);
    const auto id = static_cast<std::uint32_t>(
        r.unsigned_field(2, "id", std::numeric_limits<std::uint32_t>::max()));
    schedule.add({cycle, kind, id});
  });
  return schedule;
}

std::string format_fault_schedule(const FaultSchedule& schedule) {
  std::ostringstream os;
  os << "# cycle kind link_or_switch_id\n";
  for (const FaultEvent& e : schedule.events()) {
    os << e.cycle << " " << fault_kind_name(e.kind) << " " << e.id << "\n";
  }
  return os.str();
}

}  // namespace dsn

