// Chrome-trace-format event capture. A TraceWriter buffers duration (B/E)
// and counter (C) events and serialises them as the JSON object format
// Perfetto / chrome://tracing load directly:
//
//   {"traceEvents":[{"name":"sim.run","ph":"B","pid":1,"tid":0,"ts":12.5},...],
//    "displayTimeUnit":"ms"}
//
// Timestamps are microseconds (double) from the writer's start. Thread ids
// are the dense dsn::obs::thread_index() values, with thread_name metadata
// (M events) attached by set_current_thread_name so ThreadPool workers show
// up as "pool-worker-N" tracks.
//
// One process-wide writer is active at a time (start_trace/stop_trace); the
// TracedSpan RAII type captures the active writer at construction so a span
// that outlives stop_trace stays balanced within the writer it started in.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "dsn/common/mutex.hpp"
#include "dsn/common/thread_annotations.hpp"

namespace dsn::obs {

class TraceWriter {
 public:
  TraceWriter();
  TraceWriter(const TraceWriter&) = delete;
  TraceWriter& operator=(const TraceWriter&) = delete;

  /// Duration events; ts defaults to "now" relative to writer start.
  void begin(const std::string& name);
  void end(const std::string& name);
  /// Counter track sample (renders as a stacked area chart).
  void counter(const std::string& name, double value);
  /// Thread-name metadata for the calling thread's track.
  void name_current_thread(const std::string& name);
  /// Thread-name metadata for an explicit tid (used to replay names recorded
  /// before this writer existed).
  void name_thread(std::uint32_t tid, const std::string& name);

  /// Microseconds since this writer was constructed.
  double now_us() const;

  /// Serialise all buffered events as Chrome-trace JSON.
  std::string to_json() const;
  /// to_json() to a file; throws dsn::PreconditionError on I/O failure.
  void write_file(const std::string& path) const;

 private:
  struct Event {
    std::string name;
    char ph;                 ///< 'B', 'E', 'C', 'M'
    std::uint32_t tid;
    double ts;
    double value;            ///< C only
    std::string meta_value;  ///< M only (thread_name arg)
  };

  void push(Event event);

  mutable Mutex mutex_;
  std::vector<Event> events_ DSN_GUARDED_BY(mutex_);
  std::chrono::steady_clock::time_point start_;
};

/// The process-wide active writer, or nullptr when tracing is off.
TraceWriter* active_trace();

/// Install a fresh process-wide writer. Returns it (also reachable via
/// active_trace()). A previously active writer is retired but kept alive so
/// spans that captured it stay valid.
TraceWriter& start_trace();

/// Detach the active writer and write it to `path`. No-op (returns false)
/// when tracing was never started.
bool stop_trace(const std::string& path);

/// Convenience: name the calling thread's track on the active writer (no-op
/// when tracing is off) and remember the name for writers started later.
void set_current_thread_name(const std::string& name);

/// RAII B/E span on the writer active at construction time. Null writer
/// (tracing off) makes both ends no-ops.
class TracedSpan {
 public:
  explicit TracedSpan(const char* name) : name_(name), writer_(active_trace()) {
    if (writer_ != nullptr) writer_->begin(name_);
  }
  ~TracedSpan() {
    if (writer_ != nullptr) writer_->end(name_);
  }
  TracedSpan(const TracedSpan&) = delete;
  TracedSpan& operator=(const TracedSpan&) = delete;

 private:
  std::string name_;
  TraceWriter* writer_;
};

}  // namespace dsn::obs
