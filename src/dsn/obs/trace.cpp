// dsn-slint: deterministic — output feeds byte-identical replay/merge gates;
// traversal order here must be a function of the data, never a hash seed.
#include "dsn/obs/trace.hpp"

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <utility>

#include "dsn/common/error.hpp"
#include "dsn/obs/metrics.hpp"

namespace dsn::obs {

namespace {

void append_escaped(std::string& out, const std::string& s) {
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

void append_number(std::string& out, double value) {
  std::ostringstream ss;
  ss.precision(3);
  ss << std::fixed << value;
  out += ss.str();
}

}  // namespace

TraceWriter::TraceWriter() : start_(std::chrono::steady_clock::now()) {
  events_.reserve(4096);
}

double TraceWriter::now_us() const {
  const auto elapsed = std::chrono::steady_clock::now() - start_;
  return std::chrono::duration<double, std::micro>(elapsed).count();
}

void TraceWriter::push(Event event) {
  LockGuard lock(mutex_);
  events_.push_back(std::move(event));
}

void TraceWriter::begin(const std::string& name) {
  push(Event{name, 'B', thread_index(), now_us(), 0.0, {}});
}

void TraceWriter::end(const std::string& name) {
  push(Event{name, 'E', thread_index(), now_us(), 0.0, {}});
}

void TraceWriter::counter(const std::string& name, double value) {
  push(Event{name, 'C', thread_index(), now_us(), value, {}});
}

void TraceWriter::name_current_thread(const std::string& name) {
  name_thread(thread_index(), name);
}

void TraceWriter::name_thread(std::uint32_t tid, const std::string& name) {
  push(Event{"thread_name", 'M', tid, 0.0, 0.0, name});
}

std::string TraceWriter::to_json() const {
  LockGuard lock(mutex_);
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  for (const Event& e : events_) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"";
    append_escaped(out, e.name);
    out += "\",\"ph\":\"";
    out += e.ph;
    out += "\",\"pid\":1,\"tid\":";
    out += std::to_string(e.tid);
    out += ",\"ts\":";
    append_number(out, e.ts);
    if (e.ph == 'C') {
      out += ",\"args\":{\"value\":";
      append_number(out, e.value);
      out += '}';
    } else if (e.ph == 'M') {
      out += ",\"args\":{\"name\":\"";
      append_escaped(out, e.meta_value);
      out += "\"}";
    }
    out += '}';
  }
  out += "],\"displayTimeUnit\":\"ms\"}";
  return out;
}

void TraceWriter::write_file(const std::string& path) const {
  std::ofstream file(path, std::ios::binary);
  DSN_REQUIRE(file.good(), "cannot open trace output file: " + path);
  file << to_json() << '\n';
  DSN_REQUIRE(file.good(), "failed writing trace output file: " + path);
}

namespace {

struct TraceState {
  Mutex mutex;
  std::atomic<TraceWriter*> active{nullptr};
  // Writers are never destroyed: spans capture raw pointers at construction
  // and may fire their E event after stop_trace. A trace session is a
  // handful of writers per process, so the leak is bounded and deliberate.
  std::vector<std::unique_ptr<TraceWriter>> writers DSN_GUARDED_BY(mutex);
  Mutex names_mutex;
  std::vector<std::pair<std::uint32_t, std::string>> thread_names
      DSN_GUARDED_BY(names_mutex);
};

TraceState& trace_state() {
  static TraceState* state = new TraceState();  // immortal: spans outlive main
  return *state;
}

}  // namespace

TraceWriter* active_trace() {
  return trace_state().active.load(std::memory_order_acquire);
}

TraceWriter& start_trace() {
  TraceState& state = trace_state();
  LockGuard lock(state.mutex);
  auto writer = std::make_unique<TraceWriter>();
  TraceWriter* raw = writer.get();
  state.writers.push_back(std::move(writer));
  {
    // Replay remembered thread names so tracks started before this writer
    // (e.g. pool workers spawned at startup) are still labelled.
    LockGuard names_lock(state.names_mutex);
    for (const auto& [tid, name] : state.thread_names) {
      raw->name_thread(tid, name);
    }
  }
  state.active.store(raw, std::memory_order_release);
  return *raw;
}

bool stop_trace(const std::string& path) {
  TraceState& state = trace_state();
  TraceWriter* writer = nullptr;
  {
    // Only the detach happens under the state lock; serialising to disk can
    // take milliseconds and must not block start_trace or thread renames.
    // The retired writer is immortal (see TraceState::writers) and has its
    // own mutex, so writing it outside the state lock is safe even while
    // straggler spans still append events.
    LockGuard lock(state.mutex);
    writer = state.active.load(std::memory_order_acquire);
    if (writer == nullptr) return false;
    state.active.store(nullptr, std::memory_order_release);
  }
  writer->write_file(path);
  return true;
}

void set_current_thread_name(const std::string& name) {
  TraceState& state = trace_state();
  const std::uint32_t tid = thread_index();
  {
    // Last-wins per tid: a thread renaming itself replaces its remembered
    // entry instead of appending, so writers started later replay exactly
    // one (current) name per track and repeated renames cannot grow the
    // list without bound.
    LockGuard names_lock(state.names_mutex);
    bool replaced = false;
    for (auto& [known_tid, known_name] : state.thread_names) {
      if (known_tid == tid) {
        known_name = name;
        replaced = true;
        break;
      }
    }
    if (!replaced) state.thread_names.emplace_back(tid, name);
  }
  TraceWriter* writer = active_trace();
  if (writer != nullptr) writer->name_current_thread(name);
}

}  // namespace dsn::obs
