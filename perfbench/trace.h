// In-memory span recorder for the traced benchmark run.
//
// A span is one timed call into a layer of cloudmap: a name
// ("<module>.<call>"), start and end on the steady clock, the span that was
// open on the same thread when it started (its parent), and a request id
// shared by every span that serves one request. Spans are kept in memory
// and written out once, as Chrome trace-event JSON, when the run ends.
//
// Recording is switched per measurement round. While it is off a Span
// reads no clock and stores nothing, so an untraced round runs the same
// code as a run without a tracer.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct SpanRecord {
  const char* name = "";  // a string literal
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::uint64_t request = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t thread = 0;
};

class Tracer {
 public:
  void set_recording(bool on) { recording_.store(on); }
  bool recording() const { return recording_.load(std::memory_order_relaxed); }

  std::vector<SpanRecord> spans() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return {spans_.begin(), spans_.end()};
  }

  // Chrome trace-event JSON ("X" complete events, microsecond times); the
  // span id, parent and request ride in each event's args.
  bool write_json(const std::string& path) const;

 private:
  friend class Span;
  std::uint64_t next_id() { return ids_.fetch_add(1) + 1; }
  void add(const SpanRecord& record) {
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(record);
  }

  std::atomic<bool> recording_{false};
  std::atomic<std::uint64_t> ids_{0};
  mutable std::mutex mutex_;
  std::deque<SpanRecord> spans_;  // grows without moving what it holds
};

// RAII span: opens on construction, records on destruction. Nests through
// a per-thread stack, so a span's parent is the innermost span open on its
// thread when it started.
class Span {
 public:
  Span(Tracer& tracer, const char* name, std::uint64_t request = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_ = nullptr;  // null while recording is off
  SpanRecord record_;
};

// Per-span-name duration samples in milliseconds.
std::map<std::string, std::vector<double>> durations_ms(
    const std::vector<SpanRecord>& spans);

// Self time summed per module (the span-name prefix before the first dot),
// in milliseconds: each span's duration minus the time its direct children
// cover.
std::map<std::string, double> self_ms_by_module(
    const std::vector<SpanRecord>& spans);

// Percent of the summed duration of spans named `root` that no direct
// child span covers.
double unattributed_pct(const std::vector<SpanRecord>& spans,
                        const std::string& root);

}  // namespace perfbench
