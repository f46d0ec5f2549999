#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

namespace perfbench {
namespace {

std::uint32_t thread_number() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t number = next.fetch_add(1) + 1;
  return number;
}

thread_local std::vector<std::uint64_t> open_spans;

std::string module_of(const char* name) {
  const std::string text(name);
  return text.substr(0, text.find('.'));
}

}  // namespace

Span::Span(Tracer& tracer, const char* name, std::uint64_t request) {
  if (!tracer.recording()) return;
  tracer_ = &tracer;
  record_.name = name;
  record_.id = tracer.next_id();
  record_.parent = open_spans.empty() ? 0 : open_spans.back();
  record_.request = request;
  record_.thread = thread_number();
  open_spans.push_back(record_.id);
  record_.start_ns = now_ns();
}

Span::~Span() {
  if (tracer_ == nullptr) return;
  record_.end_ns = now_ns();
  open_spans.pop_back();
  tracer_->add(record_);
}

bool Tracer::write_json(const std::string& path) const {
  const std::vector<SpanRecord> all = spans();
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  const std::int64_t origin =
      all.empty() ? 0
                  : std::min_element(all.begin(), all.end(),
                                     [](const auto& a, const auto& b) {
                                       return a.start_ns < b.start_ns;
                                     })->start_ns;
  std::fprintf(out, "{\"traceEvents\": [");
  for (std::size_t i = 0; i < all.size(); ++i) {
    const SpanRecord& s = all[i];
    std::fprintf(out,
                 "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                 "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                 "{\"id\": %llu, \"parent\": %llu, \"request\": %llu}}",
                 i == 0 ? "" : ",", s.name, s.thread,
                 static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request));
  }
  std::fprintf(out, "\n], \"displayTimeUnit\": \"ms\"}\n");
  return std::fclose(out) == 0;
}

std::map<std::string, std::vector<double>> durations_ms(
    const std::vector<SpanRecord>& spans) {
  std::map<std::string, std::vector<double>> out;
  for (const SpanRecord& s : spans)
    out[s.name].push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e6);
  return out;
}

namespace {

// Summed duration of each span's direct children, keyed by parent id.
std::unordered_map<std::uint64_t, std::int64_t> child_ns(
    const std::vector<SpanRecord>& spans) {
  std::unordered_map<std::uint64_t, std::int64_t> covered;
  for (const SpanRecord& s : spans)
    if (s.parent != 0) covered[s.parent] += s.end_ns - s.start_ns;
  return covered;
}

}  // namespace

std::map<std::string, double> self_ms_by_module(
    const std::vector<SpanRecord>& spans) {
  const auto covered = child_ns(spans);
  std::map<std::string, double> out;
  for (const SpanRecord& s : spans) {
    const auto it = covered.find(s.id);
    const std::int64_t self =
        (s.end_ns - s.start_ns) - (it == covered.end() ? 0 : it->second);
    out[module_of(s.name)] +=
        static_cast<double>(std::max<std::int64_t>(self, 0)) / 1e6;
  }
  return out;
}

double unattributed_pct(const std::vector<SpanRecord>& spans,
                        const std::string& root) {
  const auto covered = child_ns(spans);
  double total = 0.0;
  double uncovered = 0.0;
  for (const SpanRecord& s : spans) {
    if (root != s.name) continue;
    const auto it = covered.find(s.id);
    const std::int64_t duration = s.end_ns - s.start_ns;
    total += static_cast<double>(duration);
    uncovered += static_cast<double>(
        duration - (it == covered.end() ? 0 : it->second));
  }
  return total > 0.0 ? 100.0 * uncovered / total : 0.0;
}

}  // namespace perfbench
