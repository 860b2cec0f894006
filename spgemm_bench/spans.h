// In-memory span log for the traced run: the benchmark records a span
// around each call it makes into a layer's public function. Spans of one
// op or request share its id; `parent` links a span to the one that caused
// it. Nothing is written until the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

namespace spgemm_bench {

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  std::uint64_t id = 0;
  double ms() const { return static_cast<double>(end_ns - start_ns) * 1e-6; }
};

class SpanLog {
 public:
  using Clock = std::chrono::steady_clock;

  int begin(const char* name, std::uint64_t id, int parent = -1) {
    spans_.push_back({name, now_ns(), 0, parent, id});
    return static_cast<int>(spans_.size()) - 1;
  }
  void end(int span) { spans_[static_cast<std::size_t>(span)].end_ns = now_ns(); }
  /// A span whose interval was measured elsewhere (e.g. from a timestamp
  /// taken on another thread).
  int add(const char* name, std::uint64_t id, Clock::time_point start, Clock::time_point end,
          int parent = -1) {
    spans_.push_back({name, ns(start), ns(end), parent, id});
    return static_cast<int>(spans_.size()) - 1;
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Summed duration of every span with this name, in ms.
  double total_ms(const std::string& name) const {
    double t = 0.0;
    for (const Span& s : spans_) {
      if (name == s.name) t += s.ms();
    }
    return t;
  }

  /// Chrome trace_event JSON (loadable in Perfetto): one complete event per
  /// span, the op/request id as the track, the parent index as an arg.
  bool write_json(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    out << "{\"traceEvents\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i ? ",\n" : "") << "{\"name\": \"" << s.name << "\", \"ph\": \"X\", \"pid\": 1"
          << ", \"tid\": " << s.id << ", \"ts\": " << static_cast<double>(s.start_ns) * 1e-3
          << ", \"dur\": " << static_cast<double>(s.end_ns - s.start_ns) * 1e-3
          << ", \"args\": {\"span\": " << i << ", \"parent\": " << s.parent << "}}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
  }

 private:
  std::int64_t ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_).count();
  }
  std::int64_t now_ns() const { return ns(Clock::now()); }

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

}  // namespace spgemm_bench
