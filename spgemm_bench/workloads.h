// The three workloads. Each sets itself up several times (setup_s is the
// median), measures for Options::seconds against the paired reference, and
// checks every output.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>

#include "common/memory.h"
#include "spans.h"
#include "stats.h"

namespace spgemm_bench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for the traced run's span log; empty writes none.
  std::string trace_dir;
  /// Smaller inputs (self-test only).
  bool small = false;
  /// Set-ups per run; setup_s is their median.
  int setups = 3;
  /// Self-test hooks. `delay_factor` stretches each measured op to that
  /// multiple of its own time inside the timed region; `perturb_op`
  /// corrupts the output of that measured op before it is checked.
  double delay_factor = 1.0;
  long perturb_op = -1;
};

/// Writes the traced run's span log into Options::trace_dir; returns the
/// path, or why there is none.
inline std::string write_span_log(const Options& opt, const SpanLog& log) {
  if (opt.trace_dir.empty()) return "(not written)";
  const std::string path =
      opt.trace_dir + "/" + opt.workload + "_seed" + std::to_string(opt.seed) + ".json";
  return log.write_json(path) ? path : "(write failed: " + path + ")";
}

/// Library threads for fem_square and masked_triangles, and the service's
/// worker count (each with a one-thread team).
inline constexpr int kLibraryThreads = 2;
inline constexpr int kServiceWorkers = 2;

Report run_fem_square(const Options& opt);
Report run_masked_triangles(const Options& opt);
Report run_service_mixed(const Options& opt);

/// OpenMP team size the workload's process must start with.
inline int team_size_for(const std::string& workload) {
  return workload == "service_mixed" ? 1 : kLibraryThreads;
}

using Clock = std::chrono::steady_clock;

inline constexpr double kMB = 1024.0 * 1024.0;

/// Live tracked bytes at `begin()` plus the high-water mark above them
/// since then: the peak of MemoryTracker's live bytes over the interval.
class TrackedPeak {
 public:
  void begin() {
    baseline_ = tsg::MemoryTracker::instance().current();
    tsg::MemoryTracker::instance().reset();
  }
  double mb() const {
    return static_cast<double>(baseline_ + tsg::MemoryTracker::instance().peak()) / kMB;
  }

 private:
  std::int64_t baseline_ = 0;
};

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Busy-waits until `until` (the injected-delay hook; a sleep would be too
/// coarse for sub-millisecond ops).
inline void spin_until(Clock::time_point until) {
  while (Clock::now() < until) {
  }
}

}  // namespace spgemm_bench
