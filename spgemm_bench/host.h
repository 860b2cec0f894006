// Host fingerprint and drift diagnostics: what a reader needs to tell a
// host change from a program change, plus the thread-budget probe.
#pragma once

#include <cstdint>
#include <string>

#include "stats.h"

namespace spgemm_bench {

/// Threads the process has right now (the `Threads:` line of
/// /proc/self/status); -1 where that file is unavailable.
int process_threads();

/// Online CPUs this process may run on.
int cpu_budget();

/// Tracks the highest thread count seen at the probe points of a run.
class ThreadWatch {
 public:
  explicit ThreadWatch(int budget) : budget_(budget) {}
  void probe() {
    const int n = process_threads();
    if (n > peak_) peak_ = n;
  }
  int peak() const { return peak_; }
  int budget() const { return budget_; }
  bool within_budget() const { return peak_ <= budget_; }

 private:
  int budget_;
  int peak_ = 0;
};

/// Aggregate CPU time counters from /proc/stat, for host load and steal
/// share over an interval.
struct CpuSample {
  std::uint64_t busy = 0;
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
  double loadavg1 = 0.0;
  static CpuSample now();
};

/// CPU model, nproc, SIMD levels, compiler and build type.
void add_host_fingerprint(Report& report);

/// Host busy share and steal share between two samples, plus load average.
void add_host_drift(Report& report, const CpuSample& begin, const CpuSample& end);

void add_thread_check(Report& report, const ThreadWatch& watch);

}  // namespace spgemm_bench
