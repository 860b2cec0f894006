#include "host.h"

#include <sched.h>

#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "core/simd_dispatch.h"

namespace spgemm_bench {

int process_threads() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
  }
  return -1;
}

int cpu_budget() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) return CPU_COUNT(&set);
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

CpuSample CpuSample::now() {
  CpuSample s;
  std::ifstream stat("/proc/stat");
  std::string cpu;
  std::uint64_t user = 0, nice = 0, system = 0, idle = 0, iowait = 0, irq = 0, softirq = 0,
                steal = 0;
  if (stat >> cpu >> user >> nice >> system >> idle >> iowait >> irq >> softirq >> steal) {
    s.busy = user + nice + system + irq + softirq;
    s.steal = steal;
    s.total = s.busy + idle + iowait + steal;
  }
  std::ifstream load("/proc/loadavg");
  load >> s.loadavg1;
  return s;
}

void add_host_fingerprint(Report& report) {
  std::string model = "unknown";
  std::ifstream info("/proc/cpuinfo");
  for (std::string line; std::getline(info, line);) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) model = line.substr(colon + 2);
      break;
    }
  }
  report.detail("host.cpu", model);
  report.detail("host.nproc", std::to_string(cpu_budget()));
  report.detail("host.simd_detected", tsg::simd::level_name(tsg::simd::detected_level()));
  report.detail("host.simd_effective", tsg::simd::level_name(tsg::simd::active_level()));
#if defined(__clang__)
  report.detail("host.compiler", std::string("clang ") + __VERSION__);
#else
  report.detail("host.compiler", std::string("g++ ") + __VERSION__);
#endif
  report.detail("host.build_type", SPGEMM_BENCH_BUILD_TYPE);
}

void add_host_drift(Report& report, const CpuSample& begin, const CpuSample& end) {
  const double total = static_cast<double>(end.total - begin.total);
  if (total > 0) {
    report.detail("host.busy_share", static_cast<double>(end.busy - begin.busy) / total);
    report.detail("host.steal_share", static_cast<double>(end.steal - begin.steal) / total);
  }
  report.detail("host.loadavg1_begin", begin.loadavg1);
  report.detail("host.loadavg1_end", end.loadavg1);
}

void add_thread_check(Report& report, const ThreadWatch& watch) {
  report.detail("threads.peak", std::to_string(watch.peak()));
  report.detail("threads.budget", std::to_string(watch.budget()));
  if (!watch.within_budget()) {
    report.error("thread budget exceeded: " + std::to_string(watch.peak()) + " threads > " +
                 std::to_string(watch.budget()));
  }
}

}  // namespace spgemm_bench
