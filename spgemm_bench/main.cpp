// spgemm_bench --workload NAME --seed N --seconds S --trace 0|1
//              [--trace-dir DIR]
//
// Runs one workload (fem_square, masked_triangles, service_mixed) and
// prints its metrics, one line each with its unit, then a JSON result as
// the last line of standard output. Exit code 0 when the run completed
// (the JSON's "correct" field says whether every output checked out), 2 on
// bad arguments.
#include <unistd.h>

#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "host.h"
#include "workloads.h"

namespace {

int usage() {
  std::cerr << "usage: spgemm_bench --workload fem_square|masked_triangles|service_mixed"
               " --seed N --seconds S --trace 0|1 [--trace-dir DIR]\n";
  return 2;
}

/// The OpenMP runtime reads its team size once, when it starts, and the
/// service's workers use that default. Re-executing with OMP_NUM_THREADS
/// set is the only way to size their teams before the runtime starts.
void ensure_team_size(int team, char** argv) {
  const std::string want = std::to_string(team);
  const char* have = std::getenv("OMP_NUM_THREADS");
  if (have != nullptr && want == have) return;
  setenv("OMP_NUM_THREADS", want.c_str(), 1);
  execv("/proc/self/exe", argv);
  std::cerr << "spgemm_bench: re-exec with OMP_NUM_THREADS=" << want
            << " failed: " << std::strerror(errno) << "\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace spgemm_bench;
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string val = argv[++i];
    try {
      if (arg == "--workload") {
        opt.workload = val;
      } else if (arg == "--seed") {
        opt.seed = std::stoull(val);
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(val);
      } else if (arg == "--trace") {
        opt.trace = val == "1";
      } else if (arg == "--trace-dir") {
        opt.trace_dir = val;
      } else {
        return usage();
      }
    } catch (const std::exception&) {
      return usage();
    }
  }
  Report (*run)(const Options&) = nullptr;
  if (opt.workload == "fem_square") run = run_fem_square;
  if (opt.workload == "masked_triangles") run = run_masked_triangles;
  if (opt.workload == "service_mixed") run = run_service_mixed;
  if (run == nullptr || !(opt.seconds > 0)) return usage();
  ensure_team_size(team_size_for(opt.workload), argv);

  Report report = run(opt);
  add_host_fingerprint(report);
  report.detail("workload", opt.workload);
  report.detail("seed", std::to_string(opt.seed));
  report.detail("omp_num_threads", std::getenv("OMP_NUM_THREADS"));
  if (const std::string bad = report.schema_error(); !bad.empty()) {
    std::cerr << "spgemm_bench: " << bad << "\n";
    return 1;
  }
  report.write(std::cout);
  return 0;
}
