// The benchmark's own tests: its statistics, its output schema, and proof
// that its checks can fail. Build and run with
//
//   python3 spgemm_bench/run.py --selftest
//
// Exit code 0 when every check passes.
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <iterator>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "layers.h"
#include "stats.h"
#include "workloads.h"

namespace {

using namespace spgemm_bench;

int g_failures = 0;

#define CHECK(cond)                                                            \
  do {                                                                         \
    if (!(cond)) {                                                             \
      std::cerr << __FILE__ << ":" << __LINE__ << ": CHECK failed: " #cond "\n"; \
      ++g_failures;                                                            \
    }                                                                          \
  } while (0)

double metric(const Report& r, const std::string& name) {
  for (const Metric& m : r.metrics) {
    if (m.name == name) return m.value;
  }
  std::cerr << "missing metric " << name << "\n";
  ++g_failures;
  return 0.0;
}

std::set<std::string> names(const Report& r) {
  std::set<std::string> out;
  for (const Metric& m : r.metrics) out.insert(m.name);
  return out;
}

const std::set<std::string> kEndToEnd = {"op_rel_p50",      "op_rel_p90",    "throughput_vs_ref",
                                         "peak_tracked_mb", "success_ratio", "setup_s"};

Options small(const std::string& workload) {
  Options o;
  o.workload = workload;
  o.seed = 7;
  o.seconds = 0.5;
  o.small = true;
  o.setups = 1;
  return o;
}

void test_percentile_rule() {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  CHECK(percentile(v, 0.5) == 50);
  CHECK(percentile(v, 0.9) == 90);
  CHECK(count_beyond(v, 0.9) == 10);
  CHECK(min_samples_for(0.9) == 100);
  v.pop_back();  // 99 samples: only 9 lie beyond the p90
  CHECK(count_beyond(v, 0.9) < kMinBeyond);
  CHECK(percentile({}, 0.5) == 0.0);
  CHECK(percentile({3.0}, 0.9) == 3.0);
}

void test_formulas() {
  const std::vector<double> op = {2.0, 6.0, 4.0};
  const std::vector<double> ref = {1.0, 2.0, 4.0};
  const std::vector<double> rel = paired_ratios(op, ref);
  CHECK(rel.size() == 3 && rel[0] == 2.0 && rel[1] == 3.0 && rel[2] == 1.0);
  CHECK(percentile(rel, 0.5) == 2.0);
  // sum(ref) / sum(op): the slow 6 ms op counts in full.
  CHECK(throughput_vs_ref(op, ref) == 7.0 / 12.0);
  // 500 req in 2 s against 400 ref ops in 1 s.
  CHECK(rate_ratio(500, 2.0, 400, 1.0) == 250.0 / 400.0);
}

void test_names() {
  CHECK(valid_metric_name("op_rel_p50"));
  CHECK(valid_metric_name("plan.bin_tiles.0"));
  CHECK(valid_metric_name("9x-y_z"));
  CHECK(!valid_metric_name(""));
  CHECK(!valid_metric_name("_lead"));
  CHECK(!valid_metric_name(".lead"));
  CHECK(!valid_metric_name("has space"));
  CHECK(!valid_metric_name("slash/no"));
  CHECK(!valid_metric_name(std::string(65, 'a')));
  CHECK(valid_metric_name(std::string(64, 'a')));
  CHECK(valid_unit("ms") && valid_unit("1/s") && valid_unit("%") && valid_unit("flop/B"));
  CHECK(!valid_unit("") && !valid_unit("x ref") && !valid_unit(std::string(17, 'u')));
  for (const LayerMetricDef& d : kLayerMetrics) {
    CHECK(valid_metric_name(d.name));
    CHECK(valid_unit(d.unit));
  }
}

void test_output_lines() {
  Report r;
  r.attempted = 3;
  r.metric("a.b", 1.5, "ms");
  r.metric("c", 2.0, "count");
  r.detail("note", "x");
  r.detail("note", "y");  // replaces, one line per key
  CHECK(r.schema_error().empty());
  std::ostringstream out;
  r.write(out);
  std::vector<std::string> lines;
  std::istringstream in(out.str());
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  int metric_lines = 0;
  for (const std::string& l : lines) {
    if (l.rfind("metric ", 0) == 0) ++metric_lines;
  }
  CHECK(metric_lines == 2);
  CHECK(std::count(lines.begin(), lines.end(), "detail note = y") == 1);
  CHECK(std::count(lines.begin(), lines.end(), "detail note = x") == 0);
  CHECK(std::count(lines.begin(), lines.end(), "metric a.b = 1.5 ms") == 1);
  CHECK(std::count(lines.begin(), lines.end(), "metric c = 2 count") == 1);
  CHECK(lines.back() ==
        "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"a.b\": "
        "{\"value\": 1.5, \"unit\": \"ms\"}, \"c\": {\"value\": 2, \"unit\": \"count\"}}}");

  Report dup = r;
  dup.metric("c", 3.0, "count");
  CHECK(!dup.schema_error().empty());
  Report bad_unit;
  bad_unit.attempted = 1;
  bad_unit.metric("x", 1.0, "x ref");
  CHECK(!bad_unit.schema_error().empty());
}

/// BENCHMARK.json must name exactly the metrics the program prints.
void test_benchmark_json() {
  std::ifstream in(SPGEMM_BENCH_SOURCE_DIR "/../BENCHMARK.json");
  if (!in) {
    std::cerr << "BENCHMARK.json not found next to spgemm_bench/\n";
    ++g_failures;
    return;
  }
  const std::string json((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  auto named = [&](const std::string& n) {
    return json.find("\"name\": \"" + n + "\"") != std::string::npos;
  };
  for (const std::string& n : kEndToEnd) CHECK(named(n));
  for (const LayerMetricDef& d : kLayerMetrics) {
    CHECK(named(d.name));
    CHECK(json.find("\"name\": \"" + std::string(d.name) + "\", \"unit\": \"" + d.unit + "\"") !=
          std::string::npos);
  }
  for (const char* w : {"fem_square", "masked_triangles", "service_mixed"}) CHECK(named(w));
}

void test_workload(Report (*run)(const Options&), const std::string& workload) {
  std::cerr << "  " << workload << "\n";
  const Report clean = run(small(workload));
  for (const std::string& e : clean.errors) std::cerr << "    error: " << e << "\n";
  CHECK(clean.correct);
  CHECK(clean.schema_error().empty());
  CHECK(names(clean) == kEndToEnd);
  CHECK(metric(clean, "success_ratio") == 1.0);
  CHECK(metric(clean, "op_rel_p50") > 0.0);
  CHECK(clean.failed == 0 && clean.attempted >= 100);

  Options perturbed = small(workload);
  perturbed.perturb_op = 3;
  const Report broken = run(perturbed);
  CHECK(!broken.correct);
  CHECK(broken.failed == 1);
  CHECK(metric(broken, "success_ratio") < 1.0);

  Options traced = small(workload);
  traced.trace = true;
  const Report t = run(traced);
  for (const std::string& e : t.errors) std::cerr << "    error: " << e << "\n";
  CHECK(t.correct);
  std::set<std::string> want;
  for (const LayerMetricDef& d : kLayerMetrics) want.insert(d.name);
  CHECK(names(t) == want);
}

/// A 2x slowdown injected inside the timed region must show as about 2x
/// in op_rel_p50: the benchmark can see a 2x regression.
void test_injected_delay() {
  Options base = small("fem_square");
  base.seconds = 1.0;
  Options slow = base;
  slow.delay_factor = 2.0;
  const double before = metric(run_fem_square(base), "op_rel_p50");
  const double after = metric(run_fem_square(slow), "op_rel_p50");
  const double factor = after / before;
  std::cerr << "  injected 2x delay: op_rel_p50 " << before << " -> " << after << " (x"
            << factor << ")\n";
  CHECK(factor > 1.7 && factor < 2.3);
}

}  // namespace

int main(int argc, char** argv) {
  (void)argc;
  // service_mixed needs one-thread OpenMP teams, fixed before the runtime
  // starts; the library workloads size theirs per context.
  if (const char* t = std::getenv("OMP_NUM_THREADS"); t == nullptr || std::strcmp(t, "1") != 0) {
    setenv("OMP_NUM_THREADS", "1", 1);
    execv("/proc/self/exe", argv);
    std::cerr << "re-exec failed\n";
    return 2;
  }
  test_percentile_rule();
  test_formulas();
  test_names();
  test_output_lines();
  test_benchmark_json();
  std::cerr << "workloads (small inputs):\n";
  // service_mixed first: the library workloads leave an idle OpenMP team
  // thread behind, which would count against the service's thread budget.
  test_workload(run_service_mixed, "service_mixed");
  test_workload(run_fem_square, "fem_square");
  test_workload(run_masked_triangles, "masked_triangles");
  test_injected_delay();
  if (g_failures > 0) {
    std::cerr << g_failures << " check(s) failed\n";
    return 1;
  }
  std::cerr << "all checks passed\n";
  return 0;
}
