// Ablation bench for the design choices Section 3.3 argues for, measured
// end-to-end on the representative suite (the kernel-level view lives in
// bench_micro_kernels):
//   2. adaptive vs always-sparse vs always-dense accumulator
//   2b. recomputed vs cached step-3 tile pairs
//   3. sensitivity to the tnnz threshold around the paper's 192
// Ablation 1, the set intersection, has no end-to-end switch: steps 2 and 3
// always use the stamped tile-row intersection. bench_micro_kernels times
// it against the paper's binary search (BM_IntersectStamp vs
// BM_IntersectBinary).
#include <algorithm>
#include <iostream>

#include "bench_common.h"
#include "common/timer.h"
#include "core/tile_spgemm.h"
#include "gen/representative.h"

namespace {

using namespace tsg;
using bench::BenchArgs;

double time_with(const TileMatrix<double>& t, const TileSpgemmOptions& opt, int reps) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    Timer timer;
    (void)tile_spgemm(t, t, opt);
    best = std::min(best, timer.milliseconds());
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args = BenchArgs::parse(argc, argv);
  const auto suite = gen::representative_suite();

  bench::print_header("Ablation 2: accumulator policy",
                      "Section 3.3: adaptive sparse/dense selection at tnnz=192");
  Table t2({"matrix", "adaptive ms", "always sparse ms", "always dense ms"});
  for (const auto& m : suite) {
    const TileMatrix<double> t = csr_to_tile(m.a);
    TileSpgemmOptions ad, sp, de;
    sp.accumulator = AccumulatorPolicy::kAlwaysSparse;
    de.accumulator = AccumulatorPolicy::kAlwaysDense;
    t2.add_row({m.name, fmt(time_with(t, ad, args.effective_reps())),
                fmt(time_with(t, sp, args.effective_reps())),
                fmt(time_with(t, de, args.effective_reps()))});
  }
  bench::emit(t2, args);

  bench::print_header("Ablation 2b: pair caching (deviates from the paper)",
                      "recompute the step-3 intersection (paper, zero global state) "
                      "vs cache step-2 pairs");
  Table t2b({"matrix", "recompute ms", "cached ms", "cached/recompute"});
  for (const auto& m : suite) {
    const TileMatrix<double> t = csr_to_tile(m.a);
    TileSpgemmOptions recompute, cached;
    cached.cache_pairs = true;
    const double ms_r = time_with(t, recompute, args.effective_reps());
    const double ms_c = time_with(t, cached, args.effective_reps());
    t2b.add_row({m.name, fmt(ms_r), fmt(ms_c), fmt(ms_c / ms_r) + "x"});
  }
  bench::emit(t2b, args);

  bench::print_header("Ablation 3: tnnz threshold sweep",
                      "the 75% rule: dense accumulation wins above ~192 of 256 nonzeros");
  Table t3({"tnnz", "SiO2 ms", "gupta3 ms", "pdb1HYS ms", "webbase-1M ms"});
  std::vector<const gen::NamedMatrix*> picks;
  for (const auto& m : suite) {
    if (m.name == "SiO2" || m.name == "gupta3" || m.name == "pdb1HYS" ||
        m.name == "webbase-1M") {
      picks.push_back(&m);
    }
  }
  for (index_t tnnz : {0, 64, 128, 192, 224, 255}) {
    std::vector<std::string> cells = {std::to_string(tnnz)};
    for (const auto* m : picks) {
      const TileMatrix<double> t = csr_to_tile(m->a);
      TileSpgemmOptions opt;
      opt.tnnz = tnnz;
      cells.push_back(fmt(time_with(t, opt, args.effective_reps())));
    }
    t3.add_row(cells);
  }
  bench::emit(t3, args);
  args.write_metrics();
  return 0;
}
