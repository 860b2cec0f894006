// fem_square and masked_triangles: one warm SpgemmContext on
// kLibraryThreads threads, in a closed loop, each measured op paired with
// one reference op on the same operands (alternating which goes first).
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "core/simd_dispatch.h"
#include "core/spgemm_context.h"
#include "core/step1.h"
#include "core/tile_convert.h"
#include "host.h"
#include "inputs.h"
#include "layers.h"
#include "obs/metrics.h"
#include "reference.h"
#include "spans.h"
#include "workloads.h"

namespace spgemm_bench {

namespace {

using tsg::SpgemmContext;
using tsg::TileMatrix;
using tsg::TileSpgemmTimings;

/// Measuring stops here even when the p90 sample minimum is not reached;
/// the run then reports an error instead of a thin percentile.
constexpr double kMeasureCapSeconds = 120.0;

SpgemmContext::Config library_config() {
  return SpgemmContext::Config{}.with_threads(kLibraryThreads);
}

template <class T>
std::size_t tile_bytes(const TileMatrix<T>& m) {
  return m.tile_ptr.size() * sizeof(m.tile_ptr[0]) +
         m.tile_col_idx.size() * sizeof(m.tile_col_idx[0]) +
         m.tile_nnz.size() * sizeof(m.tile_nnz[0]) + m.row_ptr.size() + m.row_idx.size() +
         m.col_idx.size() + m.val.size() * sizeof(T) + m.mask.size() * sizeof(m.mask[0]);
}

/// What the traced ops accumulate: step timings returned by the context,
/// counters from registry deltas, and sizes of the last product.
struct LayerSums {
  double step1 = 0, plan = 0, step2 = 0, alloc = 0, step3 = 0;
  TileSpgemmTimings last;
  double intersect_pairs = 0, dense_acc = 0, sparse_acc = 0;
  std::vector<std::int64_t> imbalance_bounds;
  std::vector<std::int64_t> imbalance_counts;
  double c_bytes = 0, bytes_computed = 0;

  void add(const TileSpgemmTimings& t) {
    step1 += t.step1_ms;
    plan += t.plan_ms;
    step2 += t.step2_ms;
    alloc += t.alloc_ms;
    step3 += t.step3_ms;
    last = t;
  }
  double core_ms() const { return step1 + plan + step2 + alloc + step3; }

  void add(const tsg::obs::MetricsSnapshot& d) {
    intersect_pairs += static_cast<double>(d.counter("spgemm.intersect.pairs"));
    dense_acc += static_cast<double>(d.counter("spgemm.accumulator.dense"));
    sparse_acc += static_cast<double>(d.counter("spgemm.accumulator.sparse"));
    if (const auto* h = d.histogram("parallel_for.imbalance_pct")) {
      imbalance_bounds = h->bounds;
      imbalance_counts.resize(h->counts.size(), 0);
      for (std::size_t i = 0; i < h->counts.size(); ++i) imbalance_counts[i] += h->counts[i];
    }
  }

  /// Upper bound of the histogram bucket holding the median observation
  /// (twice the last bound for the overflow bucket).
  double imbalance_p50() const {
    std::int64_t total = 0;
    for (std::int64_t c : imbalance_counts) total += c;
    std::int64_t seen = 0;
    for (std::size_t i = 0; i < imbalance_counts.size() && total > 0; ++i) {
      seen += imbalance_counts[i];
      if (2 * seen >= total) {
        return i < imbalance_bounds.size() ? static_cast<double>(imbalance_bounds[i])
                                           : 2.0 * static_cast<double>(imbalance_bounds.back());
      }
    }
    return 0.0;
  }
};

/// One library workload: its inputs, the op under test, the reference op,
/// and the check. `op` and `traced_op` leave their output in the case;
/// `check` verifies and releases it outside the timed region.
class LibraryCase {
 public:
  virtual ~LibraryCase() = default;
  virtual void setup(const Options& opt, Gustavson& gus, Report& r) = 0;
  virtual void op() = 0;
  /// The same op split into the public calls it is made of, each under a
  /// span; per-step timings and counters go to `sums`.
  virtual void traced_op(SpanLog& log, std::uint64_t id, LayerSums& sums) = 0;
  virtual bool check(bool perturb) = 0;
  virtual void ref(Gustavson& gus) = 0;
  /// The op on another context, checked (for the one-thread baseline).
  virtual bool op_on(SpgemmContext& ctx) = 0;
  /// Per-layer values that depend only on the inputs.
  virtual void static_layers(std::map<std::string, double>& v) = 0;
  /// Multiply-adds of the product the op forms, times two.
  virtual double flops() const = 0;
  virtual SpgemmContext& context() = 0;
};

struct Paired {
  std::vector<double> op_ms;
  std::vector<double> ref_ms;
  long attempted = 0;
  long correct = 0;
  double rel_p50() const { return percentile(paired_ratios(op_ms, ref_ms), 0.5); }
};

/// The closed loop: pairs of (op, reference op), alternating which goes
/// first, until `seconds` have passed and the p90 has kMinBeyond samples
/// beyond it.
template <class Op, class Ref>
Paired measure(const Options& opt, double seconds, ThreadWatch& watch, LibraryCase& c, Op&& op,
               Ref&& ref) {
  Paired p;
  const std::size_t min_samples = min_samples_for(0.9);
  const Clock::time_point start = Clock::now();
  for (long i = 0;; ++i) {
    const double elapsed = ms_between(start, Clock::now()) * 1e-3;
    if ((elapsed >= seconds && p.op_ms.size() >= min_samples) || elapsed >= kMeasureCapSeconds) {
      break;
    }
    auto time_ref = [&] {
      const Clock::time_point t0 = Clock::now();
      ref();
      return ms_between(t0, Clock::now());
    };
    double ref_ms = 0.0;
    if (i % 2 == 1) ref_ms = time_ref();
    const Clock::time_point t0 = Clock::now();
    op();
    if (opt.delay_factor > 1.0) {
      const auto extra = (Clock::now() - t0) * (opt.delay_factor - 1.0);
      spin_until(Clock::now() + std::chrono::duration_cast<Clock::duration>(extra));
    }
    const double op_ms = ms_between(t0, Clock::now());
    if (i % 2 == 0) ref_ms = time_ref();
    ++p.attempted;
    if (c.check(i == opt.perturb_op)) ++p.correct;
    p.op_ms.push_back(op_ms);
    p.ref_ms.push_back(ref_ms);
    watch.probe();
  }
  return p;
}

void add_end_to_end(Report& r, const Paired& p, double peak_mb) {
  const std::vector<double> rel = paired_ratios(p.op_ms, p.ref_ms);
  r.metric("op_rel_p50", percentile(rel, 0.5), "ratio");
  r.metric("op_rel_p90", percentile(rel, 0.9), "ratio");
  r.metric("throughput_vs_ref", throughput_vs_ref(p.op_ms, p.ref_ms), "ratio");
  r.metric("peak_tracked_mb", peak_mb, "MB");
  r.metric("success_ratio",
           p.attempted > 0 ? static_cast<double>(p.correct) / static_cast<double>(p.attempted)
                           : 0.0,
           "ratio");
  const std::size_t beyond = count_beyond(rel, 0.9);
  r.detail("samples", std::to_string(rel.size()));
  r.detail("samples_beyond_p90", std::to_string(beyond));
  if (beyond < kMinBeyond) {
    r.error("only " + std::to_string(beyond) + " samples beyond p90 (need " +
            std::to_string(kMinBeyond) + ")");
  }
  r.detail("raw.op_ms_p50", percentile(p.op_ms, 0.5));
  r.detail("raw.op_ms_p90", percentile(p.op_ms, 0.9));
  r.detail("raw.ref_ms_p50", percentile(p.ref_ms, 0.5));
}

void count_outcomes(Report& r, const Paired& p) {
  r.attempted = p.attempted;
  r.failed = p.attempted - p.correct;
  if (r.failed > 0) {
    r.error(std::to_string(r.failed) + " of " + std::to_string(p.attempted) +
            " outputs failed their check");
  }
}

/// Median one-thread op time over kLibraryThreads times the median
/// kLibraryThreads-thread op time, interleaved on the same problem.
double parallel_efficiency(double seconds, ThreadWatch& watch, LibraryCase& c, Report& r) {
  SpgemmContext one_thread(SpgemmContext::Config{}.with_threads(1));
  std::vector<double> t1, tn;
  bool same = true;
  const Clock::time_point start = Clock::now();
  while (t1.size() < 5 || (ms_between(start, Clock::now()) < seconds * 1e3 && t1.size() < 200)) {
    for (SpgemmContext* ctx : {&one_thread, &c.context()}) {
      const Clock::time_point t0 = Clock::now();
      same = c.op_on(*ctx) && same;
      (ctx == &one_thread ? t1 : tn).push_back(ms_between(t0, Clock::now()));
    }
    watch.probe();
  }
  if (!same) r.error("the one-thread output differs from the expected output");
  return percentile(t1, 0.5) / (kLibraryThreads * percentile(tn, 0.5));
}

Report run_library(const Options& opt, LibraryCase& c) {
  Report r;
  ThreadWatch watch(cpu_budget());
  Gustavson gus(kLibraryThreads, &watch);
  std::vector<double> setup_s;
  for (int k = 0; k < opt.setups; ++k) {
    const Clock::time_point t0 = Clock::now();
    c.setup(opt, gus, r);
    setup_s.push_back(ms_between(t0, Clock::now()) * 1e-3);
    watch.probe();
  }
  auto op = [&] { c.op(); };
  auto ref = [&] { c.ref(gus); };

  const CpuSample cpu0 = CpuSample::now();
  if (!opt.trace) {
    TrackedPeak peak;
    peak.begin();
    const Paired p = measure(opt, opt.seconds, watch, c, op, ref);
    add_end_to_end(r, p, peak.mb());
    count_outcomes(r, p);
    r.detail("raw.gflops", c.flops() / (percentile(p.op_ms, 0.5) * 1e6));
    r.metric("setup_s", percentile(setup_s, 0.5), "s");
  } else {
    // The untraced and traced phases share everything but the gates.
    const double untraced_rel_p50 = measure(opt, opt.seconds * 0.35, watch, c, op, ref).rel_p50();

    tsg::obs::set_metrics_detail_enabled(true);
    SpanLog log;
    LayerSums sums;
    std::uint64_t id = 0;
    auto traced_op = [&] {
      ++id;
      const auto before = tsg::obs::MetricsRegistry::instance().snapshot();
      c.traced_op(log, id, sums);
      sums.add(tsg::obs::MetricsSnapshot::delta(
          before, tsg::obs::MetricsRegistry::instance().snapshot()));
    };
    auto traced_ref = [&] {
      const int span = log.begin("reference", id);
      c.ref(gus);
      log.end(span);
    };
    const Paired p = measure(opt, opt.seconds * 0.35, watch, c, traced_op, traced_ref);
    tsg::obs::set_metrics_detail_enabled(false);
    count_outcomes(r, p);

    const double op_ms = log.total_ms("op");
    const double per_op = 1.0 / static_cast<double>(p.attempted);
    const TileSpgemmTimings& t = sums.last;
    std::map<std::string, double> v;
    c.static_layers(v);
    v["convert.share"] = log.total_ms("convert") / op_ms;
    v["to_csr.share"] = log.total_ms("to_csr") / op_ms;
    v["masked.share"] = log.total_ms("masked") / op_ms;
    v["step1.share"] = sums.step1 / op_ms;
    v["plan.share"] = sums.plan / op_ms;
    v["step2.share"] = sums.step2 / op_ms;
    v["alloc.share"] = sums.alloc / op_ms;
    v["step3.share"] = sums.step3 / op_ms;
    for (std::size_t b = 0; b < t.bin_tiles.size() && b < 4; ++b) {
      v["plan.bin_tiles." + std::to_string(b)] = static_cast<double>(t.bin_tiles[b]);
    }
    v["step2.intersect_pairs"] = sums.intersect_pairs * per_op;
    v["step2.fused_tiles"] = static_cast<double>(t.fused_tiles);
    v["alloc.c_mb"] = sums.c_bytes / kMB;
    v["run.workspace_mb"] = static_cast<double>(c.context().workspace_bytes()) / kMB;
    const double acc = sums.dense_acc + sums.sparse_acc;
    v["step3.dense_acc_ratio"] = acc > 0 ? sums.dense_acc / acc : 0.0;
    v["step3.bytes_computed"] = sums.bytes_computed;
    v["step3.flops_per_byte"] =
        sums.bytes_computed > 0 ? v["step3.flops"] / sums.bytes_computed : 0.0;
    v["simd.level"] = static_cast<double>(tsg::simd::active_level());
    v["parallel.imbalance_p50"] = sums.imbalance_p50();
    v["run.attributed_ratio"] = (log.total_ms("convert") + log.total_ms("to_csr") +
                                 log.total_ms("masked") + sums.core_ms()) /
                                op_ms;
    v["trace.overhead"] = p.rel_p50() - untraced_rel_p50;
    v["run.parallel_efficiency"] = parallel_efficiency(opt.seconds * 0.2, watch, c, r);
    add_layer_metrics(r, v);
    r.detail("trace.spans", std::to_string(log.spans().size()));
    r.detail("trace.file", write_span_log(opt, log));
    r.detail("setup_s", percentile(setup_s, 0.5));
  }
  add_host_drift(r, cpu0, CpuSample::now());
  add_thread_check(r, watch);
  return r;
}

// ---------------------------------------------------------------- fem_square

/// C = A^2 for a 27-point stencil, CSR in -> CSR out through try_run_csr.
class FemSquare final : public LibraryCase {
 public:
  void setup(const Options& opt, Gustavson& gus, Report& r) override {
    ctx_.reset();
    a_ = fem_operand(opt.small ? 10 : 24, opt.seed);
    ctx_ = std::make_unique<SpgemmContext>(library_config());
    auto first = ctx_->try_run_csr(a_, a_);
    if (!first.ok()) {
      r.error("set-up multiply failed: " + first.status().message());
      return;
    }
    if (!ctx_->try_run_csr(a_, a_).ok()) r.error("warm-up multiply failed");
    const std::string diff = compare_to_reference(*first, gus.multiply(a_, a_), kRefTolerance);
    if (!diff.empty()) r.error("set-up product disagrees with the reference: " + diff);
    expected_ = hash_csr(*first);
    r.detail("input", "27-point stencil, " + std::to_string(a_.rows) + " rows, nnz(A) " +
                          std::to_string(a_.nnz()) + ", nnz(C) " +
                          std::to_string(first->nnz()));
  }

  void op() override { out_.emplace(ctx_->try_run_csr(a_, a_)); }

  void traced_op(SpanLog& log, std::uint64_t id, LayerSums& sums) override {
    const int root = log.begin("op", id);
    int span = log.begin("convert", id, root);
    const TileMatrix<double> ta = tsg::csr_to_tile(a_);
    log.end(span);
    span = log.begin("core", id, root);
    auto product = ctx_->try_run(ta, ta);
    log.end(span);
    if (!product.ok()) {
      log.end(root);
      out_.emplace(product.status());
      return;
    }
    span = log.begin("to_csr", id, root);
    Csr<double> c = tsg::tile_to_csr(product->c);
    log.end(span);
    log.end(root);
    sums.add(product->timings);
    sums.c_bytes = static_cast<double>(tile_bytes(product->c));
    sums.bytes_computed = static_cast<double>(2 * tile_bytes(ta) + tile_bytes(product->c));
    out_.emplace(std::move(c));
  }

  bool check(bool perturb) override {
    bool ok = out_ && out_->ok();
    if (ok) {
      Csr<double>& c = **out_;
      if (perturb && c.nnz() > 0) c.val[0] += 1.0;
      ok = hash_csr(c) == expected_;
    }
    out_.reset();
    return ok;
  }

  void ref(Gustavson& gus) override { gus.multiply(a_, a_); }

  bool op_on(SpgemmContext& ctx) override {
    auto c = ctx.try_run_csr(a_, a_);
    return c.ok() && hash_csr(*c) == expected_;
  }

  void static_layers(std::map<std::string, double>& v) override {
    const TileMatrix<double> ta = tsg::csr_to_tile(a_);
    v["step1.c_tiles"] = static_cast<double>(tsg::step1_tile_structure(ta, ta).num_tiles());
    v["step3.flops"] = flops();
  }

  double flops() const override { return 2.0 * multiply_adds(a_, a_); }

  SpgemmContext& context() override { return *ctx_; }

 private:
  Csr<double> a_;
  std::unique_ptr<SpgemmContext> ctx_;
  std::uint64_t expected_ = 0;
  std::optional<tsg::Expected<Csr<double>>> out_;
};

// ----------------------------------------------------------- masked_triangles

/// Triangle count of a masked product: the sum of its values.
double triangles_of(const TileMatrix<double>& c) {
  double t = 0.0;
  for (double v : c.val) t += v;
  return t;
}

/// C = (L*L) .* L on an R-MAT graph: CSR in -> triangle count out, through
/// csr_to_tile and try_run_masked.
class MaskedTriangles final : public LibraryCase {
 public:
  void setup(const Options& opt, Gustavson& gus, Report& r) override {
    ctx_.reset();
    l_ = triangle_operand(opt.small ? 9 : 13, 8.0, opt.seed);
    ctx_ = std::make_unique<SpgemmContext>(library_config());
    const TileMatrix<double> tl = tsg::csr_to_tile(l_);
    auto first = ctx_->try_run_masked(tl, tl, tl);
    if (!first.ok()) {
      r.error("set-up masked multiply failed: " + first.status().message());
      return;
    }
    if (!ctx_->try_run_masked(tl, tl, tl).ok()) r.error("warm-up masked multiply failed");
    const RefCsr& product = gus.multiply(l_, l_, &l_);
    const std::string diff = compare_to_reference(tsg::tile_to_csr(*first), product, 0.0);
    if (!diff.empty()) r.error("set-up masked product disagrees with the reference: " + diff);
    expected_ = 0.0;
    for (double x : product.val) expected_ += x;
    if (triangles_of(*first) != expected_) r.error("set-up triangle count differs");
    const double unmasked = static_cast<double>(gus.product_nnz(l_, l_));
    kept_ratio_ = unmasked > 0 ? static_cast<double>(first->nnz()) / unmasked : 0.0;
    r.detail("input", "R-MAT lower triangle, " + std::to_string(l_.rows) + " rows, nnz(L) " +
                          std::to_string(l_.nnz()));
    r.detail("triangles", expected_);
  }

  void op() override {
    const TileMatrix<double> tl = tsg::csr_to_tile(l_);
    auto c = ctx_->try_run_masked(tl, tl, tl);
    if (c.ok()) out_ = triangles_of(*c);
  }

  void traced_op(SpanLog& log, std::uint64_t id, LayerSums& sums) override {
    const int root = log.begin("op", id);
    int span = log.begin("convert", id, root);
    const TileMatrix<double> tl = tsg::csr_to_tile(l_);
    log.end(span);
    span = log.begin("masked", id, root);
    auto c = ctx_->try_run_masked(tl, tl, tl);
    log.end(span);
    if (c.ok()) {
      span = log.begin("count", id, root);
      out_ = triangles_of(*c);
      log.end(span);
      sums.c_bytes = static_cast<double>(tile_bytes(*c));
      sums.bytes_computed = static_cast<double>(2 * tile_bytes(tl) + tile_bytes(*c));
    }
    log.end(root);
  }

  bool check(bool perturb) override {
    if (out_ && perturb) *out_ += 1.0;
    const bool ok = out_ && *out_ == expected_;
    out_.reset();
    return ok;
  }

  void ref(Gustavson& gus) override { gus.multiply(l_, l_, &l_); }

  bool op_on(SpgemmContext& ctx) override {
    const tsg::ThreadCountGuard threads(ctx.config().threads);  // for the conversion too
    const TileMatrix<double> tl = tsg::csr_to_tile(l_);
    auto c = ctx.try_run_masked(tl, tl, tl);
    return c.ok() && triangles_of(*c) == expected_;
  }

  void static_layers(std::map<std::string, double>& v) override {
    const TileMatrix<double> tl = tsg::csr_to_tile(l_);
    v["step1.c_tiles"] = static_cast<double>(tsg::step1_tile_structure(tl, tl).num_tiles());
    v["step3.flops"] = flops();
    v["masked.kept_ratio"] = kept_ratio_;
  }

  /// Of the unmasked product L*L: the work a mask-unaware multiply does.
  double flops() const override { return 2.0 * multiply_adds(l_, l_); }

  SpgemmContext& context() override { return *ctx_; }

 private:
  Csr<double> l_;
  std::unique_ptr<SpgemmContext> ctx_;
  double expected_ = 0.0;
  double kept_ratio_ = 0.0;
  std::optional<double> out_;
};

}  // namespace

Report run_fem_square(const Options& opt) {
  FemSquare c;
  return run_library(opt, c);
}

Report run_masked_triangles(const Options& opt) {
  MaskedTriangles c;
  return run_library(opt, c);
}

}  // namespace spgemm_bench
