// service_mixed: a closed loop through SpgemmService (kServiceWorkers
// workers, one-thread teams). One submitting thread keeps kOutstanding
// requests in flight over a seeded mix of small requests. Service windows
// alternate with reference windows (R S R S ... R), in which
// kServiceWorkers benchmark threads run the same requests through the
// one-thread reference kernel. Every window runs the same requests in the
// same order (kCyclesPerWindow passes over the pool), so windows differ
// only in the host's state. The order is fixed, not seeded: which requests
// run side by side on the two workers sets the memory peak. The host's load changes
// within a second, so the windows are short (tens of ms) and each service
// window is compared with the two reference windows around it.
#include <algorithm>
#include <array>
#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/simd_dispatch.h"
#include "core/spgemm_context.h"
#include "core/step1.h"
#include "core/tile_convert.h"
#include "host.h"
#include "inputs.h"
#include "layers.h"
#include "obs/metrics.h"
#include "reference.h"
#include "service/admission.h"
#include "service/spgemm_service.h"
#include "spans.h"
#include "workloads.h"

namespace spgemm_bench {

namespace {

using tsg::SpgemmContext;
using tsg::TileMatrix;
using tsg::service::SpgemmService;

/// One request in flight per worker: with more, the workers' batching
/// makes the latency tail swing by several percent from run to run.
constexpr std::size_t kOutstanding = 2;
constexpr std::size_t kCyclesPerWindow = 2;
constexpr std::chrono::microseconds kPollInterval{20};
constexpr double kMeasureCapSeconds = 120.0;

/// One request's layer profile, measured out of band on the benchmark
/// thread with a one-thread context (the service's workers run the same
/// calls inside try_run_csr, where the benchmark cannot put spans).
struct Profile {
  double convert_ms = 0, to_csr_ms = 0, step1 = 0, plan = 0, step2 = 0, alloc = 0, step3 = 0;
  double c_tiles = 0, fused = 0, intersect_pairs = 0, dense_acc = 0, sparse_acc = 0;
  double c_mb = 0, flops = 0, bytes = 0, workspace_mb = 0;
  std::array<double, 4> bins{};
  double core() const { return step1 + plan + step2 + alloc + step3; }

  /// Sums every field except the workspace, which keeps its maximum.
  void add(const Profile& q) {
    convert_ms += q.convert_ms;
    to_csr_ms += q.to_csr_ms;
    step1 += q.step1;
    plan += q.plan;
    step2 += q.step2;
    alloc += q.alloc;
    step3 += q.step3;
    c_tiles += q.c_tiles;
    fused += q.fused;
    intersect_pairs += q.intersect_pairs;
    dense_acc += q.dense_acc;
    sparse_acc += q.sparse_acc;
    c_mb += q.c_mb;
    flops += q.flops;
    bytes += q.bytes;
    workspace_mb = std::max(workspace_mb, q.workspace_mb);
    for (std::size_t b = 0; b < bins.size(); ++b) bins[b] += q.bins[b];
  }
};

struct Sample {
  double latency_ms = 0;
  int window = 0;
};

/// Everything one measured phase collects.
struct Phase {
  std::vector<Sample> samples;
  std::vector<double> ref_window_mean;  ///< per window; 0 for service windows
  double svc_seconds = 0, ref_seconds = 0;
  double svc_done = 0, ref_done = 0;
  long attempted = 0, correct = 0;
  std::vector<double> depth;          ///< queue depth seen at each submit
  std::vector<double> admission_us;   ///< timed estimate_footprint calls (traced)
  std::vector<std::size_t> completed_requests;
  double core_ms = 0;
  /// Index of the completed request whose product is corrupted before its
  /// check (self-test hook); -1 for none.
  long perturb = -1;

  /// Latency over the mean reference op time of the two adjoining
  /// windows. The mean, not the median: a window holds a fixed mix of
  /// request types whose costs differ several-fold, and the median jumps
  /// between them.
  std::vector<double> rel() const {
    std::vector<double> out;
    out.reserve(samples.size());
    for (const Sample& s : samples) {
      const auto w = static_cast<std::size_t>(s.window);
      out.push_back(s.latency_ms / (0.5 * (ref_window_mean[w - 1] + ref_window_mean[w + 1])));
    }
    return out;
  }
};

class ServiceMixed {
 public:
  ServiceMixed(const Options& opt, ThreadWatch& watch) : opt_(opt), watch_(watch) {}

  void setup(Report& r) {
    svc_.reset();
    pool_ = service_pool(opt_.seed, opt_.small);
    expected_.clear();
    SpgemmContext ctx;  // the paper-default config the service's workers use
    Gustavson gus(1);
    for (const MixRequest& q : pool_) {
      auto c = ctx.try_run_csr(*q.a, q.rhs());
      if (!c.ok()) {
        r.error("set-up multiply failed (" + q.kind + "): " + c.status().message());
        expected_.push_back(0);
        continue;
      }
      const std::string diff =
          compare_to_reference(*c, gus.multiply(*q.a, q.rhs()), kRefTolerance);
      if (!diff.empty()) {
        r.error("set-up " + q.kind + " product disagrees with the reference: " + diff);
      }
      expected_.push_back(hash_csr(*c));
    }
    svc_ = std::make_unique<SpgemmService>(SpgemmService::Config{}.with_workers(kServiceWorkers));
    gus_.clear();
    for (int t = 0; t < kServiceWorkers; ++t) gus_.push_back(std::make_unique<Gustavson>(1));
    // Warm the workers' pooled contexts and the reference scratch.
    Phase warm;
    service_window(*svc_, warm, 0, nullptr);
    reference_window(warm);
    if (warm.correct != warm.attempted) r.error("warm-up requests failed their check");
  }

  /// Alternating windows, reference windows at even indices, until
  /// `seconds` have passed and the p90 has kMinBeyond samples beyond it;
  /// the last window is a reference window.
  Phase measure(double seconds, SpanLog* log) {
    Phase p;
    p.perturb = opt_.perturb_op;
    const std::size_t min_samples = min_samples_for(0.9);
    const Clock::time_point start = Clock::now();
    for (int w = 0;; ++w) {
      p.ref_window_mean.push_back(0.0);
      if (w % 2 == 1) {
        service_window(*svc_, p, w, log);
        continue;
      }
      p.ref_window_mean.back() = reference_window(p);
      const double elapsed = ms_between(start, Clock::now()) * 1e-3;
      if ((elapsed >= seconds && p.samples.size() >= min_samples) ||
          elapsed >= kMeasureCapSeconds) {
        break;
      }
    }
    return p;
  }

  /// Two workers against one, alternating windows for `seconds`:
  /// completed req/s with kServiceWorkers workers over kServiceWorkers
  /// times that with one.
  double parallel_efficiency(double seconds) {
    SpgemmService single(SpgemmService::Config{}.with_workers(1));
    Phase warm, one, many;
    service_window(single, warm, 0, nullptr);
    const Clock::time_point start = Clock::now();
    do {
      service_window(single, one, 0, nullptr);
      service_window(*svc_, many, 0, nullptr);
    } while (ms_between(start, Clock::now()) < seconds * 1e3);
    return (many.svc_done / many.svc_seconds) /
           (kServiceWorkers * one.svc_done / one.svc_seconds);
  }

  /// Per-step medians over a few direct runs of request `i`; counts and
  /// sizes from the last run (they repeat exactly).
  Profile profile(std::size_t i) {
    const MixRequest& q = pool_[i];
    SpgemmContext ctx;
    const bool aliased = q.b == nullptr;
    std::vector<double> conv, back, s1, pl, s2, al, s3;
    Profile prof;
    for (int rep = 0; rep < 5; ++rep) {
      const auto before = tsg::obs::MetricsRegistry::instance().snapshot();
      Clock::time_point t0 = Clock::now();
      const TileMatrix<double> ta = tsg::csr_to_tile(*q.a);
      const TileMatrix<double> tb = aliased ? TileMatrix<double>{} : tsg::csr_to_tile(*q.b);
      conv.push_back(ms_between(t0, Clock::now()));
      auto product = ctx.try_run(ta, aliased ? ta : tb);
      if (!product.ok()) continue;
      t0 = Clock::now();
      const Csr<double> c = tsg::tile_to_csr(product->c);
      back.push_back(ms_between(t0, Clock::now()));
      const auto d = tsg::obs::MetricsSnapshot::delta(
          before, tsg::obs::MetricsRegistry::instance().snapshot());
      const tsg::TileSpgemmTimings& t = product->timings;
      s1.push_back(t.step1_ms);
      pl.push_back(t.plan_ms);
      s2.push_back(t.step2_ms);
      al.push_back(t.alloc_ms);
      s3.push_back(t.step3_ms);
      for (std::size_t b = 0; b < prof.bins.size() && b < t.bin_tiles.size(); ++b) {
        prof.bins[b] = static_cast<double>(t.bin_tiles[b]);
      }
      prof.fused = static_cast<double>(t.fused_tiles);
      prof.intersect_pairs = static_cast<double>(d.counter("spgemm.intersect.pairs"));
      prof.dense_acc = static_cast<double>(d.counter("spgemm.accumulator.dense"));
      prof.sparse_acc = static_cast<double>(d.counter("spgemm.accumulator.sparse"));
      prof.c_tiles = static_cast<double>(
          tsg::step1_tile_structure(ta, aliased ? ta : tb).num_tiles());
      prof.c_mb = static_cast<double>(c.bytes()) / kMB;
      prof.workspace_mb = static_cast<double>(t.workspace_bytes) / kMB;
      prof.flops = 2.0 * multiply_adds(*q.a, q.rhs());
      prof.bytes = static_cast<double>(q.a->bytes() + (aliased ? q.a->bytes() : q.b->bytes()) +
                                     c.bytes());
    }
    prof.convert_ms = percentile(conv, 0.5);
    prof.to_csr_ms = percentile(back, 0.5);
    prof.step1 = percentile(s1, 0.5);
    prof.plan = percentile(pl, 0.5);
    prof.step2 = percentile(s2, 0.5);
    prof.alloc = percentile(al, 0.5);
    prof.step3 = percentile(s3, 0.5);
    return prof;
  }

  std::size_t pool_size() const { return pool_.size(); }

 private:
  struct InFlight {
    tsg::service::Ticket ticket;
    Clock::time_point sent;
    std::size_t request = 0;
    std::uint64_t span_id = 0;
  };

  std::size_t window_requests() const { return kCyclesPerWindow * pool_.size(); }

  /// One service window: submit the window's requests keeping kOutstanding
  /// in flight, then drain.
  void service_window(SpgemmService& svc, Phase& p, int window, SpanLog* log) {
    std::vector<InFlight> flight;
    const Clock::time_point start = Clock::now();
    std::size_t submitted = 0;
    long completed = 0;
    while (submitted < window_requests() || !flight.empty()) {
      while (flight.size() < kOutstanding && submitted < window_requests()) {
        const std::size_t req = submitted % pool_.size();
        const MixRequest& q = pool_[req];
        const std::uint64_t id = ++span_id_;
        if (log != nullptr) {
          const Clock::time_point a0 = Clock::now();
          tsg::service::estimate_footprint(*q.a, q.rhs());
          const Clock::time_point a1 = Clock::now();
          log->add("admission", id, a0, a1);
          p.admission_us.push_back(ms_between(a0, a1) * 1e3);
        }
        p.depth.push_back(static_cast<double>(svc.queue_depth()));
        const Clock::time_point sent = Clock::now();
        auto ticket = svc.try_submit({q.a, q.b});
        if (log != nullptr) log->add("submit", id, sent, Clock::now());
        ++submitted;
        ++p.attempted;
        if (!ticket.ok()) continue;
        flight.push_back({std::move(*ticket), sent, req, id});
      }
      bool any_ready = false;
      for (std::size_t i = 0; i < flight.size();) {
        InFlight& f = flight[i];
        if (f.ticket.result.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
          ++i;
          continue;
        }
        any_ready = true;
        const Clock::time_point done = Clock::now();
        bool ok = false;
        try {
          tsg::SpgemmRunReport report = f.ticket.result.get();
          if (static_cast<long>(p.samples.size()) == p.perturb && report.c.nnz() > 0) {
            report.c.val[0] += 1.0;
          }
          ok = hash_csr(report.c) == expected_[f.request];
          p.core_ms += report.core_ms;
        } catch (const std::exception&) {
          ok = false;
        }
        if (ok) ++p.correct;
        ++completed;
        p.samples.push_back({ms_between(f.sent, done), window});
        p.completed_requests.push_back(f.request);
        if (log != nullptr) log->add("request", f.span_id, f.sent, done);
        flight[i] = std::move(flight.back());
        flight.pop_back();
      }
      // A short sleep rather than a spin, so the submitter does not take a
      // core from the workers; completion times are late by at most this.
      if (!any_ready && !flight.empty()) std::this_thread::sleep_for(kPollInterval);
    }
    p.svc_seconds += ms_between(start, Clock::now()) * 1e-3;
    p.svc_done += static_cast<double>(completed);
  }

  /// One reference window: kServiceWorkers benchmark threads take the
  /// window's requests in order and run the one-thread reference kernel on
  /// them. Returns the mean reference op time of the window.
  double reference_window(Phase& p) {
    std::atomic<std::size_t> next{0};
    std::vector<std::vector<double>> times(static_cast<std::size_t>(kServiceWorkers));
    const Clock::time_point start = Clock::now();
    run_team(kServiceWorkers, [&](int rank) {
      Gustavson& gus = *gus_[static_cast<std::size_t>(rank)];
      std::vector<double>& mine = times[static_cast<std::size_t>(rank)];
      if (rank == 0) watch_.probe();  // every reference thread is running
      for (std::size_t i = next.fetch_add(1); i < window_requests(); i = next.fetch_add(1)) {
        const MixRequest& q = pool_[i % pool_.size()];
        const Clock::time_point t0 = Clock::now();
        gus.multiply(*q.a, q.rhs());
        mine.push_back(ms_between(t0, Clock::now()));
      }
    });
    p.ref_seconds += ms_between(start, Clock::now()) * 1e-3;
    std::vector<double> all;
    for (const auto& t : times) all.insert(all.end(), t.begin(), t.end());
    p.ref_done += static_cast<double>(all.size());
    watch_.probe();
    return sum(all) / static_cast<double>(all.size());
  }

  const Options& opt_;
  ThreadWatch& watch_;
  std::vector<MixRequest> pool_;
  std::vector<std::uint64_t> expected_;
  std::uint64_t span_id_ = 0;
  std::vector<std::unique_ptr<Gustavson>> gus_;
  std::unique_ptr<SpgemmService> svc_;
};

void add_end_to_end(Report& r, const Phase& p, double peak_mb) {
  const std::vector<double> rel = p.rel();
  r.metric("op_rel_p50", percentile(rel, 0.5), "ratio");
  r.metric("op_rel_p90", percentile(rel, 0.9), "ratio");
  r.metric("throughput_vs_ref", rate_ratio(p.svc_done, p.svc_seconds, p.ref_done, p.ref_seconds),
           "ratio");
  r.metric("peak_tracked_mb", peak_mb, "MB");
  r.metric("success_ratio",
           p.attempted > 0 ? static_cast<double>(p.correct) / static_cast<double>(p.attempted)
                           : 0.0,
           "ratio");
  const std::size_t beyond = count_beyond(rel, 0.9);
  r.detail("samples", std::to_string(rel.size()));
  r.detail("samples_beyond_p90", std::to_string(beyond));
  if (beyond < kMinBeyond) r.error("only " + std::to_string(beyond) + " samples beyond p90");
  std::vector<double> lat;
  for (const Sample& s : p.samples) lat.push_back(s.latency_ms);
  r.detail("raw.latency_ms_p50", percentile(lat, 0.5));
  r.detail("raw.latency_ms_p90", percentile(lat, 0.9));
  r.detail("raw.req_per_s", p.svc_done / p.svc_seconds);
  r.detail("raw.ref_op_per_s", p.ref_done / p.ref_seconds);
  std::vector<double> ref_mean;
  for (double x : p.ref_window_mean) {
    if (x > 0) ref_mean.push_back(x);
  }
  r.detail("raw.ref_ms_mean_p50", percentile(ref_mean, 0.5));
}

void count_outcomes(Report& r, const Phase& p) {
  r.attempted = p.attempted;
  r.failed = p.attempted - p.correct;
  if (r.failed > 0) {
    r.error(std::to_string(r.failed) + " of " + std::to_string(p.attempted) +
            " requests failed or returned a wrong product");
  }
}

double hist_sum(const tsg::obs::MetricsSnapshot& d, const char* name) {
  const auto* h = d.histogram(name);
  return h ? static_cast<double>(h->sum) : 0.0;
}

}  // namespace

Report run_service_mixed(const Options& opt) {
  Report r;
  ThreadWatch watch(cpu_budget());
  ServiceMixed s(opt, watch);
  std::vector<double> setup_s;
  for (int k = 0; k < opt.setups; ++k) {
    const Clock::time_point t0 = Clock::now();
    s.setup(r);
    setup_s.push_back(ms_between(t0, Clock::now()) * 1e-3);
    watch.probe();
  }
  r.detail("input", std::to_string(s.pool_size()) +
                        " requests: banded, stencil, power-law, dense-block; A*A and A*B");
  r.detail("closed_loop", std::to_string(kOutstanding) + " outstanding, " +
                              std::to_string(kServiceWorkers) + " workers x 1 thread");

  const CpuSample cpu0 = CpuSample::now();
  if (!opt.trace) {
    TrackedPeak peak;
    peak.begin();
    const Phase p = s.measure(opt.seconds, nullptr);
    add_end_to_end(r, p, peak.mb());
    count_outcomes(r, p);
    r.metric("setup_s", percentile(setup_s, 0.5), "s");
  } else {
    const double untraced_rel_p50 = percentile(s.measure(opt.seconds * 0.35, nullptr).rel(), 0.5);

    tsg::obs::set_metrics_detail_enabled(true);
    std::vector<Profile> profiles;
    for (std::size_t i = 0; i < s.pool_size(); ++i) profiles.push_back(s.profile(i));
    SpanLog log;
    const auto before = tsg::obs::MetricsRegistry::instance().snapshot();
    const Phase p = s.measure(opt.seconds * 0.35, &log);
    const auto d = tsg::obs::MetricsSnapshot::delta(
        before, tsg::obs::MetricsRegistry::instance().snapshot());
    tsg::obs::set_metrics_detail_enabled(false);
    count_outcomes(r, p);

    double latency_ms = 0;
    for (const Sample& x : p.samples) latency_ms += x.latency_ms;
    Profile sum;
    for (std::size_t req : p.completed_requests) sum.add(profiles[req]);
    const double n = static_cast<double>(std::max<std::size_t>(1, p.completed_requests.size()));
    const double queue_wait_ms = hist_sum(d, "service.queue_wait_us") * 1e-3;
    const double served_ms = hist_sum(d, "service.latency_us") * 1e-3 - queue_wait_ms;
    std::map<std::string, double> v;
    v["convert.share"] = sum.convert_ms / latency_ms;
    v["to_csr.share"] = sum.to_csr_ms / latency_ms;
    v["step1.share"] = sum.step1 / latency_ms;
    v["step1.c_tiles"] = sum.c_tiles / n;
    v["plan.share"] = sum.plan / latency_ms;
    for (std::size_t b = 0; b < 4; ++b) v["plan.bin_tiles." + std::to_string(b)] = sum.bins[b] / n;
    v["step2.share"] = sum.step2 / latency_ms;
    v["step2.intersect_pairs"] = sum.intersect_pairs / n;
    v["step2.fused_tiles"] = sum.fused / n;
    v["alloc.share"] = sum.alloc / latency_ms;
    v["alloc.c_mb"] = sum.c_mb / n;
    v["run.workspace_mb"] = sum.workspace_mb;
    v["step3.share"] = sum.step3 / latency_ms;
    const double acc = sum.dense_acc + sum.sparse_acc;
    v["step3.dense_acc_ratio"] = acc > 0 ? sum.dense_acc / acc : 0.0;
    v["step3.flops"] = sum.flops / n;
    v["step3.bytes_computed"] = sum.bytes / n;
    v["step3.flops_per_byte"] = sum.bytes > 0 ? sum.flops / sum.bytes : 0.0;
    v["simd.level"] = static_cast<double>(tsg::simd::active_level());
    v["admission.us_p50"] = percentile(p.admission_us, 0.5);
    v["admission.degraded"] = static_cast<double>(d.counter("service.degraded"));
    v["admission.rejected"] = static_cast<double>(d.counter("service.rejected"));
    v["queue.wait_share"] = queue_wait_ms / latency_ms;
    v["queue.depth_p50"] = percentile(p.depth, 0.5);
    v["queue.full"] = static_cast<double>(d.counter("service.queue_full"));
    v["worker.busy_ratio"] = served_ms / (kServiceWorkers * p.svc_seconds * 1e3);
    v["worker.core_share"] = p.core_ms / latency_ms;
    const double completed = static_cast<double>(d.counter("service.completed"));
    v["service.batches_per_req"] =
        completed > 0 ? static_cast<double>(d.counter("service.batches")) / completed : 0.0;
    v["run.attributed_ratio"] =
        (queue_wait_ms + sum.convert_ms + sum.to_csr_ms + sum.core()) / latency_ms;
    v["trace.overhead"] = percentile(p.rel(), 0.5) - untraced_rel_p50;
    v["run.parallel_efficiency"] = s.parallel_efficiency(opt.seconds * 0.1);
    add_layer_metrics(r, v);
    r.detail("trace.profile", "step and conversion shares use per-request profiles measured "
                              "out of band with a one-thread context");
    r.detail("trace.spans", std::to_string(log.spans().size()));
    r.detail("trace.file", write_span_log(opt, log));
    r.detail("setup_s", percentile(setup_s, 0.5));
  }
  add_host_drift(r, cpu0, CpuSample::now());
  add_thread_check(r, watch);
  return r;
}

}  // namespace spgemm_bench
