// The per-layer metrics of the traced run. Every workload prints the whole
// list in this order; a layer the workload does not exercise reads 0.
#pragma once

#include <map>
#include <string>

#include "stats.h"

namespace spgemm_bench {

struct LayerMetricDef {
  const char* name;
  const char* unit;
};

inline constexpr LayerMetricDef kLayerMetrics[] = {
    {"convert.share", "ratio"},         {"to_csr.share", "ratio"},
    {"step1.share", "ratio"},           {"step1.c_tiles", "count"},
    {"plan.share", "ratio"},            {"plan.bin_tiles.0", "count"},
    {"plan.bin_tiles.1", "count"},      {"plan.bin_tiles.2", "count"},
    {"plan.bin_tiles.3", "count"},      {"step2.share", "ratio"},
    {"step2.intersect_pairs", "count"}, {"step2.fused_tiles", "count"},
    {"alloc.share", "ratio"},           {"alloc.c_mb", "MB"},
    {"run.workspace_mb", "MB"},         {"step3.share", "ratio"},
    {"step3.dense_acc_ratio", "ratio"}, {"step3.flops", "flop"},
    {"step3.bytes_computed", "B"},      {"step3.flops_per_byte", "flop/B"},
    {"masked.share", "ratio"},          {"masked.kept_ratio", "ratio"},
    {"simd.level", "level"},            {"run.parallel_efficiency", "ratio"},
    {"parallel.imbalance_p50", "%"},    {"admission.us_p50", "us"},
    {"admission.degraded", "count"},    {"admission.rejected", "count"},
    {"queue.wait_share", "ratio"},      {"queue.depth_p50", "count"},
    {"queue.full", "count"},            {"worker.busy_ratio", "ratio"},
    {"worker.core_share", "ratio"},     {"service.batches_per_req", "ratio"},
    {"run.attributed_ratio", "ratio"},  {"trace.overhead", "ratio"},
};

/// Adds every per-layer metric, taking values from `values` (0 when
/// absent). Returns false, and records an error, when `values` names a
/// metric that is not in the list.
inline bool add_layer_metrics(Report& r, const std::map<std::string, double>& values) {
  for (const LayerMetricDef& d : kLayerMetrics) {
    const auto it = values.find(d.name);
    r.metric(d.name, it == values.end() ? 0.0 : it->second, d.unit);
  }
  for (const auto& [name, value] : values) {
    bool known = false;
    for (const LayerMetricDef& d : kLayerMetrics) known = known || name == d.name;
    if (!known) {
      r.error("unlisted per-layer metric " + name);
      return false;
    }
  }
  return true;
}

}  // namespace spgemm_bench
