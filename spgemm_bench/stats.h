// Statistics and output schema of the SpGEMM benchmark. Header-only and
// free of library dependencies so the self-test can drive every formula on
// synthetic timings.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace spgemm_bench {

/// Nearest-rank percentile (q in (0, 1]): the smallest sample with at least
/// q*n samples at or below it. Returns 0 for an empty set.
inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

/// Samples strictly above the q-percentile. A percentile is reported only
/// when at least kMinBeyond samples lie beyond it.
inline std::size_t count_beyond(const std::vector<double>& v, double q) {
  const double p = percentile(v, q);
  return static_cast<std::size_t>(
      std::count_if(v.begin(), v.end(), [p](double x) { return x > p; }));
}
inline constexpr std::size_t kMinBeyond = 10;

/// Smallest sample count for which the q-percentile has kMinBeyond distinct
/// samples beyond it (ties aside).
inline std::size_t min_samples_for(double q) {
  std::size_t n = kMinBeyond;
  while (n - static_cast<std::size_t>(std::ceil(q * static_cast<double>(n))) < kMinBeyond) ++n;
  return n;
}

/// Element-wise op / ref of paired timings.
inline std::vector<double> paired_ratios(const std::vector<double>& op,
                                         const std::vector<double>& ref) {
  std::vector<double> r;
  const std::size_t n = std::min(op.size(), ref.size());
  r.reserve(n);
  for (std::size_t i = 0; i < n; ++i) r.push_back(op[i] / ref[i]);
  return r;
}

inline double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

/// Library workloads: the reference's work rate over the whole run relative
/// to the op's, sum(ref) / sum(op), so slow tails count in full.
inline double throughput_vs_ref(const std::vector<double>& op_ms,
                                const std::vector<double>& ref_ms) {
  return sum(ref_ms) / sum(op_ms);
}

/// Service workload: completed requests per second over the service
/// windows relative to reference ops per second over the reference windows.
inline double rate_ratio(double done, double done_seconds, double ref_done,
                         double ref_seconds) {
  return (done / done_seconds) / (ref_done / ref_seconds);
}

/// Metric names: a letter or digit, then up to 63 of [A-Za-z0-9_.-].
inline bool valid_metric_name(std::string_view s) {
  if (s.empty() || s.size() > 64) return false;
  auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9');
  };
  if (!alnum(s[0])) return false;
  return std::all_of(s.begin(), s.end(),
                     [&](char c) { return alnum(c) || c == '_' || c == '.' || c == '-'; });
}

/// Units: 1 to 16 of [A-Za-z0-9_/%.-].
inline bool valid_unit(std::string_view s) {
  if (s.empty() || s.size() > 16) return false;
  return std::all_of(s.begin(), s.end(), [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ||
           c == '_' || c == '/' || c == '%' || c == '.' || c == '-';
  });
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// One run's outcome. `details` are unchecked diagnostics (raw timings,
/// host fingerprint, drift indicators) printed before the result line.
struct Report {
  bool correct = true;
  long attempted = 0;
  long failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, std::string>> details;
  std::vector<std::string> errors;

  void metric(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Sets a detail; a repeated key keeps its first position and the last
  /// value.
  void detail(const std::string& key, std::string value) {
    for (auto& [k, v] : details) {
      if (k == key) {
        v = std::move(value);
        return;
      }
    }
    details.emplace_back(key, std::move(value));
  }
  void detail(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6g", value);
    detail(key, std::string(buf));
  }
  void error(std::string what) {
    errors.push_back(std::move(what));
    correct = false;
  }

  /// Empty when every metric has a valid, unique name, a valid unit and a
  /// finite value; otherwise the first violation.
  std::string schema_error() const {
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      const Metric& m = metrics[i];
      if (!valid_metric_name(m.name)) return "bad metric name '" + m.name + "'";
      if (!valid_unit(m.unit)) return "bad unit '" + m.unit + "' on " + m.name;
      if (!std::isfinite(m.value)) return "non-finite value for " + m.name;
      for (std::size_t j = 0; j < i; ++j) {
        if (metrics[j].name == m.name) return "duplicate metric " + m.name;
      }
    }
    if (attempted < 1) return "no operation attempted";
    return {};
  }

  /// Human-readable lines (one per detail, error and metric, each metric
  /// with its unit), then the JSON result as the last line.
  void write(std::ostream& out) const {
    char buf[64];
    for (const auto& [k, v] : details) out << "detail " << k << " = " << v << "\n";
    for (const std::string& e : errors) out << "error " << e << "\n";
    for (const Metric& m : metrics) {
      std::snprintf(buf, sizeof buf, "%.17g", m.value);
      out << "metric " << m.name << " = " << buf << " " << m.unit << "\n";
    }
    out << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
        << ", \"failed\": " << failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      std::snprintf(buf, sizeof buf, "%.17g", metrics[i].value);
      out << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": " << buf
          << ", \"unit\": \"" << metrics[i].unit << "\"}";
    }
    out << "}}\n";
  }
};

}  // namespace spgemm_bench
