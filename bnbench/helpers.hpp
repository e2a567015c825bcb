// Library-independent helpers of the benchmark: order statistics, span self
// time, failure accounting and the result line. Kept apart from main.cpp so
// selftest.cpp can check them without running a workload.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/span.hpp"

namespace bnbench {

/// Median of the samples (mean of the middle pair for even counts); 0 when
/// there are none.
inline double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 ? samples[n / 2] : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

/// The highest order statistic that still has at least `min_beyond`
/// samples above it, with the percentile it sits at (share of samples at
/// or below it, in %) and the number of samples beyond it. With too few
/// samples the minimum is reported, and `beyond` says how thin the tail is.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  std::size_t beyond = 0;
};

inline Tail tail_percentile(std::vector<double> samples,
                            std::size_t min_beyond = 10) {
  if (samples.empty()) return {};
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  const std::size_t idx = n > min_beyond ? n - 1 - min_beyond : 0;
  return {samples[idx], 100.0 * static_cast<double>(idx + 1) /
                            static_cast<double>(n),
          n - 1 - idx};
}

/// Self time per span name, summed over every span of that name: the
/// span's duration minus the part of its interval that its direct
/// children cover (overlapping children are counted once).
inline std::map<std::string, std::uint64_t> span_self_ns(
    const std::vector<bnloc::obs::SpanRecord>& rows) {
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> children(
      rows.size());
  for (const bnloc::obs::SpanRecord& r : rows)
    if (r.parent >= 0 && static_cast<std::size_t>(r.parent) < rows.size())
      children[static_cast<std::size_t>(r.parent)].emplace_back(
          r.start_ns, r.start_ns + r.dur_ns);
  std::map<std::string, std::uint64_t> self;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const std::uint64_t begin = rows[i].start_ns;
    const std::uint64_t end = begin + rows[i].dur_ns;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::uint64_t covered = 0;
    std::uint64_t cursor = begin;  // end of the union covered so far
    for (auto [b, e] : kids) {
      b = std::max(b, cursor);
      e = std::min(e, end);
      if (e > b) {
        covered += e - b;
        cursor = e;
      }
    }
    self[rows[i].name] += rows[i].dur_ns - std::min(covered, rows[i].dur_ns);
  }
  return self;
}

/// Total duration and instance count of the spans named `name`.
struct SpanTotal {
  std::uint64_t ns = 0;
  std::size_t count = 0;
};

inline SpanTotal span_total(const std::vector<bnloc::obs::SpanRecord>& rows,
                            std::string_view name) {
  SpanTotal t;
  for (const bnloc::obs::SpanRecord& r : rows)
    if (r.name == name) {
      t.ns += r.dur_ns;
      ++t.count;
    }
  return t;
}

/// Ops attempted and ops that failed a correctness check. A failed op is
/// counted once however many of its checks fail.
struct FailureCount {
  std::size_t attempted = 0;
  std::size_t failed = 0;

  void record(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  [[nodiscard]] double failed_frac() const {
    return attempted ? static_cast<double>(failed) /
                           static_cast<double>(attempted)
                     : 1.0;
  }
};

/// Metric names: a letter or digit first, then at most 63 more letters,
/// digits, '_', '.' or '-'.
inline bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

/// Units: 1 to 16 letters, digits, '_', '/', '%', '.' or '-'.
inline bool valid_unit(std::string_view unit) {
  if (unit.empty() || unit.size() > 16) return false;
  return std::all_of(unit.begin(), unit.end(), [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9') || c == '_' || c == '/' || c == '%' ||
           c == '.' || c == '-';
  });
}

/// Named metrics in insertion order; rejects bad or repeated names.
class MetricSet {
 public:
  void add(std::string name, double value, std::string unit) {
    if (!valid_metric_name(name) || !valid_unit(unit))
      throw std::invalid_argument("bad metric name or unit: " + name);
    for (const Entry& e : entries_)
      if (e.name == name)
        throw std::invalid_argument("duplicate metric: " + name);
    entries_.push_back({std::move(name), value, std::move(unit)});
  }

  /// The result line: {"correct", "attempted", "failed", "metrics"}.
  /// Values print with 17 significant digits (a non-finite value, which
  /// JSON cannot carry, prints as null).
  [[nodiscard]] std::string result_json(bool correct,
                                        const FailureCount& ops) const {
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(ops.attempted);
    out += ", \"failed\": " + std::to_string(ops.failed);
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      char num[40] = "null";
      if (std::isfinite(e.value))
        std::snprintf(num, sizeof num, "%.17g", e.value);
      out += (i ? ", \"" : "\"") + e.name + "\": {\"value\": " + num +
             ", \"unit\": \"" + e.unit + "\"}";
    }
    out += "}}";
    return out;
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

}  // namespace bnbench
