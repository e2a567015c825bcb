// Checks of the benchmark's helpers (helpers.hpp). Exit code 0 iff every
// check passes; run as `ctest` in the benchmark's build directory or
// directly as `bnbench_selftest`.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "helpers.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::printf("FAIL: %s\n", what);
    ++failures;
  }
}

bool near(double a, double b) { return std::abs(a - b) < 1e-9; }

void test_median() {
  check(bnbench::median({}) == 0.0, "median of nothing is 0");
  check(bnbench::median({3.0, 1.0, 2.0}) == 2.0, "odd median");
  check(bnbench::median({4.0, 1.0, 3.0, 2.0}) == 2.5, "even median");
}

void test_tail_percentile() {
  std::vector<double> samples;
  for (int i = 100; i >= 1; --i) samples.push_back(i);
  const bnbench::Tail t = bnbench::tail_percentile(samples);
  check(t.value == 90.0, "tail of 1..100 is the 90th value");
  check(t.beyond == 10, "tail keeps exactly 10 samples beyond");
  check(near(t.percentile, 90.0), "tail of 100 samples sits at p90");

  const bnbench::Tail t31 =
      bnbench::tail_percentile(std::vector<double>(31, 1.0));
  check(t31.beyond == 10 && near(t31.percentile, 100.0 * 21.0 / 31.0),
        "31 samples: p67.7 with 10 beyond");

  const bnbench::Tail few = bnbench::tail_percentile({5.0, 2.0, 9.0});
  check(few.value == 2.0 && few.beyond == 2,
        "too few samples: the minimum, with the thin tail reported");
  check(bnbench::tail_percentile({}).beyond == 0, "empty tail");
  const bnbench::Tail eleven =
      bnbench::tail_percentile({0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  check(eleven.value == 0.0 && eleven.beyond == 10, "11 samples: minimum");
}

bnloc::obs::SpanRecord span(const char* name, int parent, std::uint64_t start,
                            std::uint64_t dur) {
  bnloc::obs::SpanRecord r;
  r.name = name;
  r.parent = parent;
  r.start_ns = start;
  r.dur_ns = dur;
  return r;
}

void test_span_self_time() {
  // run [0,100) with two levels; level 0 [10,50) holds update [20,30) and
  // an overlapping commit [25,40); level 1 [60,90) has no children.
  const std::vector<bnloc::obs::SpanRecord> rows = {
      span("grid.run", -1, 0, 100),    span("grid.level", 0, 10, 40),
      span("grid.update", 1, 20, 10),  span("grid.commit", 1, 25, 15),
      span("grid.level", 0, 60, 30),
  };
  const auto self = bnbench::span_self_ns(rows);
  check(self.at("grid.run") == 30, "run self = 100 - 40 - 30");
  check(self.at("grid.level") == 20 + 30,
        "level self counts overlapping children once");
  check(self.at("grid.update") == 10 && self.at("grid.commit") == 15,
        "leaf self time is the whole span");

  // A child running past its parent's end only covers the parent's part.
  const auto clipped = bnbench::span_self_ns(
      {span("serve.request", -1, 0, 50), span("grid.run", 0, 40, 30)});
  check(clipped.at("serve.request") == 40, "child clipped to the parent");

  const bnbench::SpanTotal levels = bnbench::span_total(rows, "grid.level");
  check(levels.ns == 70 && levels.count == 2, "span total and count");
}

void test_failure_count() {
  bnbench::FailureCount c;
  check(c.failed_frac() == 1.0, "nothing attempted counts as all failed");
  c.record(true);
  c.record(false);
  c.record(true);
  c.record(true);
  check(c.attempted == 4 && c.failed == 1, "attempted and failed counts");
  check(near(c.failed_frac(), 0.25), "failed share");
}

void test_names_and_result_line() {
  check(bnbench::valid_metric_name("core.grid.update_ms"), "dotted name");
  check(bnbench::valid_metric_name("support.simd.axpy_ns_per_elem_48"),
        "digits in name");
  check(bnbench::valid_metric_name("9-lives"), "digit first");
  check(!bnbench::valid_metric_name(""), "empty name");
  check(!bnbench::valid_metric_name("_x"), "underscore first");
  check(!bnbench::valid_metric_name(".x"), "dot first");
  check(!bnbench::valid_metric_name("a b"), "space");
  check(!bnbench::valid_metric_name("a/b"), "slash");
  check(bnbench::valid_metric_name(std::string(64, 'a')), "64 chars");
  check(!bnbench::valid_metric_name(std::string(65, 'a')), "65 chars");
  check(bnbench::valid_unit("1/s") && bnbench::valid_unit("%"), "units");
  check(!bnbench::valid_unit("") && !bnbench::valid_unit("m s"), "bad units");

  bnbench::MetricSet m;
  m.add("latency_ms", 1.25, "ms");
  bool threw = false;
  try {
    m.add("latency_ms", 2.0, "ms");
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  check(threw, "duplicate metric rejected");
  threw = false;
  try {
    m.add("bad name", 2.0, "ms");
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  check(threw, "bad name rejected");
  bnbench::FailureCount ops;
  ops.record(true);
  check(m.result_json(true, ops) ==
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, "
            "\"metrics\": {\"latency_ms\": {\"value\": 1.25, \"unit\": "
            "\"ms\"}}}",
        "result line format");
}

}  // namespace

int main() {
  test_median();
  test_tail_percentile();
  test_span_self_time();
  test_failure_count();
  test_names_and_result_line();
  if (failures) return 1;
  std::printf("bnbench_selftest: all checks passed\n");
  return 0;
}
