// F14 — threads scaling: parallel Monte-Carlo harness with deterministic
// seeding, plus the grid engine's node-parallel rounds.
//
// Reproduced claim: trials are embarrassingly parallel (each derives its
// scenario and algorithm RNG from base.seed + t), so the harness should
// scale near-linearly with worker threads while producing bit-identical
// aggregates — cheap trials buy larger trial counts, i.e. better science,
// not just faster CI.
//  Part A: run_algorithm wall-clock vs RunOptions::threads for a heavy
//          (grid, pinned serial so the column isolates trial-level
//          scaling) and a light (gauss) engine; speedup column.
//  Part B: node-parallel rounds — GridBnclConfig::threads (default 0,
//          half the hardware threads) splits one solve's node-scaled work
//          across the caller and a pool; single-scenario latency and
//          estimate equality across thread counts.
//  Built-in determinism check (the bench's exit code): threads=1 and
//  threads=N must produce identical error summaries in part A and
//  identical estimates in part B.
//
// The speedup verdict (>= 3x at 8 threads) only applies where the hardware
// can physically show one; on fewer than 8 cores it is reported as SKIP
// with the measured numbers, never faked.
#include "bench_common.hpp"

#include <cstdlib>
#include <thread>

using namespace bnloc;
using namespace bnloc::bench;

namespace {

// same_summaries lives in bench_common.hpp now (bench_f15_trace reuses it
// for the telemetry-on/off determinism check).

bool same_estimates(const LocalizationResult& a,
                    const LocalizationResult& b) {
  if (a.estimates.size() != b.estimates.size()) return false;
  for (std::size_t i = 0; i < a.estimates.size(); ++i) {
    if (a.estimates[i].has_value() != b.estimates[i].has_value()) return false;
    if (a.estimates[i] && (a.estimates[i]->x != b.estimates[i]->x ||
                           a.estimates[i]->y != b.estimates[i]->y))
      return false;
  }
  return true;
}

}  // namespace

int main() {
  const BenchConfig bc = BenchConfig::from_env();
  const ScenarioConfig base = default_scenario(bc);
  print_banner("F14", "threads scaling & determinism", bc, base);

  const std::size_t hw =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  // Enough trials that an 8-way fan-out has work for every worker; FAST
  // mode keeps the CI smoke run small.
  const std::size_t trials =
      bc.fast ? bc.trials : std::max<std::size_t>(bc.trials, 8);
  std::printf("hardware threads: %zu, trials: %zu\n\n", hw, trials);

  bool deterministic = true;
  double grid_speedup_at_8 = 0.0;

  BenchJson bj("F14", bc);
  std::printf("Part A: trial-level parallelism (RunOptions::threads)\n");
  AsciiTable a({"algorithm", "threads", "mean/R", "wall ms/tr", "speedup"});
  // Serial engine at every harness width: with threads > 1 the trial
  // workers would run it inline anyway, and at threads == 1 the default
  // engine would run its own team and blur the trial-level column.
  GridBnclConfig serial_grid;
  serial_grid.threads = 1;
  const GridBncl grid(serial_grid);
  const GaussianBncl gauss;
  for (const Localizer* algo : {static_cast<const Localizer*>(&grid),
                                static_cast<const Localizer*>(&gauss)}) {
    AggregateRow serial;
    for (std::size_t threads : {1u, 2u, 4u, 8u}) {
      const AggregateRow row =
          run_algorithm(*algo, base, trials, RunOptions{threads});
      bj.add(row, "threads=" + std::to_string(threads));
      if (threads == 1)
        serial = row;
      else
        deterministic = deterministic && same_summaries(serial, row);
      const double speedup =
          row.wall_seconds > 0.0 ? serial.wall_seconds / row.wall_seconds
                                 : 0.0;
      if (algo == &grid && threads == 8) grid_speedup_at_8 = speedup;
      a.add_row({row.algo, std::to_string(threads),
                 AsciiTable::fmt(row.error.mean, 4),
                 AsciiTable::fmt(per_item_ms(row.wall_seconds, row.trials), 1),
                 AsciiTable::fmt(speedup, 2)});
    }
  }
  a.print(std::cout);

  std::printf("\nPart B: node-parallel rounds "
              "(GridBnclConfig::threads, one scenario)\n");
  AsciiTable b({"node-threads", "mean/R", "ms", "identical"});
  {
    const Scenario scenario = build_scenario(base);
    LocalizationResult ref;
    for (std::size_t threads : {1u, 2u, 4u}) {
      GridBnclConfig gc;
      gc.threads = threads;
      const GridBncl engine(gc);
      Rng rng = make_algo_rng(engine.name(), base.seed);
      const Stopwatch watch;
      const LocalizationResult result = engine.localize(scenario, rng);
      const double ms = watch.milliseconds();
      bool identical = true;
      if (threads == 1)
        ref = result;
      else {
        identical = same_estimates(ref, result);
        deterministic = deterministic && identical;
      }
      const ErrorReport report = evaluate(scenario, result);
      b.add_row({std::to_string(threads),
                 AsciiTable::fmt(report.summary.mean, 4),
                 AsciiTable::fmt(ms, 1), identical ? "yes" : "NO"});
    }
  }
  b.print(std::cout);

  std::printf("\ndeterminism check: threads=1 vs threads=N summaries -> %s\n",
              deterministic ? "PASS" : "FAIL");
  if (hw >= 8) {
    const bool fast_enough = grid_speedup_at_8 >= 3.0;
    std::printf("speedup verdict: bncl-grid %.2fx at 8 threads "
                "(>= 3x required) -> %s\n",
                grid_speedup_at_8, fast_enough ? "PASS" : "FAIL");
    return (deterministic && fast_enough) ? EXIT_SUCCESS : EXIT_FAILURE;
  }
  std::printf("speedup verdict: SKIP (%zu hardware thread%s cannot show "
              "parallel speedup; measured %.2fx at 8 threads)\n",
              hw, hw == 1 ? "" : "s", grid_speedup_at_8);
  return deterministic ? EXIT_SUCCESS : EXIT_FAILURE;
}
