// KernelCache (inference/kernel_cache.hpp): exact-key memoization of range
// kernels, stable addresses, bit-equality with direct construction, and —
// since the cache went process-global for the serve layer — thread safety
// of concurrent lookups and registry parameter keying.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <thread>
#include <vector>

#include "core/grid_bncl.hpp"
#include "deploy/scenario.hpp"
#include "inference/kernel_cache.hpp"
#include "support/thread_pool.hpp"

namespace bnloc {
namespace {

GridShape test_shape() {
  return {Aabb{{0.0, 0.0}, {1.0, 1.0}}, 48};
}

RangingSpec test_ranging() {
  RangingSpec r;
  r.type = RangingType::log_normal;
  r.noise_factor = 0.1;
  r.range = 0.15;
  return r;
}

TEST(KernelCache, SharesExactRepeatsOnly) {
  KernelCache cache(test_ranging(), test_shape());
  const RangeKernel* a = cache.range(0.1);
  const RangeKernel* b = cache.range(0.1);
  EXPECT_EQ(a, b);
  EXPECT_EQ(cache.stats().built, 1u);
  EXPECT_EQ(cache.stats().shared, 1u);

  // One ULP away is a different key: no quantization, ever.
  const double nudged = std::nextafter(0.1, 1.0);
  const RangeKernel* c = cache.range(nudged);
  EXPECT_NE(a, c);
  EXPECT_EQ(cache.stats().built, 2u);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(KernelCache, MatchesDirectConstructionBitForBit) {
  const GridShape shape = test_shape();
  const RangingSpec ranging = test_ranging();
  KernelCache cache(ranging, shape);

  SparseBelief src;
  src.cells = {0, 517, 1200, 48 * 48 - 1};
  src.mass = {0.4F, 0.3F, 0.2F, 0.1F};

  for (const double d : {0.03, 0.1, 0.14999}) {
    const RangeKernel direct = RangeKernel::make_range(d, ranging, shape);
    const RangeKernel* cached = cache.range(d);
    ASSERT_EQ(cached->stamp_count(), direct.stamp_count());
    std::vector<double> out_direct(shape.cell_count(), 0.0);
    std::vector<double> out_cached(shape.cell_count(), 0.0);
    direct.accumulate(src, out_direct, shape.side);
    cached->accumulate(src, out_cached, shape.side);
    for (std::size_t c = 0; c < out_direct.size(); ++c)
      ASSERT_EQ(std::bit_cast<std::uint64_t>(out_direct[c]),
                std::bit_cast<std::uint64_t>(out_cached[c]))
          << "cell " << c << " at d=" << d;
  }
}

TEST(KernelCache, PointersStayValidAsCacheGrows) {
  KernelCache cache(test_ranging(), test_shape());
  const RangeKernel* first = cache.range(0.05);
  const std::size_t first_stamps = first->stamp_count();
  for (int k = 0; k < 500; ++k)
    cache.range(0.01 + 0.0002 * static_cast<double>(k));
  EXPECT_EQ(cache.range(0.05), first);
  EXPECT_EQ(first->stamp_count(), first_stamps);
  EXPECT_EQ(cache.size(), cache.stats().built);
}

// Scanline-run storage must reproduce the naive per-stamp accumulation:
// replay a kernel against a border-hugging source so runs get clipped on
// every side, and check mass conservation properties that only hold when
// clipping is correct.
TEST(KernelCache, BatchLookupMatchesOneByOneLookups) {
  // Repeats within the batch and a distance already cached: the batch
  // resolves to the same kernels and the same built/shared split as
  // calling range() on each entry in order, with or without a pool.
  const std::vector<double> batch = {0.05, 0.1, 0.05, 0.12, 0.1, 0.07};
  KernelCache serial(test_ranging(), test_shape());
  (void)serial.range(0.07);
  std::size_t serial_built = 0;
  for (const double d : batch) {
    bool built = false;
    (void)serial.range(d, &built);
    serial_built += built ? 1 : 0;
  }
  const KernelCache::Stats want = serial.stats();
  ThreadPool pool(3);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    KernelCache cache(test_ranging(), test_shape());
    const RangeKernel* seeded = cache.range(0.07);
    std::vector<const RangeKernel*> out(batch.size());
    EXPECT_EQ(cache.range_many(batch, out, p), serial_built);
    EXPECT_EQ(cache.stats().built, want.built);
    EXPECT_EQ(cache.stats().shared, want.shared);
    EXPECT_EQ(out[5], seeded);
    EXPECT_EQ(out[0], out[2]);
    EXPECT_EQ(out[1], out[4]);
    for (std::size_t k = 0; k < batch.size(); ++k) {
      EXPECT_EQ(out[k], cache.range(batch[k]));
      EXPECT_EQ(out[k]->stamp_count(), serial.range(batch[k])->stamp_count());
    }
  }
}

TEST(KernelCache, RunClippingStaysInsideGrid) {
  const GridShape shape = test_shape();
  const RangeKernel k =
      RangeKernel::make_range(0.12, test_ranging(), shape);
  EXPECT_GT(k.stamp_count(), 0u);
  EXPECT_LE(k.run_count(), k.stamp_count());

  SparseBelief corner;
  corner.cells = {0};  // bottom-left corner: maximal clipping
  corner.mass = {1.0F};
  std::vector<double> out(shape.cell_count(), 0.0);
  k.accumulate(corner, out, shape.side);
  double total = 0.0;
  for (const double v : out) {
    EXPECT_GE(v, 0.0);
    total += v;
  }
  EXPECT_GT(total, 0.0);  // some of the annulus lands inside
}

// The cache is internally synchronized so the serve layer can share one
// instance across every tenant in the process. Hammer one cache from many
// threads over an overlapping distance set (this is the test the
// threaded-sanitizer CI job runs under TSan): same distance must yield the
// same kernel pointer everywhere, and the hit/miss ledger must balance.
TEST(KernelCache, ConcurrentLookupsShareKernelsWithoutRacing) {
  KernelCache cache(test_ranging(), test_shape());
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kDistances = 32;
  constexpr std::size_t kRounds = 25;

  std::vector<std::vector<const RangeKernel*>> seen(
      kThreads, std::vector<const RangeKernel*>(kDistances, nullptr));
  std::atomic<std::size_t> built_count{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t round = 0; round < kRounds; ++round) {
        for (std::size_t d = 0; d < kDistances; ++d) {
          const double dist = 0.02 + 0.004 * static_cast<double>(d);
          bool built = false;
          const RangeKernel* k = cache.range(dist, &built);
          if (built) built_count.fetch_add(1, std::memory_order_relaxed);
          if (seen[t][d] == nullptr)
            seen[t][d] = k;
          else
            ASSERT_EQ(seen[t][d], k);  // stable address per distance
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  // Every thread resolved every distance to the one shared kernel.
  for (std::size_t t = 1; t < kThreads; ++t)
    for (std::size_t d = 0; d < kDistances; ++d)
      EXPECT_EQ(seen[0][d], seen[t][d]);
  // Each distinct distance was built exactly once, ever; the ledger adds up.
  EXPECT_EQ(built_count.load(), kDistances);
  const KernelCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.built, kDistances);
  EXPECT_EQ(stats.built + stats.shared, kThreads * kRounds * kDistances);
  EXPECT_EQ(cache.size(), kDistances);
}

// Registry keying is exact-parameter: same (ranging, shape, trunc) resolve
// to the same cache instance, any bit of difference to a different one.
TEST(KernelCacheRegistry, KeysOnExactParameterBits) {
  KernelCacheRegistry& registry = KernelCacheRegistry::instance();
  // Parameters no other test uses, so pre-existing registry state (the
  // registry is process-global) cannot alias these entries.
  RangingSpec ranging = test_ranging();
  ranging.noise_factor = 0.07251;
  const GridShape shape{Aabb{{0.0, 0.0}, {1.0, 1.0}}, 40};

  KernelCache& a = registry.acquire(ranging, shape);
  KernelCache& b = registry.acquire(ranging, shape);
  EXPECT_EQ(&a, &b);

  RangingSpec nudged = ranging;
  nudged.noise_factor = std::nextafter(ranging.noise_factor, 1.0);
  EXPECT_NE(&registry.acquire(nudged, shape), &a);
  const GridShape other_side{shape.field, 41};
  EXPECT_NE(&registry.acquire(ranging, other_side), &a);
  EXPECT_NE(&registry.acquire(ranging, shape, 3.0), &a);  // trunc differs

  // Kernels built through one acquire are visible through the other.
  bool built = false;
  (void)a.range(0.093, &built);
  EXPECT_TRUE(built);
  (void)registry.acquire(ranging, shape).range(0.093, &built);
  EXPECT_FALSE(built);

  const KernelCacheRegistry::Totals totals = registry.totals();
  EXPECT_GE(totals.caches, 4u);
  EXPECT_GE(totals.kernels, 1u);
}

// The kernel_scope knob is an execution detail, never a semantic one:
// run-scoped and process-scoped grid engines produce bit-identical results
// (kernels are pure functions of their exact-bit cache key).
TEST(KernelCacheRegistry, GridEngineScopeDoesNotChangeOutputs) {
  ScenarioConfig scenario_config;
  scenario_config.node_count = 30;
  scenario_config.anchor_fraction = 0.2;
  scenario_config.radio = make_radio(0.3, RangingType::log_normal, 0.1);
  scenario_config.seed = 21;
  const Scenario scenario = build_scenario(scenario_config);

  GridBnclConfig config;
  config.grid_side = 16;
  config.pyramid_levels = 1;
  config.iteration.max_iterations = 5;

  config.kernel_scope = KernelScope::run;
  Rng run_rng(7);
  const LocalizationResult run_scoped =
      GridBncl(config).localize(scenario, run_rng);

  config.kernel_scope = KernelScope::process;
  for (int pass = 0; pass < 2; ++pass) {  // second pass hits warm registry
    Rng process_rng(7);
    const LocalizationResult process_scoped =
        GridBncl(config).localize(scenario, process_rng);
    ASSERT_EQ(run_scoped.estimates.size(), process_scoped.estimates.size());
    for (std::size_t i = 0; i < run_scoped.estimates.size(); ++i) {
      ASSERT_EQ(run_scoped.estimates[i].has_value(),
                process_scoped.estimates[i].has_value());
      if (!run_scoped.estimates[i]) continue;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(run_scoped.estimates[i]->x),
                std::bit_cast<std::uint64_t>(process_scoped.estimates[i]->x));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(run_scoped.estimates[i]->y),
                std::bit_cast<std::uint64_t>(process_scoped.estimates[i]->y));
    }
    EXPECT_EQ(run_scoped.iterations, process_scoped.iterations);
    EXPECT_EQ(run_scoped.transport_hash, process_scoped.transport_hash);
  }
}

}  // namespace
}  // namespace bnloc
