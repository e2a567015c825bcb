// Integration tests for the three BNCL engines (core/).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/gaussian_bncl.hpp"
#include "core/grid_bncl.hpp"
#include "core/particle_bncl.hpp"
#include "eval/metrics.hpp"
#include "obs/telemetry.hpp"
#include "support/simd.hpp"
#include "support/thread_pool.hpp"

namespace bnloc {
namespace {

ScenarioConfig default_config(std::uint64_t seed) {
  ScenarioConfig cfg;
  cfg.node_count = 120;
  cfg.anchor_fraction = 0.12;
  cfg.deployment.kind = DeploymentKind::grid_jitter;
  cfg.prior_quality = PriorQuality::exact;
  cfg.seed = seed;
  return cfg;
}

class EngineSuite : public ::testing::TestWithParam<int> {
 protected:
  static std::unique_ptr<Localizer> make_engine(int which) {
    switch (which) {
      case 0:
        return std::make_unique<GridBncl>();
      case 1:
        return std::make_unique<ParticleBncl>();
      default:
        return std::make_unique<GaussianBncl>();
    }
  }
};

TEST_P(EngineSuite, LocalizesEveryUnknownReasonably) {
  const Scenario s = build_scenario(default_config(21));
  const auto engine = make_engine(GetParam());
  Rng rng(1);
  const auto r = engine->localize(s, rng);
  const ErrorReport report = evaluate(s, r);
  EXPECT_DOUBLE_EQ(report.coverage, 1.0);
  // With informative priors every engine should be well under half a radio
  // range on average.
  EXPECT_LT(report.summary.mean, 0.5) << engine->name();
}

TEST_P(EngineSuite, DeterministicGivenSeeds) {
  const Scenario s = build_scenario(default_config(22));
  const auto engine = make_engine(GetParam());
  Rng r1(9), r2(9);
  const auto a = engine->localize(s, r1);
  const auto b = engine->localize(s, r2);
  ASSERT_EQ(a.estimates.size(), b.estimates.size());
  for (std::size_t i = 0; i < a.estimates.size(); ++i) {
    ASSERT_EQ(a.estimates[i].has_value(), b.estimates[i].has_value());
    if (a.estimates[i]) {
      EXPECT_DOUBLE_EQ(a.estimates[i]->x, b.estimates[i]->x);
      EXPECT_DOUBLE_EQ(a.estimates[i]->y, b.estimates[i]->y);
    }
  }
}

TEST_P(EngineSuite, AnchorsKeepTheirPositions) {
  const Scenario s = build_scenario(default_config(23));
  const auto engine = make_engine(GetParam());
  Rng rng(2);
  const auto r = engine->localize(s, rng);
  for (std::size_t a : s.anchor_indices())
    EXPECT_EQ(*r.estimates[a], s.true_positions[a]);
}

TEST_P(EngineSuite, ReportsCommunicationAndUncertainty) {
  const Scenario s = build_scenario(default_config(24));
  const auto engine = make_engine(GetParam());
  Rng rng(3);
  const auto r = engine->localize(s, rng);
  EXPECT_GT(r.comm.messages_sent, 0u);
  EXPECT_GT(r.comm.bytes_sent, 0u);
  EXPECT_GT(r.iterations, 0u);
  for (std::size_t i : s.unknown_indices()) {
    ASSERT_TRUE(r.covariances[i].has_value()) << engine->name();
    EXPECT_GE(r.covariances[i]->trace(), 0.0);
  }
}

TEST_P(EngineSuite, PreKnowledgeImprovesAccuracy) {
  ScenarioConfig cfg = default_config(25);
  cfg.node_count = 150;
  cfg.anchor_fraction = 0.06;  // scarce anchors: priors matter most
  cfg.prior_quality = PriorQuality::exact;
  const Scenario with = build_scenario(cfg);
  cfg.prior_quality = PriorQuality::none;
  const Scenario without = build_scenario(cfg);
  const auto engine = make_engine(GetParam());
  Rng r1(4), r2(4);
  const double err_with =
      evaluate(with, engine->localize(with, r1)).summary.mean;
  const double err_without =
      evaluate(without, engine->localize(without, r2)).summary.mean;
  EXPECT_LT(err_with, err_without) << engine->name();
}

TEST_P(EngineSuite, SurvivesPacketLoss) {
  const Scenario s = build_scenario(default_config(26));
  std::unique_ptr<Localizer> engine;
  switch (GetParam()) {
    case 0: {
      GridBnclConfig c;
      c.iteration.packet_loss = 0.3;
      engine = std::make_unique<GridBncl>(c);
      break;
    }
    case 1: {
      ParticleBnclConfig c;
      c.iteration.packet_loss = 0.3;
      engine = std::make_unique<ParticleBncl>(c);
      break;
    }
    default: {
      GaussianBnclConfig c;
      c.iteration.packet_loss = 0.3;
      engine = std::make_unique<GaussianBncl>(c);
      break;
    }
  }
  Rng rng(5);
  const auto r = engine->localize(s, rng);
  const ErrorReport report = evaluate(s, r);
  EXPECT_DOUBLE_EQ(report.coverage, 1.0);
  EXPECT_LT(report.summary.mean, 0.8);
}

INSTANTIATE_TEST_SUITE_P(AllEngines, EngineSuite, ::testing::Values(0, 1, 2),
                         [](const auto& info) {
                           switch (info.param) {
                             case 0: return "Grid";
                             case 1: return "Particle";
                             default: return "Gauss";
                           }
                         });

TEST(GridBncl, ObserverSeesEveryIteration) {
  const Scenario s = build_scenario(default_config(31));
  GridBnclConfig cfg;
  cfg.iteration.max_iterations = 6;
  cfg.iteration.convergence_tol = 0.0;  // run all iterations
  std::size_t calls = 0;
  cfg.observer = [&](std::size_t iter,
                     std::span<const std::optional<Vec2>> est) {
    ++calls;
    EXPECT_EQ(iter, calls);
    EXPECT_EQ(est.size(), s.node_count());
  };
  const GridBncl engine(cfg);
  Rng rng(1);
  const auto r = engine.localize(s, rng);
  EXPECT_EQ(calls, r.iterations);
  EXPECT_EQ(calls, 6u);
}

TEST(GridBncl, ChangeTraceShrinks) {
  const Scenario s = build_scenario(default_config(32));
  const GridBncl engine;
  Rng rng(1);
  const auto r = engine.localize(s, rng);
  ASSERT_GE(r.change_per_iteration.size(), 3u);
  // Damped BP: late-iteration change far below the bootstrap change.
  EXPECT_LT(r.change_per_iteration.back(),
            0.5 * r.change_per_iteration.front());
}

TEST(GridBncl, NegativeEvidenceReducesTailError) {
  ScenarioConfig cfg = default_config(33);
  cfg.prior_quality = PriorQuality::none;  // ambiguity-prone setting
  cfg.node_count = 150;
  const Scenario s = build_scenario(cfg);
  GridBnclConfig with_cfg, without_cfg;
  without_cfg.use_negative_evidence = false;
  Rng r1(1), r2(1);
  const auto with = GridBncl(with_cfg).localize(s, r1);
  const auto without = GridBncl(without_cfg).localize(s, r2);
  EXPECT_LT(evaluate(s, with).summary.q90,
            evaluate(s, without).summary.q90);
}

TEST(GridBncl, MapEstimateOptionChangesOutput) {
  const Scenario s = build_scenario(default_config(34));
  GridBnclConfig map_cfg;
  map_cfg.map_estimate = true;
  Rng r1(1), r2(1);
  const auto mmse = GridBncl().localize(s, r1);
  const auto map = GridBncl(map_cfg).localize(s, r2);
  bool any_diff = false;
  for (std::size_t i : s.unknown_indices())
    any_diff |= distance(*mmse.estimates[i], *map.estimates[i]) > 1e-12;
  EXPECT_TRUE(any_diff);
  // Both remain accurate.
  EXPECT_LT(evaluate(s, map).summary.mean, 0.5);
}

TEST(GridBncl, GaussSeidelConvergesAtLeastAsFast) {
  ScenarioConfig scfg = default_config(41);
  scfg.prior_quality = PriorQuality::none;  // slow-bootstrap setting
  const Scenario s = build_scenario(scfg);
  GridBnclConfig jacobi, gs;
  gs.schedule = UpdateSchedule::gauss_seidel;
  Rng r1(1), r2(1);
  const auto rj = GridBncl(jacobi).localize(s, r1);
  const auto rg = GridBncl(gs).localize(s, r2);
  // Both must be sane; the in-round propagation of Gauss-Seidel should not
  // need more rounds than Jacobi.
  EXPECT_LE(rg.iterations, rj.iterations);
  EXPECT_LT(evaluate(s, rg).summary.mean, 1.0);
}

TEST(GridBncl, FinerGridIsMoreAccurate) {
  ScenarioConfig scfg = default_config(35);
  const Scenario s = build_scenario(scfg);
  GridBnclConfig coarse, fine;
  coarse.grid_side = 16;
  fine.grid_side = 64;
  Rng r1(1), r2(1);
  const double e_coarse =
      evaluate(s, GridBncl(coarse).localize(s, r1)).summary.mean;
  const double e_fine =
      evaluate(s, GridBncl(fine).localize(s, r2)).summary.mean;
  EXPECT_LT(e_fine, e_coarse);
}

TEST(GridBncl, NodeParallelUpdateIsBitIdentical) {
  // Node-parallel rounds: the Jacobi update is independent across
  // nodes within a round, so any thread count must reproduce the serial
  // beliefs exactly — estimates, covariances, and the convergence trace.
  const Scenario s = build_scenario(default_config(51));
  for (std::size_t threads : {0u, 2u, 3u}) {  // 0: the default team
    GridBnclConfig serial_cfg, par_cfg;
    serial_cfg.threads = 1;
    par_cfg.threads = threads;
    Rng r1(7), r2(7);
    const auto a = GridBncl(serial_cfg).localize(s, r1);
    const auto b = GridBncl(par_cfg).localize(s, r2);
    ASSERT_EQ(a.estimates.size(), b.estimates.size());
    for (std::size_t i = 0; i < a.estimates.size(); ++i) {
      ASSERT_EQ(a.estimates[i].has_value(), b.estimates[i].has_value());
      if (a.estimates[i]) {
        EXPECT_EQ(a.estimates[i]->x, b.estimates[i]->x);
        EXPECT_EQ(a.estimates[i]->y, b.estimates[i]->y);
      }
      ASSERT_EQ(a.covariances[i].has_value(), b.covariances[i].has_value());
      if (a.covariances[i]) {
        EXPECT_EQ(a.covariances[i]->xx, b.covariances[i]->xx);
        EXPECT_EQ(a.covariances[i]->xy, b.covariances[i]->xy);
        EXPECT_EQ(a.covariances[i]->yy, b.covariances[i]->yy);
      }
    }
    EXPECT_EQ(a.iterations, b.iterations);
    EXPECT_EQ(a.change_per_iteration, b.change_per_iteration);
  }
}

TEST(GridBncl, NodeParallelUpdateSurvivesFaultsAndTtl) {
  // Crashed neighbors + stale-belief TTL exercise the last_heard bookkeeping
  // inside the parallel region.
  ScenarioConfig scfg = default_config(52);
  scfg.faults.crash_fraction = 0.15;
  scfg.faults.outlier_fraction = 0.1;
  const Scenario s = build_scenario(scfg);
  GridBnclConfig serial_cfg, par_cfg;
  serial_cfg.robustness.stale_ttl = 3;
  par_cfg.robustness.stale_ttl = 3;
  serial_cfg.threads = 1;
  par_cfg.threads = 4;
  Rng r1(9), r2(9);
  const auto a = GridBncl(serial_cfg).localize(s, r1);
  const auto b = GridBncl(par_cfg).localize(s, r2);
  ASSERT_EQ(a.estimates.size(), b.estimates.size());
  for (std::size_t i = 0; i < a.estimates.size(); ++i) {
    ASSERT_EQ(a.estimates[i].has_value(), b.estimates[i].has_value());
    if (a.estimates[i]) {
      EXPECT_EQ(a.estimates[i]->x, b.estimates[i]->x);
      EXPECT_EQ(a.estimates[i]->y, b.estimates[i]->y);
    }
  }
  EXPECT_EQ(a.change_per_iteration, b.change_per_iteration);
}

TEST(GridBncl, BayesianCalibrationIsNonTrivial) {
  const Scenario s = build_scenario(default_config(36));
  const GridBncl engine;
  Rng rng(1);
  const auto r = engine.localize(s, rng);
  const double calib = coverage_within_sigma(s, r, 3.0);
  // Loopy BP is overconfident, but a majority of truths must fall inside
  // the reported 3-sigma ellipses for the uncertainty to mean anything.
  EXPECT_GT(calib, 0.5);
}

TEST(ParticleBncl, MoreParticlesHelp) {
  ScenarioConfig scfg = default_config(37);
  scfg.prior_quality = PriorQuality::none;
  const Scenario s = build_scenario(scfg);
  ParticleBnclConfig small, large;
  small.particle_count = 24;
  large.particle_count = 256;
  Rng r1(1), r2(1);
  const double e_small =
      evaluate(s, ParticleBncl(small).localize(s, r1)).summary.mean;
  const double e_large =
      evaluate(s, ParticleBncl(large).localize(s, r2)).summary.mean;
  EXPECT_LT(e_large, e_small);
}

TEST(GaussianBncl, TinyPayloadComparedToGrid) {
  const Scenario s = build_scenario(default_config(38));
  Rng r1(1), r2(1);
  const auto gauss = GaussianBncl().localize(s, r1);
  const auto grid = GridBncl().localize(s, r2);
  EXPECT_LT(gauss.comm.bytes_per_node(s.node_count()),
            grid.comm.bytes_per_node(s.node_count()));
}

TEST(GaussianBncl, ConvergesWithPriors) {
  const Scenario s = build_scenario(default_config(39));
  const GaussianBncl engine;
  Rng rng(1);
  const auto r = engine.localize(s, rng);
  EXPECT_TRUE(r.converged);
}

// FNV-1a over everything a caller reads from a grid run: every estimate's
// bits, the convergence trace, the round count and the broadcast count.
std::uint64_t result_digest(const LocalizationResult& r) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto fold = [&h](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  };
  for (const auto& e : r.estimates) {
    fold(e.has_value());
    if (e) {
      fold(std::bit_cast<std::uint64_t>(e->x));
      fold(std::bit_cast<std::uint64_t>(e->y));
    }
  }
  for (const double c : r.change_per_iteration)
    fold(std::bit_cast<std::uint64_t>(c));
  fold(r.iterations);
  fold(r.comm.messages_sent);
  return h;
}

// The engine's answers are pinned bit for bit to golden digests captured
// from the engine before its message and product stores were removed:
// recomputing every message each round must reproduce exactly what the
// stores replayed. The SIMD reductions round differently per lane width,
// so each dispatch mode has its own digests, and a build that lets the
// compiler fuse multiply-adds (an FMA -march, or a non-x86 target) rounds
// differently again and has none.
TEST(GridBncl, OutputsMatchGoldenDigests) {
#if !defined(__x86_64__) || defined(__FMA__)
  GTEST_SKIP() << "golden digests are recorded for baseline x86-64 builds";
#else
  struct Golden {
    simd::Mode mode;
    std::uint64_t plain, loss, gauss_seidel, robust, async;
  };
  const Golden goldens[] = {
      {simd::Mode::scalar, 0xcea737dc1703bfa3ULL, 0xd8d13af9e032a225ULL,
       0x70a1ffc6d290eb53ULL, 0x3e4b972a50dcad4fULL, 0x0b4f11eedc6daf98ULL},
      {simd::Mode::sse2, 0x1ceb4387db67cca1ULL, 0xccbdb04d3f01d918ULL,
       0x47845ee8b1a8dc98ULL, 0x2b6b499a82df92e1ULL, 0x85856a195e306ebcULL},
      {simd::Mode::avx2, 0x5ba9172da480fef2ULL, 0x7bb5e77ebacba961ULL,
       0xff8d529c5c047609ULL, 0x2d7d44668d7b6738ULL, 0x63551ed95b9d9048ULL},
  };
  const auto digest = [](const Scenario& s, const GridBnclConfig& cfg) {
    Rng rng(9);
    return result_digest(GridBncl(cfg).localize(s, rng));
  };
  const Scenario s = build_scenario(default_config(40));
  ScenarioConfig fcfg = default_config(41);
  fcfg.faults.crash_fraction = 0.1;
  fcfg.faults.outlier_fraction = 0.15;
  const Scenario sf = build_scenario(fcfg);

  GridBnclConfig loss;
  loss.iteration.packet_loss = 0.2;
  GridBnclConfig gauss_seidel;
  gauss_seidel.schedule = UpdateSchedule::gauss_seidel;
  GridBnclConfig serial;
  serial.threads = 1;
  GridBnclConfig parallel;
  parallel.threads = 4;
  // The default config solved on a pool worker: its parallel regions run
  // inline there (support/thread_pool.hpp).
  const auto digest_on_worker = [&](const Scenario& sc) {
    ThreadPool harness(1);
    std::uint64_t d = 0;
    parallel_for_index(harness, 1, [&](std::size_t) { d = digest(sc, {}); });
    return d;
  };
  GridBnclConfig robust;
  robust.robustness.robust_likelihood = true;
  robust.robustness.stale_ttl = 3;
  GridBnclConfig async;
  async.transport.async = true;
  async.transport.radio.loss = 0.1;
  async.robustness.stale_ttl = 4;
  async.robustness.update_quorum = 0.5;

  const simd::Mode session_mode = simd::active_mode();
  std::size_t modes_checked = 0;
  for (const Golden& g : goldens) {
    simd::set_mode(g.mode);
    if (simd::active_mode() != g.mode) continue;  // CPU lacks this mode
    SCOPED_TRACE(simd::active_name());
    ++modes_checked;
    EXPECT_EQ(digest(s, {}), g.plain) << "default (threads=0)";
    EXPECT_EQ(digest(s, serial), g.plain) << "serial";
    EXPECT_EQ(digest(s, loss), g.loss) << "packet loss";
    EXPECT_EQ(digest(s, gauss_seidel), g.gauss_seidel) << "gauss-seidel";
    EXPECT_EQ(digest(s, parallel), g.plain) << "node-parallel";
    EXPECT_EQ(digest_on_worker(s), g.plain) << "default on a pool worker";
    EXPECT_EQ(digest(sf, robust), g.robust) << "robustness stack";
    EXPECT_EQ(digest(sf, async), g.async) << "async transport";
  }
  simd::set_mode(session_mode);
  EXPECT_GE(modes_checked, 1u);
#endif
}

// The sync radio's TTL bookkeeping (last_heard) and the quorum hold interact:
// a held node still listens, so its held rounds must refresh last_heard or
// live neighbors would age out of the product. With packet loss, a short TTL
// and a quorum gate that actually holds nodes, the answers at any thread
// count are pinned to digests captured from the engine that kept this
// bookkeeping in a separate pre-pass.
TEST(GridBncl, SyncQuorumHoldsMatchGoldenDigests) {
#if !defined(__x86_64__) || defined(__FMA__)
  GTEST_SKIP() << "golden digests are recorded for baseline x86-64 builds";
#else
  const std::pair<simd::Mode, std::uint64_t> goldens[] = {
      {simd::Mode::scalar, 0x3c3a76dcaf934060ULL},
      {simd::Mode::sse2, 0x57de32b62ec27dbcULL},
      {simd::Mode::avx2, 0xb22f16f1e0c5f374ULL},
  };
  ScenarioConfig fcfg = default_config(41);
  fcfg.faults.crash_fraction = 0.1;
  fcfg.faults.outlier_fraction = 0.15;
  const Scenario sf = build_scenario(fcfg);
  GridBnclConfig cfg;
  cfg.iteration.packet_loss = 0.3;
  cfg.robustness.stale_ttl = 2;
  cfg.robustness.update_quorum = 0.6;

  const simd::Mode session_mode = simd::active_mode();
  std::size_t modes_checked = 0;
  for (const auto& [mode, golden] : goldens) {
    simd::set_mode(mode);
    if (simd::active_mode() != mode) continue;  // CPU lacks this mode
    SCOPED_TRACE(simd::active_name());
    ++modes_checked;
    for (const std::size_t threads : {1u, 4u, 0u}) {  // 0: the default
      cfg.threads = threads;
      obs::Telemetry sink;
      LocalizationResult r;
      {
        const obs::TelemetryScope scope(&sink);
        Rng rng(9);
        r = GridBncl(cfg).localize(sf, rng);
      }
      // The gate must actually hold someone, or the test is vacuous.
      EXPECT_GT(sink.registry.counter("grid.quorum_holds"), 0u);
      EXPECT_EQ(result_digest(r), golden) << "threads=" << threads;
    }
  }
  simd::set_mode(session_mode);
  EXPECT_GE(modes_checked, 1u);
#endif
}

// The pyramid path (pyramid_levels > 1): level switches, partial ROI boxes
// bounding every dense op, and the capped publish. Digests captured from the
// engine that still staged each Jacobi update in a separate store and
// committed it after the sweep; updating beliefs in place must reproduce
// them bit for bit.
TEST(GridBncl, PyramidMatchesGoldenDigests) {
#if !defined(__x86_64__) || defined(__FMA__)
  GTEST_SKIP() << "golden digests are recorded for baseline x86-64 builds";
#else
  struct Golden {
    simd::Mode mode;
    std::uint64_t l2, l3, l2_side96, gauss_seidel, async;
  };
  const Golden goldens[] = {
      {simd::Mode::scalar, 0xc3433f60baf8ab16ULL, 0x1d2584ba47ea66cbULL,
       0x08a1ebe37389e2edULL, 0xaf06f55661e1b5f2ULL, 0x31d70f37796ae1ebULL},
      {simd::Mode::sse2, 0xa0663a4b39434bc0ULL, 0xea1206c260146afcULL,
       0x0ce6a54acf360318ULL, 0x404ba14ae25fa94aULL, 0x0c2574687a548a77ULL},
      {simd::Mode::avx2, 0x5e7729fb8b7c7139ULL, 0xc05e76b2317a9cb1ULL,
       0x627969b0b5f3304bULL, 0xc67a634f39e5663eULL, 0xf354da5ffb1c8330ULL},
  };
  const Scenario s = build_scenario(default_config(40));
  ScenarioConfig fcfg = default_config(41);
  fcfg.faults.crash_fraction = 0.1;
  fcfg.faults.outlier_fraction = 0.15;
  const Scenario sf = build_scenario(fcfg);

  GridBnclConfig l2;
  l2.pyramid_levels = 2;
  GridBnclConfig l3 = l2;
  l3.pyramid_levels = 3;
  GridBnclConfig l2_side96 = l2;
  l2_side96.grid_side = 96;
  GridBnclConfig gauss_seidel = l2;
  gauss_seidel.schedule = UpdateSchedule::gauss_seidel;
  GridBnclConfig async = l2;
  async.transport.async = true;
  async.transport.radio.loss = 0.1;
  async.robustness.stale_ttl = 4;
  async.robustness.update_quorum = 0.5;

  // The run's digest, and whether some level bounded its dense work by a
  // partial ROI (else the legs would not exercise the pyramid's boxes).
  const auto run = [](const Scenario& sc, GridBnclConfig cfg,
                      std::size_t threads) {
    cfg.threads = threads;
    obs::Telemetry sink;
    LocalizationResult r;
    {
      const obs::TelemetryScope scope(&sink);
      Rng rng(9);
      r = GridBncl(cfg).localize(sc, rng);
    }
    const std::size_t side = cfg.grid_side;
    const bool partial = sink.registry.counter("grid.pyramid.l1.roi_cells") <
                         sc.node_count() * side * side;
    return std::pair{result_digest(r), partial};
  };

  const simd::Mode session_mode = simd::active_mode();
  std::size_t modes_checked = 0;
  for (const Golden& g : goldens) {
    simd::set_mode(g.mode);
    if (simd::active_mode() != g.mode) continue;  // CPU lacks this mode
    SCOPED_TRACE(simd::active_name());
    ++modes_checked;
    for (const std::size_t threads : {1u, 0u}) {  // 0: the default
      SCOPED_TRACE(threads);
      const auto [l2_digest, l2_partial] = run(s, l2, threads);
      EXPECT_TRUE(l2_partial);
      EXPECT_EQ(l2_digest, g.l2) << "levels 2";
      EXPECT_EQ(run(s, l3, threads).first, g.l3) << "levels 3";
      EXPECT_EQ(run(s, l2_side96, threads).first, g.l2_side96)
          << "levels 2, grid 96";
      EXPECT_EQ(run(sf, async, threads).first, g.async) << "async";
    }
    EXPECT_EQ(run(s, gauss_seidel, 1).first, g.gauss_seidel) << "gauss-seidel";
  }
  simd::set_mode(session_mode);
  EXPECT_GE(modes_checked, 1u);
#endif
}

// The degradation ladder under both transports, with reboots: a sync leg
// (loss, a short TTL, a quorum gate that holds) and an async leg (per-attempt
// loss, TTL, quorum, store-and-forward re-entry relays). The crash and
// reboot windows are pulled in so every reboot lands inside the round budget.
ScenarioConfig reboot_config() {
  ScenarioConfig cfg = default_config(41);
  cfg.faults.crash_fraction = 0.2;
  cfg.faults.outlier_fraction = 0.15;
  cfg.faults.reboot_fraction = 0.6;
  cfg.faults.reboot_delay_min = 2;
  cfg.faults.reboot_delay_max = 4;
  return cfg;
}

template <typename Config>
Config sync_reboot_leg(Config cfg) {
  cfg.iteration.packet_loss = 0.3;
  cfg.robustness.stale_ttl = 2;
  cfg.robustness.update_quorum = 0.6;
  return cfg;
}

template <typename Config>
Config async_reboot_leg(Config cfg) {
  cfg.transport.async = true;
  cfg.transport.radio.loss = 0.1;
  cfg.transport.reboot_relays = true;
  cfg.robustness.stale_ttl = 4;
  cfg.robustness.update_quorum = 0.5;
  return cfg;
}

// One leg's run under its own telemetry sink: the result digest plus the
// counters that prove the ladder engaged.
struct LegOutcome {
  std::uint64_t digest = 0;
  std::uint64_t holds = 0;
  std::uint64_t reboots = 0;
};

template <typename Engine>
LegOutcome run_leg(const Engine& engine, const Scenario& s,
                   const std::string& prefix) {
  obs::Telemetry sink;
  LocalizationResult r;
  {
    const obs::TelemetryScope scope(&sink);
    Rng rng(9);
    r = engine.localize(s, rng);
  }
  return {result_digest(r), sink.registry.counter(prefix + ".quorum_holds"),
          sink.registry.counter(prefix + ".reboots")};
}

// Particle and Gaussian runs are serial inside; their thread-count axis is
// the harness's: `threads` concurrent copies of the leg on a pool of that
// many workers must each reproduce the golden digest.
template <typename Engine>
void expect_leg_at_harness_threads(const Engine& engine, const Scenario& s,
                                   const std::string& prefix,
                                   std::uint64_t golden, const char* leg) {
  for (const std::size_t threads : {1u, 4u}) {
    ThreadPool pool(threads);
    std::vector<LegOutcome> out(threads);
    parallel_for_index(pool, threads, [&](std::size_t t) {
      out[t] = run_leg(engine, s, prefix);
    });
    for (const LegOutcome& o : out) {
      EXPECT_GT(o.holds, 0u) << leg << " threads=" << threads;
      EXPECT_GT(o.reboots, 0u) << leg << " threads=" << threads;
      EXPECT_EQ(o.digest, golden) << leg << " threads=" << threads;
    }
  }
}

// Digests captured from the engines before the round protocol was factored
// out of them: the particle and Gaussian engines' own copies of the ladder,
// and the grid's reboot path (cold restart, TTL grace, quorum re-arm,
// relays), must be reproduced bit for bit by the shared driver.
TEST(GridBncl, RebootLadderMatchesGoldenDigests) {
#if !defined(__x86_64__) || defined(__FMA__)
  GTEST_SKIP() << "golden digests are recorded for baseline x86-64 builds";
#else
  struct Golden {
    simd::Mode mode;
    std::uint64_t sync, async;
  };
  const Golden goldens[] = {
      {simd::Mode::scalar, 0x7557b5e4d7d321a4ULL, 0xcd3e231a6900eb39ULL},
      {simd::Mode::sse2, 0xa161ff1a80418d35ULL, 0x52d5714b55916622ULL},
      {simd::Mode::avx2, 0xa4b366683aebd132ULL, 0x6be2a2b557f5ec18ULL},
  };
  const Scenario s = build_scenario(reboot_config());
  const simd::Mode session_mode = simd::active_mode();
  std::size_t modes_checked = 0;
  for (const Golden& g : goldens) {
    simd::set_mode(g.mode);
    if (simd::active_mode() != g.mode) continue;  // CPU lacks this mode
    SCOPED_TRACE(simd::active_name());
    ++modes_checked;
    for (const std::size_t threads : {1u, 4u, 0u}) {  // 0: the default
      GridBnclConfig cfg;
      cfg.threads = threads;
      const LegOutcome sync = run_leg(GridBncl(sync_reboot_leg(cfg)), s, "grid");
      EXPECT_GT(sync.holds, 0u) << "sync threads=" << threads;
      EXPECT_GT(sync.reboots, 0u) << "sync threads=" << threads;
      EXPECT_EQ(sync.digest, g.sync) << "sync threads=" << threads;
      const LegOutcome async =
          run_leg(GridBncl(async_reboot_leg(cfg)), s, "grid");
      EXPECT_GT(async.holds, 0u) << "async threads=" << threads;
      EXPECT_GT(async.reboots, 0u) << "async threads=" << threads;
      EXPECT_EQ(async.digest, g.async) << "async threads=" << threads;
    }
  }
  simd::set_mode(session_mode);
  EXPECT_GE(modes_checked, 1u);
#endif
}

TEST(ParticleBncl, OutputsMatchGoldenDigests) {
#if !defined(__x86_64__) || defined(__FMA__)
  GTEST_SKIP() << "golden digests are recorded for baseline x86-64 builds";
#else
  struct Golden {
    simd::Mode mode;
    std::uint64_t sync, async;
  };
  const Golden goldens[] = {
      {simd::Mode::scalar, 0x8977ec5c5655558fULL, 0x2ab41213f5508a2cULL},
      {simd::Mode::sse2, 0x8977ec5c5655558fULL, 0x2ab41213f5508a2cULL},
      {simd::Mode::avx2, 0x8977ec5c5655558fULL, 0x2ab41213f5508a2cULL},
  };
  const Scenario s = build_scenario(reboot_config());
  ParticleBnclConfig cfg;
  cfg.particle_count = 48;
  const ParticleBncl sync(sync_reboot_leg(cfg));
  const ParticleBncl async(async_reboot_leg(cfg));
  const simd::Mode session_mode = simd::active_mode();
  std::size_t modes_checked = 0;
  for (const Golden& g : goldens) {
    simd::set_mode(g.mode);
    if (simd::active_mode() != g.mode) continue;  // CPU lacks this mode
    SCOPED_TRACE(simd::active_name());
    ++modes_checked;
    expect_leg_at_harness_threads(sync, s, "particle", g.sync, "sync");
    expect_leg_at_harness_threads(async, s, "particle", g.async, "async");
  }
  simd::set_mode(session_mode);
  EXPECT_GE(modes_checked, 1u);
#endif
}

TEST(GaussianBncl, OutputsMatchGoldenDigests) {
#if !defined(__x86_64__) || defined(__FMA__)
  GTEST_SKIP() << "golden digests are recorded for baseline x86-64 builds";
#else
  struct Golden {
    simd::Mode mode;
    std::uint64_t sync, async;
  };
  const Golden goldens[] = {
      {simd::Mode::scalar, 0xcb95f69f980f4758ULL, 0x0079df97fa18b905ULL},
      {simd::Mode::sse2, 0xcb95f69f980f4758ULL, 0x0079df97fa18b905ULL},
      {simd::Mode::avx2, 0xcb95f69f980f4758ULL, 0x0079df97fa18b905ULL},
  };
  const Scenario s = build_scenario(reboot_config());
  const GaussianBncl sync(sync_reboot_leg(GaussianBnclConfig{}));
  const GaussianBncl async(async_reboot_leg(GaussianBnclConfig{}));
  const simd::Mode session_mode = simd::active_mode();
  std::size_t modes_checked = 0;
  for (const Golden& g : goldens) {
    simd::set_mode(g.mode);
    if (simd::active_mode() != g.mode) continue;  // CPU lacks this mode
    SCOPED_TRACE(simd::active_name());
    ++modes_checked;
    expect_leg_at_harness_threads(sync, s, "gauss", g.sync, "sync");
    expect_leg_at_harness_threads(async, s, "gauss", g.async, "async");
  }
  simd::set_mode(session_mode);
  EXPECT_GE(modes_checked, 1u);
#endif
}

}  // namespace
}  // namespace bnloc
