// The unified engine-config API (core/engine_config.hpp): every shared knob
// round-trips through each engine's config() accessor, each engine's
// config_error() names every broken precondition, and the engine names the
// experiment tables key on are pinned.
#include <gtest/gtest.h>

#include <cmath>

#include "core/gaussian_bncl.hpp"
#include "core/grid_bncl.hpp"
#include "core/particle_bncl.hpp"
#include "support/version.hpp"

namespace bnloc {
namespace {

RobustnessConfig sample_robustness() {
  RobustnessConfig r;
  r.robust_likelihood = true;
  r.contamination_epsilon = 0.23;
  r.contamination_tail_scale = 2.25;
  r.anchor_vetting = true;
  r.stale_ttl = 7;
  return r;
}

IterationConfig sample_iteration() {
  IterationConfig it;
  it.max_iterations = 33;
  it.convergence_tol = 0.0625;
  it.packet_loss = 0.375;
  return it;
}

void expect_equal(const RobustnessConfig& a, const RobustnessConfig& b) {
  EXPECT_EQ(a.robust_likelihood, b.robust_likelihood);
  EXPECT_EQ(a.contamination_epsilon, b.contamination_epsilon);
  EXPECT_EQ(a.contamination_tail_scale, b.contamination_tail_scale);
  EXPECT_EQ(a.anchor_vetting, b.anchor_vetting);
  EXPECT_EQ(a.stale_ttl, b.stale_ttl);
}

void expect_equal(const IterationConfig& a, const IterationConfig& b) {
  EXPECT_EQ(a.max_iterations, b.max_iterations);
  EXPECT_EQ(a.convergence_tol, b.convergence_tol);
  EXPECT_EQ(a.packet_loss, b.packet_loss);
}

TEST(EngineConfig, GridRoundTripsSharedKnobs) {
  GridBnclConfig cfg;
  cfg.iteration = sample_iteration();
  cfg.robustness = sample_robustness();
  const GridBncl engine(cfg);
  expect_equal(engine.config().iteration, sample_iteration());
  expect_equal(engine.config().robustness, sample_robustness());
}

TEST(EngineConfig, ParticleRoundTripsSharedKnobs) {
  ParticleBnclConfig cfg;
  cfg.iteration = sample_iteration();
  cfg.robustness = sample_robustness();
  const ParticleBncl engine(cfg);
  expect_equal(engine.config().iteration, sample_iteration());
  expect_equal(engine.config().robustness, sample_robustness());
}

TEST(EngineConfig, GaussianRoundTripsSharedKnobs) {
  GaussianBnclConfig cfg;
  cfg.iteration = sample_iteration();
  cfg.robustness = sample_robustness();
  cfg.huber_k = 2.5;
  const GaussianBncl engine(cfg);
  expect_equal(engine.config().iteration, sample_iteration());
  expect_equal(engine.config().robustness, sample_robustness());
  EXPECT_EQ(engine.config().huber_k, 2.5);
}

TEST(EngineConfig, GridFastPathKnobsRoundTrip) {
  GridBnclConfig cfg;
  cfg.kernel_scope = KernelScope::process;
  const GridBncl engine(cfg);
  EXPECT_EQ(engine.config().kernel_scope, KernelScope::process);
  EXPECT_EQ(GridBncl(GridBnclConfig{}).config().kernel_scope,
            KernelScope::run);
}

// --- Preconditions ------------------------------------------------------------
// config_error() is the one list of each engine's preconditions: the
// constructor asserts it is empty and serve::validate() reports it, so a
// message here is exactly what a rejected serve request carries.

TEST(EngineConfig, DefaultConfigsSatisfyEveryPrecondition) {
  EXPECT_EQ(GridBncl::config_error(GridBnclConfig{}), "");
  EXPECT_EQ(ParticleBncl::config_error(ParticleBnclConfig{}), "");
  EXPECT_EQ(GaussianBncl::config_error(GaussianBnclConfig{}), "");
}

TEST(EngineConfig, GridConfigErrorNamesTheBrokenField) {
  const auto error = [](auto&& mutate) {
    GridBnclConfig cfg;
    mutate(cfg);
    return GridBncl::config_error(cfg);
  };
  EXPECT_EQ(error([](GridBnclConfig& c) { c.damping = 1.0; }),
            "damping must be in [0, 1)");
  EXPECT_EQ(error([](GridBnclConfig& c) { c.damping = -0.1; }),
            "damping must be in [0, 1)");
  EXPECT_EQ(error([](GridBnclConfig& c) { c.damping = std::nan(""); }),
            "damping must be in [0, 1)");
  EXPECT_EQ(error([](GridBnclConfig& c) { c.grid_side = 7; }),
            "grid_side must be >= 8");
  EXPECT_EQ(error([](GridBnclConfig& c) { c.pyramid_levels = 0; }),
            "pyramid_levels must be >= 1");
  EXPECT_EQ(error([](GridBnclConfig& c) { c.pyramid_roi_margin = -1; }),
            "pyramid_roi_margin must be >= 0");
  EXPECT_EQ(error([](GridBnclConfig& c) {
              c.transport.async = true;
              c.schedule = UpdateSchedule::gauss_seidel;
            }),
            "async transport requires the Jacobi schedule");
  EXPECT_EQ(
      error([](GridBnclConfig& c) { c.robustness.update_quorum = 1.5; }),
      "update_quorum must be in [0, 1]");
  EXPECT_EQ(error([](GridBnclConfig& c) {
              c.robustness.update_quorum = std::nan("");
            }),
            "update_quorum must be in [0, 1]");
  EXPECT_EQ(error([](GridBnclConfig& c) { c.iteration.packet_loss = 1.0; }),
            "packet_loss must be in [0, 1)");
  EXPECT_EQ(error([](GridBnclConfig& c) {
              c.transport.async = true;
              c.transport.radio.loss = 1.0;
            }),
            "loss must be in [0, 1)");

  // Every boundary value is itself legal.
  EXPECT_EQ(error([](GridBnclConfig& c) {
              c.damping = 0.0;
              c.grid_side = 8;
              c.pyramid_levels = 1;
              c.pyramid_roi_margin = 0;
              c.robustness.update_quorum = 1.0;
            }),
            "");
}

TEST(EngineConfig, ParticleConfigErrorNamesTheBrokenField) {
  const auto error = [](auto&& mutate) {
    ParticleBnclConfig cfg;
    mutate(cfg);
    return ParticleBncl::config_error(cfg);
  };
  EXPECT_EQ(error([](ParticleBnclConfig& c) { c.particle_count = 7; }),
            "particle_count must be >= 8");
  EXPECT_EQ(error([](ParticleBnclConfig& c) { c.message_subsample = 0; }),
            "message_subsample must be >= 1");
  EXPECT_EQ(error([](ParticleBnclConfig& c) {
              c.prior_refresh_fraction = 0.5;
              c.ring_refresh_fraction = 0.5;
            }),
            "refresh fractions must leave room for surviving particles");
  EXPECT_EQ(error([](ParticleBnclConfig& c) {
              c.iteration.packet_loss = -0.5;
            }),
            "packet_loss must be in [0, 1)");
  EXPECT_EQ(error([](ParticleBnclConfig& c) {
              c.transport.async = true;
              c.transport.radio.latency = -1.0;
            }),
            "latency must be >= 0");
  EXPECT_EQ(error([](ParticleBnclConfig& c) {
              c.particle_count = 8;
              c.message_subsample = 1;
            }),
            "");
}

TEST(EngineConfig, GaussianConfigErrorNamesTheBrokenField) {
  GaussianBnclConfig cfg;
  cfg.damping = 1.0;
  EXPECT_EQ(GaussianBncl::config_error(cfg), "damping must be in [0, 1)");
  cfg.damping = -0.5;
  EXPECT_EQ(GaussianBncl::config_error(cfg), "damping must be in [0, 1)");
  cfg.damping = 0.0;
  EXPECT_EQ(GaussianBncl::config_error(cfg), "");
  cfg.iteration.packet_loss = 1.0;
  EXPECT_EQ(GaussianBncl::config_error(cfg), "packet_loss must be in [0, 1)");
  // Under async the sync knob is never read; the link layer's are.
  cfg.transport.async = true;
  EXPECT_EQ(GaussianBncl::config_error(cfg), "");
  cfg.transport.radio.duty_cycle = 0.0;
  EXPECT_EQ(GaussianBncl::config_error(cfg), "duty_cycle must be in (0, 1]");
}

// The names below key experiment tables, BENCH_*.json lines, and trace
// files; a silent rename would orphan all recorded history.
TEST(EngineConfig, EngineNamesArePinned) {
  EXPECT_EQ(GridBncl().name(), "bncl-grid");
  EXPECT_EQ(ParticleBncl().name(), "bncl-particle");
  EXPECT_EQ(GaussianBncl().name(), "bncl-gauss");

  GridBnclConfig g;
  g.use_negative_evidence = false;
  EXPECT_EQ(GridBncl(g).name(), "bncl-grid-noneg");
  g.robustness.robust_likelihood = true;
  EXPECT_EQ(GridBncl(g).name(), "bncl-grid-noneg-robust");
  g.use_negative_evidence = true;
  EXPECT_EQ(GridBncl(g).name(), "bncl-grid-robust");
  g.transport.async = true;
  EXPECT_EQ(GridBncl(g).name(), "bncl-grid-robust-async");

  ParticleBnclConfig p;
  p.robustness.robust_likelihood = true;
  EXPECT_EQ(ParticleBncl(p).name(), "bncl-particle-robust");

  GaussianBnclConfig ga;
  ga.robustness.robust_likelihood = true;
  EXPECT_EQ(GaussianBncl(ga).name(), "bncl-gauss-robust");
}

TEST(EngineConfig, SharedDefaultsAreNeutral) {
  const RobustnessConfig r;
  EXPECT_FALSE(r.robust_likelihood);
  EXPECT_FALSE(r.anchor_vetting);
  EXPECT_EQ(r.stale_ttl, 0u);
  const IterationConfig it;
  EXPECT_EQ(it.packet_loss, 0.0);
}

TEST(Version, MacroAndFunctionAgree) {
  EXPECT_STREQ(bnloc::version(), BNLOC_VERSION);
  EXPECT_EQ(BNLOC_VERSION_NUMBER,
            BNLOC_VERSION_MAJOR * 10000 + BNLOC_VERSION_MINOR * 100 +
                BNLOC_VERSION_PATCH);
}

}  // namespace
}  // namespace bnloc
