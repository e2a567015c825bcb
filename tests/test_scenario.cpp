// Unit tests for scenario building (deploy/scenario.hpp).
#include "deploy/scenario.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace bnloc {
namespace {

TEST(Scenario, BuildBasics) {
  ScenarioConfig cfg;
  cfg.node_count = 100;
  cfg.anchor_fraction = 0.1;
  cfg.seed = 1;
  const Scenario s = build_scenario(cfg);
  EXPECT_EQ(s.node_count(), 100u);
  EXPECT_EQ(s.anchor_count(), 10u);
  EXPECT_EQ(s.unknown_count(), 90u);
  EXPECT_EQ(s.priors.size(), 100u);
  EXPECT_EQ(s.graph.node_count(), 100u);
  EXPECT_EQ(s.seed, 1u);
}

TEST(Scenario, DeterministicInSeed) {
  ScenarioConfig cfg;
  cfg.node_count = 80;
  cfg.seed = 77;
  const Scenario a = build_scenario(cfg);
  const Scenario b = build_scenario(cfg);
  ASSERT_EQ(a.node_count(), b.node_count());
  for (std::size_t i = 0; i < a.node_count(); ++i) {
    EXPECT_DOUBLE_EQ(a.true_positions[i].x, b.true_positions[i].x);
    EXPECT_EQ(a.is_anchor[i], b.is_anchor[i]);
  }
  EXPECT_EQ(a.graph.edge_count(), b.graph.edge_count());
}

TEST(Scenario, DifferentSeedsDiffer) {
  ScenarioConfig cfg;
  cfg.node_count = 80;
  cfg.seed = 1;
  const Scenario a = build_scenario(cfg);
  cfg.seed = 2;
  const Scenario b = build_scenario(cfg);
  bool any_diff = false;
  for (std::size_t i = 0; i < a.node_count(); ++i)
    any_diff |= a.true_positions[i].x != b.true_positions[i].x;
  EXPECT_TRUE(any_diff);
}

TEST(Scenario, LinksRespectRadioRange) {
  ScenarioConfig cfg;
  cfg.node_count = 150;
  cfg.radio = make_radio(0.12, RangingType::gaussian, 0.05);
  cfg.seed = 3;
  const Scenario s = build_scenario(cfg);
  for (std::size_t i = 0; i < s.node_count(); ++i)
    for (const Neighbor& nb : s.graph.neighbors(i))
      EXPECT_LE(distance(s.true_positions[i], s.true_positions[nb.node]),
                0.12 + 1e-12);
}

TEST(Scenario, AnchorIndicesConsistent) {
  ScenarioConfig cfg;
  cfg.node_count = 60;
  cfg.anchor_fraction = 0.2;
  cfg.seed = 4;
  const Scenario s = build_scenario(cfg);
  const auto anchors = s.anchor_indices();
  const auto unknowns = s.unknown_indices();
  EXPECT_EQ(anchors.size() + unknowns.size(), 60u);
  for (std::size_t a : anchors) EXPECT_TRUE(s.is_anchor[a]);
  for (std::size_t u : unknowns) EXPECT_FALSE(s.is_anchor[u]);
  // anchor_position visible for anchors.
  EXPECT_EQ(s.anchor_position(anchors[0]), s.true_positions[anchors[0]]);
}

TEST(Scenario, AtLeastOneAnchorEvenForTinyFractions) {
  ScenarioConfig cfg;
  cfg.node_count = 50;
  cfg.anchor_fraction = 0.001;
  cfg.seed = 5;
  const Scenario s = build_scenario(cfg);
  EXPECT_GE(s.anchor_count(), 1u);
}

TEST(Scenario, PriorQualityNoneGivesUniform) {
  ScenarioConfig cfg;
  cfg.node_count = 40;
  cfg.deployment.kind = DeploymentKind::grid_jitter;
  cfg.prior_quality = PriorQuality::none;
  cfg.seed = 6;
  const Scenario s = build_scenario(cfg);
  for (const auto& prior : s.priors)
    EXPECT_FALSE(prior->is_informative());
}

TEST(Scenario, PriorQualityExactKeepsInformativePriors) {
  ScenarioConfig cfg;
  cfg.node_count = 40;
  cfg.deployment.kind = DeploymentKind::grid_jitter;
  cfg.prior_quality = PriorQuality::exact;
  cfg.seed = 6;
  const Scenario s = build_scenario(cfg);
  for (const auto& prior : s.priors) EXPECT_TRUE(prior->is_informative());
}

TEST(Scenario, WidenedPriorsHaveLargerCovariance) {
  ScenarioConfig cfg;
  cfg.node_count = 40;
  cfg.deployment.kind = DeploymentKind::grid_jitter;
  cfg.prior_widen_factor = 3.0;
  cfg.seed = 7;
  cfg.prior_quality = PriorQuality::exact;
  const Scenario exact = build_scenario(cfg);
  cfg.prior_quality = PriorQuality::widened;
  const Scenario widened = build_scenario(cfg);
  for (std::size_t i = 0; i < 40; ++i) {
    EXPECT_NEAR(widened.priors[i]->covariance().xx,
                9.0 * exact.priors[i]->covariance().xx, 1e-12);
    // Location is preserved.
    EXPECT_NEAR(widened.priors[i]->mean().x, exact.priors[i]->mean().x,
                1e-12);
  }
}

TEST(Scenario, BiasedPriorsAreShiftedByConfiguredMagnitude) {
  ScenarioConfig cfg;
  cfg.node_count = 40;
  cfg.deployment.kind = DeploymentKind::grid_jitter;
  cfg.prior_bias_factor = 0.2;
  cfg.seed = 8;
  cfg.prior_quality = PriorQuality::exact;
  const Scenario exact = build_scenario(cfg);
  cfg.prior_quality = PriorQuality::biased;
  const Scenario biased = build_scenario(cfg);
  for (std::size_t i = 0; i < 40; ++i) {
    const double shift =
        distance(biased.priors[i]->mean(), exact.priors[i]->mean());
    EXPECT_NEAR(shift, 0.2, 1e-9);
  }
}

TEST(Scenario, ConfigErrorNamesTheBrokenField) {
  const auto error = [](auto&& mutate) {
    ScenarioConfig cfg;
    mutate(cfg);
    return scenario_config_error(cfg);
  };
  EXPECT_EQ(error([](ScenarioConfig& c) { c.node_count = 1; }),
            "node_count must be >= 2");
  EXPECT_EQ(error([](ScenarioConfig& c) { c.anchor_fraction = -0.01; }),
            "anchor_fraction must be in [0, 1]");
  EXPECT_EQ(error([](ScenarioConfig& c) { c.anchor_fraction = 1.01; }),
            "anchor_fraction must be in [0, 1]");
  EXPECT_EQ(error([](ScenarioConfig& c) { c.anchor_fraction = std::nan(""); }),
            "anchor_fraction must be in [0, 1]");
  EXPECT_EQ(error([](ScenarioConfig& c) { c.radio.range = 0.0; }),
            "radio.range must be > 0");
  EXPECT_EQ(error([](ScenarioConfig& c) { c.radio.range = std::nan(""); }),
            "radio.range must be > 0");
  EXPECT_EQ(
      error([](ScenarioConfig& c) { c.radio.ranging.noise_factor = -0.01; }),
      "radio.ranging.noise_factor must be >= 0");

  // Every boundary value is itself legal.
  EXPECT_EQ(error([](ScenarioConfig& c) {
              c.node_count = 2;
              c.anchor_fraction = 0.0;
              c.radio.ranging.noise_factor = 0.0;
            }),
            "");
  EXPECT_EQ(error([](ScenarioConfig& c) { c.anchor_fraction = 1.0; }), "");
  EXPECT_EQ(error([](ScenarioConfig& c) { c.radio.range = 1e-9; }), "");
}

TEST(Scenario, ToStringPriorQuality) {
  EXPECT_STREQ(to_string(PriorQuality::none), "none");
  EXPECT_STREQ(to_string(PriorQuality::exact), "exact");
  EXPECT_STREQ(to_string(PriorQuality::widened), "widened");
  EXPECT_STREQ(to_string(PriorQuality::biased), "biased");
}

class ScenarioAnchorFractions : public ::testing::TestWithParam<double> {};

TEST_P(ScenarioAnchorFractions, AnchorCountMatchesFraction) {
  ScenarioConfig cfg;
  cfg.node_count = 200;
  cfg.anchor_fraction = GetParam();
  cfg.seed = 9;
  const Scenario s = build_scenario(cfg);
  EXPECT_EQ(s.anchor_count(),
            static_cast<std::size_t>(std::round(GetParam() * 200.0)));
}

INSTANTIATE_TEST_SUITE_P(Fractions, ScenarioAnchorFractions,
                         ::testing::Values(0.05, 0.1, 0.25, 0.5));

}  // namespace
}  // namespace bnloc
