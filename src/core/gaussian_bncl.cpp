#include "core/gaussian_bncl.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

#include "core/round_protocol.hpp"
#include "inference/gaussian2d.hpp"
#include "obs/telemetry.hpp"
#include "support/assert.hpp"
#include "support/timer.hpp"

namespace bnloc {

std::string GaussianBncl::config_error(const GaussianBnclConfig& config) {
  if (!(config.damping >= 0.0 && config.damping < 1.0))
    return "damping must be in [0, 1)";
  return radio_config_error(config.transport, config.iteration);
}

GaussianBncl::GaussianBncl(GaussianBnclConfig config) : config_(config) {
  const std::string error = config_error(config_);
  BNLOC_ASSERT(error.empty(), error.c_str());
}

LocalizationResult GaussianBncl::localize(const Scenario& scenario,
                                          Rng& rng) const {
  const Stopwatch watch;
  const std::size_t n = scenario.node_count();
  LocalizationResult result = make_result_skeleton(scenario);
  const bool tracing = obs::trace_active();
  if (tracing) obs::trace_begin(name());
  obs::count("gauss.runs");
  const obs::Span run_span("gauss.run");

  // Anchor vetting: a flagged anchor keeps its reported mean but gets a
  // radio-range-wide covariance and is re-estimated like an unknown, so its
  // lie is softened instead of propagated at anchor confidence.
  const AnchorRoles roles(scenario, config_.robustness.anchor_vetting);
  const auto& acts_anchor = roles.acts_anchor;

  std::vector<Gaussian2> belief(n), prior(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (scenario.is_anchor[i] && !acts_anchor[i]) {
      belief[i].mean = scenario.anchor_position(i);
      belief[i].cov = Cov2::isotropic(scenario.radio.range *
                                      scenario.radio.range);
      prior[i] = belief[i];
      continue;
    }
    if (acts_anchor[i]) {
      belief[i].mean = scenario.anchor_position(i);
      belief[i].cov =
          Cov2::isotropic(config_.anchor_sigma * config_.anchor_sigma);
    } else {
      const PositionPrior& p = *scenario.priors[i];
      // An informative prior's mean is the best linearization point; for an
      // uninformative (uniform) prior, every node starting at the field
      // center makes all inter-node directions degenerate, so scatter the
      // starting means by sampling instead.
      belief[i].mean = p.is_informative() ? p.mean() : p.sample(rng);
      belief[i].cov = p.covariance();
    }
    prior[i] = belief[i];
    prior[i].mean = scenario.is_anchor[i] ? belief[i].mean
                                          : scenario.priors[i]->mean();
  }
  // Every node broadcasts every round, so heartbeats and relays are moot;
  // the published snapshots start at the initial belief.
  RoundProtocol<Gaussian2> proto(scenario, roles, config_.robustness,
                                 config_.transport,
                                 config_.iteration.packet_loss, rng, "gauss");
  proto.cur = belief;
  proto.prev = belief;
  // A Gaussian summary is mean + covariance: 5 floats = 20 bytes.
  constexpr std::size_t kPayloadBytes = 20;
  const auto usable = [](const Gaussian2* src) { return src != nullptr; };

  std::vector<std::optional<Vec2>> traced_estimates;  // tracing only
  // Work counter: range factors folded into an information accumulator —
  // this engine's unit of useful work, the analogue of grid.cell_visits
  // (the engine is serial, so a plain accumulator is thread-safe).
  std::uint64_t factor_visits = 0;
  obs::PhaseTimer rounds_timer("gauss.rounds");
  std::size_t iter = 0;
  for (; iter < config_.iteration.max_iterations; ++iter) {
    // Reboot cold restart: the node's belief re-initializes from its prior
    // (linearized at the prior mean — the RAM holding the refined estimate
    // is gone).
    proto.begin_round([&](std::size_t r) {
      belief[r] = prior[r];
      proto.cur[r] = prior[r];
      proto.prev[r] = prior[r];
    });
    std::size_t huber_downweighted = 0;

    for (std::size_t u = 0; u < n; ++u) {
      if (proto.crashed(u)) continue;  // published state freezes at death
      proto.publish(u, iter + 1, belief[u], kPayloadBytes);
    }

    double max_motion = 0.0;
    double sum_motion = 0.0;
    std::size_t unknowns = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (acts_anchor[i]) continue;
      if (proto.crashed(i)) continue;  // dead nodes stop computing too
      // Quorum hold: keep the previous estimate rather than follow the
      // skewed remainder of a mostly-unreachable neighborhood.
      if (proto.should_hold(i, usable)) continue;

      const auto nbs = scenario.graph.neighbors(i);
      InfoAccumulator acc(prior[i]);
      for (std::size_t k = 0; k < nbs.size(); ++k) {
        const Neighbor& nb = nbs[k];
        const Gaussian2* src_ptr = proto.input(i, k);
        if (src_ptr == nullptr) continue;
        const Gaussian2& src = *src_ptr;
        double sigma = scenario.radio.ranging.sigma_at(nb.weight);
        if (config_.robustness.robust_likelihood) {
          // Huber/IRLS: beyond k sigmas, weight w = k*sigma/|r| — realized
          // here by inflating the observation noise by 1/sqrt(w).
          const double residual =
              std::abs(nb.weight - distance(belief[i].mean, src.mean));
          const double gate = config_.huber_k * sigma;
          if (residual > gate) {
            sigma *= std::sqrt(residual / gate);
            ++huber_downweighted;
          }
        }
        acc.add_range(src, belief[i].mean, nb.weight, sigma);
        ++factor_visits;
      }
      Gaussian2 post = acc.posterior();
      // Damp the mean; keep the fresher covariance.
      post.mean = lerp(post.mean, belief[i].mean, config_.damping);
      post.mean = scenario.field.clamp(post.mean);
      const double motion =
          distance(post.mean, belief[i].mean) / scenario.radio.range;
      max_motion = std::max(max_motion, motion);
      sum_motion += motion;
      ++unknowns;
      // In place: the update reads only published summaries and node i's
      // own belief (DESIGN.md §8), so no later node sees this write.
      belief[i] = post;
    }
    proto.end_round();

    const double mean_motion =
        unknowns ? sum_motion / static_cast<double>(unknowns) : 0.0;
    result.change_per_iteration.push_back(mean_motion);
    // Fixed-point 1e-9 of the serially-folded residual: thread-invariant.
    obs::observe_scaled("gauss.round.residual", mean_motion, 1e9);
    if (tracing) {
      traced_estimates.assign(n, std::nullopt);
      for (std::size_t i = 0; i < n; ++i)
        if (!scenario.is_anchor[i]) traced_estimates[i] = belief[i].mean;
      obs::RobustActivity robust = proto.activity();
      robust.links_downweighted = huber_downweighted;
      obs::record_round(scenario, iter + 1, mean_motion, traced_estimates,
                        proto.stats(), robust);
    }
    if (max_motion < config_.iteration.convergence_tol && proto.holds() == 0 &&
        iter >= 2) {
      result.converged = true;
      ++iter;
      break;
    }
  }
  rounds_timer.stop();
  obs::count("gauss.factor_visits", factor_visits);
  obs::count(result.converged ? "gauss.converged" : "gauss.maxed_out");

  for (std::size_t i = 0; i < n; ++i) {
    if (scenario.is_anchor[i]) continue;
    result.estimates[i] = belief[i].mean;
    result.covariances[i] = belief[i].cov;
  }
  result.iterations = iter;
  proto.finish(result);
  result.seconds = watch.seconds();
  return result;
}

}  // namespace bnloc
