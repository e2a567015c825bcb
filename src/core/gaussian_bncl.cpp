#include "core/gaussian_bncl.hpp"

#include <algorithm>
#include <cmath>

#include <optional>

#include "fault/anchor_vetting.hpp"
#include "inference/gaussian2d.hpp"
#include "net/summary_channel.hpp"
#include "net/sync_radio.hpp"
#include "obs/telemetry.hpp"
#include "support/assert.hpp"
#include "support/timer.hpp"

namespace bnloc {

std::string GaussianBncl::config_error(const GaussianBnclConfig& config) {
  if (!(config.damping >= 0.0 && config.damping < 1.0))
    return "damping must be in [0, 1)";
  return {};
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
  std::vector<unsigned char> acts_anchor(n, 0);
  for (std::size_t i = 0; i < n; ++i) acts_anchor[i] = scenario.is_anchor[i];
  std::size_t anchors_demoted = 0;
  if (config_.robustness.anchor_vetting) {
    const AnchorVetReport vet = vet_anchors(scenario);
    for (std::size_t i = 0; i < n; ++i)
      if (scenario.is_anchor[i] && vet.flagged[i]) {
        acts_anchor[i] = 0;
        ++anchors_demoted;
      }
  }

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
  // Published snapshots (cur/prev) model broadcast + possible loss.
  std::vector<Gaussian2> cur_pub = belief, prev_pub = belief;

  // Transport: lockstep SyncRadio by default; the event-driven AsyncRadio
  // plus a Gaussian2 SummaryChannel with `transport.async`. Same substream
  // salt, so the two link layers see the same scenario.
  const bool async = config_.transport.async;
  std::optional<SyncRadio> sync_radio;
  std::optional<AsyncRadio> async_radio;
  std::optional<SummaryChannel<Gaussian2>> channel;
  if (async) {
    async_radio.emplace(scenario.graph, config_.transport.radio,
                        rng.split(0x5ad10), scenario.faults.death_round,
                        scenario.faults.reboot_round);
    channel.emplace(scenario.graph, *async_radio);
  } else {
    sync_radio.emplace(scenario.graph, config_.iteration.packet_loss,
                       rng.split(0x5ad10), scenario.faults.death_round,
                       scenario.faults.reboot_round);
  }
  const auto radio_crashed = [&](std::size_t u) {
    return async ? async_radio->crashed(u) : sync_radio->crashed(u);
  };
  const auto radio_stats = [&]() -> const CommStats& {
    return async ? async_radio->stats() : sync_radio->stats();
  };
  // A Gaussian summary is mean + covariance: 5 floats = 20 bytes.
  constexpr std::size_t kPayloadBytes = 20;
  const std::size_t ttl = config_.robustness.stale_ttl;
  const double quorum = config_.robustness.update_quorum;

  // Per directed CSR slot (receiver-side): round a neighbor's belief was
  // last delivered; drives the stale-belief TTL under the sync transport
  // (the async channel tracks its own accepted rounds).
  std::vector<std::size_t> slot_offset(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i)
    slot_offset[i + 1] = slot_offset[i] + scenario.graph.degree(i);
  std::vector<std::size_t> last_heard(!async && ttl > 0 ? slot_offset[n] : 0,
                                      0);
  // Quorum-gate state machine (see RobustnessConfig::quorum_patience):
  // armed from round one, disarms after `quorum_patience` consecutive
  // holds, re-arms on the next full quorum.
  std::vector<unsigned char> quorum_armed(quorum > 0.0 ? n : 0, 1);
  std::vector<std::uint32_t> quorum_streak(quorum > 0.0 ? n : 0, 0);

  std::vector<Gaussian2> staged = belief;
  std::vector<std::optional<Vec2>> traced_estimates;  // tracing only
  // Work counter: range factors folded into an information accumulator —
  // this engine's unit of useful work, the analogue of grid.cell_visits
  // (the engine is serial, so a plain accumulator is thread-safe).
  std::uint64_t factor_visits = 0;
  obs::PhaseTimer rounds_timer("gauss.rounds");
  std::size_t iter = 0;
  for (; iter < config_.iteration.max_iterations; ++iter) {
    if (async)
      channel->begin_round();
    else
      sync_radio->begin_round();
    std::size_t huber_downweighted = 0;
    std::size_t quorum_held = 0;

    // Reboot cold restart: the node's belief re-initializes from its prior
    // (linearized at the prior mean — the RAM holding the refined estimate
    // is gone). The async channel has already wiped its inbox and history;
    // under the sync idealization the shared cur/prev snapshots stay
    // readable. Every-round publishing re-seeds it from round one.
    if (async) {
      for (const std::uint32_t r : async_radio->rebooted_this_round()) {
        if (acts_anchor[r]) continue;
        belief[r] = prior[r];
        staged[r] = prior[r];
        cur_pub[r] = prior[r];
        prev_pub[r] = prior[r];
        if (!quorum_armed.empty()) {
          quorum_armed[r] = 1;
          quorum_streak[r] = 0;
        }
        obs::count("gauss.reboots");
      }
    } else if (!scenario.faults.reboot_round.empty()) {
      for (std::size_t r = 0; r < n; ++r) {
        if (!sync_radio->just_rebooted(r) || acts_anchor[r]) continue;
        belief[r] = prior[r];
        staged[r] = prior[r];
        cur_pub[r] = prior[r];
        prev_pub[r] = prior[r];
        if (!last_heard.empty())
          for (std::size_t s = slot_offset[r]; s < slot_offset[r + 1]; ++s)
            last_heard[s] = iter + 1;
        if (!quorum_armed.empty()) {
          quorum_armed[r] = 1;
          quorum_streak[r] = 0;
        }
        obs::count("gauss.reboots");
      }
    }

    for (std::size_t u = 0; u < n; ++u) {
      if (radio_crashed(u)) continue;  // published state freezes at death
      prev_pub[u] = cur_pub[u];
      cur_pub[u] = belief[u];
      if (async)
        channel->publish(u, iter + 1, belief[u], kPayloadBytes);
      else
        sync_radio->record_broadcast(u, kPayloadBytes);
    }

    double max_motion = 0.0;
    double sum_motion = 0.0;
    std::size_t unknowns = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (acts_anchor[i]) continue;
      if (radio_crashed(i)) continue;  // dead nodes stop computing too
      const auto nbs = scenario.graph.neighbors(i);

      // Usable summary for the k-th incoming link this round, or nullptr
      // (never heard under async, or TTL-retired). Pure read.
      const auto slot_src = [&](std::size_t k) -> const Gaussian2* {
        const std::size_t slot = slot_offset[i] + k;
        if (async) {
          if (!channel->has(slot)) return nullptr;
          if (ttl > 0 && iter + 1 - channel->heard_round(slot) > ttl)
            return nullptr;
          return &channel->payload(slot);
        }
        const bool fresh = sync_radio->delivered(nbs[k].node, i);
        if (ttl > 0) {
          const std::size_t heard =
              fresh ? iter + 1 : last_heard[slot];
          // Neighbor silent beyond the TTL: presumed dead, link dropped.
          if (iter + 1 - heard > ttl) return nullptr;
        }
        return fresh ? &cur_pub[nbs[k].node] : &prev_pub[nbs[k].node];
      };

      // Sync TTL bookkeeping (the slot_src reads above stay pure).
      if (!async && ttl > 0)
        for (std::size_t k = 0; k < nbs.size(); ++k)
          if (sync_radio->delivered(nbs[k].node, i))
            last_heard[slot_offset[i] + k] = iter + 1;

      // Partial-neighborhood quorum: with most of the neighborhood
      // unreachable, hold the previous estimate rather than follow the
      // skewed remainder. Bounded patience (see RobustnessConfig) keeps a
      // permanently-cut or still-bootstrapping node from being held
      // forever: after `quorum_patience` consecutive holds the gate
      // disarms until a full quorum is next observed.
      if (quorum > 0.0 && !nbs.empty()) {
        std::size_t usable = 0;
        for (std::size_t k = 0; k < nbs.size(); ++k)
          if (slot_src(k) != nullptr) ++usable;
        const bool met = static_cast<double>(usable) >=
                         quorum * static_cast<double>(nbs.size());
        if (met) {
          quorum_armed[i] = 1;
          quorum_streak[i] = 0;
        } else if (quorum_armed[i] &&
                   quorum_streak[i] < config_.robustness.quorum_patience) {
          ++quorum_streak[i];
          ++quorum_held;
          staged[i] = belief[i];
          continue;
        } else if (quorum_armed[i]) {
          quorum_armed[i] = 0;  // patience exhausted: free-run
          quorum_streak[i] = 0;
        }
      }

      InfoAccumulator acc(prior[i]);
      for (std::size_t k = 0; k < nbs.size(); ++k) {
        const Neighbor& nb = nbs[k];
        const Gaussian2* src_ptr = slot_src(k);
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
      staged[i] = post;
    }
    for (std::size_t i = 0; i < n; ++i)
      if (!acts_anchor[i] && !radio_crashed(i)) belief[i] = staged[i];

    const double mean_motion =
        unknowns ? sum_motion / static_cast<double>(unknowns) : 0.0;
    result.change_per_iteration.push_back(mean_motion);
    // Fixed-point 1e-9 of the serially-folded residual: thread-invariant.
    obs::observe_scaled("gauss.round.residual", mean_motion, 1e9);
    if (tracing) {
      traced_estimates.assign(n, std::nullopt);
      for (std::size_t i = 0; i < n; ++i)
        if (!scenario.is_anchor[i]) traced_estimates[i] = belief[i].mean;
      obs::RobustActivity robust;
      robust.links_downweighted = huber_downweighted;
      if (async) {
        std::size_t stale = 0;
        if (ttl > 0)
          for (std::size_t s = 0; s < slot_offset[n]; ++s)
            if (channel->has(s) && iter + 1 - channel->heard_round(s) > ttl)
              ++stale;
        robust.stale_links = stale;
        robust.crashed_nodes = async_radio->crashed_count();
      } else {
        robust.stale_links = obs::stale_link_count(
            last_heard, iter + 1, config_.robustness.stale_ttl);
        robust.crashed_nodes = sync_radio->crashed_count();
      }
      robust.anchors_demoted = anchors_demoted;
      robust.quorum_held = quorum_held;
      obs::record_round(scenario, iter + 1, mean_motion, traced_estimates,
                        radio_stats(), robust);
    }
    if (max_motion < config_.iteration.convergence_tol && quorum_held == 0 &&
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
  result.comm = radio_stats();
  if (async) result.transport_hash = async_radio->event_hash();
  result.seconds = watch.seconds();
  return result;
}

}  // namespace bnloc
