// Shared configuration blocks embedded in every BNCL engine config.
//
// The three engines (grid / particle / gaussian) grew the same robustness
// and iteration knobs independently; this header is the single definition
// both of the fields and of their semantics. Engine configs embed these
// structs by value (`config.robustness.stale_ttl`, ...), overriding the
// defaults that differ per engine with designated initializers, so adding a
// knob here adds it to every engine at once.
#pragma once

#include <cstddef>
#include <string>

#include "net/async_radio.hpp"
#include "net/sync_radio.hpp"

namespace bnloc {

/// Fault countermeasures (F13). All off by default; every field is a no-op
/// on a fault-free scenario, so enabling the engines' robust variants never
/// changes clean-scenario behavior.
struct RobustnessConfig {
  /// Use a robust range likelihood so a single NLOS outlier link cannot
  /// veto the true position. Grid and particle engines mix the nominal
  /// density with a one-sided exponential NLOS tail (ε-contamination,
  /// parameterized below); the Gaussian engine applies the analogous
  /// Huber/IRLS residual downweighting (GaussianBnclConfig::huber_k).
  bool robust_likelihood = false;
  /// ε-contamination mixture weight of the NLOS tail (grid/particle).
  double contamination_epsilon = 0.1;
  /// NLOS tail scale as a multiple of the radio range (grid/particle).
  double contamination_tail_scale = 1.5;
  /// Residual-vet reported anchor positions (fault/anchor_vetting.hpp);
  /// flagged anchors are demoted to wide-prior unknowns instead of pinning
  /// their neighborhood to a lie.
  bool anchor_vetting = false;
  /// Drop a neighbor's last-received summary after this many consecutive
  /// undelivered rounds, so dead neighbors decay out of the posterior
  /// instead of freezing it. 0 disables (the non-robust behavior).
  std::size_t stale_ttl = 0;
  /// Partial-neighborhood gate: skip a node's belief update in rounds where
  /// fewer than this fraction of its neighbors are usable (heard from and
  /// not TTL-stale). Holding the previous belief beats integrating a
  /// neighborhood that is mostly silence — during a partition, an update
  /// from the 1-2 reachable neighbors would drag the posterior toward
  /// whatever side of the cut they happen to sit on; under the async
  /// transport it also keeps early rounds from committing to straggler
  /// partial inboxes while summaries are still in flight. 0 disables.
  double update_quorum = 0.0;
  /// Maximum consecutive rounds the quorum gate may hold a node. When the
  /// streak is exhausted the gate *disarms* — the node updates with
  /// whatever is reachable — until a full quorum is next observed, which
  /// re-arms it. This bounds how long a permanent cut can freeze a node,
  /// and it makes starts where quorum is structurally unreachable
  /// self-releasing instead of deadlocked: with diffuse priors nobody has
  /// passed the informative-coverage publish gate yet, so a patience-less
  /// whole-neighborhood quorum would hold every node forever (nobody
  /// updates because nobody is informative because nobody updates).
  std::size_t quorum_patience = 4;
};

/// Transport selection and async-degradation knobs, shared by every engine.
/// Defaults preserve the synchronous lockstep transport; `async = true`
/// swaps in the event-driven AsyncRadio (net/async_radio.hpp) plus the
/// graceful-degradation ladder (sequence-gated summaries, heartbeats,
/// store-and-forward re-entry).
struct TransportConfig {
  bool async = false;
  /// Link-layer parameters for the async transport (loss, latency, retry
  /// ladder, duty cycle, churn, partitions). Ignored when `async` is false.
  AsyncRadioConfig radio;
  /// Heartbeat republish period, in rounds: a quiet (converged) node whose
  /// last summary may have been dropped re-broadcasts at least this often,
  /// so silence is never mistaken for agreement. 0 disables.
  std::size_t heartbeat_rounds = 8;
  /// Warm re-entry: when a node reboots, each live published neighbor
  /// store-and-forward relays its newest summary to it, re-seeding the
  /// rebooted node's inbox in one hop instead of waiting out the
  /// publish-gate silence of converged neighbors.
  bool reboot_relays = true;
};

/// Outer-loop iteration and link-layer knobs shared by every engine.
struct IterationConfig {
  /// Hard cap on belief-propagation rounds.
  std::size_t max_iterations = 24;
  /// Early-stop threshold on the per-round change statistic. The statistic
  /// is engine-specific (documented at each engine config): mean belief
  /// total-variation change for the grid engine, mean estimate motion as a
  /// fraction of the radio range for the particle and Gaussian engines.
  double convergence_tol = 0.01;
  /// Independent per-reception packet drop probability in [0, 1).
  double packet_loss = 0.0;
};

/// config_error of the radio an engine builds from these blocks: the
/// AsyncRadio under `transport.async`, else the SyncRadio driven by
/// `iteration.packet_loss`. Every engine's config_error reports it.
[[nodiscard]] inline std::string radio_config_error(
    const TransportConfig& transport, const IterationConfig& iteration) {
  return transport.async ? AsyncRadio::config_error(transport.radio)
                         : SyncRadio::config_error(iteration.packet_loss);
}

}  // namespace bnloc
