// The BNCL round protocol, shared by every belief representation.
//
// Each round every node broadcasts a summary of its belief and each unknown
// rebuilds prior × Π messages from the summaries it holds. This header owns
// everything in that loop except the belief: the transport (SyncRadio, or
// AsyncRadio plus a SummaryChannel) and the degradation ladder around it —
// anchor vetting, the stale-summary TTL, the quorum gate, reboot
// bookkeeping, async heartbeats and re-entry relays, and the per-round
// robustness trace. DESIGN.md §8 describes the ladder and the per-transport
// reboot semantics. An engine supplies its payload type, cold-restart
// action, publish gates, "usable summary" filter and convergence statistic.
//
// `input` is an inline member because the grid engine calls it per link in
// its node-parallel sweep. `begin_round`, `publish`, `relay_to_rebooted`
// and `end_round` are serial; `input` is a pure read, and
// `should_hold(i, …)` writes only receiver i's state, so distinct receivers
// may run concurrently.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/engine_config.hpp"
#include "core/localizer.hpp"
#include "fault/anchor_vetting.hpp"
#include "net/summary_channel.hpp"
#include "net/sync_radio.hpp"
#include "obs/telemetry.hpp"
#include "prior/prior.hpp"

namespace bnloc {

/// Anchor roles after residual vetting (fault/anchor_vetting.hpp): a flagged
/// anchor stops acting as an anchor and is re-estimated from a wide prior
/// centred on its reported position, so a drifted anchor is evidence to be
/// weighed rather than truth to obey.
struct AnchorRoles {
  AnchorRoles(const Scenario& scenario, bool vetting)
      : acts_anchor(scenario.is_anchor.begin(), scenario.is_anchor.end()),
        demoted_prior(scenario.node_count()) {
    if (!vetting) return;
    const AnchorVetReport vet = vet_anchors(scenario);
    for (std::size_t i = 0; i < scenario.node_count(); ++i) {
      if (!scenario.is_anchor[i] || !vet.flagged[i]) continue;
      acts_anchor[i] = 0;
      demoted_prior[i] = GaussianPrior::isotropic(scenario.anchor_position(i),
                                                  scenario.radio.range);
      ++demoted;
    }
  }

  /// Node i's effective prior: the demotion prior for a flagged anchor,
  /// the scenario's pre-knowledge otherwise.
  [[nodiscard]] const PositionPrior& prior(const Scenario& scenario,
                                           std::size_t i) const {
    return demoted_prior[i] ? *demoted_prior[i] : *scenario.priors[i];
  }

  std::vector<unsigned char> acts_anchor;
  std::vector<PriorPtr> demoted_prior;  ///< set for flagged anchors only.
  std::size_t demoted = 0;
};

template <typename Payload>
class RoundProtocol {
 public:
  /// Builds the transport from `rng.split(0x5ad10)`, the same substream for
  /// both link layers. `engine` prefixes the counters (`<engine>.reboots`,
  /// `<engine>.quorum_holds`). `roles` must outlive the protocol.
  RoundProtocol(const Scenario& scenario, const AnchorRoles& roles,
                const RobustnessConfig& robustness,
                const TransportConfig& transport, double packet_loss, Rng& rng,
                std::string_view engine)
      : cur(scenario.node_count()),
        prev(scenario.node_count()),
        scenario_(&scenario),
        roles_(&roles),
        async_(transport.async),
        relays_(transport.reboot_relays),
        ttl_(robustness.stale_ttl),
        quorum_(robustness.update_quorum),
        patience_(robustness.quorum_patience),
        heartbeat_(transport.async ? transport.heartbeat_rounds : 0),
        reboots_name_(std::string(engine) + ".reboots"),
        holds_name_(std::string(engine) + ".quorum_holds") {
    const std::size_t n = scenario.node_count();
    offset_.assign(n + 1, 0);
    for (std::size_t i = 0; i < n; ++i)
      offset_[i + 1] = offset_[i] + scenario.graph.degree(i);
    if (async_) {
      async_radio_.emplace(scenario.graph, transport.radio,
                           rng.split(0x5ad10), scenario.faults.death_round,
                           scenario.faults.reboot_round);
      channel_.emplace(scenario.graph, *async_radio_);
    } else {
      sync_radio_.emplace(scenario.graph, packet_loss, rng.split(0x5ad10),
                          scenario.faults.death_round,
                          scenario.faults.reboot_round);
    }
    // The sync TTL clock, per receiver-side slot (the async channel keeps
    // its own accepted rounds).
    last_heard_.assign(!async_ && ttl_ > 0 ? link_count() : 0, 0);
    last_pub_round_.assign(heartbeat_ > 0 ? n : 0, 0);
    gate_.assign(quorum_ > 0.0 ? n : 0, Gate{});
  }

  RoundProtocol(const RoundProtocol&) = delete;
  RoundProtocol& operator=(const RoundProtocol&) = delete;

  /// Each sender's newest published summary and the one before it (a sync
  /// receiver that lost this round's delivery still holds the previous
  /// copy). Rotated by `publish`; `input` reads them under sync only.
  std::vector<Payload> cur, prev;

  [[nodiscard]] bool async() const noexcept { return async_; }
  /// Receiver-side directed slot of receiver i's k-th neighbor (graph
  /// neighbor order; the same CSR indexing as both radios).
  [[nodiscard]] std::size_t slot(std::size_t i, std::size_t k) const noexcept {
    return offset_[i] + k;
  }
  [[nodiscard]] std::size_t link_count() const noexcept {
    return offset_.back();
  }
  [[nodiscard]] bool crashed(std::size_t u) const noexcept {
    return async_ ? async_radio_->crashed(u) : sync_radio_->crashed(u);
  }
  [[nodiscard]] const CommStats& stats() const noexcept {
    return async_ ? async_radio_->stats() : sync_radio_->stats();
  }

  /// Advance the transport one round. Each rebooted non-anchor gets
  /// `cold_restart(r)` (the engine resets its belief), a restarted sync TTL
  /// clock and a re-armed quorum gate: a fresh boot waits for its inbox.
  template <typename ColdRestart>
  void begin_round(ColdRestart&& cold_restart) {
    ++round_;
    if (async_) {
      channel_->begin_round();
      rebooted_ = async_radio_->rebooted_this_round();
    } else {
      sync_radio_->begin_round();
      rebooted_scratch_.clear();
      if (!scenario_->faults.reboot_round.empty())
        for (std::size_t u = 0; u < scenario_->node_count(); ++u)
          if (sync_radio_->just_rebooted(u))
            rebooted_scratch_.push_back(static_cast<std::uint32_t>(u));
      rebooted_ = rebooted_scratch_;
    }
    for (Gate& g : gate_) g.held = 0;
    holds_ = 0;
    for (const std::uint32_t r : rebooted_) {
      if (roles_->acts_anchor[r]) continue;
      cold_restart(static_cast<std::size_t>(r));
      if (!last_heard_.empty())
        for (std::size_t s = offset_[r]; s < offset_[r + 1]; ++s)
          last_heard_[s] = round_;
      if (!gate_.empty()) gate_[r] = Gate{};
      obs::count(reboots_name_);
    }
  }

  /// Warm re-entry (async, `transport.reboot_relays`): each live neighbor u
  /// with `published(u)` relays its newest summary to every node rebooted
  /// this round.
  template <typename Published, typename BytesOf>
  void relay_to_rebooted(Published&& published, BytesOf&& bytes_of) {
    if (!async_ || !relays_) return;
    for (const std::uint32_t r : rebooted_)
      for (const Neighbor& nb : scenario_->graph.neighbors(r)) {
        if (async_radio_->crashed(nb.node) || !published(nb.node)) continue;
        channel_->relay(nb.node, r, bytes_of(cur[nb.node]));
      }
  }

  /// Async heartbeat: has `u` been quiet for `transport.heartbeat_rounds`?
  /// Its last summary may never have arrived somewhere.
  [[nodiscard]] bool heartbeat_due(std::size_t u) const noexcept {
    return heartbeat_ > 0 && round_ - last_pub_round_[u] >= heartbeat_;
  }

  /// Node u broadcasts `payload` (`bytes` on the air) under version `ver`,
  /// strictly increasing per node. Serial, in node order: versions and
  /// metered traffic are order-sensitive.
  void publish(std::size_t u, std::uint64_t ver, Payload payload,
               std::size_t bytes) {
    prev[u] = std::move(cur[u]);
    cur[u] = std::move(payload);
    if (async_) {
      channel_->publish(u, ver, cur[u], bytes);
      if (heartbeat_ > 0) last_pub_round_[u] = round_;
    } else {
      sync_radio_->record_broadcast(u, bytes);
    }
  }

  /// The summary receiver i holds from its k-th neighbor this round, or
  /// null when there is none or it is older than the TTL. Async: the inbox.
  /// Sync: the sender's `cur` if this round's delivery arrived, else `prev`.
  [[nodiscard]] const Payload* input(std::size_t i,
                                     std::size_t k) const noexcept {
    const std::size_t s = offset_[i] + k;
    if (async_) {
      if (!channel_->has(s)) return nullptr;
      if (ttl_ > 0 && round_ - channel_->heard_round(s) > ttl_) return nullptr;
      return &channel_->payload(s);
    }
    const std::size_t j = scenario_->graph.neighbors(i)[k].node;
    const bool fresh = sync_radio_->delivered(j, i);
    if (ttl_ > 0 && !fresh && round_ - last_heard_[s] > ttl_) return nullptr;
    return fresh ? &cur[j] : &prev[j];
  }

  /// Receiver i's turn to update (call it for every live non-anchor). It
  /// listens first — records this round's sync deliveries on the TTL clock,
  /// held or not, so held rounds never retire live neighbors — then runs
  /// the quorum gate over the inputs `usable(const Payload*)` accepts.
  /// True means hold: keep the previous belief this round.
  template <typename Usable>
  [[nodiscard]] bool should_hold(std::size_t i, Usable&& usable) {
    const std::size_t degree = offset_[i + 1] - offset_[i];
    if (!last_heard_.empty()) {
      const auto nbs = scenario_->graph.neighbors(i);
      for (std::size_t k = 0; k < degree; ++k)
        if (sync_radio_->delivered(nbs[k].node, i))
          last_heard_[offset_[i] + k] = round_;
    }
    if (gate_.empty() || degree == 0) return false;
    std::size_t count = 0;
    for (std::size_t k = 0; k < degree; ++k)
      if (usable(input(i, k))) ++count;
    Gate& g = gate_[i];
    if (static_cast<double>(count) >= quorum_ * static_cast<double>(degree)) {
      g = Gate{};  // full quorum: (re-)arm
    } else if (g.armed && g.streak < patience_) {
      ++g.streak;
      g.held = 1;
    } else {
      g.armed = 0;  // patience exhausted: free-run
      g.streak = 0;
    }
    return g.held != 0;
  }

  /// Fold this round's holds (serial) and count them. A round with holds
  /// never counts as converged: held nodes report no change because the
  /// network is too degraded to update them, not because they settled.
  void end_round() {
    holds_ = static_cast<std::size_t>(std::count_if(
        gate_.begin(), gate_.end(), [](const Gate& g) { return g.held; }));
    if (holds_ > 0) obs::count(holds_name_, holds_);
  }
  [[nodiscard]] std::size_t holds() const noexcept { return holds_; }

  /// This round's trace row (engines add their own columns).
  [[nodiscard]] obs::RobustActivity activity() const {
    obs::RobustActivity robust;
    robust.anchors_demoted = roles_->demoted;
    robust.quorum_held = holds_;
    if (async_) {
      if (ttl_ > 0)
        for (std::size_t s = 0; s < link_count(); ++s)
          if (channel_->has(s) && round_ - channel_->heard_round(s) > ttl_)
            ++robust.stale_links;
      robust.crashed_nodes = async_radio_->crashed_count();
    } else {
      robust.stale_links = obs::stale_link_count(last_heard_, round_, ttl_);
      robust.crashed_nodes = sync_radio_->crashed_count();
    }
    return robust;
  }

  /// Apply `fn` to every payload the async channel stores (pyramid level
  /// switches). No-op under sync.
  template <typename Fn>
  void transform_payloads(Fn&& fn) {
    if (async_) channel_->transform(fn);
  }

  /// Fill the run's traffic and, under async, its replay hash.
  void finish(LocalizationResult& result) const {
    result.comm = stats();
    if (async_) result.transport_hash = async_radio_->event_hash();
  }

 private:
  const Scenario* scenario_;
  const AnchorRoles* roles_;
  bool async_;
  bool relays_;
  std::size_t ttl_;
  double quorum_;
  std::size_t patience_;
  std::size_t heartbeat_;
  std::string reboots_name_, holds_name_;
  std::vector<std::size_t> offset_;
  std::optional<SyncRadio> sync_radio_;
  std::optional<AsyncRadio> async_radio_;
  std::optional<SummaryChannel<Payload>> channel_;
  std::size_t round_ = 0;
  std::span<const std::uint32_t> rebooted_;
  std::vector<std::uint32_t> rebooted_scratch_;
  std::vector<std::size_t> last_heard_;
  std::vector<std::size_t> last_pub_round_;
  /// Quorum-gate state per node; armed from round one, which under async
  /// also synchronizes the bootstrap against in-flight first summaries.
  struct Gate {
    unsigned char armed = 1, held = 0;
    std::uint32_t streak = 0;
  };
  std::vector<Gate> gate_;
  std::size_t holds_ = 0;
};

}  // namespace bnloc
