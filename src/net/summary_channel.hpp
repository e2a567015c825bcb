// Payload plumbing on top of AsyncRadio: the part of an unreliable
// transport the radio itself cannot do, because it only moves (slot, seq)
// headers.
//
// AsyncRadio decides *which* packets arrive and when; SummaryChannel pairs
// each accepted sequence number back up with the belief summary it named.
// Senders keep a short history of published payloads (bounded by the
// radio's worst-case in-flight horizon, so a retried packet can always find
// its body), and every receiver-side directed link keeps an inbox holding
// the newest accepted summary. The round protocol (core/round_protocol.hpp)
// reads the inbox exactly like it reads `cur`/`prev` under SyncRadio —
// except here "newest accepted" may be several rounds stale, which is
// precisely what its TTL/quorum degradation ladder is for.
//
// Reboot handling mirrors the radio: when a node reboots, its inbox and its
// publish history are cleared (RAM is gone) and neighbors re-seed it via
// `relay`, the store-and-forward warm re-entry path.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

#include "graph/adjacency.hpp"
#include "net/async_radio.hpp"
#include "obs/telemetry.hpp"
#include "support/assert.hpp"

namespace bnloc {

template <typename Payload>
class SummaryChannel {
 public:
  SummaryChannel(const Graph& graph, AsyncRadio& radio)
      : radio_(&radio) {
    history_.resize(graph.node_count());
    inbox_.resize(radio.link_count());
    inbox_ver_.assign(radio.link_count(), 0);
  }

  /// Advance the radio one round and bind every accepted delivery to its
  /// payload. Must be called serially (it drives the radio's event loop).
  void begin_round() {
    radio_->begin_round();
    const std::size_t round = radio_->round();
    // Rebooted nodes lose both directions of state: what they had heard
    // (inbox) and what they had published (history) — a relay can only
    // forward summaries minted after the reboot.
    for (const std::uint32_t u : radio_->rebooted_this_round()) {
      history_[u].clear();
      for (std::size_t s = radio_->incoming_begin(u);
           s < radio_->incoming_end(u); ++s) {
        inbox_[s] = Payload{};
        inbox_ver_[s] = 0;
      }
    }
    for (const AsyncDelivery& d : radio_->deliveries()) {
      const Stored* found = find(radio_->sender_of(d.slot), d.seq);
      if (!found) {
        // The body aged out of the sender's history. The horizon bound
        // makes this unreachable for live senders; it can only happen when
        // the sender rebooted and wiped its history mid-flight.
        ++history_misses_;
        obs::count("radio.async.history_misses");
        continue;
      }
      inbox_[d.slot] = found->payload;
      inbox_ver_[d.slot] = d.seq;
    }
    // Prune send histories: anything older than the in-flight horizon can
    // no longer be delivered. The newest entry always survives — it is the
    // relay body for warm re-entry.
    const std::size_t horizon = radio_->max_packet_age_rounds();
    const std::size_t cutoff = round > horizon ? round - horizon : 0;
    for (auto& h : history_)
      while (h.size() > 1 && h.front().round < cutoff) h.pop_front();
  }

  /// Publish node `u`'s summary under version `ver` (must be strictly
  /// increasing per node; the engines use a global publish counter).
  void publish(std::size_t u, std::uint64_t ver, Payload payload,
               std::size_t bytes) {
    BNLOC_ASSERT(history_[u].empty() || history_[u].back().ver < ver,
                 "publish versions must increase per node");
    history_[u].push_back({ver, radio_->round(), std::move(payload)});
    radio_->send(u, ver, bytes);
  }

  /// Store-and-forward re-send of `from`'s newest published summary to a
  /// single neighbor (warm re-entry for rebooted nodes). No-op if `from`
  /// has nothing published.
  void relay(std::size_t from, std::size_t to, std::size_t bytes) {
    if (history_[from].empty()) return;
    Stored& newest = history_[from].back();
    newest.round = radio_->round();  // refresh retention: back in flight
    radio_->relay(from, to, newest.ver, bytes);
  }

  /// Has this directed slot ever accepted a summary (that survived reboot
  /// wipes)? Version 0 means "nothing heard".
  [[nodiscard]] bool has(std::size_t slot) const noexcept {
    return inbox_ver_[slot] != 0;
  }
  /// Round the inbox summary was accepted in (TTL staleness anchor).
  [[nodiscard]] std::size_t heard_round(std::size_t slot) const noexcept {
    return radio_->accepted_round(slot);
  }
  [[nodiscard]] const Payload& payload(std::size_t slot) const noexcept {
    return inbox_[slot];
  }

  [[nodiscard]] std::size_t history_misses() const noexcept {
    return history_misses_;
  }

  /// Apply `fn` to every stored payload (histories and inboxes). Used at
  /// pyramid level switches, where summaries must be re-expressed on the
  /// finer grid before anyone consumes them.
  template <typename Fn>
  void transform(Fn&& fn) {
    for (auto& h : history_)
      for (Stored& s : h) fn(s.payload);
    for (std::size_t slot = 0; slot < inbox_.size(); ++slot)
      if (inbox_ver_[slot] != 0) fn(inbox_[slot]);
  }

 private:
  struct Stored {
    std::uint64_t ver = 0;
    std::size_t round = 0;  ///< retention tag (publish or latest relay).
    Payload payload{};
  };

  [[nodiscard]] const Stored* find(std::size_t sender,
                                   std::uint64_t ver) const noexcept {
    const auto& h = history_[sender];
    // Newest-first scan: deliveries overwhelmingly bind the latest publish.
    for (auto it = h.rbegin(); it != h.rend(); ++it)
      if (it->ver == ver) return &*it;
    return nullptr;
  }

  AsyncRadio* radio_;
  std::vector<std::deque<Stored>> history_;
  std::vector<Payload> inbox_;
  std::vector<std::uint64_t> inbox_ver_;
  std::size_t history_misses_ = 0;
};

}  // namespace bnloc
