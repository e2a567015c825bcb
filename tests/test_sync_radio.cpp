// Unit tests for the synchronous lossy radio (net/sync_radio.hpp).
#include "net/sync_radio.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "fault/fault.hpp"  // kNeverCrashes

namespace bnloc {
namespace {

Graph triangle() {
  const std::vector<Edge> edges = {{0, 1, 1.0}, {1, 2, 1.0}, {0, 2, 1.0}};
  return Graph(3, edges);
}

TEST(SyncRadio, ConfigErrorBoundsTheLossProbability) {
  EXPECT_EQ(SyncRadio::config_error(0.0), "");
  EXPECT_EQ(SyncRadio::config_error(0.999), "");
  EXPECT_EQ(SyncRadio::config_error(1.0), "packet_loss must be in [0, 1)");
  EXPECT_EQ(SyncRadio::config_error(-0.5), "packet_loss must be in [0, 1)");
}

TEST(SyncRadio, LosslessDeliversEverything) {
  const Graph g = triangle();
  SyncRadio radio(g, 0.0, Rng(1));
  for (int round = 0; round < 5; ++round) {
    radio.begin_round();
    EXPECT_TRUE(radio.delivered(0, 1));
    EXPECT_TRUE(radio.delivered(1, 0));
    EXPECT_TRUE(radio.delivered(2, 0));
  }
}

TEST(SyncRadio, BroadcastAccounting) {
  const Graph g = triangle();
  SyncRadio radio(g, 0.0, Rng(1));
  radio.begin_round();
  radio.record_broadcast(0, 100);
  radio.record_broadcast(1, 50);
  const CommStats& st = radio.stats();
  EXPECT_EQ(st.rounds, 1u);
  EXPECT_EQ(st.messages_sent, 2u);
  EXPECT_EQ(st.bytes_sent, 150u);
  // Node 0 and 1 each have 2 neighbors; all deliveries succeed.
  EXPECT_EQ(st.messages_received, 4u);
}

TEST(SyncRadio, PerNodeAverages) {
  CommStats st;
  st.messages_sent = 30;
  st.bytes_sent = 3000;
  EXPECT_DOUBLE_EQ(st.messages_per_node(10), 3.0);
  EXPECT_DOUBLE_EQ(st.bytes_per_node(10), 300.0);
  EXPECT_DOUBLE_EQ(st.messages_per_node(0), 0.0);
}

TEST(SyncRadio, MergeAddsCounters) {
  CommStats a, b;
  a.rounds = 1;
  a.messages_sent = 2;
  b.rounds = 3;
  b.messages_sent = 4;
  b.bytes_sent = 10;
  a.merge(b);
  EXPECT_EQ(a.rounds, 4u);
  EXPECT_EQ(a.messages_sent, 6u);
  EXPECT_EQ(a.bytes_sent, 10u);
}

TEST(SyncRadio, LossRateApproximatelyRespected) {
  const Graph g = triangle();
  SyncRadio radio(g, 0.3, Rng(99));
  std::size_t delivered = 0, total = 0;
  for (int round = 0; round < 4000; ++round) {
    radio.begin_round();
    for (std::size_t u = 0; u < 3; ++u)
      for (const Neighbor& nb : g.neighbors(u)) {
        ++total;
        if (radio.delivered(u, nb.node)) ++delivered;
      }
  }
  EXPECT_NEAR(static_cast<double>(delivered) / static_cast<double>(total),
              0.7, 0.01);
}

TEST(SyncRadio, LossIsPerDirectedLink) {
  // With loss, (u->v) and (v->u) draw independently; over many rounds we
  // must observe rounds where one direction delivers and the other drops.
  const Graph g = triangle();
  SyncRadio radio(g, 0.5, Rng(5));
  bool asymmetric = false;
  for (int round = 0; round < 200 && !asymmetric; ++round) {
    radio.begin_round();
    asymmetric = radio.delivered(0, 1) != radio.delivered(1, 0);
  }
  EXPECT_TRUE(asymmetric);
}

TEST(SyncRadio, ReceivedCountsOnlyDeliveries) {
  const Graph g = triangle();
  SyncRadio radio(g, 0.6, Rng(7));
  std::size_t manual = 0;
  for (int round = 0; round < 300; ++round) {
    radio.begin_round();
    for (const Neighbor& nb : g.neighbors(0))
      if (radio.delivered(0, nb.node)) ++manual;
    radio.record_broadcast(0, 1);
  }
  EXPECT_EQ(radio.stats().messages_received, manual);
}

TEST(SyncRadio, DeliveredIsStableWithinARound) {
  const Graph g = triangle();
  SyncRadio radio(g, 0.5, Rng(13));
  for (int round = 0; round < 100; ++round) {
    radio.begin_round();
    for (std::size_t u = 0; u < 3; ++u)
      for (const Neighbor& nb : g.neighbors(u)) {
        const bool first = radio.delivered(u, nb.node);
        EXPECT_EQ(radio.delivered(u, nb.node), first);
      }
  }
}

TEST(SyncRadio, DeliveredIsQueryOrderIndependent) {
  // The O(1) slot map is a pure lookup: querying links in different orders
  // on same-seeded radios must give the same per-link answers.
  const std::vector<Edge> edges = {
      {0, 1, 1.0}, {1, 2, 1.0}, {0, 2, 1.0}, {2, 3, 1.0}, {1, 3, 1.0}};
  const Graph g(4, edges);
  SyncRadio fwd(g, 0.4, Rng(3));
  SyncRadio rev(g, 0.4, Rng(3));
  for (int round = 0; round < 50; ++round) {
    fwd.begin_round();
    rev.begin_round();
    std::vector<int> a, b;
    for (std::size_t u = 0; u < 4; ++u)
      for (const Neighbor& nb : g.neighbors(u))
        a.push_back(fwd.delivered(u, nb.node));
    for (std::size_t u = 4; u-- > 0;) {
      const auto nbs = g.neighbors(u);
      for (std::size_t k = nbs.size(); k-- > 0;)
        b.push_back(rev.delivered(u, nbs[k].node));
    }
    std::reverse(b.begin(), b.end());
    EXPECT_EQ(a, b);
  }
}

TEST(SyncRadio, CrashedNodeDeliversNothingAfterDeathRound) {
  const Graph g = triangle();
  const std::vector<std::size_t> deaths = {2, kNeverCrashes, kNeverCrashes};
  SyncRadio radio(g, 0.0, Rng(1), deaths);
  for (int round = 1; round <= 6; ++round) {
    radio.begin_round();
    const bool alive = round <= 2;
    EXPECT_EQ(radio.crashed(0), !alive);
    EXPECT_EQ(radio.delivered(0, 1), alive);
    EXPECT_EQ(radio.delivered(0, 2), alive);
    // Survivors keep talking to each other (and even to the dead node's
    // radio slot: receiving is an engine-side concern).
    EXPECT_TRUE(radio.delivered(1, 2));
    EXPECT_TRUE(radio.delivered(1, 0));
  }
}

TEST(SyncRadio, CrashedNodeSendsNothing) {
  const Graph g = triangle();
  const std::vector<std::size_t> deaths = {1, kNeverCrashes, kNeverCrashes};
  SyncRadio radio(g, 0.0, Rng(1), deaths);
  radio.begin_round();  // round 1: node 0 still alive
  radio.record_broadcast(0, 10);
  radio.begin_round();  // round 2: node 0 is dead
  radio.record_broadcast(0, 10);
  radio.record_broadcast(1, 10);
  const CommStats& st = radio.stats();
  EXPECT_EQ(st.messages_sent, 2u);  // the dead broadcast was dropped
  EXPECT_EQ(st.bytes_sent, 20u);
  EXPECT_EQ(st.messages_received, 4u);
}

TEST(SyncRadio, ReceivedAccountingMatchesDeliveredUnderLossAndCrashes) {
  const Graph g = triangle();
  const std::vector<std::size_t> deaths = {4, 8, kNeverCrashes};
  SyncRadio radio(g, 0.5, Rng(21), deaths);
  std::size_t manual = 0;
  for (int round = 0; round < 200; ++round) {
    radio.begin_round();
    for (std::size_t u = 0; u < 3; ++u) {
      if (radio.crashed(u)) continue;
      for (const Neighbor& nb : g.neighbors(u))
        if (radio.delivered(u, nb.node)) ++manual;
      radio.record_broadcast(u, 1);
    }
  }
  EXPECT_EQ(radio.stats().messages_received, manual);
}

TEST(SyncRadio, RebootedNodeComesBackOnTheAir) {
  const Graph g = triangle();
  const std::vector<std::size_t> deaths = {2, kNeverCrashes, kNeverCrashes};
  const std::vector<std::size_t> reboots = {5, kNeverCrashes, kNeverCrashes};
  SyncRadio radio(g, 0.0, Rng(1), deaths, reboots);
  for (int round = 1; round <= 8; ++round) {
    radio.begin_round();
    const bool dead = round > 2 && round < 5;
    EXPECT_EQ(radio.crashed(0), dead) << "round " << round;
    EXPECT_EQ(radio.crashed_count(), dead ? 1u : 0u);
    EXPECT_EQ(radio.delivered(0, 1), !dead);
    EXPECT_EQ(radio.just_rebooted(0), round == 5);
    EXPECT_FALSE(radio.just_rebooted(1));
  }
}

TEST(SyncRadio, RebootNeverFiresWithoutACrash) {
  // A reboot round at or before the death round is vacuous: the node never
  // actually died, so just_rebooted must not fire.
  const Graph g = triangle();
  const std::vector<std::size_t> deaths = {kNeverCrashes, kNeverCrashes,
                                           kNeverCrashes};
  const std::vector<std::size_t> reboots = {3, kNeverCrashes, kNeverCrashes};
  SyncRadio radio(g, 0.0, Rng(1), deaths, reboots);
  for (int round = 1; round <= 6; ++round) {
    radio.begin_round();
    EXPECT_FALSE(radio.crashed(0));
    EXPECT_FALSE(radio.just_rebooted(0));
  }
}

TEST(SyncRadio, MergeAddsAsyncCounters) {
  CommStats a, b;
  a.messages_retried = 2;
  a.duplicates_rejected = 1;
  b.messages_retried = 5;
  b.messages_dropped = 7;
  b.duplicates_rejected = 3;
  a.merge(b);
  EXPECT_EQ(a.messages_retried, 7u);
  EXPECT_EQ(a.messages_dropped, 7u);
  EXPECT_EQ(a.duplicates_rejected, 4u);
}

TEST(SyncRadio, DeterministicInRngSeed) {
  const Graph g = triangle();
  SyncRadio a(g, 0.4, Rng(11));
  SyncRadio b(g, 0.4, Rng(11));
  for (int round = 0; round < 50; ++round) {
    a.begin_round();
    b.begin_round();
    for (std::size_t u = 0; u < 3; ++u)
      for (const Neighbor& nb : g.neighbors(u))
        EXPECT_EQ(a.delivered(u, nb.node), b.delivered(u, nb.node));
  }
}

}  // namespace
}  // namespace bnloc
