// Unit tests for the shared round protocol (core/round_protocol.hpp): the
// quorum gate's state machine, the sync stale-summary TTL (including the
// held-node listen step and the reboot grace) and the async accessor, each
// driven directly on a hand-built star network instead of through a whole
// engine run.
#include "core/round_protocol.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <utility>
#include <vector>

#include "fault/fault.hpp"  // kNeverCrashes

namespace bnloc {
namespace {

constexpr std::size_t kNever = kNeverCrashes;

/// Node 0 at the centre of `leaves` leaves; every node is an unknown. The
/// optional schedules follow FaultLabels (death round, reboot round).
Scenario star(std::size_t leaves, std::vector<std::size_t> deaths = {},
              std::vector<std::size_t> reboots = {}) {
  Scenario s;
  const std::size_t n = leaves + 1;
  s.true_positions.assign(n, Vec2{});
  s.reported_positions = s.true_positions;
  s.is_anchor.assign(n, false);
  std::vector<Edge> edges;
  for (std::size_t v = 1; v < n; ++v) edges.push_back({0, v, 1.0});
  s.graph = Graph(n, edges);
  s.faults.death_round = std::move(deaths);
  s.faults.reboot_round = std::move(reboots);
  return s;
}

/// Payloads are ints; a summary is usable when it is present and nonzero,
/// so a test steers the quorum count by writing `cur`.
const auto usable = [](const int* p) { return p != nullptr && *p != 0; };
const auto no_restart = [](std::size_t) {};

struct Fixture {
  Fixture(const Scenario& s, RobustnessConfig robustness,
          TransportConfig transport = {})
      : roles(s, false),
        proto(s, roles, robustness, transport, 0.0, rng, "test") {}
  Rng rng{7};
  AnchorRoles roles;
  RoundProtocol<int> proto;
};

TEST(RoundProtocol, QuorumGateHoldsThenDisarmsThenRearmsOnFullQuorum) {
  const Scenario s = star(4);
  RobustnessConfig robustness;
  robustness.update_quorum = 0.6;  // 3 of 4 neighbors
  robustness.quorum_patience = 2;
  Fixture f(s, robustness);
  RoundProtocol<int>& proto = f.proto;
  std::size_t rounds = 0;
  const auto round = [&](bool expect_hold) {
    proto.begin_round(no_restart);
    EXPECT_EQ(proto.should_hold(0, usable), expect_hold)
        << "round " << ++rounds;
    proto.end_round();
    EXPECT_EQ(proto.holds(), expect_hold ? 1u : 0u);
  };
  round(true);   // armed: hold
  round(true);   // second consecutive hold uses up the patience
  round(false);  // patience exhausted: disarm and free-run
  round(false);  // still disarmed, quorum still unmet
  for (std::size_t v = 1; v <= 3; ++v) proto.cur[v] = 1;
  round(false);  // full quorum observed: re-armed
  proto.cur[3] = 0;
  round(true);   // armed again, so a shortfall holds once more
}

TEST(RoundProtocol, RebootRearmsTheQuorumGate) {
  // The centre dies after round 3 and reboots at round 5.
  const Scenario s = star(4, {3, kNever, kNever, kNever, kNever},
                          {5, kNever, kNever, kNever, kNever});
  RobustnessConfig robustness;
  robustness.update_quorum = 0.6;
  robustness.quorum_patience = 2;
  Fixture f(s, robustness);
  RoundProtocol<int>& proto = f.proto;
  std::vector<std::size_t> restarted;
  for (std::size_t r = 1; r <= 5; ++r) {
    proto.begin_round([&](std::size_t u) { restarted.push_back(u); });
    const bool held = proto.should_hold(0, usable);
    proto.end_round();
    // Held twice, then disarmed; the reboot at round 5 re-arms the gate.
    EXPECT_EQ(held, r <= 2 || r == 5) << "round " << r;
  }
  EXPECT_EQ(restarted, std::vector<std::size_t>{0});
}

TEST(RoundProtocol, SyncTtlRetiresASilentNeighbor) {
  // Leaf 1 transmits through round 2 and is dead from round 3 on.
  const Scenario s = star(2, {kNever, 2, kNever});
  RobustnessConfig robustness;
  robustness.stale_ttl = 2;
  Fixture f(s, robustness);
  RoundProtocol<int>& proto = f.proto;
  for (std::size_t r = 1; r <= 5; ++r) {
    proto.begin_round(no_restart);
    if (!proto.crashed(1)) proto.publish(1, r, 10 + static_cast<int>(r), 4);
    EXPECT_FALSE(proto.should_hold(0, usable));
    const int* from_1 = proto.input(0, 0);
    if (r <= 2) {
      ASSERT_NE(from_1, nullptr);
      EXPECT_EQ(*from_1, 10 + static_cast<int>(r));  // fresh delivery
    } else if (r <= 4) {
      ASSERT_NE(from_1, nullptr) << "round " << r;  // within the TTL
      EXPECT_EQ(*from_1, 11);  // the previous copy: round 2 never rotated
    } else {
      EXPECT_EQ(from_1, nullptr) << "round " << r;  // retired
    }
  }
  const obs::RobustActivity activity = proto.activity();
  EXPECT_EQ(activity.crashed_nodes, 1u);
  EXPECT_GE(activity.stale_links, 1u);
}

TEST(RoundProtocol, HeldNodeStillListens) {
  // Leaf 1 is alive and delivering through round 3, then dies. The centre
  // is held in rounds 1-3 (nobody is usable yet), and its held rounds must
  // still count as having heard leaf 1 — otherwise leaf 1 would look
  // silent since round 0 and retire the moment its deliveries stop.
  const Scenario s = star(2, {kNever, 3, kNever});
  RobustnessConfig robustness;
  robustness.stale_ttl = 2;
  robustness.update_quorum = 1.0;
  robustness.quorum_patience = 3;
  Fixture f(s, robustness);
  RoundProtocol<int>& proto = f.proto;
  for (std::size_t r = 1; r <= 3; ++r) {
    proto.begin_round(no_restart);
    EXPECT_TRUE(proto.should_hold(0, usable)) << "round " << r;
    proto.end_round();
  }
  proto.begin_round(no_restart);  // round 4: leaf 1's first silent round
  EXPECT_NE(proto.input(0, 0), nullptr);
}

TEST(RoundProtocol, RebootRestartsTheTtlClock) {
  // Leaf 1 dies after round 1 for good; the centre dies after round 2 and
  // reboots at round 5. Without the reboot grace leaf 1 would retire at
  // round 4 (last heard at 1, TTL 2); the reboot restarts the clock, so it
  // stays readable through round 7 and retires at round 8.
  const Scenario s = star(2, {2, 1, kNever}, {5, kNever, kNever});
  RobustnessConfig robustness;
  robustness.stale_ttl = 2;
  Fixture f(s, robustness);
  RoundProtocol<int>& proto = f.proto;
  for (std::size_t r = 1; r <= 8; ++r) {
    proto.begin_round(no_restart);
    (void)proto.should_hold(0, usable);
    const bool readable = proto.input(0, 0) != nullptr;
    EXPECT_EQ(readable, r <= 3 || (r >= 5 && r <= 7)) << "round " << r;
  }
}

TEST(RoundProtocol, AsyncInputIsNullBeforeFirstSummaryAndAfterTtl) {
  const Scenario s = star(2);
  RobustnessConfig robustness;
  robustness.stale_ttl = 2;
  TransportConfig transport;
  transport.async = true;
  transport.radio.loss = 0.0;
  transport.radio.latency = 0.1;
  transport.heartbeat_rounds = 3;
  Fixture f(s, robustness, transport);
  RoundProtocol<int>& proto = f.proto;

  proto.begin_round(no_restart);  // round 1: nothing accepted yet
  EXPECT_EQ(proto.input(0, 0), nullptr);
  proto.publish(1, 1, 42, 4);
  EXPECT_FALSE(proto.heartbeat_due(1));
  for (std::size_t r = 2; r <= 5; ++r) {
    proto.begin_round(no_restart);
    const int* from_1 = proto.input(0, 0);
    if (r <= 4) {  // accepted at round 2; readable for two more rounds
      ASSERT_NE(from_1, nullptr) << "round " << r;
      EXPECT_EQ(*from_1, 42);
    } else {
      EXPECT_EQ(from_1, nullptr) << "round " << r;
    }
    // Published at round 1: a heartbeat falls due three rounds later.
    EXPECT_EQ(proto.heartbeat_due(1), r >= 4) << "round " << r;
  }
  EXPECT_EQ(proto.input(0, 1), nullptr);  // leaf 2 never published
}

}  // namespace
}  // namespace bnloc
