// LocalPolice tests: the per-node DD-POLICE judge driven purely by
// messages and minute callbacks. A tiny in-memory transport loops control
// messages between LocalPolice instances so a whole buddy round can run
// without any engine underneath. The differential tests at the end run the
// simulation judge (DdPolice) on the same readings and compare verdicts.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "core/ddpolice.hpp"
#include "core/police.hpp"
#include "fake_overlay.hpp"
#include "util/rng.hpp"

namespace ddp::core {
namespace {

constexpr std::uint32_t ip(std::uint32_t index) { return 0x0a000000u + index; }

/// Records every outbound message; optionally delivers to registered
/// LocalPolice instances on flush() (not immediately, so tests control
/// interleaving like a real event loop would).
class LoopTransport final : public PoliceTransport {
 public:
  struct ListMsg {
    std::uint32_t from = 0, to = 0;
    std::vector<std::uint32_t> members;
  };
  struct TrafficMsg {
    std::uint32_t to = 0;
    net::NeighborTraffic body;
  };

  explicit LoopTransport(std::uint32_t self) : self_(self) {}

  void send_neighbor_list(std::uint32_t to,
                          const std::vector<std::uint32_t>& members) override {
    lists.push_back({self_, to, members});
  }
  void send_neighbor_traffic(std::uint32_t to,
                             const net::NeighborTraffic& report) override {
    traffic.push_back({to, report});
  }

  std::uint32_t self_;
  std::vector<ListMsg> lists;
  std::vector<TrafficMsg> traffic;
};

/// Deliver all queued messages into their destination nodes, repeatedly,
/// until no transport has anything pending (replies can queue more).
void pump(std::map<std::uint32_t, LocalPolice*> nodes,
          std::map<std::uint32_t, LoopTransport*> wires, double now_minutes) {
  bool moved = true;
  while (moved) {
    moved = false;
    for (auto& [from, wire] : wires) {
      auto lists = std::move(wire->lists);
      wire->lists.clear();
      auto traffic = std::move(wire->traffic);
      wire->traffic.clear();
      for (const auto& m : lists) {
        if (nodes.count(m.to)) {
          nodes[m.to]->on_neighbor_list(m.from, m.members, now_minutes);
          moved = true;
        }
      }
      for (const auto& t : traffic) {
        if (nodes.count(t.to)) {
          nodes[t.to]->on_neighbor_traffic(t.body.source_ip, t.body,
                                           now_minutes);
          moved = true;
        }
      }
    }
  }
}

DdPoliceConfig test_config() {
  DdPoliceConfig cfg;
  cfg.warning_threshold = 500.0;
  cfg.cut_threshold = 5.0;
  cfg.good_issue_bound = 100.0;
  cfg.exchange_period_minutes = 2.0;
  return cfg;
}

// ----------------------------------------------------------- basics

TEST(LocalPolice, PeriodicAdvertisementHonoursPeriod) {
  LoopTransport wire(ip(0));
  LocalPolice police(ip(0), test_config(), wire);
  police.add_neighbor(ip(1));
  police.add_neighbor(ip(2));

  police.on_minute(0.0, {});
  EXPECT_EQ(wire.lists.size(), 2u);  // one per neighbour
  EXPECT_EQ(police.lists_sent(), 2u);

  police.on_minute(1.0, {});
  EXPECT_EQ(wire.lists.size(), 2u);  // period is 2 min: nothing at minute 1

  police.on_minute(2.0, {});
  EXPECT_EQ(wire.lists.size(), 4u);
  EXPECT_EQ(wire.lists.back().members.size(), 2u);
}

TEST(LocalPolice, QuietLinksOpenNoRounds) {
  LoopTransport wire(ip(0));
  LocalPolice police(ip(0), test_config(), wire);
  police.add_neighbor(ip(1));
  police.on_minute(0.0, {{ip(1), 3.0, 2.0}});
  police.on_minute(1.0, {{ip(1), 1.0, 450.0}});  // under warning threshold
  EXPECT_EQ(police.rounds_run(), 0u);
  EXPECT_EQ(police.suspicions(), 0u);
  EXPECT_TRUE(police.decisions().empty());
}

// ------------------------------------------------- full buddy round

// Star around the suspect: judge (node 0) and two other monitors (1, 2)
// all neighbour the attacker (9). The attacker floods everyone; the round
// must converge on a cut at every judge that runs one.
TEST(LocalPolice, FloodingSuspectIsCutAfterFullRound) {
  const std::uint32_t kJudge = ip(0), kM1 = ip(1), kM2 = ip(2), kBad = ip(9);
  LoopTransport w0(kJudge), w1(kM1), w2(kM2);
  DdPoliceConfig cfg = test_config();
  LocalPolice p0(kJudge, cfg, w0), p1(kM1, cfg, w1), p2(kM2, cfg, w2);
  for (LocalPolice* p : {&p0, &p1, &p2}) p->add_neighbor(kBad);

  // The attacker advertised its (truthful) neighbour list to everyone.
  const std::vector<std::uint32_t> bad_list = {kJudge, kM1, kM2};
  p0.on_neighbor_list(kBad, bad_list, 0.0);
  p1.on_neighbor_list(kBad, bad_list, 0.0);
  p2.on_neighbor_list(kBad, bad_list, 0.0);

  std::vector<std::uint32_t> cut;
  p0.set_cut_handler([&](std::uint32_t s, const Decision&) {
    cut.push_back(s);
  });

  std::map<std::uint32_t, LocalPolice*> nodes = {
      {kJudge, &p0}, {kM1, &p1}, {kM2, &p2}};
  std::map<std::uint32_t, LoopTransport*> wires = {
      {kJudge, &w0}, {kM1, &w1}, {kM2, &w2}};

  // Minute 1 completes: attacker sent 2000 q/min to each monitor, nobody
  // forwarded anything into it.
  p0.on_minute(1.0, {{kBad, 0.0, 2000.0}});
  p1.on_minute(1.0, {{kBad, 0.0, 2000.0}});
  p2.on_minute(1.0, {{kBad, 0.0, 2000.0}});
  pump(nodes, wires, 1.01);

  // g = (3*2000 - 2*0) / (3*100) = 20 > CT=5 -> cut at the judge, from
  // member replies alone (round closed early, before any timeout).
  ASSERT_EQ(cut.size(), 1u);
  EXPECT_EQ(cut[0], kBad);
  ASSERT_EQ(p0.decisions().size(), 1u);
  const Decision& d = p0.decisions()[0];
  EXPECT_EQ(d.suspect, kBad);
  EXPECT_EQ(d.judge, kJudge);
  EXPECT_NEAR(d.g, 20.0, 1e-9);
  EXPECT_EQ(d.believed_k, 3u);
  EXPECT_EQ(d.responders, 3u);
}

TEST(LocalPolice, SilentMembersCountAsZeroAfterTimeout) {
  const std::uint32_t kJudge = ip(0), kM1 = ip(1), kBad = ip(9);
  LoopTransport wire(kJudge);
  DdPoliceConfig cfg = test_config();
  cfg.collect_timeout_seconds = 6.0;  // 0.1 protocol minutes
  LocalPolice police(kJudge, cfg, wire);
  police.add_neighbor(kBad);
  police.on_neighbor_list(kBad, {kJudge, kM1}, 0.0);

  std::vector<Decision> verdicts;
  police.set_cut_handler([&](std::uint32_t, const Decision& d) {
    verdicts.push_back(d);
  });

  police.on_minute(1.0, {{kBad, 0.0, 1500.0}});
  EXPECT_EQ(police.rounds_run(), 1u);
  EXPECT_EQ(wire.traffic.size(), 1u);  // request went to the one member
  EXPECT_TRUE(verdicts.empty());      // round still open

  police.on_tick(1.05);
  EXPECT_TRUE(verdicts.empty());  // deadline not reached yet

  // First expiry re-requests the silent member (fault-plane retry) and
  // extends the deadline one collect window instead of judging.
  police.on_tick(1.11);
  EXPECT_TRUE(verdicts.empty());
  EXPECT_EQ(wire.traffic.size(), 2u);

  // Member stays silent through the retry too; Sec. 3.4 now applies:
  // k=2, sum_in = 1500 (judge) + 0 (silent), sum_out = 0.
  // g = (1500 - 1*0) / (2*100) = 7.5 > 5 -> cut.
  police.on_tick(1.25);
  ASSERT_EQ(verdicts.size(), 1u);
  EXPECT_NEAR(verdicts[0].g, 7.5, 1e-9);
  EXPECT_EQ(verdicts[0].responders, 1u);
  EXPECT_EQ(verdicts[0].believed_k, 2u);
}

TEST(LocalPolice, HonestForwarderSurvivesItsRound) {
  // The suspect forwards what it receives: members report matching input,
  // so the indicators stay at forwarding balance and no cut happens.
  const std::uint32_t kJudge = ip(0), kM1 = ip(1), kBusy = ip(9);
  LoopTransport wire(kJudge);
  DdPoliceConfig cfg = test_config();
  cfg.collect_timeout_seconds = 6.0;
  LocalPolice police(kJudge, cfg, wire);
  police.add_neighbor(kBusy);
  police.on_neighbor_list(kBusy, {kJudge, kM1}, 0.0);

  std::vector<Decision> verdicts;
  police.set_cut_handler([&](std::uint32_t, const Decision& d) {
    verdicts.push_back(d);
  });

  // Busy relay: sends us 600/min but the other member fed it 1300/min
  // (and it sends the member 700). Output is fully explained by input.
  police.on_minute(1.0, {{kBusy, 0.0, 600.0}});
  net::NeighborTraffic m1;
  m1.source_ip = kM1;
  m1.suspect_ip = kBusy;
  m1.outgoing_queries = 1300;
  m1.incoming_queries = 700;
  police.on_neighbor_traffic(kM1, m1, 1.02);

  // g = (600+700 - 1*1300) / (2*100) = 0 -> no cut; s likewise.
  EXPECT_TRUE(verdicts.empty());
  EXPECT_EQ(police.rounds_run(), 1u);
  EXPECT_TRUE(police.decisions().empty());
}

// ----------------------------------------------- reply + suppression

TEST(LocalPolice, AnswersARoundAboutItsOwnNeighbor) {
  const std::uint32_t kUs = ip(1), kOther = ip(0), kBad = ip(9);
  LoopTransport wire(kUs);
  LocalPolice police(kUs, test_config(), wire);
  police.add_neighbor(kBad);
  police.on_minute(1.0, {{kBad, 5.0, 1800.0}});
  wire.traffic.clear();  // drop our own round's request traffic

  net::NeighborTraffic req;
  req.source_ip = kOther;
  req.suspect_ip = kBad;
  req.outgoing_queries = 0;
  req.incoming_queries = 2000;
  police.on_neighbor_traffic(kOther, req, 1.5);

  ASSERT_EQ(wire.traffic.size(), 1u);
  EXPECT_EQ(wire.traffic[0].to, kOther);
  EXPECT_EQ(wire.traffic[0].body.source_ip, kUs);
  EXPECT_EQ(wire.traffic[0].body.suspect_ip, kBad);
  EXPECT_EQ(wire.traffic[0].body.outgoing_queries, 5u);
  EXPECT_EQ(wire.traffic[0].body.incoming_queries, 1800u);
}

TEST(LocalPolice, RepliesAreSuppressedWithinTheWindow) {
  const std::uint32_t kUs = ip(1), kOther = ip(0), kBad = ip(9);
  LoopTransport wire(kUs);
  DdPoliceConfig cfg = test_config();
  cfg.suppression_window_seconds = 30.0;  // 0.5 protocol minutes
  LocalPolice police(kUs, cfg, wire);
  police.add_neighbor(kBad);
  police.on_minute(1.0, {{kBad, 0.0, 100.0}});  // quiet: no own round

  net::NeighborTraffic req;
  req.source_ip = kOther;
  req.suspect_ip = kBad;
  police.on_neighbor_traffic(kOther, req, 1.0);
  EXPECT_EQ(wire.traffic.size(), 1u);
  police.on_neighbor_traffic(kOther, req, 1.2);  // inside the window
  EXPECT_EQ(wire.traffic.size(), 1u);
  police.on_neighbor_traffic(kOther, req, 1.6);  // window passed
  EXPECT_EQ(wire.traffic.size(), 2u);
}

TEST(LocalPolice, DoesNotTestifyAboutStrangers) {
  LoopTransport wire(ip(1));
  LocalPolice police(ip(1), test_config(), wire);
  police.add_neighbor(ip(2));
  net::NeighborTraffic req;
  req.source_ip = ip(0);
  req.suspect_ip = ip(9);  // not our neighbour
  police.on_neighbor_traffic(ip(0), req, 1.0);
  EXPECT_TRUE(wire.traffic.empty());
}

TEST(LocalPolice, RemovedNeighborAbandonsItsRound) {
  const std::uint32_t kJudge = ip(0), kBad = ip(9);
  LoopTransport wire(kJudge);
  DdPoliceConfig cfg = test_config();
  cfg.collect_timeout_seconds = 6.0;
  LocalPolice police(kJudge, cfg, wire);
  police.add_neighbor(kBad);
  police.on_neighbor_list(kBad, {kJudge, ip(1)}, 0.0);
  police.on_minute(1.0, {{kBad, 0.0, 2000.0}});
  EXPECT_EQ(police.rounds_run(), 1u);

  police.remove_neighbor(kBad);  // link dropped mid-round
  police.on_tick(5.0);           // deadline long past
  EXPECT_TRUE(police.decisions().empty());
}

TEST(LocalPolice, SelfOnlyGroupStillJudges) {
  // The suspect advertised a list naming only the judge: the believed
  // group degenerates to the judge alone (k=1) and the judge's own
  // monitor carries the verdict.
  const std::uint32_t kJudge = ip(0), kBad = ip(9);
  LoopTransport wire(kJudge);
  LocalPolice police(kJudge, test_config(), wire);
  police.add_neighbor(kBad);
  police.on_neighbor_list(kBad, {kJudge}, 0.0);

  std::vector<Decision> verdicts;
  police.set_cut_handler([&](std::uint32_t, const Decision& d) {
    verdicts.push_back(d);
  });

  // g = 2000 / (1*100) = 20 > 5, decided immediately (nobody to wait for).
  police.on_minute(1.0, {{kBad, 0.0, 2000.0}});
  ASSERT_EQ(verdicts.size(), 1u);
  EXPECT_NEAR(verdicts[0].g, 20.0, 1e-9);
  EXPECT_EQ(verdicts[0].believed_k, 1u);
}

TEST(LocalPolice, CutConfirmationRequiresConsecutiveRounds) {
  // cut_confirmations = 2: one bad round records a pending suspicion;
  // only a second tripping round at least half a minute later fires the
  // verdict. Guards against one-off monitor spikes (a judge descheduled
  // for seconds drains its backlog into a single rolling window).
  const std::uint32_t kJudge = ip(0), kBad = ip(9);
  LoopTransport wire(kJudge);
  DdPoliceConfig cfg = test_config();
  cfg.cut_confirmations = 2;
  LocalPolice police(kJudge, cfg, wire);
  police.add_neighbor(kBad);
  police.on_neighbor_list(kBad, {kJudge}, 0.0);

  std::vector<Decision> verdicts;
  police.set_cut_handler([&](std::uint32_t, const Decision& d) {
    verdicts.push_back(d);
  });

  // First tripping round (g = 20): pending, no verdict.
  police.on_minute(1.0, {{kBad, 0.0, 2000.0}});
  EXPECT_EQ(police.rounds_run(), 1u);
  EXPECT_TRUE(verdicts.empty());

  // A starved judge replaying missed minute timers closes another round
  // milliseconds later over the SAME inflated window — one observation,
  // not two. Must not self-confirm.
  police.on_minute(1.1, {{kBad, 0.0, 2000.0}});
  EXPECT_TRUE(verdicts.empty());

  // The next genuine minute still trips: confirmed, verdict fires.
  police.on_minute(2.0, {{kBad, 0.0, 2000.0}});
  ASSERT_EQ(verdicts.size(), 1u);
  EXPECT_NEAR(verdicts[0].g, 20.0, 1e-9);
}

TEST(LocalPolice, CleanRoundResetsTheConfirmationStreak) {
  const std::uint32_t kJudge = ip(0), kBad = ip(9);
  LoopTransport wire(kJudge);
  DdPoliceConfig cfg = test_config();
  cfg.cut_confirmations = 2;
  cfg.warning_threshold = 100.0;  // open rounds on modest traffic too
  LocalPolice police(kJudge, cfg, wire);
  police.add_neighbor(kBad);
  police.on_neighbor_list(kBad, {kJudge}, 0.0);

  std::vector<Decision> verdicts;
  police.set_cut_handler([&](std::uint32_t, const Decision& d) {
    verdicts.push_back(d);
  });

  police.on_minute(1.0, {{kBad, 0.0, 2000.0}});  // trip #1 (g = 20)
  police.on_minute(2.0, {{kBad, 0.0, 300.0}});   // g = 3 < CT: streak reset
  police.on_minute(3.0, {{kBad, 0.0, 2000.0}});  // trip #1 again
  EXPECT_TRUE(verdicts.empty());
  police.on_minute(4.0, {{kBad, 0.0, 2000.0}});  // trip #2: verdict
  ASSERT_EQ(verdicts.size(), 1u);
}

TEST(LocalPolice, StaleTripDoesNotConfirmALaterOne) {
  // Two trips more than two protocol minutes apart are separate
  // transients, not a persistent flood — the streak restarts.
  const std::uint32_t kJudge = ip(0), kBad = ip(9);
  LoopTransport wire(kJudge);
  DdPoliceConfig cfg = test_config();
  cfg.cut_confirmations = 2;
  LocalPolice police(kJudge, cfg, wire);
  police.add_neighbor(kBad);
  police.on_neighbor_list(kBad, {kJudge}, 0.0);

  std::vector<Decision> verdicts;
  police.set_cut_handler([&](std::uint32_t, const Decision& d) {
    verdicts.push_back(d);
  });

  police.on_minute(1.0, {{kBad, 0.0, 2000.0}});
  EXPECT_TRUE(verdicts.empty());
  police.on_minute(4.0, {{kBad, 0.0, 2000.0}});  // > 2 min later: restart
  EXPECT_TRUE(verdicts.empty());
  police.on_minute(5.0, {{kBad, 0.0, 2000.0}});  // consecutive: verdict
  ASSERT_EQ(verdicts.size(), 1u);
}

TEST(LocalPolice, NoSnapshotDefersTheRound) {
  // A suspect that never advertised a list cannot be judged: the round
  // cannot be addressed, and a churned-in link judged k=1 on the flood
  // it relays would cut an honest forwarder. The warning is held over;
  // the round opens once the advertisement lands.
  const std::uint32_t kJudge = ip(0), kBad = ip(9);
  LoopTransport wire(kJudge);
  LocalPolice police(kJudge, test_config(), wire);
  police.add_neighbor(kBad);

  std::vector<Decision> verdicts;
  police.set_cut_handler([&](std::uint32_t, const Decision& d) {
    verdicts.push_back(d);
  });

  police.on_minute(1.0, {{kBad, 0.0, 2000.0}});
  EXPECT_TRUE(verdicts.empty());
  EXPECT_EQ(police.rounds_run(), 0u);

  police.on_neighbor_list(kBad, {kJudge}, 1.5);
  police.on_minute(2.0, {{kBad, 0.0, 2000.0}});
  ASSERT_EQ(verdicts.size(), 1u);
  EXPECT_EQ(verdicts[0].believed_k, 1u);
}

TEST(LocalPolice, EarlyReportSeedsTheNextRound) {
  // Another judge's round-opening broadcast can land BEFORE our own
  // minute scan flags the suspect (minute boundaries are per-process).
  // That broadcast is the member's report to our round and is not
  // repeated inside the suppression window — it must be cached and
  // seeded, or the round closes silent-as-zero against an honest peer.
  const std::uint32_t kJudge = ip(0), kBad = ip(9), kM1 = ip(1);
  LoopTransport wire(kJudge);
  LocalPolice police(kJudge, test_config(), wire);
  police.add_neighbor(kBad);
  police.on_neighbor_list(kBad, {kJudge, kM1}, 0.0);

  std::vector<Decision> verdicts;
  police.set_cut_handler([&](std::uint32_t, const Decision& d) {
    verdicts.push_back(d);
  });

  // kM1's broadcast arrives first: it saw the suspect inject 2000 and
  // received none of it back.
  net::NeighborTraffic early;
  early.source_ip = kM1;
  early.suspect_ip = kBad;
  early.outgoing_queries = 0;
  early.incoming_queries = 2000;
  police.on_neighbor_traffic(kM1, early, 0.99);

  // Our scan flags the suspect; the cached report completes the round
  // instantly — no collect wait, no silent-as-zero.
  police.on_minute(1.0, {{kBad, 0.0, 2000.0}});
  ASSERT_EQ(verdicts.size(), 1u);
  EXPECT_EQ(verdicts[0].responders, 2u);
  // g = ((2000 + 2000) - 1*(0 + 0)) / (2*100) = 20 > CT: the suspect
  // pushed 4000 queries at the group and received none back.
  EXPECT_NEAR(verdicts[0].g, 20.0, 1e-9);
  EXPECT_NEAR(verdicts[0].s, 20.0, 1e-9);
}

TEST(LocalPolice, RoundSuppressionPreventsBackToBackRounds) {
  const std::uint32_t kJudge = ip(0), kBad = ip(9);
  LoopTransport wire(kJudge);
  DdPoliceConfig cfg = test_config();
  cfg.suppression_window_seconds = 90.0;  // 1.5 protocol minutes
  cfg.collect_timeout_seconds = 6.0;
  LocalPolice police(kJudge, cfg, wire);
  police.add_neighbor(kBad);
  police.on_neighbor_list(kBad, {kJudge, ip(1)}, 0.0);

  police.on_minute(1.0, {{kBad, 0.0, 800.0}});
  EXPECT_EQ(police.rounds_run(), 1u);
  police.on_minute(2.0, {{kBad, 0.0, 800.0}});  // within suppression
  EXPECT_EQ(police.rounds_run(), 1u);
  EXPECT_EQ(police.suspicions(), 2u);  // still flagged each minute
  police.on_minute(3.0, {{kBad, 0.0, 800.0}});  // window passed
  EXPECT_EQ(police.rounds_run(), 2u);
}

// Each list and request the judge sends leaves exactly one trace event,
// named as the simulation judge names it: the periodic list
// (neighbor_list), the round's request and the one to a member joining
// mid-round (traffic_request), and the re-request of a silent member
// (traffic_retry, attempt 1). Nobody asks this judge for a report, so it
// sends no reply, which has no event type in either judge.
TEST(LocalPolice, EachSendHasExactlyOneEvent) {
  const std::uint32_t kJudge = ip(0), kM1 = ip(1), kM2 = ip(2), kBad = ip(9);
  LoopTransport wire(kJudge);
  DdPoliceConfig cfg = test_config();
  cfg.collect_timeout_seconds = 6.0;  // 0.1 protocol minutes
  LocalPolice police(kJudge, cfg, wire);
  obs::RingBufferSink sink(64);
  police.set_trace_sink(&sink);
  police.add_neighbor(kBad);
  police.on_neighbor_list(kBad, {kJudge, kM1}, 0.0);

  police.on_minute(0.0, {});                     // list to the suspect
  police.on_minute(1.0, {{kBad, 0.0, 1500.0}});  // request to M1
  police.on_neighbor_list(kBad, {kJudge, kM1, kM2}, 1.02);  // request to M2
  police.on_tick(1.11);  // both silent: one re-request each
  police.on_tick(1.25);  // the round closes without a send

  ASSERT_EQ(wire.lists.size(), 1u);
  EXPECT_EQ(wire.lists[0].to, kBad);
  std::vector<std::uint32_t> traffic_to;
  for (const auto& t : wire.traffic) {
    EXPECT_EQ(t.body.suspect_ip, kBad);
    traffic_to.push_back(t.to);
  }
  EXPECT_EQ(traffic_to, (std::vector<std::uint32_t>{kM1, kM2, kM1, kM2}));

  using Send = std::tuple<obs::EventType, std::uint32_t, std::uint32_t>;
  std::vector<Send> sends;
  for (const obs::TraceEvent& e : sink.snapshot()) {
    if (e.type != obs::EventType::kNeighborListSent &&
        e.type != obs::EventType::kTrafficRequest &&
        e.type != obs::EventType::kTrafficRetry) {
      continue;
    }
    sends.emplace_back(e.type, e.a, e.b);
    if (e.type == obs::EventType::kTrafficRetry) {
      ASSERT_EQ(e.n_fields, 1u);
      EXPECT_STREQ(e.fields[0].key, "attempt");
      EXPECT_EQ(e.fields[0].value, 1.0);
    }
  }
  const std::vector<Send> expected = {
      {obs::EventType::kNeighborListSent, kJudge, kBad},
      {obs::EventType::kTrafficRequest, kM1, kBad},
      {obs::EventType::kTrafficRequest, kM2, kBad},
      {obs::EventType::kTrafficRetry, kM1, kBad},
      {obs::EventType::kTrafficRetry, kM2, kBad},
  };
  EXPECT_EQ(sends, expected);
}

// ------------------------------ differential: DdPolice vs LocalPolice

// Both judges run the one Definition 2.3 step (core::verdict) over report
// sets they assemble their own way: DdPolice reads every monitor of a
// FakeOverlay in one sweep; one LocalPolice per peer gathers the reports
// as Neighbor_Traffic messages over the loop transport. Integer readings
// are exact in the u32 wire counters and in every indicator sum whatever
// the report order, so the two judges must agree bit for bit.

struct Scenario {
  std::size_t peers = 0;
  std::vector<std::pair<PeerId, PeerId>> edges;
  std::map<std::pair<PeerId, PeerId>, double> rate;  ///< from -> to, q/min
  std::set<PeerId> mute;  ///< members that never answer a buddy round
};

/// (judge, suspect, g, s, via_single, believed_k, responders) of a cut.
using Cut = std::tuple<PeerId, PeerId, double, double, bool, std::uint32_t,
                       std::uint32_t>;
/// (judge, suspect, g, s, k, responders) of an indicator_computed event.
using Indicator = std::tuple<PeerId, PeerId, double, double, double, double>;

struct Outcome {
  std::set<Cut> cuts;
  std::set<Indicator> indicators;
};

/// Fold decisions and traced indicators, mapping ids back to peer indices
/// (`base` is 0 for PeerIds, ip(0) for overlay addresses).
void fold(Outcome& out, const std::vector<Decision>& decisions,
          std::uint32_t base) {
  for (const Decision& d : decisions) {
    out.cuts.insert({d.judge - base, d.suspect - base, d.g, d.s,
                     d.via_single, d.believed_k, d.responders});
  }
}

void fold(Outcome& out, const obs::RingBufferSink& sink, std::uint32_t base) {
  for (const obs::TraceEvent& e : sink.snapshot()) {
    if (e.type != obs::EventType::kIndicatorComputed) continue;
    out.indicators.insert({e.b - base, e.a - base, e.fields[0].value,
                           e.fields[1].value, e.fields[2].value,
                           e.fields[3].value});
  }
}

double rate_of(const Scenario& sc, PeerId from, PeerId to) {
  const auto it = sc.rate.find({from, to});
  return it != sc.rate.end() ? it->second : 0.0;
}

Outcome run_sim_judge(const Scenario& sc) {
  test::FakeOverlay port(sc.peers);
  for (const auto& [a, b] : sc.edges) port.mutable_graph().add_edge(a, b);
  for (const auto& [link, r] : sc.rate) {
    port.set_rate(link.first, link.second, r);
  }
  DdPolice police(port, DdPoliceConfig{}, util::Rng(1));
  police.set_report_policy(
      [&sc](PeerId reporter, PeerId, const TrafficTruth& truth) {
        return sc.mute.count(reporter) != 0
                   ? std::nullopt
                   : std::optional<TrafficTruth>(truth);
      });
  obs::RingBufferSink sink(256);
  police.set_trace_sink(&sink);
  police.on_minute(1.0);
  Outcome out;
  fold(out, police.decisions(), 0);
  fold(out, sink, 0);
  return out;
}

Outcome run_socket_judges(const Scenario& sc) {
  const DdPoliceConfig cfg;
  obs::RingBufferSink sink(256);
  std::vector<std::unique_ptr<LoopTransport>> wires;
  std::vector<std::unique_ptr<LocalPolice>> police;
  std::map<std::uint32_t, LocalPolice*> nodes;
  std::map<std::uint32_t, LoopTransport*> all, speaking;
  for (PeerId p = 0; p < sc.peers; ++p) {
    wires.push_back(std::make_unique<LoopTransport>(ip(p)));
    police.push_back(std::make_unique<LocalPolice>(ip(p), cfg, *wires.back()));
    police.back()->set_trace_sink(&sink);
    nodes[ip(p)] = police.back().get();
    all[ip(p)] = wires.back().get();
    if (sc.mute.count(p) == 0) speaking[ip(p)] = wires.back().get();
  }
  for (const auto& [a, b] : sc.edges) {
    police[a]->add_neighbor(ip(b));
    police[b]->add_neighbor(ip(a));
  }
  // Minute 0: every peer advertises its neighbour list (a mute member
  // still advertises; it only refuses Neighbor_Traffic).
  for (auto& p : police) p->on_minute(0.0, {});
  pump(nodes, all, 0.0);
  // Minute 1 completes with the scenario's readings.
  for (PeerId p = 0; p < sc.peers; ++p) {
    std::vector<LinkMinute> links;
    for (const std::uint32_t n : police[p]->neighbors()) {
      const PeerId q = n - ip(0);
      links.push_back({n, rate_of(sc, p, q), rate_of(sc, q, p)});
    }
    police[p]->on_minute(1.0, links);
  }
  pump(nodes, speaking, 1.01);
  // Rounds still waiting on a silent member: one retry window, then
  // Sec. 3.4 counts it as zero.
  for (const double t : {1.2, 1.4}) {
    for (auto& p : police) p->on_tick(t);
    pump(nodes, speaking, t);
  }
  Outcome out;
  for (const auto& p : police) fold(out, p->decisions(), ip(0));
  fold(out, sink, ip(0));
  return out;
}

/// Flooder 0 sends 2000 q/min to each of peers 1..3 and receives nothing.
Scenario flooder_star() {
  Scenario sc;
  sc.peers = 4;
  for (PeerId m = 1; m <= 3; ++m) {
    sc.edges.push_back({0, m});
    sc.rate[{0, m}] = 2000.0;
  }
  return sc;
}

TEST(PoliceDifferential, FlooderStarIsCutByEveryMonitor) {
  const Scenario sc = flooder_star();
  const Outcome sim = run_sim_judge(sc);
  const Outcome sock = run_socket_judges(sc);
  // g = 3*2000 / (3*100) = 20, s = 2000/100 = 20 at every monitor.
  const std::set<Cut> expected = {{1, 0, 20.0, 20.0, false, 3, 3},
                                  {2, 0, 20.0, 20.0, false, 3, 3},
                                  {3, 0, 20.0, 20.0, false, 3, 3}};
  EXPECT_EQ(sim.cuts, expected);
  EXPECT_EQ(sock.cuts, sim.cuts);
  EXPECT_EQ(sock.indicators, sim.indicators);
}

TEST(PoliceDifferential, RelayRingIsNotCut) {
  // 0 -> 1 -> 2 -> 3 -> 0, 600 q/min per hop: every peer flags its
  // predecessor, and every round finds the output fully explained by
  // the input it relays (g = s = 0).
  Scenario sc;
  sc.peers = 4;
  for (PeerId p = 0; p < 4; ++p) {
    const PeerId next = (p + 1) % 4;
    sc.edges.push_back({p, next});
    sc.rate[{p, next}] = 600.0;
  }
  const Outcome sim = run_sim_judge(sc);
  const Outcome sock = run_socket_judges(sc);
  EXPECT_TRUE(sim.cuts.empty());
  EXPECT_TRUE(sock.cuts.empty());
  const std::set<Indicator> expected = {{1, 0, 0.0, 0.0, 2.0, 2.0},
                                        {2, 1, 0.0, 0.0, 2.0, 2.0},
                                        {3, 2, 0.0, 0.0, 2.0, 2.0},
                                        {0, 3, 0.0, 0.0, 2.0, 2.0}};
  EXPECT_EQ(sim.indicators, expected);
  EXPECT_EQ(sock.indicators, sim.indicators);
}

TEST(PoliceDifferential, MuteMemberCountsAsZero) {
  // Peer 3 judges the flooder itself but never answers anyone else's
  // round, so monitors 1 and 2 judge with its report zeroed:
  // g = (2000 + 2000 + 0) / (3*100).
  Scenario sc = flooder_star();
  sc.mute = {3};
  const Outcome sim = run_sim_judge(sc);
  const Outcome sock = run_socket_judges(sc);
  const double g_zeroed = 4000.0 / 300.0;
  const std::set<Cut> expected = {{1, 0, g_zeroed, 20.0, false, 3, 2},
                                  {2, 0, g_zeroed, 20.0, false, 3, 2},
                                  {3, 0, 20.0, 20.0, false, 3, 3}};
  EXPECT_EQ(sim.cuts, expected);
  EXPECT_EQ(sock.cuts, sim.cuts);
  EXPECT_EQ(sock.indicators, sim.indicators);
}

TEST(PoliceDifferential, SingleIndicatorAloneCuts) {
  // Suspect 0 takes 200 q/min from peer 2 and pushes 900 at judge 1:
  // g = (900 - 200) / (2*100) = 3.5 stays under CT, but
  // s = (900 - 200) / 100 = 7 trips it.
  Scenario sc;
  sc.peers = 3;
  sc.edges = {{0, 1}, {0, 2}};
  sc.rate[{0, 1}] = 900.0;
  sc.rate[{2, 0}] = 200.0;
  const Outcome sim = run_sim_judge(sc);
  const Outcome sock = run_socket_judges(sc);
  const std::set<Cut> expected = {{1, 0, 3.5, 7.0, true, 2, 2}};
  EXPECT_EQ(sim.cuts, expected);
  EXPECT_EQ(sock.cuts, sim.cuts);
  EXPECT_EQ(sock.indicators, sim.indicators);
}

TEST(PoliceDifferential, DegreeOneFlooderSplitsTheJudges) {
  // The one known gap, pinned until it is closed on purpose (it moves the
  // golden hashes): a flooder whose only neighbour is the judge leaves a
  // k = 1 group. DdPolice refuses to conclude without a buddy
  // (Regression.LoneJudgeCannotConvict); LocalPolice judges on its own
  // monitor (LocalPolice.SelfOnlyGroupStillJudges).
  Scenario sc;
  sc.peers = 2;
  sc.edges = {{0, 1}};
  sc.rate[{0, 1}] = 2000.0;
  const Outcome sim = run_sim_judge(sc);
  const Outcome sock = run_socket_judges(sc);
  EXPECT_TRUE(sim.cuts.empty());
  EXPECT_TRUE(sim.indicators.empty());
  const std::set<Cut> expected = {{1, 0, 20.0, 20.0, false, 1, 1}};
  EXPECT_EQ(sock.cuts, expected);
}

}  // namespace
}  // namespace ddp::core
