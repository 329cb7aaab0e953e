// Socket-engine tests, all single-threaded: two engines (or nodes) on
// loopback are stepped by alternating poll_once() calls, so every test is
// deterministic — no background threads, no sleeps longer than the
// timeouts under test.
//
// Covered here, per the deployment-mode requirements:
//   - two-node handshake + query -> hit round trip over real TCP;
//   - slow-reader backpressure: the writer disconnects the peer rather
//     than buffer without bound;
//   - half-open peer timeout: a TCP connection that never completes the
//     app handshake is dropped;
//   - the coalesced write path: one write per connection per pass, a
//     partial write drained on EPOLLOUT, a connection closed or evicted
//     in its sending pass, and every frame before an EOF delivered;
//   - a flood of one encoded frame: the same bytes on every link, one
//     message out per link, and a slow target evicted mid-flood without
//     stalling the others;
//   - SIGTERM clean shutdown with no leaked file descriptors;
//   - one neighbor_list trace event per Neighbor_List a node sends;
//   - the testbed report's fold of per-node traces, over hand-built
//     files and over the traces of a live three-node cut.

#include <gtest/gtest.h>

#include <dirent.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "experiments/testbed.hpp"
#include "netengine/engine.hpp"
#include "netengine/node.hpp"
#include "netengine/timer_wheel.hpp"
#include "obs/trace.hpp"
#include "obs/trace_read.hpp"

namespace ddp::netengine {
namespace {

/// A fresh directory under the system temp dir, removed on scope exit.
struct ScratchDir {
  explicit ScratchDir(const std::string& name)
      : path(std::filesystem::temp_directory_path() /
             ("ddp_netengine_" + name + "_" + std::to_string(::getpid()))) {
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  void write(const std::string& file, const std::string& text) const {
    std::ofstream(path / file) << text;
  }
  std::filesystem::path path;
};

/// Open fds of this process (the leak detector for the shutdown test).
std::size_t open_fd_count() {
  DIR* d = ::opendir("/proc/self/fd");
  if (d == nullptr) return 0;
  std::size_t n = 0;
  while (::readdir(d) != nullptr) ++n;
  ::closedir(d);
  return n >= 3 ? n - 3 : 0;  // ".", "..", and the dirfd itself
}

/// Step a set of engines until `done` or `rounds` poll rounds pass.
template <typename Pred>
bool pump_until(std::vector<Engine*> engines, Pred done, int rounds = 400) {
  for (int i = 0; i < rounds; ++i) {
    if (done()) return true;
    for (Engine* e : engines) e->poll_once(5);
  }
  return done();
}

net::Message make_ping() {
  net::Message m;
  m.header.guid.bytes[0] = 0x42;
  m.payload = net::Ping{};
  return m;
}

/// A message numbered `tag` in its GUID, so a test can check arrival order.
net::Message tagged(net::Message m, std::uint32_t tag) {
  for (std::size_t b = 0; b < 4; ++b) {
    m.header.guid.bytes[b + 1] = static_cast<std::uint8_t>(tag >> (8 * b));
  }
  return m;
}

std::uint32_t tag_of(const net::Message& m) {
  std::uint32_t tag = 0;
  for (std::size_t b = 0; b < 4; ++b) {
    tag |= std::uint32_t{m.header.guid.bytes[b + 1]} << (8 * b);
  }
  return tag;
}

/// An ~8 KB query: a few hundred of them outgrow a loopback socket buffer.
net::Message big_query() {
  net::Message m;
  m.header.guid.bytes[0] = 1;
  net::Query q;
  q.search = std::string(8000, 'x');
  m.payload = std::move(q);
  return m;
}

// ------------------------------------------------------------ timer wheel

TEST(TimerWheel, OneShotFiresOnceAtItsTick) {
  TimerWheel wheel(10, 16);
  int fired = 0;
  wheel.advance(0);
  wheel.schedule(35, [&] { ++fired; });
  wheel.advance(30);
  EXPECT_EQ(fired, 0);
  wheel.advance(40);
  EXPECT_EQ(fired, 1);
  wheel.advance(400);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(wheel.pending(), 0u);
}

TEST(TimerWheel, PeriodicKeepsCadenceAndCancels) {
  TimerWheel wheel(10, 16);
  int fired = 0;
  wheel.advance(0);
  const auto id = wheel.schedule_every(50, [&] { ++fired; });
  wheel.advance(249);  // 50,100,150,200 -> 4 firings
  EXPECT_EQ(fired, 4);
  wheel.cancel(id);
  wheel.advance(1000);
  EXPECT_EQ(fired, 4);
  EXPECT_EQ(wheel.pending(), 0u);
}

TEST(TimerWheel, LongDelaySurvivesWheelRotations) {
  TimerWheel wheel(10, 8);  // 8 slots of 10 ms: 1 s = many rotations
  int fired = 0;
  wheel.advance(0);
  wheel.schedule(1000, [&] { ++fired; });
  wheel.advance(990);
  EXPECT_EQ(fired, 0);
  wheel.advance(1005);
  EXPECT_EQ(fired, 1);
}

TEST(TimerWheel, CallbackMayCancelItself) {
  TimerWheel wheel(10, 16);
  int fired = 0;
  wheel.advance(0);
  TimerWheel::TimerId id = 0;
  id = wheel.schedule_every(20, [&] {
    ++fired;
    wheel.cancel(id);
  });
  wheel.advance(200);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(wheel.pending(), 0u);
}

// ------------------------------------------------------- engine loopback

struct TestPeer {
  explicit TestPeer(EngineConfig cfg = {}) : engine(cfg) {
    EngineHandler h;
    h.on_accept = [this](ConnId id) { accepted.push_back(id); };
    h.on_connect = [this](ConnId id, bool ok) {
      connected.push_back({id, ok});
    };
    h.on_message = [this](ConnId id, const net::Message& m) {
      messages.push_back({id, m});
      if (reply) reply(id, m);
    };
    h.on_close = [this](ConnId id, CloseReason r) {
      closed.push_back({id, r});
    };
    engine.set_handler(std::move(h));
  }
  Engine engine;
  /// Runs inside poll_once after each message is recorded.
  std::function<void(ConnId, const net::Message&)> reply;
  std::vector<ConnId> accepted;
  std::vector<std::pair<ConnId, bool>> connected;
  std::vector<std::pair<ConnId, net::Message>> messages;
  std::vector<std::pair<ConnId, CloseReason>> closed;
};

/// `a` dials `b`; returns a's and b's ids for the connection once both
/// ends are up.
std::pair<ConnId, ConnId> connect_pair(TestPeer& a, TestPeer& b) {
  EXPECT_TRUE(b.engine.listen());
  const ConnId c = a.engine.connect("127.0.0.1", b.engine.listen_port());
  EXPECT_TRUE(pump_until({&a.engine, &b.engine}, [&] {
    return !a.connected.empty() && !b.accepted.empty();
  }));
  EXPECT_TRUE(!a.connected.empty() && a.connected[0].second);
  return {c, b.accepted.empty() ? kInvalidConn : b.accepted[0]};
}

TEST(Engine, ConnectAcceptAndFramedDelivery) {
  TestPeer a, b;
  ASSERT_TRUE(b.engine.listen());
  const ConnId c = a.engine.connect("127.0.0.1", b.engine.listen_port());
  ASSERT_NE(c, kInvalidConn);
  ASSERT_TRUE(pump_until({&a.engine, &b.engine}, [&] {
    return !a.connected.empty() && !b.accepted.empty();
  }));
  EXPECT_TRUE(a.connected[0].second);

  // One multi-message burst must arrive as individually framed messages.
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(a.engine.send(c, make_ping()));
  ASSERT_TRUE(pump_until({&a.engine, &b.engine},
                         [&] { return b.messages.size() >= 3; }));
  EXPECT_EQ(b.messages.size(), 3u);
  EXPECT_EQ(b.messages[0].second.type(), net::PayloadType::kPing);
  EXPECT_EQ(b.engine.messages_in(), 3u);
}

TEST(Engine, ConnectToDeadPortReportsFailure) {
  TestPeer a;
  // Grab a port, then close the listener so nothing is behind it.
  std::uint16_t dead_port = 0;
  {
    Fd probe = make_listener(0);
    ASSERT_TRUE(probe.valid());
    dead_port = bound_port(probe);
  }
  const ConnId c = a.engine.connect("127.0.0.1", dead_port);
  ASSERT_NE(c, kInvalidConn);
  ASSERT_TRUE(
      pump_until({&a.engine}, [&] { return !a.connected.empty(); }));
  EXPECT_FALSE(a.connected[0].second);
  EXPECT_EQ(a.engine.connection_count(), 0u);
}

TEST(Engine, GarbageBytesCloseTheConnectionAsBadFrame) {
  TestPeer a, b;
  ASSERT_TRUE(b.engine.listen());
  // Raw client socket outside any engine: write junk straight at it.
  Fd raw = connect_nonblocking("127.0.0.1", b.engine.listen_port());
  ASSERT_TRUE(raw.valid());
  ASSERT_TRUE(pump_until({&b.engine}, [&] { return !b.accepted.empty(); }));
  std::vector<std::uint8_t> junk(64, 0xEE);  // type byte 0xEE: unknown
  ASSERT_EQ(::write(raw.get(), junk.data(), junk.size()),
            static_cast<ssize_t>(junk.size()));
  ASSERT_TRUE(pump_until({&b.engine}, [&] { return !b.closed.empty(); }));
  EXPECT_EQ(b.closed[0].second, CloseReason::kBadFrame);
}

TEST(Engine, SlowReaderIsDisconnectedByBackpressure) {
  EngineConfig small;
  small.max_write_queue = 64 * 1024;
  TestPeer a(small), b;
  ASSERT_TRUE(b.engine.listen());
  const ConnId c = a.engine.connect("127.0.0.1", b.engine.listen_port());
  ASSERT_TRUE(pump_until({&a.engine, &b.engine},
                         [&] { return !a.connected.empty(); }));
  ASSERT_TRUE(a.connected[0].second);

  // b never polls from here on: its kernel receive buffer fills, then a's
  // send buffer, then a's user-space queue hits the bound -> kSlowPeer.
  net::Message big;
  big.header.guid.bytes[0] = 1;
  net::Query q;
  q.search = std::string(8000, 'x');
  big.payload = std::move(q);
  bool evicted = false;
  for (int i = 0; i < 4000 && !evicted; ++i) {
    a.engine.send(c, big);
    evicted = !a.closed.empty();
  }
  ASSERT_TRUE(evicted) << "writer never hit the backpressure bound";
  EXPECT_EQ(a.closed[0].second, CloseReason::kSlowPeer);
  EXPECT_FALSE(a.engine.is_open(c));
}

TEST(Engine, RepliesFromOnePassLeaveInOneWrite) {
  TestPeer a, b;
  const auto [ca, cb] = connect_pair(a, b);
  b.reply = [&](ConnId id, const net::Message&) {
    for (std::uint32_t i = 0; i < 8; ++i) {
      EXPECT_TRUE(b.engine.send(id, tagged(make_ping(), i)));
    }
  };
  const std::uint64_t a_writes = a.engine.writes();
  const std::uint64_t b_writes = b.engine.writes();
  ASSERT_TRUE(a.engine.send(ca, make_ping()));  // outside poll_once: at once
  EXPECT_EQ(a.engine.writes(), a_writes + 1);
  ASSERT_TRUE(
      pump_until({&b.engine}, [&] { return b.messages.size() == 1; }));
  EXPECT_EQ(b.engine.writes(), b_writes + 1);
  EXPECT_EQ(b.engine.messages_out(), 8u);
  EXPECT_EQ(b.engine.write_queue_bytes(cb), 0u);

  ASSERT_TRUE(
      pump_until({&a.engine}, [&] { return a.messages.size() >= 8; }));
  ASSERT_EQ(a.messages.size(), 8u);
  for (std::uint32_t i = 0; i < 8; ++i) {
    EXPECT_EQ(a.messages[i].second.type(), net::PayloadType::kPing);
    EXPECT_EQ(tag_of(a.messages[i].second), i);
  }
}

TEST(Engine, BurstPastTheSocketBuffersDrainsOnWritability) {
  EngineConfig roomy;
  roomy.max_write_queue = 64u << 20;
  TestPeer a, b(roomy);
  const auto [ca, cb] = connect_pair(a, b);
  // 1000 x 8 KB is twice the largest send buffer Linux grants by default
  // (tcp_wmem 4 MiB), so the pass's one write cannot take it all.
  constexpr std::uint32_t kBurst = 1000;
  b.reply = [&](ConnId id, const net::Message&) {
    for (std::uint32_t i = 0; i < kBurst; ++i) {
      EXPECT_TRUE(b.engine.send(id, tagged(big_query(), i)));
    }
  };
  ASSERT_TRUE(a.engine.send(ca, make_ping()));
  ASSERT_TRUE(
      pump_until({&b.engine}, [&] { return b.messages.size() == 1; }));
  EXPECT_GT(b.engine.write_queue_bytes(cb), 0u) << "no partial write";

  ASSERT_TRUE(pump_until({&a.engine, &b.engine},
                         [&] { return a.messages.size() >= kBurst; }, 2000));
  ASSERT_EQ(a.messages.size(), kBurst);
  for (std::uint32_t i = 0; i < kBurst; ++i) {
    ASSERT_EQ(tag_of(a.messages[i].second), i) << "frame out of order";
  }
  EXPECT_EQ(b.engine.write_queue_bytes(cb), 0u);
  EXPECT_TRUE(b.closed.empty());
}

TEST(Engine, CloseInTheSendingPassWritesOnceAndSkipsTheFlush) {
  TestPeer a, b;
  const auto [ca, cb] = connect_pair(a, b);
  b.reply = [&](ConnId id, const net::Message&) {
    for (std::uint32_t i = 0; i < 3; ++i) {
      EXPECT_TRUE(b.engine.send(id, tagged(make_ping(), i)));
    }
    b.engine.close(id);
    EXPECT_FALSE(b.engine.send(id, make_ping()));
  };
  ASSERT_TRUE(a.engine.send(ca, make_ping()));
  ASSERT_TRUE(pump_until({&b.engine}, [&] { return !b.closed.empty(); }));
  EXPECT_EQ(b.closed[0], std::make_pair(cb, CloseReason::kLocal));
  EXPECT_EQ(b.engine.connection_count(), 0u);

  // The replies queued before the close still reach the peer, then EOF.
  ASSERT_TRUE(pump_until({&a.engine}, [&] { return !a.closed.empty(); }));
  ASSERT_EQ(a.messages.size(), 3u);
  for (std::uint32_t i = 0; i < 3; ++i) {
    EXPECT_EQ(tag_of(a.messages[i].second), i);
  }
  EXPECT_EQ(a.closed[0].second, CloseReason::kPeerClosed);
}

TEST(Engine, EvictionInTheSendingPassIsSkippedByTheFlush) {
  EngineConfig small;
  small.max_write_queue = 64 * 1024;
  TestPeer a, b(small);
  const auto [ca, cb] = connect_pair(a, b);
  // a stops polling, so the burst fills both kernel buffers and the
  // bound evicts the connection while it is queued for the flush.
  int sent = 0;
  b.reply = [&](ConnId id, const net::Message&) {
    while (sent < 4000 && b.engine.send(id, big_query())) ++sent;
  };
  ASSERT_TRUE(a.engine.send(ca, make_ping()));
  ASSERT_TRUE(pump_until({&b.engine}, [&] { return !b.closed.empty(); }));
  ASSERT_LT(sent, 4000) << "writer never hit the backpressure bound";
  EXPECT_EQ(b.closed[0], std::make_pair(cb, CloseReason::kSlowPeer));
  EXPECT_FALSE(b.engine.is_open(cb));
  EXPECT_EQ(b.engine.write_queue_bytes(cb), 0u);
  b.engine.poll_once(0);  // a later pass has nothing left to flush
  EXPECT_EQ(b.closed.size(), 1u);
}

/// Everything a raw loopback socket has received so far, appended to
/// `into`, waiting up to ~2 s for `want` bytes in total (0: take what is
/// there now).
void read_wire(const Fd& wire, std::vector<std::uint8_t>& into,
               std::size_t want = 0) {
  std::uint8_t buf[65536];
  for (int waited_ms = 0;; ++waited_ms) {
    ssize_t n = 0;
    while ((n = ::recv(wire.get(), buf, sizeof(buf), 0)) > 0) {
      into.insert(into.end(), buf, buf + n);
    }
    if (into.size() >= want || waited_ms == 2000) return;
    ::usleep(1000);
  }
}

TEST(Engine, FloodOfOneEncodedFrameReachesEveryLink) {
  EngineConfig small;
  small.max_write_queue = 64 * 1024;
  TestPeer a(small);
  ASSERT_TRUE(a.engine.listen());
  std::array<Fd, 3> wires;
  for (Fd& wire : wires) {
    wire = connect_nonblocking("127.0.0.1", a.engine.listen_port());
    ASSERT_TRUE(wire.valid());
  }
  ASSERT_TRUE(
      pump_until({&a.engine}, [&] { return a.accepted.size() == 3; }));

  // One frame to three links: three messages out, the same bytes on each.
  const std::vector<std::uint8_t> ping = net::encode(make_ping());
  for (const ConnId id : a.accepted) EXPECT_TRUE(a.engine.send(id, ping));
  EXPECT_EQ(a.engine.messages_out(), 3u);
  EXPECT_EQ(a.engine.bytes_out(), 3 * ping.size());
  for (const Fd& wire : wires) {
    std::vector<std::uint8_t> got;
    read_wire(wire, got, ping.size());
    EXPECT_EQ(got, ping);
  }

  // Wire 1 stops reading. Its link passes the bound mid-flood and is
  // evicted; the flood goes on, and wires 0 and 2 get every frame.
  std::array<std::vector<std::uint8_t>, 3> got;
  std::vector<std::uint8_t> flood;  // every frame flooded, in order
  std::uint32_t frames = 0;
  for (int after_eviction = 0; frames < 4000 && after_eviction < 3;
       ++frames) {
    const std::vector<std::uint8_t> frame =
        net::encode(tagged(big_query(), frames));
    for (const ConnId id : a.accepted) a.engine.send(id, frame);
    flood.insert(flood.end(), frame.begin(), frame.end());
    read_wire(wires[0], got[0]);
    read_wire(wires[2], got[2]);
    if (!a.closed.empty()) ++after_eviction;
  }
  ASSERT_LT(frames, 4000u) << "the slow link was never evicted";
  ASSERT_EQ(a.closed.size(), 1u);
  EXPECT_EQ(a.closed[0].second, CloseReason::kSlowPeer);
  EXPECT_EQ(a.engine.connection_count(), 2u);
  // The evicted link misses the two rounds after its eviction.
  EXPECT_EQ(a.engine.messages_out(), 3u + 3u * frames - 2u);
  for (const std::size_t w : {0u, 2u}) {
    read_wire(wires[w], got[w], flood.size());
    EXPECT_TRUE(got[w] == flood) << "wire " << w << " got " << got[w].size()
                                 << " of " << flood.size() << " bytes";
  }
}

TEST(Engine, FramesBeforeAnEofAreAllDelivered) {
  TestPeer b;
  ASSERT_TRUE(b.engine.listen());
  Fd raw = connect_nonblocking("127.0.0.1", b.engine.listen_port());
  ASSERT_TRUE(raw.valid());
  ASSERT_TRUE(pump_until({&b.engine}, [&] { return !b.accepted.empty(); }));
  // ~160 KB: the engine reads it in several recvs, the last one short.
  constexpr std::uint32_t kFrames = 20;
  std::vector<std::uint8_t> wire;
  for (std::uint32_t i = 0; i < kFrames; ++i) {
    net::encode(tagged(big_query(), i), wire);
  }
  std::size_t off = 0;
  ASSERT_TRUE(pump_until({&b.engine}, [&] {
    const ssize_t n = ::write(raw.get(), wire.data() + off, wire.size() - off);
    if (n > 0) off += static_cast<std::size_t>(n);
    return off == wire.size();
  }));
  raw.reset();  // FIN right behind the last frame
  ASSERT_TRUE(pump_until({&b.engine}, [&] { return !b.closed.empty(); }));
  ASSERT_EQ(b.messages.size(), kFrames);
  for (std::uint32_t i = 0; i < kFrames; ++i) {
    EXPECT_EQ(tag_of(b.messages[i].second), i);
  }
  EXPECT_EQ(b.closed[0].second, CloseReason::kPeerClosed);
}

TEST(Engine, HalfOpenPeerIsTimedOut) {
  EngineConfig quick;
  quick.handshake_timeout_ms = 150;
  quick.sweep_period_ms = 25;
  TestPeer b(quick);
  ASSERT_TRUE(b.engine.listen());
  // TCP connects, then says nothing at the application layer.
  Fd mute = connect_nonblocking("127.0.0.1", b.engine.listen_port());
  ASSERT_TRUE(mute.valid());
  ASSERT_TRUE(pump_until({&b.engine}, [&] { return !b.accepted.empty(); }));
  ASSERT_TRUE(pump_until({&b.engine}, [&] { return !b.closed.empty(); },
                         2000));
  EXPECT_EQ(b.closed[0].second, CloseReason::kHandshakeTimeout);
  EXPECT_EQ(b.engine.connection_count(), 0u);
}

// --------------------------------------------------------- node loopback

struct NodePair {
  std::unique_ptr<Node> a, b;
};

NodeConfig quick_node(std::uint32_t index) {
  NodeConfig cfg;
  cfg.index = index;
  cfg.minute_seconds = 0.5;          // accelerated protocol minutes
  cfg.query_rate_per_minute = 0.0;   // tests issue deterministically
  cfg.hit_probability = 0.0;
  cfg.seed = 7 + index;
  return cfg;
}

/// The hello a script-driven peer sends to open an overlay link.
net::Message overlay_hello(std::uint32_t ip, std::uint16_t port) {
  net::Message m;
  m.header.ttl = 1;
  net::Pong p;
  p.ip = ip;
  p.port = port;
  p.files_shared = 0;  // overlay link
  m.payload = p;
  return m;
}

TEST(Node, HandshakeQueryHitRoundTrip) {
  // b answers every query; a is a bystander neighbour of b that proves
  // forwarding; c issues queries and must get the hit back.
  NodeConfig cb = quick_node(2);
  cb.hit_probability = 1.0;
  Node b(cb);
  ASSERT_TRUE(b.start());

  NodeConfig ca = quick_node(1);
  ca.bootstrap = {b.listen_port()};
  Node a(ca);
  ASSERT_TRUE(a.start());

  NodeConfig cc = quick_node(3);
  cc.bootstrap = {b.listen_port()};
  cc.query_rate_per_minute = 120.0;
  Node c(cc);
  ASSERT_TRUE(c.start());

  auto pump = [&](auto done, int rounds = 1200) {
    for (int i = 0; i < rounds; ++i) {
      if (done()) return true;
      a.poll_once(2);
      b.poll_once(2);
      c.poll_once(2);
    }
    return done();
  };

  // Hello Pongs cross; links come up on both sides.
  ASSERT_TRUE(pump([&] {
    return a.overlay_degree() == 1 && c.overlay_degree() == 1 &&
           b.overlay_degree() == 2;
  })) << "handshake did not complete";
  EXPECT_TRUE(a.police().neighbors() ==
              std::vector<std::uint32_t>{b.self_address()});

  // c's queries flood to b (which forwards them on to a) and b's
  // QueryHits route back along the reverse path to the origin c.
  ASSERT_TRUE(pump([&] { return c.hits_received() > 0; }))
      << "no QueryHit made it back to the origin";
  EXPECT_GT(c.queries_issued(), 0u);
  EXPECT_GT(b.queries_forwarded(), 0u);
}

TEST(Node, AttackerCohortIsCutOnLoopback) {
  // Star: one honest hub, one honest spoke, one attacker spoke. The
  // attacker floods the hub far past the warning threshold; the hub's
  // LocalPolice runs a buddy round and cuts + bans it. Each node traces
  // into its own file, and the testbed report folds the three.
  const ScratchDir dir("cohort");
  obs::JsonlFileSink hub_trace((dir.path / "node0.jsonl").string());
  obs::JsonlFileSink spoke_trace((dir.path / "node1.jsonl").string());
  obs::JsonlFileSink bad_trace((dir.path / "node2.jsonl").string());

  NodeConfig hub_cfg = quick_node(0);
  hub_cfg.trace_sink = &hub_trace;
  hub_cfg.ddp.warning_threshold = 60.0;
  hub_cfg.ddp.cut_threshold = 2.0;
  hub_cfg.ddp.good_issue_bound = 20.0;
  hub_cfg.ddp.collect_timeout_seconds = 6.0;  // 0.1 protocol minutes
  Node hub(hub_cfg);
  ASSERT_TRUE(hub.start());

  NodeConfig spoke_cfg = quick_node(1);
  spoke_cfg.bootstrap = {hub.listen_port()};
  spoke_cfg.query_rate_per_minute = 5.0;
  spoke_cfg.trace_sink = &spoke_trace;
  Node spoke(spoke_cfg);
  ASSERT_TRUE(spoke.start());

  NodeConfig bad_cfg = quick_node(2);
  bad_cfg.bootstrap = {hub.listen_port()};
  bad_cfg.attacker = true;
  bad_cfg.attack_rate_per_minute = 600.0;
  bad_cfg.attack_start_minute = 1.0;
  bad_cfg.trace_sink = &bad_trace;
  Node bad(bad_cfg);
  ASSERT_TRUE(bad.start());

  const std::uint32_t bad_addr = bad.self_address();
  auto pump = [&](auto done, int rounds = 6000) {
    for (int i = 0; i < rounds; ++i) {
      if (done()) return true;
      hub.poll_once(1);
      spoke.poll_once(1);
      bad.poll_once(1);
    }
    return done();
  };
  ASSERT_TRUE(pump([&] { return hub.overlay_degree() == 2; }));
  ASSERT_TRUE(pump([&] { return !hub.cuts().empty(); }))
      << "attacker was never cut";
  EXPECT_EQ(hub.cuts()[0].suspect, bad_addr);
  EXPECT_TRUE(hub.is_banned(bad_addr));
  // The honest spoke survives.
  for (const core::Decision& d : hub.cuts()) {
    EXPECT_NE(d.suspect, spoke.self_address());
  }
  // The ban holds: the attacker's redial attempts never restore the link.
  ASSERT_TRUE(pump([&] { return hub.overlay_degree() == 1; }, 500));

  hub.shutdown();
  spoke.shutdown();
  bad.shutdown();
  const experiments::TestbedReport report =
      experiments::aggregate_traces(dir.path.string());
  EXPECT_EQ(report.nodes_reporting, 3u);
  EXPECT_EQ(report.finals_reporting, 3u);
  EXPECT_EQ(report.attackers, 1u);
  EXPECT_EQ(report.attackers_cut, 1u);
  EXPECT_EQ(report.honest_cut, 0u);

  // Every line is the canonical schema, and the hub's cut names the
  // attacker with the verdict's indicators.
  for (const char* file : {"node0.jsonl", "node1.jsonl", "node2.jsonl"}) {
    std::ifstream in(dir.path / file);
    std::string line, why;
    while (std::getline(in, line)) {
      EXPECT_TRUE(obs::parse_trace_line(line, &why)) << file << ": " << why;
    }
  }
  std::ifstream in(dir.path / "node0.jsonl");
  const std::vector<obs::TraceRecord> records = obs::read_trace_records(in);
  const auto cut = std::find_if(
      records.begin(), records.end(), [](const obs::TraceRecord& r) {
        return r.known == obs::EventType::kSuspectCut;
      });
  ASSERT_NE(cut, records.end());
  const core::Decision& d = hub.cuts()[0];
  EXPECT_EQ(cut->a, bad_addr);
  EXPECT_EQ(cut->b, hub.self_address());
  // The JSONL carries ten significant digits.
  EXPECT_NEAR(cut->field("g").value_or(-1.0), d.g, 1e-9 * std::abs(d.g));
  EXPECT_NEAR(cut->field("s").value_or(-1.0), d.s, 1e-9 * std::abs(d.s));
}

TEST(Testbed, ReportFoldsHandBuiltNodeTraces) {
  // Three nodes, 10.0.0.0-2; node 2 floods. Judge 1 cuts the attacker at
  // minute 2.5, judge 0 at minute 3.5, and judge 1 also cuts honest node 0
  // at 3.5. The attacker's trace has no peer_left (a node killed before
  // shutdown), node1's trace has a line that does not parse, and a file
  // that is not .jsonl is ignored.
  const ScratchDir dir("fold");
  dir.write("node0.jsonl",
            "{\"t\":0,\"type\":\"peer_joined\",\"a\":167772160}\n"
            "{\"t\":210,\"type\":\"suspect_cut\",\"a\":167772162,"
            "\"b\":167772160,\"kv\":{\"g\":20,\"s\":18,\"via_single\":1}}\n"
            "{\"t\":360,\"type\":\"peer_left\",\"a\":167772160,"
            "\"kv\":{\"issued\":10,\"forwarded\":200,\"hits\":3}}\n");
  dir.write("node1.jsonl",
            "{\"t\":0,\"type\":\"peer_joined\",\"a\":167772161}\n"
            "{\"t\":150,\"type\":\"suspect_cut\",\"a\":167772162\n"
            "{\"t\":150,\"type\":\"suspect_cut\",\"a\":167772162,"
            "\"b\":167772161,\"kv\":{\"g\":12.5,\"s\":9,\"via_single\":0}}\n"
            "{\"t\":210,\"type\":\"suspect_cut\",\"a\":167772160,"
            "\"b\":167772161,\"kv\":{\"g\":6,\"s\":5.5,\"via_single\":0}}\n"
            "{\"t\":360,\"type\":\"peer_left\",\"a\":167772161,"
            "\"kv\":{\"issued\":12,\"forwarded\":150,\"hits\":4}}\n");
  dir.write("node2.jsonl",
            "{\"t\":0,\"type\":\"peer_joined\",\"a\":167772162}\n"
            "{\"t\":0,\"type\":\"agent_activated\",\"a\":167772162,"
            "\"kv\":{\"rate\":600}}\n"
            "{\"t\":120,\"type\":\"suspect_flagged\",\"a\":167772160,"
            "\"b\":167772162,\"kv\":{\"out\":700}}\n");
  dir.write("notes.txt",
            "{\"t\":0,\"type\":\"peer_joined\",\"a\":167772163}\n"
            "{\"t\":0,\"type\":\"agent_activated\",\"a\":167772163}\n");

  const experiments::TestbedReport r =
      experiments::aggregate_traces(dir.path.string());
  EXPECT_EQ(r.nodes_reporting, 3u);
  EXPECT_EQ(r.finals_reporting, 2u);
  EXPECT_EQ(r.attackers, 1u);
  EXPECT_EQ(r.attackers_cut, 1u);
  EXPECT_EQ(r.honest_cut, 1u);
  EXPECT_EQ(r.first_detection_minute, 2.5);
  EXPECT_EQ(r.mean_detection_minute, 2.5);
  EXPECT_EQ(r.total_issued, 22u);
  EXPECT_EQ(r.total_forwarded, 350u);
  EXPECT_EQ(r.total_hits, 7u);

  // Minute order; the two minute-3.5 cuts keep file order (node0 first),
  // though a suspect-keyed order would put 10.0.0.0 first.
  struct Want {
    double minute;
    std::uint32_t judge;
    const char* suspect;
    bool attacker;
    double g, s;
  };
  const std::vector<Want> want = {{2.5, 1, "10.0.0.2", true, 12.5, 9.0},
                                  {3.5, 0, "10.0.0.2", true, 20.0, 18.0},
                                  {3.5, 1, "10.0.0.0", false, 6.0, 5.5}};
  ASSERT_EQ(r.cuts.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(r.cuts[i].minute, want[i].minute);
    EXPECT_EQ(r.cuts[i].judge_index, want[i].judge);
    EXPECT_EQ(r.cuts[i].suspect, want[i].suspect);
    EXPECT_EQ(r.cuts[i].suspect_is_attacker, want[i].attacker);
    EXPECT_EQ(r.cuts[i].g, want[i].g);
    EXPECT_EQ(r.cuts[i].s, want[i].s);
  }
}

TEST(Testbed, EmptyDirReportsNoNodes) {
  const ScratchDir dir("empty");
  const experiments::TestbedReport r =
      experiments::aggregate_traces(dir.path.string());
  EXPECT_EQ(r.nodes_reporting, 0u);
  EXPECT_EQ(r.finals_reporting, 0u);
  EXPECT_EQ(r.attackers, 0u);
  EXPECT_TRUE(r.cuts.empty());
  EXPECT_EQ(r.first_detection_minute, -1.0);
}

TEST(Node, DuplicateEchoRevokesForwardCredit) {
  // One node, two script-driven peers. p1 floods a query through the
  // node; when p2 later sends the SAME query back, the node must revoke
  // the Out_query credit it had granted the p2 link (p2 demonstrably
  // already had the query, so the forwarded copy was unrelayable). A dup
  // from the origin link and a dup of a never-forwarded (TTL-exhausted)
  // query must NOT revoke anything.
  NodeConfig cfg = quick_node(0);
  Node node(cfg);
  ASSERT_TRUE(node.start());

  TestPeer p1, p2;
  const ConnId c1 = p1.engine.connect("127.0.0.1", node.listen_port());
  const ConnId c2 = p2.engine.connect("127.0.0.1", node.listen_port());
  ASSERT_NE(c1, kInvalidConn);
  ASSERT_NE(c2, kInvalidConn);

  auto pump = [&](auto done, int rounds = 800) {
    for (int i = 0; i < rounds; ++i) {
      if (done()) return true;
      node.poll_once(2);
      p1.engine.poll_once(2);
      p2.engine.poll_once(2);
    }
    return done();
  };

  const std::uint32_t a1 = net::peer_address(1);
  const std::uint32_t a2 = net::peer_address(2);
  ASSERT_TRUE(pump([&] {
    return !p1.connected.empty() && !p2.connected.empty();
  }));
  p1.engine.send(c1, overlay_hello(a1, 1));
  p2.engine.send(c2, overlay_hello(a2, 2));
  ASSERT_TRUE(pump([&] { return node.overlay_degree() == 2; }));

  auto query = [](std::uint8_t tag, std::uint8_t ttl) {
    net::Message m;
    m.header.guid.bytes[0] = tag;
    m.header.guid.bytes[15] = 0x5a;
    m.header.ttl = ttl;
    m.payload = net::Query{0, "echo-test"};
    return m;
  };

  // p1's query floods to p2: one credit on the p2 link.
  p1.engine.send(c1, query(1, 3));
  ASSERT_TRUE(pump([&] {
    const auto lm = node.link_minute(a2);
    return lm.has_value() && lm->out_queries == 1.0;
  })) << "query was not forwarded to p2";

  // The same query coming back from p2 proves the copy was redundant.
  p2.engine.send(c2, query(1, 2));
  ASSERT_TRUE(pump([&] { return node.echo_revocations() == 1; }))
      << "dup from a flooded-to link did not revoke";
  EXPECT_EQ(node.link_minute(a2)->out_queries, 0.0);
  EXPECT_EQ(node.link_minute(a2)->in_queries, 1.0);

  // Dup from the origin link: we never forwarded to it, nothing to revoke.
  p1.engine.send(c1, query(1, 3));
  // TTL-exhausted query is seen but not flooded; its dup revokes nothing.
  p1.engine.send(c1, query(9, 1));
  ASSERT_TRUE(pump([&] {
    const auto lm = node.link_minute(a1);
    return lm.has_value() && lm->in_queries == 3.0;
  }));
  p2.engine.send(c2, query(9, 1));
  ASSERT_TRUE(pump([&] { return node.link_minute(a2)->in_queries == 2.0; }));
  EXPECT_EQ(node.echo_revocations(), 1u);
  EXPECT_EQ(node.link_minute(a2)->out_queries, 0.0);  // clamped, not negative

  // A forward whose TTL dies on arrival earns no relay credit either:
  // p2 gets the copy (raw Out_query counts it) but provably cannot
  // forward it, so the police-facing credit stays flat.
  p1.engine.send(c1, query(7, 2));
  ASSERT_TRUE(pump([&] { return node.link_minute(a1)->in_queries == 4.0; }));
  const std::size_t before = p2.messages.size();
  ASSERT_TRUE(pump([&] { return p2.messages.size() > before; }))
      << "ttl=2 query was not forwarded";
  EXPECT_EQ(node.link_minute(a2)->out_queries, 0.0);
}

TEST(Node, EveryNeighborListSentIsTraced) {
  // Two script-driven peers join one node. Every Neighbor_List they
  // receive is one neighbor_list event in the node's trace, whether the
  // node sent it because its neighbour set changed or the judge sent it
  // on the periodic exchange (every 2 protocol minutes, 1 s here).
  for (const core::ExchangePolicy policy :
       {core::ExchangePolicy::kEventDriven, core::ExchangePolicy::kPeriodic}) {
    const bool periodic = policy == core::ExchangePolicy::kPeriodic;
    SCOPED_TRACE(periodic ? "periodic" : "event-driven");
    obs::RingBufferSink trace(4096);
    NodeConfig cfg = quick_node(0);
    cfg.ddp.exchange_policy = policy;
    cfg.trace_sink = &trace;
    Node node(cfg);
    ASSERT_TRUE(node.start());

    TestPeer p1, p2;
    const ConnId c1 = p1.engine.connect("127.0.0.1", node.listen_port());
    const ConnId c2 = p2.engine.connect("127.0.0.1", node.listen_port());
    ASSERT_NE(c1, kInvalidConn);
    ASSERT_NE(c2, kInvalidConn);
    auto pump = [&](auto done) {
      for (int i = 0; i < 4000; ++i) {
        if (done()) return true;
        node.poll_once(2);
        p1.engine.poll_once(2);
        p2.engine.poll_once(2);
      }
      return done();
    };
    const auto lists = [](const TestPeer& p) {
      std::size_t n = 0;
      for (const auto& [id, m] : p.messages) {
        if (m.type() == net::PayloadType::kNeighborList) ++n;
      }
      return n;
    };

    const std::uint32_t a1 = net::peer_address(1);
    const std::uint32_t a2 = net::peer_address(2);
    ASSERT_TRUE(pump([&] {
      return !p1.connected.empty() && !p2.connected.empty();
    }));
    p1.engine.send(c1, overlay_hello(a1, 1));
    p2.engine.send(c2, overlay_hello(a2, 2));
    // The lists of the joins, and under the periodic policy two more.
    const std::size_t want = periodic ? 3 : 1;
    ASSERT_TRUE(pump([&] { return lists(p1) >= want && lists(p2) >= want; }))
        << "the node sent too few lists";

    // The node stops sending; its peers read everything it wrote.
    for (int i = 0; i < 100; ++i) {
      p1.engine.poll_once(2);
      p2.engine.poll_once(2);
    }
    std::map<std::uint32_t, std::size_t> traced;
    for (std::size_t i = 0; i < trace.size(); ++i) {
      const obs::TraceEvent& e = trace.at(i);
      if (e.type == obs::EventType::kNeighborListSent &&
          e.a == node.self_address()) {
        ++traced[e.b];
      }
    }
    EXPECT_EQ(traced.size(), 2u);
    EXPECT_EQ(traced[a1], lists(p1));
    EXPECT_EQ(traced[a2], lists(p2));
  }
}

TEST(Node, BuddyIndexPastThePortRangeIsNeverDialed) {
  // A Neighbor_List member whose index, added to port_base, wraps past
  // 65535 onto a listening port must not be dialed in a buddy round.
  TestPeer victim;
  ASSERT_TRUE(victim.engine.listen());
  NodeConfig cfg = quick_node(0);
  cfg.peer_port_base = 20000;
  Node node(cfg);
  ASSERT_TRUE(node.start());

  const std::uint32_t wrapped =
      65536u + victim.engine.listen_port() - cfg.peer_port_base;
  const std::uint32_t suspect = net::peer_address(3);
  const std::uint32_t member = net::peer_address(wrapped);
  node.police().on_neighbor_list(suspect, {member}, 1.0);
  node.police().on_minute(1.0, {{suspect, 0.0, 1e6}});
  ASSERT_EQ(node.police().rounds_run(), 1u);

  for (int i = 0; i < 100; ++i) {
    node.poll_once(2);
    victim.engine.poll_once(2);
  }
  EXPECT_TRUE(victim.accepted.empty()) << "dialed a wrapped port";
}

TEST(Node, SigtermShutsDownCleanlyWithoutLeakingFds) {
  const std::size_t fds_before = open_fd_count();
  {
    NodeConfig cfg = quick_node(4);
    cfg.query_rate_per_minute = 10.0;
    Node n(cfg);
    ASSERT_TRUE(n.start());
    ASSERT_TRUE(n.engine().install_signal_handlers());
    for (int i = 0; i < 10; ++i) n.poll_once(2);
    ASSERT_EQ(::kill(::getpid(), SIGTERM), 0);
    // run() must notice the signal and return instead of looping forever.
    n.run();
    EXPECT_TRUE(n.engine().stopped());
  }
  const std::size_t fds_after = open_fd_count();
  EXPECT_EQ(fds_after, fds_before) << "file descriptors leaked on shutdown";
}

}  // namespace
}  // namespace ddp::netengine
