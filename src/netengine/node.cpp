#include "netengine/node.hpp"

#include <algorithm>

namespace ddp::netengine {

namespace {

constexpr std::uint32_t kSelfOrigin = kInvalidPeer;  ///< GuidTable marker

/// High bit of a GuidTable `from` field: the query was flooded onward at
/// first arrival with relay credit — the copies left with TTL > 1, so
/// every then-ready overlay link except the source holds one Out_query
/// credit for it (TTL-dead copies are uncredited at send time and need no
/// later revocation). Overlay addresses are 10.x.y.z, leaving bit 31
/// free; kSelfOrigin (all ones) is resolved by the caller against the
/// configured issue TTL.
constexpr std::uint32_t kCreditFlag = 0x80000000u;

constexpr std::uint32_t origin_of(std::uint32_t from) noexcept {
  return from == kSelfOrigin ? kSelfOrigin : (from & ~kCreditFlag);
}

}  // namespace

Node::Node(const NodeConfig& config)
    : config_(config),
      self_(net::peer_address(config.index)),
      engine_(config.engine),
      police_(net::peer_address(config.index), config.ddp, *this),
      rng_(config.seed, config.index) {
  EngineHandler h;
  h.on_accept = [this](ConnId id) { on_accept(id); };
  h.on_connect = [this](ConnId id, bool ok) { on_connect(id, ok); };
  h.on_message = [this](ConnId id, const net::Message& m) {
    on_message(id, m);
  };
  h.on_close = [this](ConnId id, CloseReason r) { on_close(id, r); };
  engine_.set_handler(std::move(h));
  tracer_.bind(config.trace_sink);
  police_.set_trace_sink(config.trace_sink);
  police_.set_cut_handler(
      [this](std::uint32_t suspect, const core::Decision&) {
        apply_cut(suspect);
      });
  // Answer traffic requests from the live rolling windows: this node's
  // minute boundary is not the requesting judge's, so the last completed
  // minute may predate the traffic being judged.
  police_.set_traffic_probe(
      [this](std::uint32_t peer) -> std::optional<core::LinkMinute> {
        return link_minute(peer);
      });
}

Node::~Node() { shutdown(); }

bool Node::start() {
  if (!engine_.listen()) return false;
  joined_ = true;
  const SimTime now = minutes(protocol_minutes());
  DDP_TRACE(tracer_, obs::EventType::kPeerJoined, now, self_);
  // Before any attack minute: the report knows every attacker even if
  // the run ends before this one starts flooding.
  if (config_.attacker) {
    DDP_TRACE(tracer_, obs::EventType::kAgentActivated, now, self_,
              kInvalidPeer, {{"rate", config_.attack_rate_per_minute}});
  }

  const auto minute_ms =
      static_cast<std::uint64_t>(config_.minute_seconds * 1000.0);
  constexpr auto kMinuteFloorMs =
      static_cast<std::uint64_t>(kMinMinuteSeconds * 1000.0);
  engine_.timers().schedule_every(std::max(minute_ms, kMinuteFloorMs),
                                  [this] { on_protocol_minute(); });
  // Police tick: ~20 per protocol minute, floor 50 ms — fine enough to hit
  // collect timeouts promptly even at high acceleration.
  engine_.timers().schedule_every(
      std::max<std::uint64_t>(50, minute_ms / 20), [this] {
        police_.on_tick(protocol_minutes());
        if (adverts_dirty_) {
          adverts_dirty_ = false;
          advertise_neighbors();
        }
      });
  engine_.timers().schedule_every(25, [this] { issue_queries(); });
  engine_.timers().schedule_every(1000, [this] { maintain_bootstrap(); });

  last_issue_s_ = wall_seconds();
  maintain_bootstrap();
  return true;
}

void Node::run() {
  engine_.run();
  shutdown();
}

void Node::shutdown() {
  if (!joined_) return;
  joined_ = false;
  DDP_TRACE(tracer_, obs::EventType::kPeerLeft, minutes(protocol_minutes()),
            self_, kInvalidPeer,
            {{"issued", double(queries_issued_)},
             {"forwarded", double(queries_forwarded_)},
             {"hits", double(hits_received_)}});
  if (tracer_.on()) tracer_.sink()->flush();
}

std::size_t Node::overlay_degree() const {
  std::size_t n = 0;
  for (const auto& [id, link] : links_) {
    if (link.ready && link.kind == LinkKind::kOverlay) ++n;
  }
  return n;
}

Node::Link* Node::link_by_conn(ConnId id) {
  const auto it = links_.find(id);
  return it == links_.end() ? nullptr : &it->second;
}

Node::Link* Node::ready_link_to(std::uint32_t address) {
  const auto it = by_address_.find(address);
  if (it == by_address_.end()) return nullptr;
  Link* link = link_by_conn(it->second);
  return (link != nullptr && link->ready) ? link : nullptr;
}

double Node::out_credit(Link& link, double now_s) const {
  return std::max(0.0, link.out_queries.total(now_s) -
                           link.out_revoked.total(now_s));
}

std::optional<core::LinkMinute> Node::link_minute(std::uint32_t address) {
  const double now_s = wall_seconds();
  for (auto& [id, link] : links_) {
    if (link.ready && link.kind == LinkKind::kOverlay &&
        link.address == address) {
      return core::LinkMinute{address, out_credit(link, now_s),
                              link.in_queries.total(now_s)};
    }
  }
  return std::nullopt;
}

// ------------------------------------------------------------ dialing

void Node::maintain_bootstrap() {
  for (const std::uint16_t port : config_.bootstrap) {
    if (port == engine_.listen_port()) continue;
    if (dialed_ports_.count(port) != 0) continue;
    if (banned_ports_.count(port) != 0) continue;
    const ConnId id = engine_.connect(config_.host, port);
    if (id == kInvalidConn) continue;
    Link link;
    link.conn = id;
    link.kind = LinkKind::kOverlay;
    link.outbound = true;
    link.dialed_port = port;
    link.out_queries = util::RateWindow(config_.minute_seconds, 60);
    link.in_queries = util::RateWindow(config_.minute_seconds, 60);
    link.out_revoked = util::RateWindow(config_.minute_seconds, 60);
    links_.emplace(id, std::move(link));
    dialed_ports_.insert(port);
  }
}

void Node::send_control(std::uint32_t to, const net::Message& msg) {
  if (Link* link = ready_link_to(to)) {
    engine_.send(link->conn, msg);
    return;
  }
  if (banned_.count(to) != 0) return;
  auto& pending = control_pending_[to];
  if (pending.size() < 64) pending.push_back(msg);
  // Already dialing?
  for (const auto& [id, link] : links_) {
    if (link.outbound && link.dial_target == to) return;
  }
  std::uint16_t port = 0;
  if (config_.peer_port_base != 0) {
    // `to` comes from a peer's Neighbor_List: an index past the port
    // range must not wrap onto another node's port.
    const PeerId index = net::peer_from_address(to);
    if (index != kInvalidPeer && index <= 65535u - config_.peer_port_base) {
      port = static_cast<std::uint16_t>(config_.peer_port_base + index);
    }
  }
  if (port == 0) {
    const auto hint = port_hints_.find(to);
    if (hint != port_hints_.end()) port = hint->second;
  }
  if (port == 0) return;  // nobody to dial; member will count as silent
  const ConnId id = engine_.connect(config_.host, port);
  if (id == kInvalidConn) return;
  Link link;
  link.conn = id;
  link.kind = LinkKind::kControl;
  link.outbound = true;
  link.dial_target = to;
  link.dialed_port = port;
  link.out_queries = util::RateWindow(config_.minute_seconds, 60);
  link.in_queries = util::RateWindow(config_.minute_seconds, 60);
  links_.emplace(id, std::move(link));
}

// --------------------------------------------------- police transport

void Node::advertise_neighbors() {
  // Copy: send_neighbor_list can evict a slow peer, which mutates the
  // police neighbour set through on_close -> remove_neighbor.
  const std::vector<std::uint32_t> members = police_.neighbors();
  const SimTime now = minutes(protocol_minutes());
  for (const std::uint32_t n : members) {
    send_neighbor_list(n, members);
    DDP_TRACE(tracer_, obs::EventType::kNeighborListSent, now, self_, n,
              {{"entries", double(members.size())}});
  }
}

void Node::send_neighbor_list(std::uint32_t to,
                              const std::vector<std::uint32_t>& members) {
  net::Message msg;
  msg.header.guid = net::Guid::random(rng_);
  msg.header.ttl = 1;
  net::NeighborList nl;
  for (const std::uint32_t m : members) {
    std::uint16_t port = 0;
    const auto hint = port_hints_.find(m);
    if (hint != port_hints_.end()) port = hint->second;
    nl.entries.push_back({m, port});
  }
  msg.payload = std::move(nl);
  send_control(to, msg);
}

void Node::send_neighbor_traffic(std::uint32_t to,
                                 const net::NeighborTraffic& report) {
  net::Message msg;
  msg.header.guid = net::Guid::random(rng_);
  msg.header.ttl = 1;
  msg.payload = report;
  send_control(to, msg);
}

// ------------------------------------------------------- engine events

void Node::on_accept(ConnId id) {
  Link link;
  link.conn = id;
  link.outbound = false;
  link.out_queries = util::RateWindow(config_.minute_seconds, 60);
  link.in_queries = util::RateWindow(config_.minute_seconds, 60);
  link.out_revoked = util::RateWindow(config_.minute_seconds, 60);
  links_.emplace(id, std::move(link));
  // Introduce ourselves; the dialer's hello decides the link kind.
  send_hello(id, LinkKind::kOverlay);
}

void Node::on_connect(ConnId id, bool ok) {
  Link* link = link_by_conn(id);
  if (link == nullptr) return;
  if (!ok) {
    const std::uint16_t port = link->dialed_port;
    const std::uint32_t target = link->dial_target;
    links_.erase(id);
    dialed_ports_.erase(port);
    if (target != 0) control_pending_.erase(target);
    return;
  }
  send_hello(id, link->kind);
}

void Node::send_hello(ConnId id, LinkKind kind) {
  net::Message msg;
  msg.header.guid = net::Guid::random(rng_);
  msg.header.ttl = 1;
  net::Pong hello;
  hello.port = engine_.listen_port();
  hello.ip = self_;
  hello.files_shared = static_cast<std::uint32_t>(kind);
  hello.kilobytes_shared = config_.index;
  msg.payload = hello;
  engine_.send(id, msg);
}

void Node::handle_hello(Link& link, const net::Pong& pong) {
  if (banned_.count(pong.ip) != 0) {
    engine_.close(link.conn);  // on_close cleans the link up
    return;
  }
  link.address = pong.ip;
  link.peer_port = pong.port;
  link.ready = true;
  link.ready_since = wall_seconds();
  if (!link.outbound) {
    link.kind = static_cast<LinkKind>(pong.files_shared == 1 ? 1 : 0);
  }
  port_hints_[pong.ip] = pong.port;
  const auto existing = by_address_.find(link.address);
  if (existing == by_address_.end() || link.kind == LinkKind::kOverlay) {
    by_address_[link.address] = link.conn;
  }
  if (link.kind == LinkKind::kOverlay) {
    police_.add_neighbor(link.address);
    // Lists are exchanged at connection setup (Sec. 3.1), not only on the
    // period: a judge cannot address a buddy round at a peer it has no
    // advertisement from, and churned-in links would otherwise be
    // snapshot-blind for up to a full exchange period.
    adverts_dirty_ = true;
  }
  // Flushing can evict the connection (on_close erases the link, so the
  // `link` reference dies); move the queue out and send by conn id only.
  const ConnId conn = link.conn;
  const auto pending = control_pending_.find(link.address);
  if (pending != control_pending_.end()) {
    const std::vector<net::Message> queued = std::move(pending->second);
    control_pending_.erase(pending);
    for (const net::Message& m : queued) {
      if (!engine_.send(conn, m)) break;
    }
  }
}

void Node::on_message(ConnId id, const net::Message& msg) {
  Link* link = link_by_conn(id);
  if (link == nullptr) return;
  switch (msg.type()) {
    case net::PayloadType::kPong:
      if (!link->ready) handle_hello(*link, std::get<net::Pong>(msg.payload));
      return;
    case net::PayloadType::kPing: {
      net::Message pong;
      pong.header.guid = msg.header.guid;
      pong.header.ttl = 1;
      net::Pong p;
      p.port = engine_.listen_port();
      p.ip = self_;
      p.files_shared = 2;  // not a hello: already-ready links ignore pongs
      pong.payload = p;
      if (link->ready) engine_.send(id, pong);
      return;
    }
    case net::PayloadType::kQuery:
      if (link->ready) handle_query(*link, msg);
      return;
    case net::PayloadType::kQueryHit:
      if (link->ready) handle_query_hit(*link, msg);
      return;
    case net::PayloadType::kNeighborList: {
      if (!link->ready) return;
      const auto& nl = std::get<net::NeighborList>(msg.payload);
      std::vector<std::uint32_t> members;
      members.reserve(nl.entries.size());
      for (const auto& e : nl.entries) {
        members.push_back(e.ip);
        if (e.port != 0) port_hints_.emplace(e.ip, e.port);
      }
      police_.on_neighbor_list(link->address, members, protocol_minutes());
      return;
    }
    case net::PayloadType::kNeighborTraffic: {
      if (!link->ready) return;
      const auto& nt = std::get<net::NeighborTraffic>(msg.payload);
      police_.on_neighbor_traffic(nt.source_ip, nt, protocol_minutes());
      return;
    }
  }
}

void Node::on_close(ConnId id, CloseReason) {
  const auto it = links_.find(id);
  if (it == links_.end()) return;
  const Link link = std::move(it->second);
  links_.erase(it);
  if (link.outbound) dialed_ports_.erase(link.dialed_port);
  if (!link.ready) return;
  const auto mapped = by_address_.find(link.address);
  if (mapped != by_address_.end() && mapped->second == id) {
    by_address_.erase(mapped);
    // Another live link to the same peer (overlay + control pair) takes
    // over the address slot.
    for (const auto& [other_id, other] : links_) {
      if (other.ready && other.address == link.address) {
        by_address_[link.address] = other_id;
        break;
      }
    }
  }
  if (link.kind == LinkKind::kOverlay) {
    bool still_overlay = false;
    for (const auto& [other_id, other] : links_) {
      if (other.ready && other.address == link.address &&
          other.kind == LinkKind::kOverlay) {
        still_overlay = true;
        break;
      }
    }
    if (!still_overlay) {
      police_.remove_neighbor(link.address);
      adverts_dirty_ = true;
    }
  }
}

// ------------------------------------------------------------ queries

void Node::issue_queries() {
  const double now_s = wall_seconds();
  const double dt = now_s - last_issue_s_;
  last_issue_s_ = now_s;
  if (dt <= 0.0) return;
  const bool attacking =
      config_.attacker && protocol_minutes() >= config_.attack_start_minute;
  const double rate = attacking ? config_.attack_rate_per_minute
                                : config_.query_rate_per_minute;
  issue_acc_ += rate * dt / config_.minute_seconds;
  // Bound a stall's backlog to one protocol minute of queries.
  issue_acc_ = std::min(issue_acc_, rate);
  while (issue_acc_ >= 1.0) {
    issue_acc_ -= 1.0;
    issue_one_query(now_s);
  }
}

void Node::issue_one_query(double now_s) {
  net::Message msg;
  msg.header.guid = net::Guid::random(rng_);
  msg.header.ttl = config_.ttl;
  net::Query q;
  q.search = "obj" + std::to_string(query_serial_++);
  msg.payload = std::move(q);
  seen_.upsert(msg.header.guid, kSelfOrigin, now_s);
  // send() can evict a slow peer, which fires on_close and erases from
  // links_ synchronously — never send while iterating the map.
  std::vector<ConnId> targets;
  targets.reserve(links_.size());
  for (const auto& [id, link] : links_) {
    if (link.ready && link.kind == LinkKind::kOverlay) targets.push_back(id);
  }
  const std::vector<std::uint8_t> frame = net::encode(msg);
  for (const ConnId id : targets) {
    Link* link = link_by_conn(id);
    if (link == nullptr) continue;
    link->out_queries.add(now_s);
    if (msg.header.ttl <= 1) {
      link->out_revoked.add(now_s);  // TTL-dead at issue: no relay credit
    }
    engine_.send(id, frame);
  }
  ++queries_issued_;
}

void Node::handle_query(Link& link, const net::Message& msg) {
  const double now_s = wall_seconds();
  link.in_queries.add(now_s);
  const net::Guid& guid = msg.header.guid;
  if (const auto* entry = seen_.find(guid); entry != nullptr) {
    ++dup_dropped_;
    // Echo correction. This peer just proved it already had the query —
    // it cannot have relayed the copy we flooded to it, so that send's
    // Out_query credit is revoked. The relay bound a judge grants a
    // suspect, (k-1) * sum of members' out_to_suspect, then counts only
    // copies that were first arrivals: an attacker's own flood racing
    // back through two-hop paths (common when process scheduling delays
    // the direct link) no longer launders its output into "forwarding".
    // The guards keep the revocation exactly dual to the grant: we
    // flooded this query WITH credit (kCreditFlag; TTL-dead floods were
    // never credited), to every ready overlay link except its origin,
    // and only links already up at flood time got a copy. The revocation
    // is recorded in the bucket of the original grant (add_at), so grant
    // and revocation expire from the rolling window together — revoking
    // at dup-arrival time would let a revocation outlive its grant and
    // eat credit belonging to newer sends. Repeat dups on one link can
    // over-revoke, but only a replaying peer produces them and the
    // over-revocation lands on the replayer's own credit; out_credit()
    // clamps at zero.
    const bool credited =
        entry->from == kSelfOrigin
            ? config_.ttl > 1
            : (entry->from & kCreditFlag) != 0;
    if (credited && link.kind == LinkKind::kOverlay &&
        origin_of(entry->from) != link.address &&
        link.ready_since <= entry->when) {
      link.out_revoked.add_at(now_s, entry->when);
      ++echo_revoked_;
    }
    return;
  }
  const bool credit_flood = msg.header.ttl > 2;  // forwarded copies keep TTL
  seen_.upsert(guid, credit_flood ? (link.address | kCreditFlag) : link.address,
               now_s);
  // `link` dangles if any send below evicts its connection; capture what
  // we still need first and do not touch the reference afterwards.
  const ConnId from_conn = link.conn;

  if (rng_.uniform() < config_.hit_probability) {
    net::Message hit;
    hit.header.guid = guid;
    hit.header.ttl = static_cast<std::uint8_t>(msg.header.hops + 1);
    net::QueryHit qh;
    qh.port = engine_.listen_port();
    qh.ip = self_;
    qh.speed = 1000;
    qh.records.push_back({config_.index, 1024,
                          std::get<net::Query>(msg.payload).search});
    qh.servent_id = net::Guid::random(rng_);
    hit.payload = std::move(qh);
    engine_.send(from_conn, hit);
  }

  if (msg.header.ttl <= 1) return;
  net::Message fwd = msg;
  fwd.header.ttl = static_cast<std::uint8_t>(msg.header.ttl - 1);
  fwd.header.hops = static_cast<std::uint8_t>(msg.header.hops + 1);
  std::vector<ConnId> targets;
  targets.reserve(links_.size());
  for (const auto& [id, other] : links_) {
    if (id != from_conn && other.ready && other.kind == LinkKind::kOverlay) {
      targets.push_back(id);
    }
  }
  if (targets.empty()) return;
  const std::vector<std::uint8_t> frame = net::encode(fwd);
  for (const ConnId id : targets) {
    Link* other = link_by_conn(id);
    if (other == nullptr) continue;
    other->out_queries.add(now_s);
    // A copy sent with its last hop spent cannot be relayed onward: it
    // carries no relay credit (out_credit subtracts it), or a suspect at
    // the flood frontier gets its whole output bound stocked by traffic
    // it provably could not forward. The raw monitor still counts it.
    if (fwd.header.ttl <= 1) {
      other->out_revoked.add(now_s);
    }
    engine_.send(id, frame);
    ++queries_forwarded_;
  }
}

void Node::handle_query_hit(Link& link, const net::Message& msg) {
  (void)link;
  const auto* entry = seen_.find(msg.header.guid);
  if (entry == nullptr) return;  // route expired from the dedup horizon
  if (entry->from == kSelfOrigin) {
    ++hits_received_;
    return;
  }
  if (Link* back = ready_link_to(origin_of(entry->from))) {
    net::Message fwd = msg;
    fwd.header.hops = static_cast<std::uint8_t>(msg.header.hops + 1);
    engine_.send(back->conn, fwd);
  }
}

// ------------------------------------------------------------- cadence

void Node::on_protocol_minute() {
  ++minute_;
  const double now_s = wall_seconds();
  std::vector<core::LinkMinute> links;
  for (auto& [id, link] : links_) {
    if (!link.ready || link.kind != LinkKind::kOverlay) continue;
    core::LinkMinute lm;
    lm.peer = link.address;
    lm.out_queries = out_credit(link, now_s);
    lm.in_queries = link.in_queries.total(now_s);
    links.push_back(lm);
  }
  police_.on_minute(double(minute_), links);
  // Dedup horizon: anything older than 3 protocol minutes cannot still be
  // in flight; compacting here bounds the table across a long run.
  seen_.prune(now_s - 3.0 * config_.minute_seconds);
  if (tracer_.on()) tracer_.sink()->flush();
}

void Node::apply_cut(std::uint32_t suspect) {
  banned_.insert(suspect);
  police_.ban_peer(suspect);
  std::vector<ConnId> doomed;
  for (const auto& [id, link] : links_) {
    if (link.address == suspect ||
        (link.outbound && link.dial_target == suspect)) {
      doomed.push_back(id);
      if (link.peer_port != 0) banned_ports_.insert(link.peer_port);
      if (link.dialed_port != 0) banned_ports_.insert(link.dialed_port);
    }
  }
  for (const ConnId id : doomed) engine_.close(id);
  police_.remove_neighbor(suspect);
  control_pending_.erase(suspect);
  // Re-advertise promptly: neighbours whose snapshot of our list still
  // names the cut peer would address it in rounds about us and close on
  // silent-as-zero — the post-cut transient, seen from the other side.
  adverts_dirty_ = true;
  // Never redial a banned peer's port from the bootstrap list.
  std::erase_if(config_.bootstrap, [this](std::uint16_t p) {
    return banned_ports_.count(p) != 0;
  });
}

}  // namespace ddp::netengine
