#include "topology/graph.hpp"

#include <algorithm>
#include <queue>

#include "snapshot/snapshot.hpp"

namespace ddp::topology {

Graph::Graph(std::size_t node_count)
    : adj_(node_count), out_slots_(node_count), in_slots_(node_count),
      active_(node_count, 1),
      active_degrees_(node_count > 0 ? 1 : 0, node_count),
      active_count_(node_count) {}

void Graph::count_active_degree(std::size_t d) {
  if (d >= active_degrees_.size()) active_degrees_.resize(d + 1, 0);
  ++active_degrees_[d];
}

void Graph::uncount_active_degree(std::size_t d) {
  --active_degrees_[d];
  while (!active_degrees_.empty() && active_degrees_.back() == 0) {
    active_degrees_.pop_back();
  }
}

PeerId Graph::add_node() {
  adj_.emplace_back();
  out_slots_.emplace_back();
  in_slots_.emplace_back();
  active_.push_back(1);
  ++active_count_;
  count_active_degree(0);
  ++version_;
  return static_cast<PeerId>(adj_.size() - 1);
}

void Graph::set_active(PeerId u, bool active) {
  if (static_cast<bool>(active_[u]) == active) return;
  if (!active) {
    isolate(u);
    uncount_active_degree(adj_[u].size());
    active_[u] = 0;
    --active_count_;
  } else {
    active_[u] = 1;
    ++active_count_;
    count_active_degree(adj_[u].size());
  }
  ++version_;
}

bool Graph::add_edge(PeerId u, PeerId v) {
  if (u == v || u >= adj_.size() || v >= adj_.size()) return false;
  // Offline peers hold no connections; deactivation tears edges down and
  // nothing may re-attach to an inactive peer.
  if (!active_[u] || !active_[v]) return false;
  if (has_edge(u, v)) return false;
  const auto [suv, svu] = index_.acquire_pair(u, v);
  for (const PeerId x : {u, v}) {
    count_active_degree(adj_[x].size() + 1);
    uncount_active_degree(adj_[x].size());
  }
  adj_[u].push_back(v);
  out_slots_[u].push_back(suv);
  in_slots_[u].push_back(svu);
  adj_[v].push_back(u);
  out_slots_[v].push_back(svu);
  in_slots_[v].push_back(suv);
  ++edge_count_;
  ++version_;
  return true;
}

bool Graph::remove_edge(PeerId u, PeerId v) {
  if (u >= adj_.size() || v >= adj_.size()) return false;
  auto& au = adj_[u];
  const auto iu = std::find(au.begin(), au.end(), v);
  if (iu == au.end()) return false;
  const auto pu = static_cast<std::size_t>(iu - au.begin());
  // Releasing one direction releases both (and retires any EdgeMap state
  // either direction carried).
  index_.release(out_slots_[u][pu]);
  for (const PeerId x : {u, v}) {
    if (!active_[x]) continue;
    count_active_degree(adj_[x].size() - 1);
    uncount_active_degree(adj_[x].size());
  }
  // Swap-erase: neighbour order carries no meaning.
  *iu = au.back();
  au.pop_back();
  out_slots_[u][pu] = out_slots_[u].back();
  out_slots_[u].pop_back();
  in_slots_[u][pu] = in_slots_[u].back();
  in_slots_[u].pop_back();
  auto& av = adj_[v];
  const auto iv = std::find(av.begin(), av.end(), u);
  const auto pv = static_cast<std::size_t>(iv - av.begin());
  *iv = av.back();
  av.pop_back();
  out_slots_[v][pv] = out_slots_[v].back();
  out_slots_[v].pop_back();
  in_slots_[v][pv] = in_slots_[v].back();
  in_slots_[v].pop_back();
  --edge_count_;
  ++version_;
  return true;
}

std::uint32_t Graph::edge_slot(PeerId u, PeerId v) const noexcept {
  if (u >= adj_.size() || v >= adj_.size()) return EdgeIndex::kInvalidSlot;
  // Scan the smaller adjacency; reverse() recovers the asked direction
  // when the hit lands on v's side.
  if (adj_[u].size() <= adj_[v].size()) {
    const auto& au = adj_[u];
    for (std::size_t i = 0; i < au.size(); ++i) {
      if (au[i] == v) return out_slots_[u][i];
    }
    return EdgeIndex::kInvalidSlot;
  }
  const auto& av = adj_[v];
  for (std::size_t i = 0; i < av.size(); ++i) {
    if (av[i] == u) return index_.reverse(out_slots_[v][i]);
  }
  return EdgeIndex::kInvalidSlot;
}

bool Graph::has_edge(PeerId u, PeerId v) const noexcept {
  if (u >= adj_.size() || v >= adj_.size()) return false;
  const auto& smaller = adj_[u].size() <= adj_[v].size() ? adj_[u] : adj_[v];
  const PeerId target = adj_[u].size() <= adj_[v].size() ? v : u;
  return std::find(smaller.begin(), smaller.end(), target) != smaller.end();
}

void Graph::isolate(PeerId u) {
  // Copy: remove_edge mutates adj_[u].
  const std::vector<PeerId> nbrs = adj_[u];
  for (PeerId v : nbrs) remove_edge(u, v);
}

PeerId Graph::random_active_node(util::Rng& rng, PeerId exclude) const {
  const std::size_t n = adj_.size();
  if (active_count_ == 0) return kInvalidPeer;
  if (active_count_ == 1 && exclude != kInvalidPeer && active_[exclude]) {
    return kInvalidPeer;
  }
  // Rejection sampling: active fraction is high throughout the simulations.
  for (int attempts = 0; attempts < 4096; ++attempts) {
    const auto u = static_cast<PeerId>(rng.below(static_cast<std::uint32_t>(n)));
    if (active_[u] && u != exclude) return u;
  }
  for (PeerId u = 0; u < n; ++u) {
    if (active_[u] && u != exclude) return u;
  }
  return kInvalidPeer;
}

PeerId Graph::random_active_node_by_degree(util::Rng& rng, PeerId exclude) const {
  // Rejection sampling against the largest active degree, read from the
  // per-degree counts; with power-law-ish degree sequences this stays
  // cheap, and no prefix sum over weights is kept.
  const std::size_t max_deg =
      active_degrees_.empty() ? 0 : active_degrees_.size() - 1;
  const double ceiling = static_cast<double>(max_deg) + 1.0;
  for (int attempts = 0; attempts < 65536; ++attempts) {
    const PeerId u = random_active_node(rng, exclude);
    if (u == kInvalidPeer) return kInvalidPeer;
    const double w = static_cast<double>(adj_[u].size()) + 1.0;
    if (rng.uniform() * ceiling <= w) return u;
  }
  return random_active_node(rng, exclude);
}

int Graph::hop_distance(PeerId u, PeerId v) const {
  if (u >= adj_.size() || v >= adj_.size() || !active_[u] || !active_[v]) return -1;
  if (u == v) return 0;
  std::vector<int> dist(adj_.size(), -1);
  std::queue<PeerId> q;
  dist[u] = 0;
  q.push(u);
  while (!q.empty()) {
    const PeerId x = q.front();
    q.pop();
    for (PeerId y : adj_[x]) {
      if (!active_[y] || dist[y] >= 0) continue;
      dist[y] = dist[x] + 1;
      if (y == v) return dist[y];
      q.push(y);
    }
  }
  return -1;
}

bool Graph::is_connected_over_active() const {
  PeerId start = kInvalidPeer;
  std::size_t with_edges = 0;
  for (PeerId u = 0; u < adj_.size(); ++u) {
    if (active_[u] && !adj_[u].empty()) {
      ++with_edges;
      if (start == kInvalidPeer) start = u;
    }
  }
  if (with_edges <= 1) return true;
  std::vector<char> seen(adj_.size(), 0);
  std::queue<PeerId> q;
  seen[start] = 1;
  q.push(start);
  std::size_t visited = 1;
  while (!q.empty()) {
    const PeerId x = q.front();
    q.pop();
    for (PeerId y : adj_[x]) {
      if (!active_[y] || seen[y]) continue;
      seen[y] = 1;
      ++visited;
      q.push(y);
    }
  }
  return visited == with_edges;
}

double Graph::average_degree() const noexcept {
  if (active_count_ == 0) return 0.0;
  std::size_t sum = 0;
  for (PeerId u = 0; u < adj_.size(); ++u) {
    if (active_[u]) sum += adj_[u].size();
  }
  return static_cast<double>(sum) / static_cast<double>(active_count_);
}

void Graph::save(snapshot::Writer& w) const {
  w.size(adj_.size());
  for (std::size_t u = 0; u < adj_.size(); ++u) {
    w.size(adj_[u].size());
    for (std::size_t i = 0; i < adj_[u].size(); ++i) {
      w.u32(adj_[u][i]);
      w.u32(out_slots_[u][i]);
    }
    w.boolean(active_[u] != 0);
  }
  w.u64(edge_count_);
  w.u64(active_count_);
  index_.save(w);
}

void Graph::load(snapshot::Reader& r) {
  constexpr std::size_t kMaxNodes = 1u << 24;
  const std::size_t n = r.size(kMaxNodes);
  adj_.assign(n, {});
  out_slots_.assign(n, {});
  in_slots_.assign(n, {});
  active_.assign(n, 0);
  for (std::size_t u = 0; u < n; ++u) {
    const std::size_t deg = r.size(n);
    adj_[u].resize(deg);
    out_slots_[u].resize(deg);
    for (std::size_t i = 0; i < deg; ++i) {
      adj_[u][i] = r.u32();
      out_slots_[u][i] = r.u32();
    }
    active_[u] = r.boolean() ? 1 : 0;
  }
  edge_count_ = static_cast<std::size_t>(r.u64());
  active_count_ = static_cast<std::size_t>(r.u64());
  index_.load(r);  // validates its own consistency
  // Cross-check adjacency against the restored index: every directed slot
  // must name the stored endpoints, and the counters must add up.
  std::size_t active_scan = 0;
  std::size_t degree_sum = 0;
  for (std::size_t u = 0; u < n; ++u) {
    if (active_[u]) ++active_scan;
    degree_sum += adj_[u].size();
    for (std::size_t i = 0; i < adj_[u].size(); ++i) {
      const PeerId v = adj_[u][i];
      const std::uint32_t s = out_slots_[u][i];
      if (v >= n || !index_.live(s) || index_.from(s) != u || index_.to(s) != v) {
        throw snapshot::SnapshotError(
            "restored graph adjacency disagrees with the edge index");
      }
    }
  }
  if (active_scan != active_count_ || degree_sum != 2 * edge_count_ ||
      index_.live_count() != 2 * edge_count_) {
    throw snapshot::SnapshotError("restored graph counters do not add up");
  }
  // Rebuild the materialized in-link lists from the validated out-slots
  // (the snapshot format carries only the out direction; the reverse of a
  // consistent index reconstructs the rest exactly), and the per-degree
  // counts from the adjacency.
  active_degrees_.clear();
  for (std::size_t u = 0; u < n; ++u) {
    in_slots_[u].resize(out_slots_[u].size());
    for (std::size_t i = 0; i < out_slots_[u].size(); ++i) {
      in_slots_[u][i] = index_.reverse(out_slots_[u][i]);
    }
    if (active_[u]) count_active_degree(adj_[u].size());
  }
  ++version_;
}

}  // namespace ddp::topology
