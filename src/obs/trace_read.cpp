#include "obs/trace_read.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <istream>
#include <map>

namespace ddp::obs {

namespace {

/// Minimal recursive-descent scanner over the canonical schema. Not a
/// general JSON parser: object keys are unescaped strings, values are
/// numbers, strings, or (for "kv" only) one nested flat object.
struct Scanner {
  std::string_view s;
  std::size_t i = 0;
  std::string error;

  bool fail(std::string message) {
    if (error.empty()) error = std::move(message);
    return false;
  }
  void skip_ws() {
    while (i < s.size() && (s[i] == ' ' || s[i] == '\t')) ++i;
  }
  bool expect(char c) {
    skip_ws();
    if (i >= s.size() || s[i] != c) {
      return fail(std::string("expected '") + c + "'");
    }
    ++i;
    return true;
  }
  bool peek(char c) {
    skip_ws();
    return i < s.size() && s[i] == c;
  }

  bool parse_string(std::string& out) {
    if (!expect('"')) return false;
    out.clear();
    while (i < s.size() && s[i] != '"') {
      char c = s[i++];
      if (c == '\\') {
        if (i >= s.size()) return fail("dangling escape");
        const char e = s[i++];
        switch (e) {
          case '"': c = '"'; break;
          case '\\': c = '\\'; break;
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          case 'u': {
            if (i + 4 > s.size()) return fail("short \\u escape");
            unsigned code = 0;
            for (int k = 0; k < 4; ++k) {
              const char h = s[i++];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else return fail("bad \\u escape");
            }
            c = static_cast<char>(code & 0x7f);
            break;
          }
          default:
            return fail("unknown escape");
        }
      }
      out += c;
    }
    if (i >= s.size()) return fail("unterminated string");
    ++i;  // closing quote
    return true;
  }

  bool parse_number(double& out) {
    skip_ws();
    const char* begin = s.data() + i;
    char* end = nullptr;
    errno = 0;
    out = std::strtod(begin, &end);
    if (end == begin || errno == ERANGE) return fail("bad number");
    i += static_cast<std::size_t>(end - begin);
    return true;
  }
};

bool to_peer(double v, PeerId& out) {
  if (v < 0.0 || v != static_cast<double>(static_cast<PeerId>(v))) {
    return false;
  }
  out = static_cast<PeerId>(v);
  return true;
}

}  // namespace

std::optional<double> TraceRecord::field(std::string_view key) const noexcept {
  for (const auto& [k, v] : kv) {
    if (k == key) return v;
  }
  return std::nullopt;
}

std::optional<TraceRecord> parse_trace_line(std::string_view line,
                                            std::string* error) {
  Scanner sc{line, 0, {}};
  TraceRecord r;
  bool have_t = false;
  bool have_type = false;

  const auto fail = [&](const std::string& m) -> std::optional<TraceRecord> {
    if (error != nullptr) *error = m.empty() ? sc.error : m;
    return std::nullopt;
  };

  if (!sc.expect('{')) return fail("");
  bool first = true;
  while (!sc.peek('}')) {
    if (!first && !sc.expect(',')) return fail("");
    first = false;
    std::string key;
    if (!sc.parse_string(key) || !sc.expect(':')) return fail("");
    if (key == "t") {
      if (!sc.parse_number(r.t)) return fail("");
      have_t = true;
    } else if (key == "type") {
      if (!sc.parse_string(r.type)) return fail("");
      have_type = true;
    } else if (key == "a" || key == "b") {
      double v = 0.0;
      if (!sc.parse_number(v)) return fail("");
      PeerId p = kInvalidPeer;
      if (!to_peer(v, p)) return fail("field \"" + key + "\" is not a peer id");
      (key == "a" ? r.a : r.b) = p;
    } else if (key == "kv") {
      if (!sc.expect('{')) return fail("");
      bool kv_first = true;
      while (!sc.peek('}')) {
        if (!kv_first && !sc.expect(',')) return fail("");
        kv_first = false;
        std::string k;
        double v = 0.0;
        if (!sc.parse_string(k) || !sc.expect(':') || !sc.parse_number(v)) {
          return fail("");
        }
        r.kv.emplace_back(std::move(k), v);
      }
      sc.expect('}');
    } else if (key == "note") {
      if (!sc.parse_string(r.note)) return fail("");
    } else {
      return fail("unknown key \"" + key + "\"");
    }
  }
  sc.expect('}');
  sc.skip_ws();
  if (sc.i != line.size()) return fail("trailing garbage after object");
  if (!have_t) return fail("missing required key \"t\"");
  if (!have_type) return fail("missing required key \"type\"");
  r.known = event_from_name(r.type);
  return r;
}

std::vector<TraceRecord> validate_trace(std::istream& in,
                                        std::vector<SchemaError>& errors,
                                        std::size_t max_errors) {
  std::vector<TraceRecord> records;
  std::string line;
  std::size_t line_no = 0;
  double last_sim_t = 0.0;
  bool saw_sim_event = false;
  while (std::getline(in, line)) {
    ++line_no;
    // A final line without its trailing newline is the signature of a
    // process that died mid-write: the record may parse, but the file is
    // torn. JSONL sinks always terminate every event with '\n'.
    if (in.eof() && !line.empty()) {
      if (errors.size() < max_errors) {
        errors.push_back(SchemaError{
            line_no, "final line is truncated (no trailing newline; "
                     "interrupted write?)"});
      }
    }
    if (line.empty()) continue;
    std::string why;
    auto rec = parse_trace_line(line, &why);
    const auto report = [&](std::string message) {
      if (errors.size() < max_errors) {
        errors.push_back(SchemaError{line_no, std::move(message)});
      }
    };
    if (!rec) {
      report(why);
      continue;
    }
    if (!rec->known) {
      report("unknown event type \"" + rec->type + "\"");
    } else if (rec->t >= 0.0) {
      // Sim-layer events must be time-ordered: sinks observe the engine's
      // single-threaded execution, so out-of-order stamps mean a stitched
      // or hand-altered trace.
      if (saw_sim_event && rec->t < last_sim_t) {
        report("sim time went backwards");
      }
      last_sim_t = rec->t;
      saw_sim_event = true;
    }
    records.push_back(std::move(*rec));
  }
  return records;
}

std::vector<TraceRecord> read_trace_records(std::istream& in) {
  std::vector<TraceRecord> records;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (auto rec = parse_trace_line(line)) records.push_back(std::move(*rec));
  }
  return records;
}

bool TraceFilter::matches(const TraceRecord& r) const noexcept {
  if (peer && r.a != *peer && r.b != *peer) return false;
  if (type && (!r.known || *r.known != *type)) return false;
  if (t_min >= 0.0 && r.t < t_min) return false;
  if (t_max >= 0.0 && r.t > t_max) return false;
  return true;
}

TraceSummary summarize_trace(const std::vector<TraceRecord>& records) {
  TraceSummary s;
  std::map<PeerId, double> first_flag;  ///< suspect -> first flag time
  std::map<PeerId, double> first_cut;
  bool first_seen = false;
  for (const auto& r : records) {
    ++s.records;
    if (r.t < 0.0) {
      // Wall-layer record (log bridge): it has no sim clock, so it must
      // not distort the sim-time range.
      ++s.wall_logs;
    } else {
      if (!first_seen || r.t < s.first_t) s.first_t = r.t;
      if (!first_seen || r.t > s.last_t) s.last_t = r.t;
      first_seen = true;
    }
    if (!r.known) {
      ++s.unknown_types;
      continue;
    }
    ++s.by_type[static_cast<std::size_t>(*r.known)];
    switch (*r.known) {
      case EventType::kSuspectFlagged:
        first_flag.try_emplace(r.a, r.t);
        break;
      case EventType::kSuspectCut:
        first_cut.try_emplace(r.a, r.t);
        break;
      case EventType::kListViolation:
        ++s.list_violations;
        break;
      case EventType::kFaultCrash:
      case EventType::kFaultStall:
      case EventType::kFaultResume:
        ++s.fault_events;
        break;
      case EventType::kTrafficTimeout:
        ++s.control_timeouts;
        break;
      case EventType::kTrafficRetry:
        ++s.control_retries;
        break;
      default:
        break;
    }
  }
  s.suspects_flagged = first_flag.size();
  s.suspects_cut = first_cut.size();
  double lag_sum = 0.0;
  std::size_t lag_n = 0;
  for (const auto& [suspect, cut_t] : first_cut) {
    const auto it = first_flag.find(suspect);
    if (it == first_flag.end()) continue;
    lag_sum += cut_t - it->second;
    ++lag_n;
  }
  if (lag_n > 0) {
    s.mean_flag_to_cut_minutes =
        to_minutes(lag_sum / static_cast<double>(lag_n));
  }
  return s;
}

FloodTree build_flood_tree(const std::vector<TraceRecord>& records,
                           QueryId query) {
  FloodTree tree;
  tree.query = query;
  const double want = static_cast<double>(query);
  std::map<PeerId, std::size_t> index;  ///< peer -> node position

  // A peer enters the tree the first time it emits for this query; later
  // events never re-parent it (the first arrival wins the duplicate race,
  // exactly as the seen-table does in the engine).
  const auto ensure = [&](PeerId peer, PeerId parent, std::uint32_t hops,
                          double t) -> FloodTreeNode& {
    const auto [it, fresh] = index.try_emplace(peer, tree.nodes.size());
    if (fresh) {
      FloodTreeNode node;
      node.peer = peer;
      node.parent = parent;
      node.hops = hops;
      node.first_t = t;
      tree.nodes.push_back(node);
      tree.depth = std::max(tree.depth, hops);
    }
    return tree.nodes[it->second];
  };

  for (const auto& r : records) {
    if (!r.known) continue;
    const auto qid = r.field("query");
    if (!qid || *qid != want) continue;
    tree.found = true;
    switch (*r.known) {
      case EventType::kQueryIssued: {
        tree.origin = r.a;
        tree.issued_t = r.t;
        tree.object = r.field("object").value_or(-1.0);
        tree.attack = r.field("attack").value_or(0.0) != 0.0;
        ensure(r.a, kInvalidPeer, 0, r.t);
        break;
      }
      case EventType::kQueryForwarded: {
        ++tree.forwards;
        const double parent = r.field("parent").value_or(-1.0);
        const auto hops =
            static_cast<std::uint32_t>(r.field("hops").value_or(0.0));
        ensure(r.a,
               parent < 0.0 ? kInvalidPeer : static_cast<PeerId>(parent),
               hops, r.t);
        break;
      }
      case EventType::kQueryHit: {
        ++tree.hits;
        const double parent = r.field("parent").value_or(-1.0);
        // hit/expired payloads carry the *received* descriptor's hop
        // count; the emitting peer sits one hop deeper (forwarded events
        // carry the sender's own depth directly).
        const auto hops =
            static_cast<std::uint32_t>(r.field("hops").value_or(0.0)) + 1;
        FloodTreeNode& node = ensure(
            r.a, parent < 0.0 ? kInvalidPeer : static_cast<PeerId>(parent),
            hops, r.t);
        node.hit = true;
        break;
      }
      case EventType::kQueryExpired: {
        const auto hops =
            static_cast<std::uint32_t>(r.field("hops").value_or(0.0)) + 1;
        FloodTreeNode& node = ensure(r.a, r.b, hops, r.t);
        node.expired = true;
        break;
      }
      case EventType::kQueryDuplicate:
        ++tree.duplicates;
        break;
      case EventType::kQueryDropped:
        ++tree.drops;
        break;
      case EventType::kHitDelivered: {
        ++tree.delivered;
        const double latency = r.field("latency").value_or(-1.0);
        if (tree.first_delivery_latency < 0.0 ||
            (latency >= 0.0 && latency < tree.first_delivery_latency)) {
          tree.first_delivery_latency = latency;
        }
        break;
      }
      default:
        break;
    }
  }

  // Wire up child lists (ascending peer id: index is an ordered map).
  for (const auto& [peer, pos] : index) {
    const PeerId parent = tree.nodes[pos].parent;
    if (parent == kInvalidPeer) continue;
    const auto it = index.find(parent);
    if (it != index.end()) tree.nodes[it->second].children.push_back(pos);
  }
  return tree;
}

}  // namespace ddp::obs
