#include "core/police.hpp"

#include <algorithm>

namespace ddp::core {

namespace {

/// Protocol seconds -> protocol minutes for the cadence fields.
double seconds_as_minutes(double s) noexcept { return s / 60.0; }

}  // namespace

LocalPolice::LocalPolice(std::uint32_t self, const DdPoliceConfig& config,
                         PoliceTransport& transport)
    : self_(self), config_(config), transport_(transport) {}

void LocalPolice::ban_peer(std::uint32_t peer) {
  if (!is_banned(peer)) banned_.push_back(peer);
}

void LocalPolice::add_neighbor(std::uint32_t peer) {
  if (std::find(neighbors_.begin(), neighbors_.end(), peer) ==
      neighbors_.end()) {
    neighbors_.push_back(peer);
  }
}

void LocalPolice::remove_neighbor(std::uint32_t peer) {
  std::erase(neighbors_, peer);
  std::erase_if(last_minute_,
                [peer](const LinkMinute& l) { return l.peer == peer; });
  // Abandon (not judge) any round the departed peer is the suspect of:
  // the paper's verdicts are about live links. Its snapshot survives —
  // what we learned does not evaporate with the edge.
  std::erase_if(rounds_open_,
                [peer](const Round& r) { return r.suspect == peer; });
}

void LocalPolice::on_neighbor_list(std::uint32_t from,
                                   const std::vector<std::uint32_t>& members,
                                   double now_minutes) {
  bool shrank = false;
  bool updated = false;
  for (ListSnapshot& s : snapshots_) {
    if (s.owner == from) {
      for (const std::uint32_t old : s.members) {
        if (std::find(members.begin(), members.end(), old) ==
            members.end()) {
          shrank = true;
          break;
        }
      }
      s.members = members;
      s.minute = now_minutes;
      if (shrank) s.last_shrink = now_minutes;
      updated = true;
      break;
    }
  }
  if (!updated) snapshots_.push_back({from, members, now_minutes, -1e9});
  reconcile_rounds(from, now_minutes);
}

const LocalPolice::ListSnapshot* LocalPolice::snapshot_for(
    std::uint32_t owner) const {
  for (const ListSnapshot& s : snapshots_) {
    if (s.owner == owner) return &s;
  }
  return nullptr;
}

void LocalPolice::reconcile_rounds(std::uint32_t owner, double now_minutes) {
  // A fresh advertisement changes the believed group mid-round.
  //
  // Shrunk list: the departed member (typically the flood's entry edge,
  // just cut by the suspect) will never testify, and the remaining group
  // cannot account for its traffic still inside the rolling monitor
  // windows — abandon the round rather than cut an honest forwarder on
  // evidence nobody can balance. open_round quarantines the suspect for
  // one monitor window (see ListSnapshot::last_shrink), after which the
  // windows are clean and a still-flooding suspect is judged normally.
  //
  // Grown list: joiners are asked for their report mid-round so the
  // deadline still holds them to account.
  for (std::size_t i = 0; i < rounds_open_.size();) {
    Round& r = rounds_open_[i];
    if (r.suspect != owner) {
      ++i;
      continue;
    }
    std::vector<std::uint32_t> members = believed_group(owner);
    const bool member_left = std::any_of(
        r.members.begin(), r.members.end(), [&members](std::uint32_t m) {
          return std::find(members.begin(), members.end(), m) ==
                 members.end();
        });
    const bool member_banned =
        std::any_of(members.begin(), members.end(),
                    [this](std::uint32_t m) { return is_banned(m); });
    if (member_left || member_banned) {
      rounds_open_.erase(rounds_open_.begin() +
                         static_cast<std::ptrdiff_t>(i));
      continue;
    }
    const net::NeighborTraffic mine = own_report(owner, now_minutes);
    for (const std::uint32_t m : members) {
      if (std::find(r.members.begin(), r.members.end(), m) !=
          r.members.end()) {
        continue;
      }
      report_clock(owner, m) = now_minutes;
      transport_.send_neighbor_traffic(m, mine);
      DDP_TRACE(tracer_, obs::EventType::kTrafficRequest, minutes(now_minutes),
                m, owner);
    }
    r.members = std::move(members);
    const bool complete = std::all_of(
        r.members.begin(), r.members.end(), [&r](std::uint32_t m) {
          return std::any_of(r.received.begin(), r.received.end(),
                             [m](const MemberReport& mr) {
                               return mr.member == m;
                             });
        });
    if (complete) {
      Round done = std::move(r);
      rounds_open_.erase(rounds_open_.begin() +
                         static_cast<std::ptrdiff_t>(i));
      close_round(done, now_minutes);
      continue;
    }
    ++i;
  }
}

bool LocalPolice::has_snapshot(std::uint32_t suspect) const {
  return std::any_of(snapshots_.begin(), snapshots_.end(),
                     [suspect](const ListSnapshot& s) {
                       return s.owner == suspect;
                     });
}

std::vector<std::uint32_t> LocalPolice::believed_group(
    std::uint32_t suspect) const {
  for (const ListSnapshot& s : snapshots_) {
    if (s.owner == suspect) {
      std::vector<std::uint32_t> members = s.members;
      std::erase(members, self_);
      return members;
    }
  }
  return {};
}

LocalPolice::SuspectClock& LocalPolice::clock_for(std::uint32_t suspect) {
  for (SuspectClock& c : clocks_) {
    if (c.suspect == suspect) return c;
  }
  clocks_.push_back({suspect, -1e9});
  return clocks_.back();
}

bool LocalPolice::record_trip(std::uint32_t suspect, double now_minutes) {
  TripStreak* streak = nullptr;
  for (TripStreak& t : streaks_) {
    if (t.suspect == suspect) { streak = &t; break; }
  }
  if (streak == nullptr) {
    streaks_.push_back({suspect, 0, -1e9});
    streak = &streaks_.back();
  }
  const double since = now_minutes - streak->last_trip;
  if (since > 2.0) {
    // Stale streak: the suspect went quiet for two protocol minutes, so
    // the earlier trip was a transient — restart.
    streak->trips = 0;
  } else if (since < 0.5) {
    // A starved judge replays its missed minute timers back-to-back, so
    // two rounds close milliseconds apart over the SAME inflated window.
    // That is one observation, not two — don't let it self-confirm.
    return false;
  }
  streak->last_trip = now_minutes;
  ++streak->trips;
  if (streak->trips < config_.cut_confirmations) return false;
  clear_streak(suspect);
  return true;
}

void LocalPolice::clear_streak(std::uint32_t suspect) {
  for (std::size_t i = 0; i < streaks_.size(); ++i) {
    if (streaks_[i].suspect == suspect) {
      streaks_.erase(streaks_.begin() + static_cast<std::ptrdiff_t>(i));
      return;
    }
  }
}

double& LocalPolice::report_clock(std::uint32_t suspect,
                                  std::uint32_t requester) {
  for (ReportClock& c : report_clocks_) {
    if (c.suspect == suspect && c.requester == requester) {
      return c.last_report;
    }
  }
  report_clocks_.push_back({suspect, requester, -1e9});
  return report_clocks_.back().last_report;
}

net::NeighborTraffic LocalPolice::own_report(std::uint32_t suspect,
                                             double now_minutes) const {
  net::NeighborTraffic nt;
  nt.source_ip = self_;
  nt.suspect_ip = suspect;
  nt.timestamp = static_cast<std::uint32_t>(now_minutes * 60.0);
  if (probe_) {
    if (std::optional<LinkMinute> live = probe_(suspect)) {
      nt.outgoing_queries = static_cast<std::uint32_t>(live->out_queries);
      nt.incoming_queries = static_cast<std::uint32_t>(live->in_queries);
      return nt;
    }
  }
  for (const LinkMinute& l : last_minute_) {
    if (l.peer == suspect) {
      nt.outgoing_queries = static_cast<std::uint32_t>(l.out_queries);
      nt.incoming_queries = static_cast<std::uint32_t>(l.in_queries);
      break;
    }
  }
  return nt;
}

void LocalPolice::on_minute(double minute,
                            const std::vector<LinkMinute>& links) {
  last_minute_ = links;

  // Phase 1 (Sec. 3.1): periodic neighbour-list advertisement.
  if (config_.exchange_policy == ExchangePolicy::kPeriodic &&
      minute >= next_exchange_minute_) {
    for (const std::uint32_t n : neighbors_) {
      transport_.send_neighbor_list(n, neighbors_);
      ++lists_sent_;
      DDP_TRACE(tracer_, obs::EventType::kNeighborListSent, minutes(minute),
                self_, n, {{"entries", double(neighbors_.size())}});
    }
    next_exchange_minute_ = minute + config_.exchange_period_minutes;
  }

  expire_rounds(minute);

  // Phases 2+3 (Sec. 3.2/3.3): warning scan over the completed minute.
  for (const LinkMinute& l : links) {
    if (is_banned(l.peer)) continue;  // already cut; window still draining
    if (l.in_queries <= config_.warning_threshold) continue;
    ++suspicions_;
    DDP_TRACE(tracer_, obs::EventType::kSuspectFlagged, minutes(minute),
              l.peer, self_, {{"out", l.in_queries}});
    const bool round_open =
        std::any_of(rounds_open_.begin(), rounds_open_.end(),
                    [&](const Round& r) { return r.suspect == l.peer; });
    SuspectClock& clock = clock_for(l.peer);
    const double suppression =
        seconds_as_minutes(config_.suppression_window_seconds);
    if (!round_open && minute - clock.last_round >= suppression) {
      open_round(l.peer, l.out_queries, l.in_queries, minute);
    }
  }
}

void LocalPolice::open_round(std::uint32_t suspect, double my_out,
                             double my_in, double minute) {
  // No advertisement, no round: a Sec. 3.3 round without the Sec. 3.2
  // list cannot be addressed to anyone, and judging k=1 on a link that
  // churned into existence mid-attack cuts honest forwarders on the
  // flood they relay. The warning stays pending for the next scan; a
  // genuinely degenerate suspect advertises {self}-only and still gets
  // the k=1 verdict below.
  const ListSnapshot* snap = snapshot_for(suspect);
  if (snap == nullptr) return;
  // Shrink quarantine: for one monitor window after a member left the
  // suspect's list, the rolling counters still hold traffic only the
  // departed member can account for. Judging now cuts honest forwarders
  // on the flood they relayed from a peer they already cut themselves.
  if (minute - snap->last_shrink < 1.0) return;
  std::vector<std::uint32_t> members = believed_group(suspect);
  // A banned member can no longer testify; judging without its report
  // would misattribute the traffic it injected. Skip this window — the
  // next minute's monitors and lists are free of it.
  if (std::any_of(members.begin(), members.end(),
                  [this](std::uint32_t m) { return is_banned(m); })) {
    return;
  }

  Round round;
  round.suspect = suspect;
  round.opened_minute = minute;
  round.deadline_minutes =
      minute + seconds_as_minutes(config_.collect_timeout_seconds);
  round.my_out = my_out;
  round.my_in = my_in;
  round.members = std::move(members);
  ++rounds_;

  clock_for(suspect).last_round = minute;

  // Seed from reports that arrived before our own scan flagged the
  // suspect — another judge's round-opening broadcast IS its report to
  // this round, and it will not be repeated inside the suppression
  // window. Newest cache entry per member wins.
  for (auto it = report_cache_.rbegin(); it != report_cache_.rend(); ++it) {
    if (it->suspect != suspect) continue;
    const std::uint32_t from = it->from;
    if (std::find(round.members.begin(), round.members.end(), from) ==
        round.members.end()) {
      continue;
    }
    if (std::any_of(round.received.begin(), round.received.end(),
                    [from](const MemberReport& mr) {
                      return mr.member == from;
                    })) {
      continue;
    }
    MemberReport mr;
    mr.member = from;
    mr.out_to_suspect = it->out_to_suspect;
    mr.in_from_suspect = it->in_from_suspect;
    mr.responded = true;
    round.received.push_back(mr);
  }

  const net::NeighborTraffic mine = own_report(suspect, minute);
  for (const std::uint32_t m : round.members) {
    // The broadcast doubles as our report to m's own round on this
    // suspect; suppress a redundant direct reply to m's request.
    report_clock(suspect, m) = minute;
    transport_.send_neighbor_traffic(m, mine);
    DDP_TRACE(tracer_, obs::EventType::kTrafficRequest, minutes(minute), m,
              suspect);
  }

  if (round.members.empty() ||
      round.received.size() == round.members.size()) {
    // Degenerate group {self}, or every member already on record.
    close_round(round, minute);
    return;
  }
  rounds_open_.push_back(std::move(round));
}

void LocalPolice::on_neighbor_traffic(std::uint32_t from,
                                      const net::NeighborTraffic& report,
                                      double now_minutes) {
  const std::uint32_t suspect = report.suspect_ip;
  if (suspect == self_ || from == self_) return;  // someone policing us
  if (is_banned(from)) return;  // a cut peer's testimony is worthless

  cache_report(from, report, now_minutes);

  // Record into the matching open round, if the sender is a queried member
  // that has not answered yet.
  for (std::size_t i = 0; i < rounds_open_.size(); ++i) {
    Round& r = rounds_open_[i];
    if (r.suspect != suspect) continue;
    const bool is_member =
        std::find(r.members.begin(), r.members.end(), from) != r.members.end();
    const bool already =
        std::any_of(r.received.begin(), r.received.end(),
                    [&](const MemberReport& mr) { return mr.member == from; });
    if (is_member && !already) {
      MemberReport mr;
      mr.member = from;
      mr.out_to_suspect = double(report.outgoing_queries);
      mr.in_from_suspect = double(report.incoming_queries);
      mr.responded = true;
      r.received.push_back(mr);
      DDP_TRACE(tracer_, obs::EventType::kTrafficReply, minutes(now_minutes),
                from, suspect,
                {{"out", mr.out_to_suspect}, {"in", mr.in_from_suspect}});
      if (r.received.size() == r.members.size()) {
        Round done = std::move(r);
        rounds_open_.erase(rounds_open_.begin() +
                           static_cast<std::ptrdiff_t>(i));
        close_round(done, now_minutes);
      }
    }
    break;
  }

  maybe_reply(from, suspect, now_minutes);
}

void LocalPolice::cache_report(std::uint32_t from,
                               const net::NeighborTraffic& report,
                               double now_minutes) {
  // Horizon = one collect window plus the suppression window: anything
  // older describes traffic a new round's monitors no longer cover.
  const double horizon =
      seconds_as_minutes(config_.collect_timeout_seconds +
                         config_.suppression_window_seconds);
  std::erase_if(report_cache_, [&](const CachedReport& c) {
    return now_minutes - c.minute > horizon;
  });
  for (CachedReport& c : report_cache_) {
    if (c.suspect == report.suspect_ip && c.from == from) {
      c.out_to_suspect = double(report.outgoing_queries);
      c.in_from_suspect = double(report.incoming_queries);
      c.minute = now_minutes;
      return;
    }
  }
  report_cache_.push_back({report.suspect_ip, from,
                           double(report.outgoing_queries),
                           double(report.incoming_queries), now_minutes});
}

void LocalPolice::maybe_reply(std::uint32_t requester, std::uint32_t suspect,
                              double now_minutes) {
  // Only a monitor of the suspect can testify (Sec. 3.3); one reply per
  // suspect per suppression window, and the window also covers our own
  // round-opening broadcast so rounds do not echo.
  if (std::find(neighbors_.begin(), neighbors_.end(), suspect) ==
      neighbors_.end()) {
    return;
  }
  double& last = report_clock(suspect, requester);
  const double suppression =
      seconds_as_minutes(config_.suppression_window_seconds);
  if (now_minutes - last < suppression) return;
  last = now_minutes;
  transport_.send_neighbor_traffic(requester, own_report(suspect, now_minutes));
}

void LocalPolice::on_tick(double now_minutes) { expire_rounds(now_minutes); }

void LocalPolice::expire_rounds(double now_minutes) {
  std::vector<Round> due;
  for (std::size_t i = 0; i < rounds_open_.size();) {
    Round& r = rounds_open_[i];
    if (r.deadline_minutes > now_minutes) {
      ++i;
      continue;
    }
    if (!r.retried && r.received.size() < r.members.size()) {
      // Fault-plane retry (the sim's DdPolice has the same loop): one
      // extra collect window for silent members before Sec. 3.4 counts
      // them as zero. Over a real transport silence is usually latency,
      // not collusion — a member's reply can be queued behind the very
      // flood being judged — and a zero it didn't earn reads as the
      // suspect self-originating the traffic. Colluders that stay
      // silent through BOTH windows still get zeroed.
      r.retried = true;
      r.deadline_minutes =
          now_minutes + seconds_as_minutes(config_.collect_timeout_seconds);
      const net::NeighborTraffic mine = own_report(r.suspect, now_minutes);
      for (const std::uint32_t m : r.members) {
        const bool answered = std::any_of(
            r.received.begin(), r.received.end(),
            [m](const MemberReport& mr) { return mr.member == m; });
        if (answered) continue;
        transport_.send_neighbor_traffic(m, mine);
        DDP_TRACE(tracer_, obs::EventType::kTrafficRetry, minutes(now_minutes),
                  m, r.suspect, {{"attempt", 1.0}});
      }
      ++i;
      continue;
    }
    due.push_back(std::move(r));
    rounds_open_.erase(rounds_open_.begin() + static_cast<std::ptrdiff_t>(i));
  }
  for (Round& r : due) close_round(r, now_minutes);
}

void LocalPolice::close_round(Round& round, double now_minutes) {
  // Assemble the report set: ourselves first, then every queried member —
  // answered ones verbatim, silent ones as zeros (Sec. 3.4).
  std::vector<MemberReport> reports;
  reports.reserve(1 + round.members.size());
  MemberReport self;
  self.member = self_;
  self.out_to_suspect = round.my_out;
  self.in_from_suspect = round.my_in;
  self.responded = true;
  reports.push_back(self);
  for (const std::uint32_t m : round.members) {
    const auto it =
        std::find_if(round.received.begin(), round.received.end(),
                     [m](const MemberReport& mr) { return mr.member == m; });
    if (it != round.received.end()) {
      reports.push_back(*it);
    } else {
      MemberReport silent;
      silent.member = m;
      silent.responded = false;
      reports.push_back(silent);
    }
  }

  std::optional<Decision> d = verdict(reports, self_, round.suspect,
                                      config_.cut_threshold, config_,
                                      now_minutes, tracer_);
  if (!d) {
    clear_streak(round.suspect);
    return;
  }
  if (!record_trip(round.suspect, now_minutes)) {
    DDP_TRACE(tracer_, obs::EventType::kIndicatorComputed, minutes(now_minutes),
              round.suspect, self_,
              {{"g", d->g}, {"s", d->s}, {"pending_confirmation", 1.0}});
    return;
  }
  d->true_degree = static_cast<std::uint32_t>(round.members.size() + 1);
  record_cut(*d, decisions_, tracer_);
  if (cut_handler_) cut_handler_(round.suspect, *d);
}

}  // namespace ddp::core
