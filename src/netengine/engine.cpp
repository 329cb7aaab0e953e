#include "netengine/engine.hpp"

#include <sys/signalfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>

namespace ddp::netengine {

namespace {

/// An out buffer that grew past this (a burst to a slow reader) is freed
/// once it drains, so an idle connection holds no burst-sized buffer.
constexpr std::size_t kKeptOutCapacity = 64 * 1024;

std::uint64_t steady_ms() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

Engine::Engine(const EngineConfig& config)
    : config_(config),
      timers_(config.tick_ms),
      start_ms_(steady_ms()) {
  if (config_.handshake_timeout_ms > 0) {
    timers_.schedule_every(config_.sweep_period_ms,
                           [this] { sweep_half_open(); });
  }
}

Engine::~Engine() = default;

std::uint64_t Engine::now_ms() const { return steady_ms() - start_ms_; }

bool Engine::listen() {
  listener_ = make_listener(config_.listen_port);
  if (!listener_) return false;
  listen_port_ = bound_port(listener_);
  return poller_.add(listener_.get(), /*want_read=*/true, /*want_write=*/false);
}

bool Engine::install_signal_handlers() {
  sigset_t mask;
  sigemptyset(&mask);
  sigaddset(&mask, SIGTERM);
  sigaddset(&mask, SIGINT);
  if (sigprocmask(SIG_BLOCK, &mask, nullptr) != 0) return false;
  signal_fd_ = Fd(::signalfd(-1, &mask, SFD_NONBLOCK | SFD_CLOEXEC));
  if (!signal_fd_) return false;
  return poller_.add(signal_fd_.get(), /*want_read=*/true,
                     /*want_write=*/false);
}

ConnId Engine::connect(const std::string& host, std::uint16_t port) {
  Fd fd = connect_nonblocking(host, port);
  if (!fd) return kInvalidConn;
  const ConnId id = next_id_++;
  Conn conn;
  conn.id = id;
  conn.connecting = true;
  conn.opened_ms = now_ms();
  const int raw = fd.get();
  conn.fd = std::move(fd);
  if (!poller_.add(raw, /*want_read=*/false, /*want_write=*/true)) {
    return kInvalidConn;
  }
  by_fd_[raw] = id;
  conns_.emplace(id, std::move(conn));
  return id;
}

Engine::Conn* Engine::conn_by_fd(int fd) {
  const auto it = by_fd_.find(fd);
  if (it == by_fd_.end()) return nullptr;
  const auto cit = conns_.find(it->second);
  return cit == conns_.end() ? nullptr : &cit->second;
}

std::size_t Engine::write_queue_bytes(ConnId id) const {
  const auto it = conns_.find(id);
  return it == conns_.end() ? 0 : it->second.unsent();
}

void Engine::close_conn(ConnId id, CloseReason reason) {
  const auto it = conns_.find(id);
  if (it == conns_.end()) return;
  // Bytes queued this pass get the write a send outside the loop would
  // have made at once; the outcome does not change the close.
  if (it->second.dirty) write_out(it->second);
  poller_.remove(it->second.fd.get());
  by_fd_.erase(it->second.fd.get());
  conns_.erase(it);  // Fd destructor closes the socket
  if (handler_.on_close) handler_.on_close(id, reason);
}

void Engine::set_write_interest(Conn& conn, bool want_write) {
  if (conn.write_interest == want_write) return;
  conn.write_interest = want_write;
  poller_.modify(conn.fd.get(), /*want_read=*/true, want_write);
}

void Engine::mark_dirty(Conn& conn) {
  // A connection waiting on EPOLLOUT is written when the kernel has room.
  if (conn.dirty || conn.write_interest) return;
  conn.dirty = true;
  dirty_.push_back(conn.id);
}

bool Engine::send(ConnId id, const net::Message& msg) {
  const auto it = conns_.find(id);
  if (it == conns_.end()) return false;
  net::encode(msg, it->second.out);
  return finish_send(it->second);
}

bool Engine::send(ConnId id, std::span<const std::uint8_t> frame) {
  const auto it = conns_.find(id);
  if (it == conns_.end()) return false;
  it->second.out.insert(it->second.out.end(), frame.begin(), frame.end());
  return finish_send(it->second);
}

bool Engine::finish_send(Conn& conn) {
  ++messages_out_;
  if (conn.unsent() > config_.max_write_queue) {
    // Backpressure by eviction: once a write leaves more than the bound
    // unsent, the peer is not draining its socket, and the flood must not
    // pile up in our memory instead of its.
    if (!conn.connecting && !flush(conn)) return false;
    if (conn.unsent() > config_.max_write_queue) {
      close_conn(conn.id, CloseReason::kSlowPeer);
      return false;
    }
    return true;
  }
  if (conn.connecting) return true;  // written once the connect resolves
  if (!in_pass_) return flush(conn);
  mark_dirty(conn);
  return true;
}

bool Engine::write_out(Conn& conn) {
  conn.dirty = false;
  if (conn.unsent() == 0) return true;
  ssize_t n = 0;
  do {
    ++writes_;
    n = ::send(conn.fd.get(), conn.out.data() + conn.out_off, conn.unsent(),
               MSG_NOSIGNAL);
  } while (n < 0 && errno == EINTR);
  if (n < 0) return errno == EAGAIN || errno == EWOULDBLOCK;
  // A short write means the kernel buffer is full: the rest waits for
  // EPOLLOUT rather than a second call that would return EAGAIN.
  bytes_out_ += static_cast<std::uint64_t>(n);
  conn.out_off += static_cast<std::size_t>(n);
  if (conn.out_off == conn.out.size()) {
    conn.out.clear();
    conn.out_off = 0;
    if (conn.out.capacity() > kKeptOutCapacity) conn.out.shrink_to_fit();
  } else if (conn.out_off >= conn.unsent()) {
    // Drop the written prefix once it outweighs the unsent tail, so each
    // byte is moved at most once for every byte written before it.
    conn.out.erase(conn.out.begin(),
                   conn.out.begin() + static_cast<std::ptrdiff_t>(conn.out_off));
    conn.out_off = 0;
  }
  return true;
}

bool Engine::flush(Conn& conn) {
  if (!write_out(conn)) {
    close_conn(conn.id, CloseReason::kError);
    return false;
  }
  set_write_interest(conn, conn.unsent() > 0);
  return true;
}

void Engine::flush_dirty() {
  // By index: a close callback fired by a failed write may send, which
  // appends here, and that connection is written in this loop too.
  for (std::size_t i = 0; i < dirty_.size(); ++i) {
    const auto it = conns_.find(dirty_[i]);
    // Gone (closed or evicted this pass), or already written since.
    if (it == conns_.end() || !it->second.dirty) continue;
    flush(it->second);
  }
  dirty_.clear();
}

void Engine::handle_accept() {
  for (;;) {
    bool fatal = false;
    std::optional<Fd> fd = accept_connection(listener_, &fatal);
    if (!fd) {
      if (fatal) {
        poller_.remove(listener_.get());
        listener_.reset();
      }
      return;
    }
    set_nodelay(*fd);
    const ConnId id = next_id_++;
    Conn conn;
    conn.id = id;
    conn.opened_ms = now_ms();
    const int raw = fd->get();
    conn.fd = std::move(*fd);
    if (!poller_.add(raw, /*want_read=*/true, /*want_write=*/false)) continue;
    by_fd_[raw] = id;
    conns_.emplace(id, std::move(conn));
    ++accepted_;
    if (handler_.on_accept) handler_.on_accept(id);
  }
}

void Engine::resolve_connect(Conn& conn) {
  const ConnId id = conn.id;
  const int err = connect_result(conn.fd);
  if (err != 0) {
    poller_.remove(conn.fd.get());
    by_fd_.erase(conn.fd.get());
    conns_.erase(id);
    if (handler_.on_connect) handler_.on_connect(id, false);
    return;
  }
  conn.connecting = false;
  set_nodelay(conn.fd);
  poller_.modify(conn.fd.get(), /*want_read=*/true, /*want_write=*/false);
  conn.write_interest = false;
  if (conn.unsent() > 0) mark_dirty(conn);  // sent while connecting
  if (handler_.on_connect) handler_.on_connect(id, true);
}

void Engine::handle_readable(Conn& first) {
  const ConnId id = first.id;
  for (;;) {
    auto it = conns_.find(id);
    if (it == conns_.end()) return;  // a callback closed us mid-drain
    Conn& conn = it->second;
    std::uint8_t buf[65536];
    const ssize_t n = ::recv(conn.fd.get(), buf, sizeof(buf), 0);
    if (n == 0) {
      close_conn(id, CloseReason::kPeerClosed);
      return;
    }
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      close_conn(id, CloseReason::kError);
      return;
    }
    bytes_in_ += static_cast<std::uint64_t>(n);
    conn.decoder.feed(
        std::span<const std::uint8_t>(buf, static_cast<std::size_t>(n)));
    for (;;) {
      auto again = conns_.find(id);
      if (again == conns_.end()) return;
      net::StreamResult r = again->second.decoder.next();
      if (r.status == net::StreamStatus::kNeedMore) break;
      if (r.status == net::StreamStatus::kError) {
        close_conn(id, CloseReason::kBadFrame);
        return;
      }
      again->second.saw_message = true;
      ++messages_in_;
      if (handler_.on_message) handler_.on_message(id, *r.message);
    }
    // A short read drained the socket. The poller is level-triggered, so
    // bytes or an EOF arriving from now on are reported next pass; another
    // recv here would only return EAGAIN.
    if (static_cast<std::size_t>(n) < sizeof(buf)) return;
  }
}

void Engine::sweep_half_open() {
  const std::uint64_t now = now_ms();
  std::vector<ConnId> overdue;
  for (const auto& [id, conn] : conns_) {
    if (!conn.saw_message &&
        now - conn.opened_ms > config_.handshake_timeout_ms) {
      overdue.push_back(id);
    }
  }
  for (const ConnId id : overdue) {
    close_conn(id, CloseReason::kHandshakeTimeout);
  }
}

bool Engine::poll_once(int timeout_ms) {
  if (stopped_) return false;
  int timeout = timeout_ms;
  const int timer_delay = timers_.next_delay_ms();
  if (timer_delay >= 0 && (timeout < 0 || timer_delay < timeout)) {
    timeout = timer_delay;
  }
  if (!poller_.wait(timeout, events_)) {
    stopped_ = true;
    return false;
  }
  in_pass_ = true;
  for (const PollEvent& ev : events_) {
    if (listener_.valid() && ev.fd == listener_.get()) {
      handle_accept();
      continue;
    }
    if (signal_fd_.valid() && ev.fd == signal_fd_.get()) {
      signalfd_siginfo info;
      while (::read(signal_fd_.get(), &info, sizeof(info)) ==
             static_cast<ssize_t>(sizeof(info))) {
      }
      stopped_ = true;
      continue;
    }
    Conn* conn = conn_by_fd(ev.fd);
    if (conn == nullptr) continue;  // closed earlier in this batch
    if (conn->connecting) {
      if (ev.writable || ev.error) resolve_connect(*conn);
      continue;
    }
    if (ev.error) {
      close_conn(conn->id, CloseReason::kError);
      continue;
    }
    if (ev.readable) {
      const ConnId id = conn->id;
      handle_readable(*conn);
      conn = conn_by_fd(ev.fd);
      if (conn == nullptr || conn->id != id) continue;
    }
    if (ev.writable) flush(*conn);
  }
  timers_.advance(now_ms());
  flush_dirty();
  in_pass_ = false;
  return !stopped_;
}

void Engine::run() {
  while (poll_once(50)) {
  }
}

}  // namespace ddp::netengine
