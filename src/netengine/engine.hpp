#pragma once

/// \file engine.hpp
/// The socket engine: a single-threaded epoll event loop carrying framed
/// Gnutella messages over real TCP connections.
///
/// This is the deployment-side counterpart of the simulation engines. It
/// implements everything below the overlay protocol and nothing above it:
///
///   - nonblocking listen / accept / connect on loopback TCP;
///   - per-connection incremental framing (net::StreamDecoder), so
///     messages are reassembled across arbitrary read boundaries; a read
///     drain stops at the first short recv (the poller is level-triggered,
///     so bytes or an EOF arriving later are reported on the next pass);
///   - coalesced writes: each connection has one contiguous out buffer
///     that send() encodes frames into (or copies a frame the caller
///     encoded once for a whole flood). Inside poll_once (event handlers
///     and timer callbacks) a send only queues; after the timers run,
///     every connection sent to gets one ::send of its whole buffer, so
///     write syscalls grow with connections per pass, not with messages.
///     A send from outside poll_once writes at once. What the kernel does
///     not take waits for EPOLLOUT; epoll_ctl runs only when a
///     connection's registered interest changes. The bytes on each
///     connection, and their order, are those of one write per send;
///   - bounded write buffers: once a connection's unsent bytes pass
///     max_write_queue, send() writes first and disconnects the peer only
///     if the kernel still leaves more than the bound unsent (slow
///     reader) — backpressure by eviction, which is the only kind a
///     flooding defense can afford (blocking the loop on one peer would
///     let that peer DoS the engine);
///   - a timer wheel driving the owner's cadences (the DD-POLICE minute,
///     the police tick, issue pacing, half-open timeouts);
///   - half-open sweep: a connection that has not produced a single
///     complete message within the handshake window is dropped;
///   - SIGTERM/SIGINT via signalfd: the loop wakes, stops, and the owner
///     runs an orderly shutdown (flush stats, close every fd) — no
///     handler-context trickery, no leaked descriptors.
///
/// Ownership: the engine owns fds and buffers; protocol state (who a
/// connection is, what the messages mean) lives in the owner (node.hpp)
/// behind the Handler callbacks. Connections are identified by an opaque
/// 64-bit id that is never reused within a run.
///
/// Determinism for tests: poll_once() runs exactly one poll/dispatch
/// round, so loopback tests can single-step two engines in one thread
/// without races or background threads.

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/message.hpp"
#include "net/stream.hpp"
#include "netengine/poller.hpp"
#include "netengine/socket.hpp"
#include "netengine/timer_wheel.hpp"

namespace ddp::netengine {

using ConnId = std::uint64_t;
inline constexpr ConnId kInvalidConn = 0;

enum class CloseReason : std::uint8_t {
  kLocal,          ///< closed by the owner (cut verdict, shutdown)
  kPeerClosed,     ///< orderly EOF from the peer
  kError,          ///< socket error (reset, refused, poll error)
  kBadFrame,       ///< stream decoder latched a framing error
  kSlowPeer,       ///< still past the backpressure bound after a write
  kHandshakeTimeout,  ///< no complete message within the half-open window
};

struct EngineConfig {
  std::uint16_t listen_port = 0;  ///< 0 = kernel-assigned (read back)
  /// Backpressure bound per connection, bytes. A send that leaves more
  /// than this unsent after a write attempt closes the connection with
  /// kSlowPeer.
  std::size_t max_write_queue = 1u << 20;
  /// Half-open window, ms: a connection (either direction) must deliver
  /// one complete message within this or be dropped. 0 disables.
  std::uint64_t handshake_timeout_ms = 5000;
  /// Timer wheel resolution.
  std::uint64_t tick_ms = 10;
  /// Milliseconds between half-open sweeps.
  std::uint64_t sweep_period_ms = 250;
};

/// Owner-side callbacks. All fire from inside poll_once(), on its thread.
struct EngineHandler {
  /// Inbound connection accepted (transport-level; the peer is unknown
  /// until it introduces itself in-protocol).
  std::function<void(ConnId)> on_accept;
  /// Outbound connect resolved. `ok` false means refused/failed; the
  /// connection is already gone when false.
  std::function<void(ConnId, bool ok)> on_connect;
  /// One complete framed message arrived.
  std::function<void(ConnId, const net::Message&)> on_message;
  /// Connection closed (any reason, including owner-initiated).
  std::function<void(ConnId, CloseReason)> on_close;
};

class Engine {
 public:
  explicit Engine(const EngineConfig& config);
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Bind and listen. Returns false (with the engine still usable for
  /// outbound work) when the port is taken.
  bool listen();
  std::uint16_t listen_port() const noexcept { return listen_port_; }

  void set_handler(EngineHandler handler) { handler_ = std::move(handler); }

  /// Begin a nonblocking connect; on_connect fires when it resolves.
  /// kInvalidConn when the socket could not even be created.
  ConnId connect(const std::string& host, std::uint16_t port);

  /// Append one framed message to the connection's out buffer. Inside
  /// poll_once the buffer is written once, after the pass's events and
  /// timers; outside it (tests, owner code) it is written at once. Either
  /// way, bytes the kernel does not take are written when the socket
  /// reports room. When the unsent bytes pass max_write_queue, send
  /// writes first and evicts only if more than the bound is still unsent.
  /// False when the connection does not exist, a write failed, or the
  /// bound evicted it (the close callback has then already fired with
  /// kError or kSlowPeer).
  bool send(ConnId id, const net::Message& msg);

  /// send() for a frame encoded once by the caller (net::encode of one
  /// message), so a flood to k links encodes once, not k times. Same
  /// bytes, counters, backpressure and result as sending the message.
  bool send(ConnId id, std::span<const std::uint8_t> frame);

  /// Owner-initiated close. Bytes sent earlier in the same pass get the
  /// one write attempt they would have had; anything the kernel does not
  /// take is dropped (the overlay's messages are advisory, a closing
  /// peer's last words can be lost).
  void close(ConnId id) { close_conn(id, CloseReason::kLocal); }

  bool is_open(ConnId id) const { return conns_.count(id) != 0; }
  std::size_t connection_count() const noexcept { return conns_.size(); }
  std::size_t write_queue_bytes(ConnId id) const;

  TimerWheel& timers() noexcept { return timers_; }

  /// Route SIGTERM/SIGINT into the loop via signalfd; run() then exits
  /// cleanly on delivery. Call once, before run().
  bool install_signal_handlers();

  /// One poll + dispatch round, waiting at most `timeout_ms` (capped by
  /// the next timer deadline). Returns false when the engine has been
  /// stopped. This is the unit of the event loop; tests call it directly.
  bool poll_once(int timeout_ms = 50);

  /// poll_once until stop() (or a handled signal).
  void run();

  void stop() noexcept { stopped_ = true; }
  bool stopped() const noexcept { return stopped_; }

  /// Monotonic milliseconds since engine construction (the wheel's clock).
  std::uint64_t now_ms() const;

  /// Counters for tests and stats.
  std::uint64_t accepted() const noexcept { return accepted_; }
  std::uint64_t messages_in() const noexcept { return messages_in_; }
  std::uint64_t messages_out() const noexcept { return messages_out_; }
  std::uint64_t bytes_in() const noexcept { return bytes_in_; }
  std::uint64_t bytes_out() const noexcept { return bytes_out_; }
  /// Write syscalls made (every ::send, including one the kernel refused).
  std::uint64_t writes() const noexcept { return writes_; }

 private:
  struct Conn {
    ConnId id = kInvalidConn;
    Fd fd;
    bool connecting = false;   ///< nonblocking connect still in flight
    bool saw_message = false;  ///< a complete frame has arrived
    bool dirty = false;  ///< queued this pass, not yet written (in dirty_)
    bool write_interest = false;  ///< EPOLLOUT is registered
    std::uint64_t opened_ms = 0;
    net::StreamDecoder decoder;
    /// Encoded frames; the front `out_off` bytes are already written.
    std::vector<std::uint8_t> out;
    std::size_t out_off = 0;

    std::size_t unsent() const noexcept { return out.size() - out_off; }
  };

  Conn* conn_by_fd(int fd);
  void close_conn(ConnId id, CloseReason reason);
  void handle_accept();
  void handle_readable(Conn& conn);
  void resolve_connect(Conn& conn);
  void sweep_half_open();
  /// One ::send of the unsent bytes. False on a socket error (the
  /// connection is left open for the caller to close).
  bool write_out(Conn& conn);
  /// write_out, then close on error or register EPOLLOUT for what the
  /// kernel did not take. False when the connection was closed.
  bool flush(Conn& conn);
  /// Register or drop EPOLLOUT; epoll_ctl runs only on a change.
  void set_write_interest(Conn& conn, bool want_write);
  /// Queue the connection for the write at the end of this pass.
  void mark_dirty(Conn& conn);
  /// The tail of both send()s, once the frame is in the out buffer:
  /// count it, then write, queue or evict.
  bool finish_send(Conn& conn);
  void flush_dirty();

  EngineConfig config_;
  EngineHandler handler_;
  Poller poller_;
  TimerWheel timers_;
  Fd listener_;
  std::uint16_t listen_port_ = 0;
  Fd signal_fd_;
  std::unordered_map<ConnId, Conn> conns_;
  std::unordered_map<int, ConnId> by_fd_;
  ConnId next_id_ = 1;
  bool stopped_ = false;
  std::uint64_t start_ms_ = 0;
  std::vector<PollEvent> events_;  ///< reused poll scratch
  bool in_pass_ = false;  ///< inside poll_once: sends queue until flush_dirty
  std::vector<ConnId> dirty_;  ///< connections sent to during this pass

  std::uint64_t accepted_ = 0;
  std::uint64_t messages_in_ = 0;
  std::uint64_t messages_out_ = 0;
  std::uint64_t bytes_in_ = 0;
  std::uint64_t bytes_out_ = 0;
  std::uint64_t writes_ = 0;
};

}  // namespace ddp::netengine
