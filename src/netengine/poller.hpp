#pragma once

/// \file poller.hpp
/// Thin epoll wrapper: register file descriptors with a read/write
/// interest mask, wait, get a flat event list back. Level-triggered on
/// purpose — the engine's read drain stops at the first short recv and
/// counts on the next wait to report bytes or an EOF that arrive later,
/// and level-triggered semantics make the "poll once, handle once" unit
/// tests deterministic (no lost-edge corner cases).

#include <cstdint>
#include <vector>

#include "netengine/socket.hpp"

namespace ddp::netengine {

struct PollEvent {
  int fd = -1;
  bool readable = false;
  bool writable = false;
  bool error = false;  ///< EPOLLERR / EPOLLHUP: peer gone or socket broken
};

class Poller {
 public:
  Poller();

  bool valid() const noexcept { return epoll_.valid(); }

  /// Register `fd`. `want_write` is typically off until a write leaves
  /// bytes unsent.
  bool add(int fd, bool want_read, bool want_write);
  bool modify(int fd, bool want_read, bool want_write);
  void remove(int fd);

  /// Wait up to `timeout_ms` (-1 = forever, 0 = nonblocking probe) and
  /// append ready descriptors to `out` (cleared first). Returns false on
  /// a poller-level failure (not on timeout).
  bool wait(int timeout_ms, std::vector<PollEvent>& out);

 private:
  Fd epoll_;
};

}  // namespace ddp::netengine
