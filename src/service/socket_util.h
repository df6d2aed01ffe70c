// Small socket-layer utilities shared by the serving transports
// (LineServer, EventServer) and their clients (remi_cli, the load
// generator): a consume-from-the-front byte buffer with amortized O(1)
// compaction, an accept(2) errno classifier, and blocking send,
// O_NONBLOCK and TCP_NODELAY helpers. Kept transport-agnostic: nothing
// here knows about requests, framing, or the Service.

#pragma once

#include <cstddef>
#include <string>
#include <string_view>

namespace remi {

/// \brief An append-at-the-back, consume-at-the-front byte buffer.
///
/// The naive discipline — `buffer.erase(0, consumed)` after every recv —
/// memmoves the whole unconsumed tail once per receive, which is O(n²)
/// for a pipelined client that keeps the buffer non-empty. This buffer
/// tracks a read offset instead and only compacts when the dead prefix is
/// both large (>= kCompactBytes) and at least half the storage, so every
/// byte is moved O(1) times amortized. Both wire transports and the frame
/// decoder use it for their read (and write) queues.
class ConsumedBuffer {
 public:
  void Append(std::string_view data) { storage_.append(data); }
  void Append(const char* data, size_t n) { storage_.append(data, n); }

  /// The unconsumed bytes. Valid until the next Append/Consume/Clear.
  std::string_view Pending() const {
    return std::string_view(storage_).substr(offset_);
  }
  size_t PendingSize() const { return storage_.size() - offset_; }
  bool Empty() const { return offset_ == storage_.size(); }

  /// Marks the first `n` pending bytes consumed (n <= PendingSize()).
  void Consume(size_t n) {
    offset_ += n;
    if (offset_ == storage_.size()) {
      // Cheap full reset; keeps the capacity for the next burst.
      storage_.clear();
      offset_ = 0;
    } else if (offset_ >= kCompactBytes && offset_ >= storage_.size() / 2) {
      storage_.erase(0, offset_);
      offset_ = 0;
    }
  }

  void Clear() {
    storage_.clear();
    offset_ = 0;
  }

  /// Storage currently held (consumed prefix included) — the number the
  /// transports budget against.
  size_t StorageBytes() const { return storage_.size(); }

 private:
  static constexpr size_t kCompactBytes = 64 * 1024;

  std::string storage_;
  size_t offset_ = 0;
};

/// \brief What the accept loop should do about an accept(2) failure.
enum class AcceptErrorAction {
  /// Not an error worth counting (EINTR, ECONNABORTED, EAGAIN): the
  /// connection died before we got it, or the call was interrupted.
  /// Retry immediately.
  kRetry,
  /// A per-connection network error surfaced on the listener (EPROTO,
  /// EPERM, ENETDOWN, ...): the *listener* is healthy. Count it, retry
  /// immediately. Returning instead of retrying here is the classic
  /// zombie-server bug: the process looks alive but never accepts again.
  kRetryCounted,
  /// Transient resource exhaustion (EMFILE, ENFILE, ENOBUFS, ENOMEM):
  /// count it and retry after a short backoff so the loop doesn't spin.
  kRetryAfterBackoff,
  /// The listener itself is gone or unusable (EBADF, EINVAL, ENOTSOCK):
  /// count it (unless shutting down) and exit the loop cleanly.
  kFatal,
};

/// Classifies an accept(2) errno. Unknown errnos map to
/// kRetryAfterBackoff: a counted, logged retry can at worst waste a few
/// wakeups, while treating an unlisted errno as fatal silently turns the
/// server into a zombie (the pre-fix behavior for e.g. EPROTO).
AcceptErrorAction ClassifyAcceptError(int err);

/// Sets O_NONBLOCK on `fd`; false on fcntl failure.
bool SetNonBlocking(int fd);

/// Sets TCP_NODELAY on `fd` (turns Nagle off); false on setsockopt
/// failure. Without it a response's trailing small segment waits for
/// the peer's delayed ACK, which on a request/response connection rides
/// on the next request: the latency floor becomes the inter-arrival
/// time. A failure leaves the socket slower, not wrong.
bool SetNoDelay(int fd);

/// Blocking full-buffer send with EINTR retry; false on a broken
/// connection. MSG_NOSIGNAL turns a peer hangup into EPIPE instead of
/// killing the process.
bool SendAll(int fd, std::string_view data);

}  // namespace remi
