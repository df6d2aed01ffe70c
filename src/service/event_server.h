// An epoll-based nonblocking front end for remi::Service — the
// production transport (LineServer remains as the thread-per-connection
// reference implementation).
//
// One event-loop thread multiplexes every connection through epoll
// (level-triggered) over nonblocking sockets: accept, read, and write
// never block, so per-connection cost is a few KB of buffers instead of a
// dedicated thread and its stack. Request execution happens on a small
// dispatch worker pool (admission control still lives in the Service);
// completed responses are handed back to the loop through a completion
// queue plus an eventfd wakeup, so the loop thread never blocks on a DFS.
//
// Both wire protocols are served on the same port, autodetected from the
// first byte of a connection (SniffWireMode):
//
//   * Binary frames ('R'): length-prefixed, request-id-multiplexed
//     (frame_codec.h). One connection carries many in-flight requests;
//     responses complete out of order and are matched by id. Payloads are
//     the same JSON documents as the NDJSON protocol.
//   * NDJSON ('{' or whitespace): the LineServer debug protocol,
//     byte-compatible — one JSON request per line, responses in order.
//
// Backpressure is explicit in both directions: a connection whose write
// buffer exceeds its budget stops being read (EPOLLIN is dropped until
// the peer drains below half the budget), which in turn fills the
// kernel's receive buffer and stalls the sender's TCP window.

#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "service/frame_codec.h"
#include "service/service.h"
#include "service/socket_util.h"
#include "service/timer_wheel.h"
#include "util/status.h"

namespace remi {

struct EventServerOptions {
  /// IPv4 address to bind; loopback by default (the server has no auth).
  std::string bind_address = "127.0.0.1";
  /// TCP port; 0 picks an ephemeral port (read it back via port()).
  int port = 0;
  /// listen(2) backlog.
  int backlog = 128;
  /// NDJSON request lines longer than this poison the connection (one
  /// error response, then close) — same contract as LineServerOptions.
  size_t max_line_bytes = 1 << 20;
  /// Binary frames declaring a longer payload poison the connection
  /// before the payload is buffered (one error frame, then close).
  size_t max_frame_payload_bytes = 1 << 20;
  /// Per-connection write-buffer budget. Above it the connection stops
  /// being read (backpressure); reading resumes below half.
  size_t max_write_buffer_bytes = 4u << 20;
  /// Worker threads executing requests. They block inside the Service's
  /// admission gate (that is the designed queueing point); the loop
  /// thread never does.
  size_t dispatch_threads = 4;
  /// In-flight request cap per *binary* connection; further complete
  /// frames wait decoded in the connection's queue. NDJSON connections
  /// are always serial (responses must come back in order).
  size_t max_inflight_per_connection = 32;
  /// Reap a connection with no queued or in-flight work whose last byte
  /// of progress (read or write) is older than this. 0 disables. Also
  /// the slow-loris bound: a client trickling a request byte-by-byte
  /// must keep each gap under this.
  int idle_timeout_ms = 0;
  /// Reap a connection whose write buffer is non-empty and whose socket
  /// has accepted no bytes for this long (a peer that stopped reading
  /// holds buffer memory forever otherwise). 0 disables.
  int write_stall_timeout_ms = 0;
  /// Reap a connection that has not revealed its wire protocol (sent
  /// its first byte) within this bound. 0 disables. Reaps count as
  /// idle-reaps in the counters.
  int handshake_timeout_ms = 0;
};

/// \brief Accepts connections and serves both wire protocols until
/// Stop(). One-shot, like LineServer: a stopped server cannot restart.
class EventServer {
 public:
  /// \param service the request handler (not owned; must outlive the
  ///        server).
  explicit EventServer(Service* service,
                       const EventServerOptions& options = {});
  ~EventServer();

  EventServer(const EventServer&) = delete;
  EventServer& operator=(const EventServer&) = delete;

  /// Binds, listens, and starts the loop + dispatch threads. IoError on
  /// bind/listen/epoll failure; InvalidArgument on a bad bind address.
  Status Start();

  /// Hard stop: closes the listener and every connection, cancels
  /// in-flight requests (all carry the server's cancellation token),
  /// joins every thread. Idempotent; also run by the destructor.
  void Stop();

  /// Graceful shutdown, same contract as LineServer::Drain: stop
  /// accepting (clients whose connect() already completed are still
  /// taken in from the backlog), half-close every connection (SHUT_RD —
  /// requests already received, including frames already admitted to a
  /// connection's queue, keep executing and their responses still
  /// flush), wait up to `grace_seconds`, then cancel whatever is left
  /// and hard-stop.
  /// Returns true iff every connection finished within the grace period.
  bool Drain(double grace_seconds);

  /// The bound port (after Start); useful with port 0.
  int port() const { return port_; }

  /// Open connections right now (tests/benchmarks; any thread).
  size_t open_connections() const {
    return open_connections_.load(std::memory_order_relaxed);
  }

 private:
  /// One decoded-but-not-yet-dispatched request.
  struct PendingRequest {
    bool binary = false;
    uint8_t verb = 0;        ///< binary only
    uint64_t request_id = 0; ///< binary only
    std::string data;        ///< NDJSON line or frame payload (owned)
  };

  /// Everything the loop thread tracks per connection. Touched only by
  /// the loop thread; workers refer to connections by id.
  struct Connection {
    uint64_t id = 0;
    int fd = -1;
    WireMode mode = WireMode::kUnknown;
    ConsumedBuffer read_buffer;             ///< NDJSON line assembly
    std::unique_ptr<FrameDecoder> decoder;  ///< binary mode only
    ConsumedBuffer write_buffer;
    std::deque<PendingRequest> queue;  ///< decoded, waiting for a slot
    size_t inflight = 0;               ///< dispatched, not yet completed
    uint32_t armed_mask = 0;           ///< epoll events currently armed
    bool reading_paused = false;       ///< write-buffer backpressure
    bool read_closed = false;          ///< EOF seen (or poisoned)
    bool poisoned = false;             ///< stream-level protocol error
    /// The one final response of a poisoned stream (error line/frame),
    /// sent after the requests decoded before the poison finish.
    std::string final_error;
    /// The connection's handshake tenant (binary kUseKb): requests whose
    /// payload has no "kb" member serve from this KB. "" = the default
    /// tenant. Loop-thread-only, like the rest of the struct — workers
    /// get a copy in their WorkItem.
    std::string default_kb;
    // Lifecycle clocks (loop-thread-only, like everything above). The
    // timer wheel holds at most one live entry per connection
    // (timer_pending); activity just moves these deadlines forward and
    // the popped entry re-validates against them.
    std::chrono::steady_clock::time_point accepted_at{};
    std::chrono::steady_clock::time_point last_read_activity{};
    std::chrono::steady_clock::time_point last_write_progress{};
    bool timer_pending = false;
  };

  struct WorkItem {
    uint64_t conn_id = 0;
    PendingRequest request;
    /// The connection's default_kb at dispatch time (copied so a later
    /// handshake cannot race an in-flight request).
    std::string default_kb;
  };

  struct Completion {
    uint64_t conn_id = 0;
    std::string bytes;  ///< fully encoded (frame or line + '\n')
  };

  void LoopThread();
  void WorkerThread();

  // --- loop-thread-only helpers -------------------------------------------
  void AcceptReady();
  void ReadReady(Connection* conn);
  void IngestBytes(Connection* conn, const char* data, size_t n);
  void IngestNdjson(Connection* conn);
  void IngestFrames(Connection* conn);
  /// Moves queued requests to the dispatch pool while slots are free.
  /// kUseKb handshake frames are executed inline here instead (they
  /// mutate per-connection state only the loop thread may touch).
  void MaybeDispatch(Connection* conn);
  /// Executes one kUseKb handshake frame: validates the named KB exists
  /// (Service::HasKb — never loads one), updates conn->default_kb, and
  /// appends the response frame directly to the write buffer.
  void HandleUseKb(Connection* conn, const PendingRequest& request);
  /// Appends the final error and starts the close-after-flush path once a
  /// finished connection (EOF or poisoned) has no queued/in-flight work.
  void MaybeFinish(Connection* conn);
  /// Flushes what the socket accepts now, re-arms epoll to the state the
  /// connection needs (EPOLLIN unless paused/closed, EPOLLOUT iff bytes
  /// remain), applies backpressure transitions, closes once drained.
  void FlushAndUpdate(Connection* conn);
  void CloseConnection(Connection* conn);
  void HandleCompletions();
  void HandleControl();
  /// Appends response bytes and, when the buffer was empty, restarts the
  /// write-progress clock — the stall timeout measures "peer stopped
  /// accepting bytes we owe it", not "buffer happened to be idle".
  void AppendResponse(Connection* conn, const std::string& bytes);
  /// The earliest lifecycle deadline applying to `conn` right now
  /// (time_point::max() when none does); *write_stall reports which
  /// timeout class it is, for the reap counters.
  std::chrono::steady_clock::time_point LifecycleDeadline(
      const Connection& conn, bool* write_stall) const;
  /// Ensures the wheel holds an entry for `conn`'s current deadline
  /// (no-op when one is already pending — lazy re-validation at pop time
  /// absorbs deadline movement).
  void ScheduleLifecycle(Connection* conn);
  /// Pops due wheel entries, re-validates each against the connection's
  /// real deadline, and reaps the ones that are genuinely expired.
  void ReapExpired(std::chrono::steady_clock::time_point now);

  void PushCompletion(Completion completion);
  void Wake();

  Service* service_;
  EventServerOptions options_;
  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  int port_ = 0;

  std::thread loop_thread_;
  std::vector<std::thread> workers_;
  /// Cancels every request this server ever dispatched; fired by Stop()
  /// (and by Drain() when the grace period expires).
  CancellationSource cancel_source_;

  std::atomic<bool> stop_requested_{false};
  std::atomic<bool> drain_requested_{false};
  std::atomic<size_t> open_connections_{0};

  // Loop-thread state.
  std::unordered_map<uint64_t, std::unique_ptr<Connection>> connections_;
  uint64_t next_conn_id_ = 2;  ///< 0/1 tag the listener and the eventfd
  bool listener_active_ = false;
  /// Set while the listener is pulled out of epoll to ride out EMFILE-
  /// style resource exhaustion; epoll_wait timeouts re-arm it.
  std::chrono::steady_clock::time_point listener_paused_until_{};
  bool listener_paused_ = false;
  TimerWheel timer_wheel_;

  std::mutex dispatch_mu_;
  std::condition_variable dispatch_cv_;
  std::deque<WorkItem> dispatch_queue_;
  bool workers_stopping_ = false;

  std::mutex completions_mu_;
  std::vector<Completion> completions_;
};

}  // namespace remi
