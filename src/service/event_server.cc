#include "service/event_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "service/json_codec.h"
#include "util/io_hooks.h"

namespace remi {

namespace {

// epoll_event.data.u64 tags for the two non-connection fds.
constexpr uint64_t kListenTag = 0;
constexpr uint64_t kWakeTag = 1;

constexpr int kListenerBackoffMs = 100;

}  // namespace

EventServer::EventServer(Service* service, const EventServerOptions& options)
    : service_(service), options_(options) {
  if (options_.dispatch_threads == 0) options_.dispatch_threads = 1;
  if (options_.max_inflight_per_connection == 0) {
    options_.max_inflight_per_connection = 1;
  }
}

EventServer::~EventServer() { Stop(); }

Status EventServer::Start() {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    return Status::InvalidArgument("bad bind address '" +
                                   options_.bind_address + "'");
  }

  listen_fd_ = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (listen_fd_ < 0) {
    return Status::IoError(std::string("socket: ") + std::strerror(errno));
  }
  auto fail = [this](const std::string& what) {
    const Status status = Status::IoError(what + ": " + std::strerror(errno));
    if (listen_fd_ >= 0) close(listen_fd_);
    if (epoll_fd_ >= 0) close(epoll_fd_);
    if (wake_fd_ >= 0) close(wake_fd_);
    listen_fd_ = epoll_fd_ = wake_fd_ = -1;
    return status;
  };
  const int enable = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &enable, sizeof(enable));
  if (bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
           sizeof(addr)) != 0) {
    return fail("bind");
  }
  if (listen(listen_fd_, options_.backlog) != 0) return fail("listen");

  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                  &bound_len) == 0) {
    port_ = ntohs(bound.sin_port);
  }

  epoll_fd_ = epoll_create1(0);
  if (epoll_fd_ < 0) return fail("epoll_create1");
  wake_fd_ = eventfd(0, EFD_NONBLOCK);
  if (wake_fd_ < 0) return fail("eventfd");

  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kListenTag;
  if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) != 0) {
    return fail("epoll_ctl(listener)");
  }
  ev.events = EPOLLIN;
  ev.data.u64 = kWakeTag;
  if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) != 0) {
    return fail("epoll_ctl(eventfd)");
  }
  listener_active_ = true;

  stop_requested_.store(false, std::memory_order_relaxed);
  drain_requested_.store(false, std::memory_order_relaxed);
  workers_.reserve(options_.dispatch_threads);
  for (size_t i = 0; i < options_.dispatch_threads; ++i) {
    workers_.emplace_back([this] { WorkerThread(); });
  }
  loop_thread_ = std::thread([this] { LoopThread(); });
  return Status::OK();
}

void EventServer::Stop() {
  if (!loop_thread_.joinable() && workers_.empty()) return;
  stop_requested_.store(true, std::memory_order_relaxed);
  // Bound the shutdown: every dispatched request carries this token, so a
  // deadline-less mining run returns Cancelled within one DFS node.
  cancel_source_.RequestCancellation();
  Wake();
  if (loop_thread_.joinable()) loop_thread_.join();
  {
    std::lock_guard<std::mutex> lock(dispatch_mu_);
    workers_stopping_ = true;
  }
  dispatch_cv_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
  {
    // Workers may have pushed completions after the loop exited; the
    // connections are gone, so the bytes are undeliverable.
    std::lock_guard<std::mutex> lock(completions_mu_);
    completions_.clear();
  }
  if (wake_fd_ >= 0) {
    close(wake_fd_);
    wake_fd_ = -1;
  }
  if (epoll_fd_ >= 0) {
    close(epoll_fd_);
    epoll_fd_ = -1;
  }
  // The loop closes the listener and every connection before exiting.
}

bool EventServer::Drain(double grace_seconds) {
  if (!loop_thread_.joinable()) return true;  // nothing is being served
  drain_requested_.store(true, std::memory_order_relaxed);
  Wake();
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration_cast<
                            std::chrono::steady_clock::duration>(
                            std::chrono::duration<double>(grace_seconds));
  bool all_done;
  for (;;) {
    // Until the loop has run HandleControl (and taken in the accept
    // backlog), a zero connection count proves nothing.
    all_done = !drain_requested_.load(std::memory_order_acquire) &&
               open_connections_.load(std::memory_order_relaxed) == 0;
    if (all_done || std::chrono::steady_clock::now() >= deadline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  // Grace used up (or everything finished): either way the server ends
  // fully stopped, mirroring LineServer::Drain.
  Stop();
  return all_done;
}

void EventServer::Wake() {
  if (wake_fd_ < 0) return;
  const uint64_t one = 1;
  // A full eventfd counter (EAGAIN) already guarantees a pending wakeup.
  [[maybe_unused]] const ssize_t n = write(wake_fd_, &one, sizeof(one));
}

void EventServer::PushCompletion(Completion completion) {
  {
    std::lock_guard<std::mutex> lock(completions_mu_);
    completions_.push_back(std::move(completion));
  }
  Wake();
}

void EventServer::WorkerThread() {
  const CancellationToken cancel = cancel_source_.token();
  for (;;) {
    WorkItem item;
    {
      std::unique_lock<std::mutex> lock(dispatch_mu_);
      dispatch_cv_.wait(lock, [this] {
        return workers_stopping_ || !dispatch_queue_.empty();
      });
      if (workers_stopping_ && dispatch_queue_.empty()) return;
      item = std::move(dispatch_queue_.front());
      dispatch_queue_.pop_front();
    }
    std::string out;
    if (item.request.binary) {
      const std::string payload =
          HandleFramePayload(service_, item.request.verb, item.request.data,
                             cancel, item.default_kb);
      // Responses echo the request's verb and id — that is the whole
      // multiplexing contract.
      AppendFrame(item.request.verb, item.request.request_id, payload, &out);
    } else {
      out = HandleRequestLine(service_, item.request.data, cancel,
                              item.default_kb);
      out.push_back('\n');
    }
    PushCompletion({item.conn_id, std::move(out)});
  }
}

void EventServer::LoopThread() {
  std::vector<epoll_event> events(64);
  for (;;) {
    int timeout_ms = -1;
    if (listener_paused_ && listen_fd_ < 0) listener_paused_ = false;
    if (listener_paused_) {
      const auto now = std::chrono::steady_clock::now();
      if (now >= listener_paused_until_) {
        // Re-arm the listener after the resource-exhaustion backoff.
        epoll_event ev{};
        ev.events = EPOLLIN;
        ev.data.u64 = kListenTag;
        if (listen_fd_ >= 0 &&
            epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) == 0) {
          listener_paused_ = false;
        } else {
          listener_paused_until_ =
              now + std::chrono::milliseconds(kListenerBackoffMs);
          timeout_ms = kListenerBackoffMs;
        }
      } else {
        timeout_ms = static_cast<int>(
            std::chrono::duration_cast<std::chrono::milliseconds>(
                listener_paused_until_ - now)
                .count() +
            1);
      }
    }
    // The wheel's earliest deadline bounds the sleep so reaps are not
    // deferred until the next network event.
    const int wheel_delay =
        timer_wheel_.NextDelayMs(std::chrono::steady_clock::now());
    if (wheel_delay >= 0 && (timeout_ms < 0 || wheel_delay < timeout_ms)) {
      timeout_ms = wheel_delay;
    }
    const int n =
        io::Hooks().EpollWait(epoll_fd_, events.data(),
                              static_cast<int>(events.size()), timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      std::fprintf(stderr, "event_server: epoll_wait: %s\n",
                   std::strerror(errno));
      break;
    }
    ReapExpired(std::chrono::steady_clock::now());
    for (int i = 0; i < n; ++i) {
      const uint64_t tag = events[static_cast<size_t>(i)].data.u64;
      const uint32_t mask = events[static_cast<size_t>(i)].events;
      if (tag == kListenTag) {
        AcceptReady();
        continue;
      }
      if (tag == kWakeTag) {
        uint64_t drained;
        while (read(wake_fd_, &drained, sizeof(drained)) > 0) {
        }
        continue;
      }
      // A connection closed earlier in this batch leaves stale events
      // behind; ids are never reused, so the lookup just misses.
      auto it = connections_.find(tag);
      if (it == connections_.end()) continue;
      Connection* conn = it->second.get();
      if (mask & EPOLLERR) {
        CloseConnection(conn);
        continue;
      }
      if (mask & (EPOLLIN | EPOLLHUP)) ReadReady(conn);
      if (mask & EPOLLHUP) {
        // Full hangup: the peer closed both directions, nothing we
        // buffer can be delivered. (A drain half-close is EOF via
        // recv() == 0, not EPOLLHUP, and takes the graceful path.)
        auto again = connections_.find(tag);
        if (again != connections_.end()) CloseConnection(again->second.get());
        continue;
      }
      auto still = connections_.find(tag);
      if (still == connections_.end()) continue;
      conn = still->second.get();
      if (mask & EPOLLOUT) FlushAndUpdate(conn);
    }
    HandleCompletions();
    HandleControl();
    if (stop_requested_.load(std::memory_order_relaxed)) break;
  }

  // Hard stop: close everything the loop owns.
  std::vector<Connection*> open;
  open.reserve(connections_.size());
  for (auto& entry : connections_) open.push_back(entry.second.get());
  for (Connection* conn : open) CloseConnection(conn);
  if (listen_fd_ >= 0) {
    close(listen_fd_);
    listen_fd_ = -1;
  }
}

void EventServer::HandleControl() {
  if (!drain_requested_.load(std::memory_order_relaxed)) return;
  // Stop the intake: new clients get ECONNREFUSED instead of queueing
  // behind a server that will never serve them. A client whose connect()
  // already completed sits in the accept backlog and may have sent its
  // requests; closing the listener would reset it, so take it in first.
  if (listen_fd_ >= 0) AcceptReady();
  if (listen_fd_ >= 0) {
    if (listener_active_ && !listener_paused_) {
      epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
    }
    listener_active_ = false;
    listener_paused_ = false;
    close(listen_fd_);
    listen_fd_ = -1;
  }
  // Half-close every connection: the next recv() returns 0 once the
  // bytes the client already sent are drained — requests already decoded
  // or buffered keep executing and their responses still flush.
  for (auto& entry : connections_) {
    Connection* conn = entry.second.get();
    if (conn->fd >= 0 && !conn->read_closed) shutdown(conn->fd, SHUT_RD);
  }
  // Release: Drain() reads open_connections_ only after seeing this.
  drain_requested_.store(false, std::memory_order_release);
}

void EventServer::AcceptReady() {
  for (;;) {
    const int fd =
        io::Hooks().Accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK);
    if (fd < 0) {
      const int err = errno;
      if (err == EAGAIN || err == EWOULDBLOCK) return;  // backlog drained
      switch (ClassifyAcceptError(err)) {
        case AcceptErrorAction::kRetry:
          continue;
        case AcceptErrorAction::kRetryCounted:
          service_->RecordAcceptError(/*fatal=*/false);
          std::fprintf(stderr, "event_server: accept: %s; continuing\n",
                       std::strerror(err));
          continue;
        case AcceptErrorAction::kRetryAfterBackoff:
          // Pull the listener out of epoll for a beat instead of
          // sleeping: a blocked loop thread would stall every open
          // connection, not just the intake.
          service_->RecordAcceptError(/*fatal=*/false);
          std::fprintf(stderr, "event_server: accept: %s; backing off\n",
                       std::strerror(err));
          if (!listener_paused_ &&
              epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr) == 0) {
            listener_paused_ = true;
            listener_paused_until_ =
                std::chrono::steady_clock::now() +
                std::chrono::milliseconds(kListenerBackoffMs);
          }
          return;
        case AcceptErrorAction::kFatal:
          // The listener fd itself is broken; open connections keep
          // being served, the intake is gone.
          service_->RecordAcceptError(/*fatal=*/true);
          std::fprintf(stderr,
                       "event_server: accept: %s; listener shut down\n",
                       std::strerror(err));
          if (listener_active_ && !listener_paused_) {
            epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
          }
          listener_active_ = false;
          listener_paused_ = false;
          close(listen_fd_);
          listen_fd_ = -1;
          return;
      }
    }
    // Nagle off: a response must not wait for the client's delayed ACK.
    // On failure the connection is still served, only slower.
    SetNoDelay(fd);
    try {
      auto conn = std::make_unique<Connection>();
      conn->id = next_conn_id_++;
      conn->fd = fd;
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.u64 = conn->id;
      if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
        close(fd);
        service_->RecordAcceptError(/*fatal=*/false);
        continue;
      }
      conn->armed_mask = EPOLLIN;
      const auto now = std::chrono::steady_clock::now();
      conn->accepted_at = now;
      conn->last_read_activity = now;
      conn->last_write_progress = now;
      Connection* raw = conn.get();
      connections_.emplace(raw->id, std::move(conn));
      open_connections_.fetch_add(1, std::memory_order_relaxed);
      ScheduleLifecycle(raw);
    } catch (const std::exception& e) {
      close(fd);
      service_->RecordAcceptError(/*fatal=*/false);
      std::fprintf(stderr, "event_server: connection setup: %s; shed\n",
                   e.what());
    }
  }
}

void EventServer::ReadReady(Connection* conn) {
  const uint64_t id = conn->id;
  if (conn->fd < 0 || conn->read_closed) {
    MaybeFinish(conn);  // may close (and free) the connection
    auto it = connections_.find(id);
    if (it != connections_.end()) FlushAndUpdate(it->second.get());
    return;
  }
  char chunk[16384];
  // Bounded per event so one firehose client cannot starve the rest;
  // level-triggered epoll re-fires for what is left.
  for (int round = 0; round < 4; ++round) {
    const ssize_t n = io::Hooks().Recv(conn->fd, chunk, sizeof(chunk), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      CloseConnection(conn);
      return;
    }
    if (n == 0) {
      conn->read_closed = true;
      break;
    }
    conn->last_read_activity = std::chrono::steady_clock::now();
    IngestBytes(conn, chunk, static_cast<size_t>(n));
    if (conn->poisoned) break;
    if (static_cast<size_t>(n) < sizeof(chunk)) break;
    // Backpressure applies mid-event too: stop pulling bytes the moment
    // the write buffer crosses its budget.
    if (conn->write_buffer.PendingSize() + conn->read_buffer.PendingSize() >
        options_.max_write_buffer_bytes) {
      break;
    }
  }
  MaybeDispatch(conn);
  MaybeFinish(conn);  // may close (and free) the connection
  auto it = connections_.find(id);
  if (it != connections_.end()) FlushAndUpdate(it->second.get());
}

void EventServer::IngestBytes(Connection* conn, const char* data, size_t n) {
  if (conn->mode == WireMode::kUnknown) {
    conn->mode = SniffWireMode(data[0]);
    if (conn->mode == WireMode::kBinary) {
      conn->decoder =
          std::make_unique<FrameDecoder>(options_.max_frame_payload_bytes);
    } else if (conn->mode == WireMode::kInvalid) {
      // Not a protocol we speak; answer in the human-readable one.
      conn->poisoned = true;
      conn->read_closed = true;
      conn->final_error =
          StatusToJson(Status::InvalidArgument(
                           "unrecognized protocol: expected a binary frame "
                           "('R') or an NDJSON request ('{')"))
              .Dump() +
          "\n";
      return;
    }
  }
  if (conn->mode == WireMode::kBinary) {
    conn->decoder->Feed(std::string_view(data, n));
    IngestFrames(conn);
  } else {
    conn->read_buffer.Append(data, n);
    IngestNdjson(conn);
  }
}

void EventServer::IngestNdjson(Connection* conn) {
  for (;;) {
    const std::string_view pending = conn->read_buffer.Pending();
    const size_t newline = pending.find('\n');
    if (newline == std::string_view::npos) break;
    std::string_view line = pending.substr(0, newline);
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (line.size() > options_.max_line_bytes) {
      conn->poisoned = true;
      conn->read_closed = true;
      conn->final_error =
          StatusToJson(Status::InvalidArgument(
                           "request line exceeds " +
                           std::to_string(options_.max_line_bytes) +
                           " bytes"))
              .Dump() +
          "\n";
      return;
    }
    PendingRequest request;
    request.binary = false;
    request.data.assign(line.data(), line.size());
    conn->queue.push_back(std::move(request));
    conn->read_buffer.Consume(newline + 1);
  }
  if (conn->read_buffer.PendingSize() > options_.max_line_bytes) {
    conn->poisoned = true;
    conn->read_closed = true;
    conn->final_error =
        StatusToJson(Status::InvalidArgument(
                         "request line exceeds " +
                         std::to_string(options_.max_line_bytes) + " bytes"))
            .Dump() +
        "\n";
  }
}

void EventServer::IngestFrames(Connection* conn) {
  for (;;) {
    FrameView frame;
    const FrameDecoder::Result result = conn->decoder->Next(&frame);
    if (result == FrameDecoder::Result::kNeedMore) return;
    if (result == FrameDecoder::Result::kError) {
      // Frame boundaries can no longer be trusted: one final error frame
      // (after the already-decoded requests finish), then the stream
      // ends. Verb 0 marks a stream-level error.
      conn->poisoned = true;
      conn->read_closed = true;
      conn->final_error.clear();
      AppendFrame(0, conn->decoder->error_request_id(),
                  StatusToJson(conn->decoder->status()).Dump(),
                  &conn->final_error);
      return;
    }
    PendingRequest request;
    request.binary = true;
    request.verb = frame.verb;
    request.request_id = frame.request_id;
    request.data.assign(frame.payload.data(), frame.payload.size());
    conn->queue.push_back(std::move(request));
  }
}

void EventServer::MaybeDispatch(Connection* conn) {
  const size_t limit = conn->mode == WireMode::kBinary
                           ? options_.max_inflight_per_connection
                           : 1;  // NDJSON responses must stay in order
  while (!conn->queue.empty() && conn->inflight < limit) {
    // The kUseKb handshake runs inline on the loop thread, in FIFO order
    // with the frames around it: frames dispatched before it carried the
    // old default (their WorkItem copy), frames after it see the new
    // one. It occupies no dispatch slot — the check is Service::HasKb,
    // which never loads a KB.
    if (conn->queue.front().binary &&
        conn->queue.front().verb ==
            static_cast<uint8_t>(FrameVerb::kUseKb)) {
      const PendingRequest request = std::move(conn->queue.front());
      conn->queue.pop_front();
      HandleUseKb(conn, request);
      continue;
    }
    WorkItem item;
    item.conn_id = conn->id;
    item.request = std::move(conn->queue.front());
    item.default_kb = conn->default_kb;
    conn->queue.pop_front();
    ++conn->inflight;
    {
      std::lock_guard<std::mutex> lock(dispatch_mu_);
      dispatch_queue_.push_back(std::move(item));
    }
    // One item needs one worker; waking them all only adds contention.
    dispatch_cv_.notify_one();
  }
}

void EventServer::HandleUseKb(Connection* conn,
                              const PendingRequest& request) {
  Status status = Status::OK();
  std::string kb;
  auto parsed = ParseJson(request.data.empty() ? std::string_view("{}")
                                               : std::string_view(
                                                     request.data));
  if (!parsed.ok()) {
    status = parsed.status();
  } else if (!parsed->is_object()) {
    status = Status::InvalidArgument("frame payload must be a JSON object");
  } else {
    const JsonValue* name = parsed->Find("kb");
    if (name == nullptr || !name->is_string()) {
      status = Status::InvalidArgument(
          "use_kb request needs \"kb\" (string; \"\" resets to the "
          "default kb)");
    } else {
      kb = name->AsString();
      // Existence only — a catalog entry still opens lazily on the first
      // request that actually serves from it.
      if (!kb.empty() && !service_->HasKb(kb)) {
        status = Status::NotFound("unknown kb '" + kb + "'");
      }
    }
  }
  std::string payload;
  if (status.ok()) {
    conn->default_kb = kb;
    JsonValue out = StatusToJson(Status::OK());
    out.Set("kb", JsonValue::String(kb));
    payload = out.Dump();
  } else {
    // A failed handshake leaves the previous default in place; the error
    // is request-level (the connection survives).
    payload = StatusToJson(status).Dump();
  }
  std::string frame;
  AppendFrame(request.verb, request.request_id, payload, &frame);
  AppendResponse(conn, frame);
}

void EventServer::MaybeFinish(Connection* conn) {
  if (!conn->read_closed) return;
  if (!conn->queue.empty() || conn->inflight > 0) return;
  if (!conn->final_error.empty()) {
    AppendResponse(conn, conn->final_error);
    conn->final_error.clear();
  }
  if (conn->write_buffer.Empty()) {
    CloseConnection(conn);
  }
  // Otherwise FlushAndUpdate drains the write buffer and closes.
}

void EventServer::FlushAndUpdate(Connection* conn) {
  if (conn->fd < 0) return;
  while (!conn->write_buffer.Empty()) {
    const std::string_view pending = conn->write_buffer.Pending();
    const ssize_t n = io::Hooks().Send(conn->fd, pending.data(),
                                       pending.size(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      CloseConnection(conn);
      return;
    }
    if (n > 0) conn->last_write_progress = std::chrono::steady_clock::now();
    conn->write_buffer.Consume(static_cast<size_t>(n));
  }
  const size_t backlog = conn->write_buffer.PendingSize();
  if (backlog == 0 && conn->read_closed && conn->queue.empty() &&
      conn->inflight == 0) {
    CloseConnection(conn);
    return;
  }
  // Backpressure with hysteresis: pause reads above the budget, resume
  // below half of it.
  if (backlog > options_.max_write_buffer_bytes) {
    conn->reading_paused = true;
  } else if (conn->reading_paused &&
             backlog < options_.max_write_buffer_bytes / 2) {
    conn->reading_paused = false;
  }
  uint32_t mask = 0;
  if (!conn->read_closed && !conn->reading_paused) mask |= EPOLLIN;
  if (backlog > 0) mask |= EPOLLOUT;
  if (mask != conn->armed_mask) {
    epoll_event ev{};
    ev.events = mask;
    ev.data.u64 = conn->id;
    if (epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev) == 0) {
      conn->armed_mask = mask;
    }
  }
  ScheduleLifecycle(conn);
}

void EventServer::CloseConnection(Connection* conn) {
  if (conn->fd >= 0) {
    epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
    io::Hooks().Close(conn->fd);
    conn->fd = -1;
  }
  const uint64_t id = conn->id;
  connections_.erase(id);
  open_connections_.fetch_sub(1, std::memory_order_relaxed);
}

void EventServer::AppendResponse(Connection* conn, const std::string& bytes) {
  if (conn->write_buffer.Empty()) {
    // The stall clock measures "bytes owed but not accepted"; it starts
    // when the debt starts, not at whatever stale progress stamp a long-
    // idle connection carries.
    conn->last_write_progress = std::chrono::steady_clock::now();
  }
  conn->write_buffer.Append(bytes);
}

std::chrono::steady_clock::time_point EventServer::LifecycleDeadline(
    const Connection& conn, bool* write_stall) const {
  using Clock = std::chrono::steady_clock;
  Clock::time_point deadline = Clock::time_point::max();
  *write_stall = false;
  if (options_.write_stall_timeout_ms > 0 && !conn.write_buffer.Empty()) {
    deadline = conn.last_write_progress +
               std::chrono::milliseconds(options_.write_stall_timeout_ms);
    *write_stall = true;
  }
  if (options_.handshake_timeout_ms > 0 && conn.mode == WireMode::kUnknown) {
    const Clock::time_point handshake =
        conn.accepted_at +
        std::chrono::milliseconds(options_.handshake_timeout_ms);
    if (handshake < deadline) {
      deadline = handshake;
      *write_stall = false;
    }
  }
  // Idle only applies when the connection owes us nothing and we owe it
  // nothing in compute: queued or in-flight requests park the clock (the
  // Service's deadline machinery bounds those instead).
  if (options_.idle_timeout_ms > 0 && conn.queue.empty() &&
      conn.inflight == 0) {
    const Clock::time_point idle =
        std::max(conn.last_read_activity, conn.last_write_progress) +
        std::chrono::milliseconds(options_.idle_timeout_ms);
    if (idle < deadline) {
      deadline = idle;
      *write_stall = false;
    }
  }
  return deadline;
}

void EventServer::ScheduleLifecycle(Connection* conn) {
  if (conn->timer_pending || conn->fd < 0) return;
  bool write_stall;
  const auto deadline = LifecycleDeadline(*conn, &write_stall);
  if (deadline == std::chrono::steady_clock::time_point::max()) return;
  timer_wheel_.Schedule(conn->id, deadline);
  conn->timer_pending = true;
}

void EventServer::ReapExpired(std::chrono::steady_clock::time_point now) {
  if (timer_wheel_.size() == 0) return;
  std::vector<uint64_t> due;
  timer_wheel_.PopExpired(now, &due);
  for (const uint64_t id : due) {
    auto it = connections_.find(id);
    if (it == connections_.end()) continue;  // closed; ids never reused
    Connection* conn = it->second.get();
    conn->timer_pending = false;
    // Lazy re-validation: activity since Schedule() moved the real
    // deadline; the popped entry is just a hint to look again.
    bool write_stall;
    const auto deadline = LifecycleDeadline(*conn, &write_stall);
    if (deadline <= now) {
      service_->RecordConnectionReaped(write_stall);
      CloseConnection(conn);
      continue;
    }
    ScheduleLifecycle(conn);
  }
}

void EventServer::HandleCompletions() {
  std::vector<Completion> batch;
  {
    std::lock_guard<std::mutex> lock(completions_mu_);
    batch.swap(completions_);
  }
  for (Completion& completion : batch) {
    auto it = connections_.find(completion.conn_id);
    if (it == connections_.end()) continue;  // connection already gone
    Connection* conn = it->second.get();
    --conn->inflight;
    AppendResponse(conn, completion.bytes);
    MaybeDispatch(conn);
    MaybeFinish(conn);
    // The connection may have just closed (MaybeFinish with an empty
    // write buffer); FlushAndUpdate no-ops on fd < 0 but the map entry
    // is freed, so re-check.
    auto still = connections_.find(completion.conn_id);
    if (still == connections_.end()) continue;
    FlushAndUpdate(still->second.get());
  }
}

}  // namespace remi
