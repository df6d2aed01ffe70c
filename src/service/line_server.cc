#include "service/line_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <thread>

#include "service/json_codec.h"
#include "service/socket_util.h"
#include "util/io_hooks.h"

namespace remi {

LineServer::LineServer(Service* service, const LineServerOptions& options)
    : service_(service), options_(options) {}

LineServer::~LineServer() { Stop(); }

Status LineServer::Start() {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    return Status::InvalidArgument("bad bind address '" +
                                   options_.bind_address + "'");
  }

  listen_fd_ = socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::IoError(std::string("socket: ") + std::strerror(errno));
  }
  const int enable = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &enable, sizeof(enable));
  if (bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
           sizeof(addr)) != 0) {
    const Status status =
        Status::IoError(std::string("bind: ") + std::strerror(errno));
    close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  if (listen(listen_fd_, options_.backlog) != 0) {
    const Status status =
        Status::IoError(std::string("listen: ") + std::strerror(errno));
    close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }

  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                  &bound_len) == 0) {
    port_ = ntohs(bound.sin_port);
  }

  stopping_.store(false, std::memory_order_relaxed);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void LineServer::Stop() {
  if (listen_fd_ < 0 && !accept_thread_.joinable()) return;
  stopping_.store(true, std::memory_order_relaxed);
  // Bound the shutdown: every request dispatched over the wire carries
  // this token, so a deadline-less mining run returns Cancelled within
  // one DFS node instead of pinning a connection thread for hours.
  cancel_source_.RequestCancellation();
  if (listen_fd_ >= 0) {
    // Unblocks accept(2); the loop then exits on the stopping_ flag. The
    // fd is closed only after the accept thread joins, so the loop never
    // touches a closed (and possibly recycled) descriptor.
    shutdown(listen_fd_, SHUT_RDWR);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    close(listen_fd_);
    listen_fd_ = -1;
  }

  std::vector<std::unique_ptr<Connection>> connections;
  {
    std::lock_guard<std::mutex> lock(connections_mu_);
    for (const auto& connection : connections_) {
      if (connection->fd >= 0) shutdown(connection->fd, SHUT_RDWR);
    }
    connections.swap(connections_);
  }
  for (const auto& connection : connections) {
    if (connection->thread.joinable()) connection->thread.join();
  }
}

bool LineServer::Drain(double grace_seconds) {
  // Phase 1: stop the intake. After this no new connection is accepted;
  // the listener socket is fully gone, so clients see ECONNREFUSED
  // instead of queueing behind a server that will never serve them.
  stopping_.store(true, std::memory_order_relaxed);
  if (listen_fd_ >= 0) shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    close(listen_fd_);
    listen_fd_ = -1;
  }

  // Phase 2: half-close every open connection. SHUT_RD makes the serving
  // thread's next recv() return 0 once it has drained what the client
  // already sent — buffered requests still execute and their responses
  // still flush (the write side stays open). This is the difference from
  // Stop(): no in-flight mine is cancelled yet.
  {
    std::lock_guard<std::mutex> lock(connections_mu_);
    for (const auto& connection : connections_) {
      if (connection->fd >= 0) shutdown(connection->fd, SHUT_RD);
    }
  }

  // Phase 3: wait out the grace period on the connections' done flags.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration_cast<
                            std::chrono::steady_clock::duration>(
                            std::chrono::duration<double>(grace_seconds));
  bool all_done = false;
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(connections_mu_);
      all_done = true;
      for (const auto& connection : connections_) {
        if (!connection->done.load(std::memory_order_acquire)) {
          all_done = false;
          break;
        }
      }
    }
    if (all_done || std::chrono::steady_clock::now() >= deadline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  // Phase 4: whatever is still running has used up its grace — cancel it
  // (every dispatched request carries this token) and cut the sockets
  // both ways so the serving threads unblock and exit.
  if (!all_done) cancel_source_.RequestCancellation();
  std::vector<std::unique_ptr<Connection>> connections;
  {
    std::lock_guard<std::mutex> lock(connections_mu_);
    for (const auto& connection : connections_) {
      if (connection->fd >= 0) shutdown(connection->fd, SHUT_RDWR);
    }
    connections.swap(connections_);
  }
  for (const auto& connection : connections) {
    if (connection->thread.joinable()) connection->thread.join();
  }
  return all_done;
}

void LineServer::ReapFinishedConnections() {
  std::vector<std::unique_ptr<Connection>> finished;
  {
    std::lock_guard<std::mutex> lock(connections_mu_);
    auto it = connections_.begin();
    while (it != connections_.end()) {
      if ((*it)->done.load(std::memory_order_acquire)) {
        finished.push_back(std::move(*it));
        it = connections_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (const auto& connection : finished) {
    if (connection->thread.joinable()) connection->thread.join();
  }
}

void LineServer::AcceptLoop() {
  for (;;) {
    // accept4 with flags=0 is accept(2); routed through the I/O seam so
    // the chaos harness can inject EMFILE/ENOMEM at the intake.
    const int fd = io::Hooks().Accept4(listen_fd_, nullptr, nullptr, 0);
    if (stopping_.load(std::memory_order_relaxed)) {
      if (fd >= 0) close(fd);
      return;
    }
    if (fd < 0) {
      // Every errno is classified: an unlisted one must never silently
      // end this loop (a server that stops accepting but keeps running
      // is a zombie — it looks alive to health checks and serves no one).
      const int err = errno;
      switch (ClassifyAcceptError(err)) {
        case AcceptErrorAction::kRetry:
          continue;
        case AcceptErrorAction::kRetryCounted:
          // A network error pending on the *new* socket (EPROTO, ...)
          // is reported through accept(2); the listener itself is fine.
          service_->RecordAcceptError(/*fatal=*/false);
          std::fprintf(stderr, "line_server: accept: %s; continuing\n",
                       std::strerror(err));
          continue;
        case AcceptErrorAction::kRetryAfterBackoff:
          // Transient resource exhaustion (e.g. a connection burst used
          // up the fd table): back off and keep listening.
          service_->RecordAcceptError(/*fatal=*/false);
          std::fprintf(stderr, "line_server: accept: %s; backing off\n",
                       std::strerror(err));
          std::this_thread::sleep_for(std::chrono::milliseconds(100));
          continue;
        case AcceptErrorAction::kFatal:
          // The listener fd itself is broken — retrying would spin.
          // (Stop()'s own shutdown(2) exits through the stopping_ check
          // above, so it is never misreported here.)
          service_->RecordAcceptError(/*fatal=*/true);
          std::fprintf(stderr,
                       "line_server: accept: %s; accept loop shutting down\n",
                       std::strerror(err));
          stopping_.store(true, std::memory_order_relaxed);
          return;
      }
      continue;
    }
    // Nagle off: a response must not wait for the client's delayed ACK.
    // On failure the connection is still served, only slower.
    SetNoDelay(fd);
    // Join threads of connections that already hung up, so a long-running
    // server holds resources proportional to *open* connections only.
    ReapFinishedConnections();
    std::lock_guard<std::mutex> lock(connections_mu_);
    Connection* connection = nullptr;
    try {
      connections_.push_back(std::make_unique<Connection>());
      connection = connections_.back().get();
      connection->fd = fd;
      connection->thread =
          std::thread([this, connection] { ServeConnection(connection); });
    } catch (const std::exception& e) {
      // Allocation or thread spawn failed under resource pressure
      // (std::system_error on EAGAIN): shed this one connection and keep
      // accepting — a per-connection failure must not kill the listener.
      close(fd);
      if (connection != nullptr) {
        connection->fd = -1;
        // The reaper erases it on the next accept; join is skipped on a
        // never-started thread.
        connection->done.store(true, std::memory_order_release);
      }
      service_->RecordAcceptError(/*fatal=*/false);
      std::fprintf(stderr, "line_server: connection setup: %s; shed\n",
                   e.what());
    }
  }
}

void LineServer::ServeConnection(Connection* connection) {
  const int fd = connection->fd;
  const CancellationToken cancel = cancel_source_.token();
  // Offset-consumed buffer: a deep pipeline used to pay an O(tail)
  // erase(0, start) per recv — quadratic in the bytes a fast client could
  // pre-send. Consume() just advances an offset and compacts amortized.
  ConsumedBuffer buffer;
  char chunk[4096];
  bool poisoned = false;
  while (!poisoned) {
    const ssize_t n = io::Hooks().Recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // peer closed or connection reset
    buffer.Append(std::string_view(chunk, static_cast<size_t>(n)));

    for (;;) {
      const std::string_view pending = buffer.Pending();
      const size_t newline = pending.find('\n');
      if (newline == std::string_view::npos) break;
      std::string_view line = pending.substr(0, newline);
      if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
      // The budget applies to every complete line, not only the
      // unterminated tail (checked below): a pipelined oversize line
      // whose newline already arrived must be rejected, not executed.
      if (line.size() > options_.max_line_bytes) {
        SendAll(fd,
                StatusToJson(Status::InvalidArgument(
                                 "request line exceeds " +
                                 std::to_string(options_.max_line_bytes) +
                                 " bytes"))
                        .Dump() +
                    "\n");
        poisoned = true;
        break;
      }
      // One write per response: a separate 1-byte "\n" send is the
      // small segment Nagle would hold back.
      std::string response = HandleRequestLine(service_, line, cancel);
      response += '\n';
      if (!SendAll(fd, response)) {
        poisoned = true;
        break;
      }
      // After the send: Consume() may compact the storage, which would
      // invalidate the `line` view the handler just used.
      buffer.Consume(newline + 1);
    }
    if (!poisoned && buffer.PendingSize() > options_.max_line_bytes) {
      SendAll(fd,
              StatusToJson(Status::InvalidArgument(
                               "request line exceeds " +
                               std::to_string(options_.max_line_bytes) +
                               " bytes"))
                      .Dump() +
                  "\n");
      poisoned = true;
    }
  }
  // Mark the fd closed before closing it so Stop() can never shut down a
  // recycled fd number belonging to someone else, then publish `done` for
  // the accept loop's reaper.
  {
    std::lock_guard<std::mutex> lock(connections_mu_);
    connection->fd = -1;
  }
  close(fd);
  connection->done.store(true, std::memory_order_release);
}

}  // namespace remi
