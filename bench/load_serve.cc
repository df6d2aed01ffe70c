// Open-loop load generator for the serving cores (BENCH_serve.json).
//
// Four phases, all against real TCP sockets on loopback:
//
//   capacity     fork-isolated connection ramp under RLIMIT_AS: how many
//                concurrent connections can each serving core hold in the
//                same address-space budget? Thread-per-connection pays an
//                8MB stack per connection; the epoll core pays a few KB of
//                buffers. The acceptance bar is epoll >= 4x threads.
//   equivalence  deterministic requests sent over both wire protocols to
//                one epoll server must come back byte-identical.
//   sweep        open-loop load (requests dispatched on a fixed schedule,
//                never gated on responses) across connection counts, for
//                threads/NDJSON, epoll/NDJSON and epoll/binary. Reports
//                p50/p99 latency and sustained QPS per point.
//   counters     at quiescence, admitted == completed_ok +
//                deadline_exceeded + cancelled + failed.
//   tenants      multi-tenant sweep (BENCH_tenant.json): T named tenants
//                on one server, Zipf-skewed tenant pick, per-tenant
//                latency splits; plus an isolation pass per T where the
//                hot tenant is quota-pinned — it must shed while the cold
//                tenants' p99 stays flat.
//
//   ./bench_load_serve [--scale 0.02] [--kb path.nt]
//                      [--connections 1,4,16,64] [--requests 1500]
//                      [--rps 500] [--mine-fraction 0.02]
//                      [--capacity-limit-mb 768] [--capacity-max 1024]
//                      [--skip-capacity] [--out BENCH_serve.json]
//                      [--tenant-counts 1,4,16] [--tenant-requests 1200]
//                      [--tenant-rps 300] [--skip-tenants]
//                      [--tenant-out BENCH_tenant.json]
//
// CI smoke mode: `--connect PORT [--target Berlin]` runs equivalence, a
// short mixed-protocol burst and the wire-level counter identity against
// an already-running remi_server, exits nonzero on any failure, writes no
// JSON. `--connect-kb NAME` extends the smoke to a named tenant: routed
// equivalence, a mixed two-tenant burst, the unknown-kb NotFound
// contract, and the per-tenant counter identity.
//
// The committed BENCH_serve.json records hardware_concurrency: on a
// 1-core host the sweep measures protocol + event-loop overhead, not
// parallel mining throughput.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench_common.h"
#include "service/event_server.h"
#include "service/socket_util.h"
#include "service/frame_codec.h"
#include "service/json_codec.h"
#include "service/line_server.h"
#include "service/service.h"
#include "util/flags.h"
#include "util/json.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace {

using remi::AppendFrame;
using remi::FrameDecoder;
using remi::FrameVerb;
using remi::FrameView;

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int ConnectLoopback(int port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    close(fd);
    return -1;
  }
  // A latency-sensitive client disables Nagle on its own side too.
  remi::SetNoDelay(fd);
  return fd;
}

bool SendAllBlocking(int fd, std::string_view data) {
  size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<size_t>(n);
  }
  return true;
}

/// One blocking NDJSON round trip on a fresh connection ("" on failure).
std::string LineRoundTrip(int port, const std::string& request) {
  const int fd = ConnectLoopback(port);
  if (fd < 0) return "";
  std::string response;
  if (SendAllBlocking(fd, request + "\n")) {
    char c = 0;
    while (recv(fd, &c, 1, 0) == 1 && c != '\n') response.push_back(c);
  }
  close(fd);
  return response;
}

/// One blocking binary round trip on a fresh connection ("" on failure).
std::string FrameRoundTrip(int port, uint8_t verb, const std::string& payload) {
  const int fd = ConnectLoopback(port);
  if (fd < 0) return "";
  std::string wire;
  AppendFrame(verb, /*request_id=*/1, payload, &wire);
  std::string response;
  if (SendAllBlocking(fd, wire)) {
    FrameDecoder decoder(64u << 20);
    char chunk[4096];
    for (;;) {
      FrameView frame;
      const auto result = decoder.Next(&frame);
      if (result == FrameDecoder::Result::kFrame) {
        response.assign(frame.payload.data(), frame.payload.size());
        break;
      }
      if (result == FrameDecoder::Result::kError) break;
      const ssize_t n = recv(fd, chunk, sizeof(chunk), 0);
      if (n <= 0) break;
      decoder.Feed(std::string_view(chunk, static_cast<size_t>(n)));
    }
  }
  close(fd);
  return response;
}

// ---------------------------------------------------------------------------
// Open-loop generator: one thread, poll(2) over all connections. Requests
// are stamped at their *scheduled* time, so server-side queueing under
// overload shows up in the latency numbers instead of slowing the
// generator down (the coordinated-omission trap of closed-loop clients).
// ---------------------------------------------------------------------------

struct LoadConfig {
  int port = 0;
  bool binary = false;
  size_t connections = 4;
  size_t total_requests = 1000;
  double rps = 500.0;
  /// Every Nth request is a mine; the rest are pings.
  size_t mine_every = 0;  // 0 = never
  std::vector<std::string> mine_payloads;
  /// Pre-built schedule (multi-tenant sweep): request k sends
  /// scheduled_payloads[k] with scheduled_verbs[k], and its latency is
  /// attributed to class scheduled_class[k] (one class per tenant).
  /// Empty = the mine_every/ping schedule above, everything in class 0.
  std::vector<std::string> scheduled_payloads;
  std::vector<uint8_t> scheduled_verbs;
  std::vector<int> scheduled_class;
  size_t num_classes = 1;
};

struct LoadResult {
  bool ok = true;
  std::string note;
  size_t completed = 0;  ///< responses with status OK
  size_t rejected = 0;   ///< ResourceExhausted (admission shed, expected)
  size_t errors = 0;     ///< anything else
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double qps = 0.0;
  /// Per-class splits (sized num_classes); class = tenant in the
  /// multi-tenant sweep.
  std::vector<size_t> class_completed;
  std::vector<size_t> class_rejected;
  std::vector<double> class_p99_ms;
};

struct ClientConn {
  int fd = -1;
  std::string outbuf;
  size_t out_off = 0;
  FrameDecoder decoder{64u << 20};
  std::string linebuf;
  /// Send time + request class, matched to responses in order (NDJSON)
  /// or by request id (binary).
  std::deque<std::pair<double, int>> fifo_send_times;
  std::unordered_map<uint64_t, std::pair<double, int>> send_times;
  bool failed = false;
};

void Classify(std::string_view response_doc, double latency_ms,
              int request_class, LoadResult* result,
              std::vector<std::vector<double>>* latencies) {
  if (response_doc.find("\"status\":\"OK\"") != std::string_view::npos) {
    ++result->completed;
    ++result->class_completed[static_cast<size_t>(request_class)];
    (*latencies)[static_cast<size_t>(request_class)].push_back(latency_ms);
  } else if (response_doc.find("ResourceExhausted") !=
             std::string_view::npos) {
    ++result->rejected;
    ++result->class_rejected[static_cast<size_t>(request_class)];
  } else {
    ++result->errors;
  }
}

LoadResult RunOpenLoopLoad(const LoadConfig& config) {
  LoadResult result;
  result.class_completed.assign(config.num_classes, 0);
  result.class_rejected.assign(config.num_classes, 0);
  result.class_p99_ms.assign(config.num_classes, 0.0);
  std::vector<ClientConn> conns(config.connections);
  for (auto& conn : conns) {
    conn.fd = ConnectLoopback(config.port);
    if (conn.fd >= 0 && !remi::SetNonBlocking(conn.fd)) {
      close(conn.fd);
      conn.fd = -1;
    }
    if (conn.fd < 0) {
      result.ok = false;
      result.note = "connect failed";
      for (auto& c : conns)
        if (c.fd >= 0) close(c.fd);
      return result;
    }
  }

  std::vector<std::vector<double>> latencies(config.num_classes);
  const double start = NowSeconds();
  double last_response = start;
  size_t next_request = 0;
  size_t responses = 0;
  std::vector<pollfd> pfds(conns.size());
  char chunk[16384];

  while (responses < config.total_requests) {
    const double now = NowSeconds();
    // Dispatch every request whose scheduled time has arrived.
    while (next_request < config.total_requests &&
           start + static_cast<double>(next_request) / config.rps <= now) {
      const size_t k = next_request++;
      ClientConn& conn = conns[k % conns.size()];
      if (conn.failed) {
        ++result.errors;  // undeliverable
        ++responses;
        continue;
      }
      const bool scheduled_mode = !config.scheduled_payloads.empty();
      const bool mine = !scheduled_mode && config.mine_every != 0 &&
                        !config.mine_payloads.empty() &&
                        k % config.mine_every == 0;
      const std::string ping = R"({"op":"ping"})";
      const std::string& payload =
          scheduled_mode
              ? config.scheduled_payloads[k % config.scheduled_payloads.size()]
              : (mine ? config.mine_payloads[k % config.mine_payloads.size()]
                      : ping);
      const uint8_t verb =
          scheduled_mode
              ? config.scheduled_verbs[k % config.scheduled_verbs.size()]
              : static_cast<uint8_t>(mine ? FrameVerb::kMine
                                          : FrameVerb::kPing);
      const int request_class =
          scheduled_mode
              ? config.scheduled_class[k % config.scheduled_class.size()]
              : 0;
      const double scheduled =
          start + static_cast<double>(k) / config.rps;
      if (config.binary) {
        AppendFrame(verb, static_cast<uint64_t>(k), payload, &conn.outbuf);
        conn.send_times.emplace(static_cast<uint64_t>(k),
                                std::make_pair(scheduled, request_class));
      } else {
        conn.outbuf += payload;
        conn.outbuf += '\n';
        conn.fifo_send_times.emplace_back(scheduled, request_class);
      }
    }

    // Wake for the next scheduled dispatch (or 50ms when idle).
    int timeout_ms = 50;
    if (next_request < config.total_requests) {
      const double due =
          start + static_cast<double>(next_request) / config.rps;
      timeout_ms = std::max(
          0, static_cast<int>((due - NowSeconds()) * 1000.0));
      timeout_ms = std::min(timeout_ms, 50);
    } else if (NowSeconds() - last_response > 30.0) {
      result.ok = false;
      result.note = "timed out waiting for responses";
      break;
    }

    for (size_t i = 0; i < conns.size(); ++i) {
      pfds[i].fd = conns[i].failed ? -1 : conns[i].fd;
      pfds[i].events = static_cast<short>(
          POLLIN |
          (conns[i].out_off < conns[i].outbuf.size() ? POLLOUT : 0));
      pfds[i].revents = 0;
    }
    if (poll(pfds.data(), pfds.size(), timeout_ms) < 0 && errno != EINTR) {
      result.ok = false;
      result.note = "poll failed";
      break;
    }

    for (size_t i = 0; i < conns.size(); ++i) {
      ClientConn& conn = conns[i];
      if (conn.failed) continue;
      if (pfds[i].revents & POLLOUT) {
        while (conn.out_off < conn.outbuf.size()) {
          const ssize_t n =
              send(conn.fd, conn.outbuf.data() + conn.out_off,
                   conn.outbuf.size() - conn.out_off, MSG_NOSIGNAL);
          if (n > 0) {
            conn.out_off += static_cast<size_t>(n);
          } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
            break;
          } else {
            conn.failed = true;
            break;
          }
        }
        if (conn.out_off == conn.outbuf.size()) {
          conn.outbuf.clear();
          conn.out_off = 0;
        }
      }
      if (conn.failed || (pfds[i].revents & (POLLIN | POLLHUP)) == 0) {
        continue;
      }
      for (;;) {
        const ssize_t n = recv(conn.fd, chunk, sizeof(chunk), MSG_DONTWAIT);
        if (n > 0) {
          const double arrival = NowSeconds();
          last_response = arrival;
          if (config.binary) {
            conn.decoder.Feed(
                std::string_view(chunk, static_cast<size_t>(n)));
            FrameView frame;
            while (conn.decoder.Next(&frame) ==
                   FrameDecoder::Result::kFrame) {
              const auto it = conn.send_times.find(frame.request_id);
              double sent = arrival;
              int request_class = 0;
              if (it != conn.send_times.end()) {
                sent = it->second.first;
                request_class = it->second.second;
                conn.send_times.erase(it);
              }
              Classify(frame.payload, (arrival - sent) * 1000.0,
                       request_class, &result, &latencies);
              ++responses;
            }
          } else {
            conn.linebuf.append(chunk, static_cast<size_t>(n));
            size_t pos = 0;
            size_t newline;
            while ((newline = conn.linebuf.find('\n', pos)) !=
                   std::string::npos) {
              const std::string_view line(conn.linebuf.data() + pos,
                                          newline - pos);
              double sent = arrival;
              int request_class = 0;
              if (!conn.fifo_send_times.empty()) {
                sent = conn.fifo_send_times.front().first;
                request_class = conn.fifo_send_times.front().second;
                conn.fifo_send_times.pop_front();
              }
              Classify(line, (arrival - sent) * 1000.0, request_class,
                       &result, &latencies);
              ++responses;
              pos = newline + 1;
            }
            conn.linebuf.erase(0, pos);
          }
        } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
          break;
        } else if (n < 0 && errno == EINTR) {
          continue;
        } else {
          // EOF (or a reset) with requests still outstanding.
          conn.failed = true;
          const size_t outstanding = config.binary
                                         ? conn.send_times.size()
                                         : conn.fifo_send_times.size();
          result.errors += outstanding;
          responses += outstanding;
          conn.send_times.clear();
          conn.fifo_send_times.clear();
          break;
        }
      }
    }
  }

  for (auto& conn : conns) {
    if (conn.fd >= 0) close(conn.fd);
  }
  std::vector<double> merged;
  for (size_t cls = 0; cls < latencies.size(); ++cls) {
    auto& class_latencies = latencies[cls];
    std::sort(class_latencies.begin(), class_latencies.end());
    if (!class_latencies.empty()) {
      result.class_p99_ms[cls] = class_latencies[std::min(
          class_latencies.size() - 1, class_latencies.size() * 99 / 100)];
    }
    merged.insert(merged.end(), class_latencies.begin(),
                  class_latencies.end());
  }
  std::sort(merged.begin(), merged.end());
  if (!merged.empty()) {
    result.p50_ms = merged[merged.size() / 2];
    result.p99_ms = merged[std::min(merged.size() - 1,
                                    merged.size() * 99 / 100)];
  }
  const double wall = std::max(last_response - start, 1e-9);
  result.qps = static_cast<double>(result.completed + result.rejected) / wall;
  if (result.errors > 0) result.ok = false;
  return result;
}

// ---------------------------------------------------------------------------
// Capacity ramp: fork a server under RLIMIT_AS, connect until it breaks.
// ---------------------------------------------------------------------------

struct CapacityResult {
  bool ran = false;
  size_t sustained = 0;
  bool hit_cap = false;  ///< stopped at --capacity-max, not at a failure
};

CapacityResult RunCapacityRamp(bool epoll_mode, size_t limit_mb,
                               size_t max_conns, const std::string& kb_path,
                               double scale) {
  CapacityResult result;
  int pipe_fds[2];
  if (pipe(pipe_fds) != 0) return result;
  const pid_t child = fork();
  if (child < 0) {
    close(pipe_fds[0]);
    close(pipe_fds[1]);
    return result;
  }
  if (child == 0) {
    // Server child: cap the address space, then serve until killed. The
    // thread-per-connection core burns ~8MB of it per connection (stack);
    // the epoll core a few KB of buffers — same budget, same KB.
    close(pipe_fds[0]);
    signal(SIGPIPE, SIG_IGN);
    rlimit limit{};
    limit.rlim_cur = limit.rlim_max =
        static_cast<rlim_t>(limit_mb) << 20;
    setrlimit(RLIMIT_AS, &limit);

    std::unique_ptr<remi::Service> service;
    if (!kb_path.empty()) {
      remi::KbSpec spec;
      spec.path = kb_path;
      auto opened = remi::Service::Open(spec);
      if (!opened.ok()) _exit(2);
      service = std::move(*opened);
    } else {
      service = remi::Service::Create(remi::bench::BuildDbpediaLike(scale));
    }
    int port = -1;
    remi::LineServer line_server(service.get(), {});
    remi::EventServerOptions event_options;
    remi::EventServer event_server(service.get(), event_options);
    if (epoll_mode) {
      if (event_server.Start().ok()) port = event_server.port();
    } else {
      if (line_server.Start().ok()) port = line_server.port();
    }
    if (write(pipe_fds[1], &port, sizeof(port)) != sizeof(port)) _exit(3);
    close(pipe_fds[1]);
    for (;;) pause();  // parent SIGKILLs us
  }

  close(pipe_fds[1]);
  int port = -1;
  if (read(pipe_fds[0], &port, sizeof(port)) != sizeof(port)) port = -1;
  close(pipe_fds[0]);
  if (port <= 0) {
    kill(child, SIGKILL);
    waitpid(child, nullptr, 0);
    return result;
  }

  result.ran = true;
  std::vector<int> held;
  held.reserve(max_conns);
  const std::string ping = "{\"op\":\"ping\"}\n";
  for (size_t i = 0; i < max_conns; ++i) {
    const int fd = ConnectLoopback(port);
    if (fd < 0) break;
    timeval timeout{};
    timeout.tv_sec = 5;
    setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    // A connection only counts if the server actually serves it: an
    // accept()ed-then-shed connection answers the ping with EOF.
    bool served = false;
    if (SendAllBlocking(fd, ping)) {
      char c = 0;
      while (recv(fd, &c, 1, 0) == 1) {
        if (c == '\n') {
          served = true;
          break;
        }
      }
    }
    if (!served) {
      close(fd);
      break;
    }
    held.push_back(fd);  // stays open: concurrency is the resource
  }
  result.sustained = held.size();
  result.hit_cap = held.size() == max_conns;
  for (const int fd : held) close(fd);
  kill(child, SIGKILL);
  waitpid(child, nullptr, 0);
  return result;
}

// ---------------------------------------------------------------------------

struct EquivalenceCase {
  FrameVerb verb;
  std::string payload;
};

/// Sends each deterministic request over both wire modes; true iff every
/// response pair is byte-identical.
bool CheckEquivalence(int port, const std::vector<EquivalenceCase>& cases,
                      size_t* checked) {
  bool all_identical = true;
  for (const auto& test_case : cases) {
    const std::string line = LineRoundTrip(port, test_case.payload);
    const std::string frame = FrameRoundTrip(
        port, static_cast<uint8_t>(test_case.verb), test_case.payload);
    ++*checked;
    if (line.empty() || line != frame) {
      std::fprintf(stderr,
                   "  MISMATCH for %s\n    ndjson: %s\n    binary: %s\n",
                   test_case.payload.c_str(), line.c_str(), frame.c_str());
      all_identical = false;
    }
  }
  return all_identical;
}

std::vector<size_t> ParseSizeList(const std::string& spec,
                                  std::vector<size_t> fallback) {
  std::vector<size_t> values;
  for (const std::string& token : remi::SplitString(spec, ',')) {
    if (token.empty()) continue;
    const long parsed = std::atol(token.c_str());
    if (parsed > 0) values.push_back(static_cast<size_t>(parsed));
  }
  return values.empty() ? fallback : values;
}

double JsonNumber(const remi::JsonValue& doc, const char* key) {
  const remi::JsonValue* value = doc.Find(key);
  return value != nullptr ? value->AsNumber() : -1.0;
}

struct SweepRow {
  std::string server;
  std::string wire;
  size_t connections = 0;
  LoadResult load;
};

// ---------------------------------------------------------------------------
// Multi-tenant sweep: one epoll server, T named tenants (clones of the
// same KB image, so responses are comparable across tenants), a
// Zipf-skewed tenant pick (tenant rank r gets weight 1/(r+1) — t0 is the
// hot head), all-mine traffic attributed per tenant. Each T runs twice:
// a baseline pass, and an isolation pass where t0 gets a one-slot quota
// and an in-process occupant pins that slot — the hot tenant must shed
// (ResourceExhausted) while the cold tenants' latency stays flat.
// ---------------------------------------------------------------------------

struct TenantPassRow {
  size_t tenants = 0;
  bool hot_quota = false;
  std::vector<std::string> names;
  LoadResult load;
};

/// Deterministic Zipf tenant pick for request k (no RNG: the schedule
/// must be identical between the baseline and isolation passes).
size_t ZipfTenant(size_t k, const std::vector<double>& cumulative) {
  const uint32_t hashed = static_cast<uint32_t>(k) * 2654435761u;
  const double u =
      static_cast<double>(hashed >> 8 & 0xFFFFFF) / static_cast<double>(1 << 24);
  const double target = u * cumulative.back();
  for (size_t i = 0; i < cumulative.size(); ++i) {
    if (target < cumulative[i]) return i;
  }
  return cumulative.size() - 1;
}

TenantPassRow RunTenantPass(const std::string& kb_image, size_t tenants,
                            bool hot_quota, size_t requests, double rps,
                            const std::vector<std::string>& targets) {
  TenantPassRow row;
  row.tenants = tenants;
  row.hot_quota = hot_quota;

  auto default_kb = remi::KnowledgeBase::OpenSnapshotBuffer(kb_image);
  REMI_CHECK_OK(default_kb.status());
  remi::ServiceOptions options;
  options.max_in_flight = 8;
  options.max_queued = 64;
  auto service = remi::Service::Create(std::move(*default_kb), options);
  for (size_t i = 0; i < tenants; ++i) {
    const std::string name = "t" + std::to_string(i);
    row.names.push_back(name);
    auto clone = remi::KnowledgeBase::OpenSnapshotBuffer(kb_image);
    REMI_CHECK_OK(clone.status());
    if (hot_quota && i == 0) {
      remi::TenantQuota quota;
      quota.max_in_flight = 1;
      quota.max_queued = 0;
      REMI_CHECK_OK(service->AttachKb(name, std::move(*clone), quota));
    } else {
      REMI_CHECK_OK(service->AttachKb(name, std::move(*clone)));
    }
  }

  std::vector<double> cumulative(tenants);
  double total = 0.0;
  for (size_t i = 0; i < tenants; ++i) {
    total += 1.0 / static_cast<double>(i + 1);
    cumulative[i] = total;
  }

  LoadConfig config;
  config.binary = true;
  config.connections = std::min<size_t>(8, tenants * 2);
  config.total_requests = requests;
  config.rps = rps;
  config.num_classes = tenants;
  for (size_t k = 0; k < requests; ++k) {
    const size_t tenant = ZipfTenant(k, cumulative);
    remi::JsonValue request = remi::JsonValue::Object();
    request.Set("op", remi::JsonValue::String("mine"));
    request.Set("kb", remi::JsonValue::String(row.names[tenant]));
    remi::JsonValue target_list = remi::JsonValue::Array();
    target_list.Append(
        remi::JsonValue::String(targets[k % targets.size()]));
    request.Set("targets", std::move(target_list));
    config.scheduled_payloads.push_back(request.Dump());
    config.scheduled_verbs.push_back(
        static_cast<uint8_t>(FrameVerb::kMine));
    config.scheduled_class.push_back(static_cast<int>(tenant));
  }

  // The isolation pass pins the hot tenant's single quota slot from
  // in-process, so every wire request to t0 sheds regardless of how fast
  // a single mine is on this host.
  std::atomic<bool> stop_occupant{false};
  std::thread occupant;
  if (hot_quota) {
    occupant = std::thread([&] {
      while (!stop_occupant.load()) {
        remi::BatchMineRequest batch;
        batch.kb = "t0";
        for (size_t i = 0; i < 64; ++i) {
          remi::TargetSpec spec;
          spec.names = {targets[i % targets.size()]};
          batch.target_sets.push_back(spec);
        }
        (void)service->BatchMine(batch);
      }
    });
  }

  remi::EventServerOptions server_options;
  remi::EventServer server(service.get(), server_options);
  REMI_CHECK_OK(server.Start());
  config.port = server.port();
  row.load = RunOpenLoopLoad(config);
  server.Stop();
  if (occupant.joinable()) {
    stop_occupant.store(true);
    occupant.join();
  }
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  remi::Flags flags;
  flags.DefineDouble("scale", 0.02, "synthetic KB scale (ignored with --kb)");
  flags.DefineString("kb", "", "serve this KB file instead of a synthetic");
  flags.DefineString("connections", "1,4,16,64",
                     "comma-separated sweep connection counts");
  flags.DefineInt("requests", 1500, "requests per sweep point");
  flags.DefineDouble("rps", 500.0, "open-loop aggregate request rate");
  flags.DefineDouble("mine-fraction", 0.02,
                     "fraction of requests that mine (the rest ping)");
  flags.DefineInt("capacity-limit-mb", 768,
                  "RLIMIT_AS for the forked capacity-ramp servers");
  flags.DefineInt("capacity-max", 1024,
                  "stop the capacity ramp at this many connections");
  flags.DefineBool("skip-capacity", false,
                   "skip the fork-isolated capacity phase");
  flags.DefineInt("connect", 0,
                  "CI smoke mode: run checks against an external server "
                  "on this port, write no JSON");
  flags.DefineString("target", "Berlin",
                     "mine/summarize target entity in --connect mode");
  flags.DefineString("connect-kb", "",
                     "CI smoke mode: also exercise this named tenant "
                     "(per-request kb routing + per-tenant counters)");
  flags.DefineString("tenant-counts", "1,4,16",
                     "multi-tenant sweep tenant counts");
  flags.DefineInt("tenant-requests", 1200,
                  "requests per multi-tenant sweep pass");
  flags.DefineDouble("tenant-rps", 300.0,
                     "open-loop rate for the multi-tenant sweep");
  flags.DefineBool("skip-tenants", false, "skip the multi-tenant sweep");
  flags.DefineString("tenant-out", "BENCH_tenant.json",
                     "multi-tenant sweep JSON output path");
  flags.DefineString("out", "BENCH_serve.json", "JSON output path");
  REMI_CHECK_OK(flags.Parse(argc, argv));
  remi::bench::WarnIfNotReleaseBuild();
  signal(SIGPIPE, SIG_IGN);

  // ---- CI smoke mode: external server, pass/fail only. ----
  if (flags.GetInt("connect") != 0) {
    const int port = static_cast<int>(flags.GetInt("connect"));
    const std::string target = flags.GetString("target");
    bool ok = true;

    remi::bench::Banner("equivalence (external server)");
    std::vector<EquivalenceCase> cases = {
        {FrameVerb::kPing, R"({"op":"ping"})"},
        {FrameVerb::kSummarize,
         R"({"op":"summarize","entity":")" + target + R"(","k":3})"},
        {FrameVerb::kCandidates,
         R"({"op":"candidates","targets":[")" + target + R"("],"limit":3})"},
        {FrameVerb::kMine,
         R"({"op":"mine","targets":["NoSuchEntityAnywhere"]})"},
    };
    size_t checked = 0;
    if (!CheckEquivalence(port, cases, &checked)) ok = false;
    std::printf("  %zu request pairs byte-identical: %s\n", checked,
                ok ? "yes" : "NO");

    remi::bench::Banner("mixed burst");
    LoadConfig burst;
    burst.port = port;
    burst.connections = 4;
    burst.total_requests = 200;
    burst.rps = 200.0;
    burst.mine_every = 10;
    burst.mine_payloads = {R"({"op":"mine","targets":[")" + target +
                           R"("]})"};
    for (const bool binary : {false, true}) {
      burst.binary = binary;
      const LoadResult load = RunOpenLoopLoad(burst);
      std::printf("  %-6s ok=%zu rejected=%zu errors=%zu p99=%.2fms\n",
                  binary ? "binary" : "ndjson", load.completed,
                  load.rejected, load.errors, load.p99_ms);
      if (!load.ok || load.completed == 0) ok = false;
    }

    remi::bench::Banner("counter identity (wire)");
    const std::string counters_doc = FrameRoundTrip(
        port, static_cast<uint8_t>(FrameVerb::kCounters), "");
    auto counters = remi::ParseJson(counters_doc);
    if (!counters.ok()) {
      ok = false;
    } else {
      const double admitted = JsonNumber(*counters, "admitted");
      const double accounted = JsonNumber(*counters, "completed_ok") +
                               JsonNumber(*counters, "deadline_exceeded") +
                               JsonNumber(*counters, "cancelled") +
                               JsonNumber(*counters, "failed");
      const bool consistent =
          admitted >= 0 && admitted == accounted &&
          JsonNumber(*counters, "in_flight") == 0;
      std::printf("  admitted=%.0f accounted=%.0f in_flight=%.0f: %s\n",
                  admitted, accounted, JsonNumber(*counters, "in_flight"),
                  consistent ? "consistent" : "INCONSISTENT");
      if (!consistent) ok = false;
    }

    // ---- Named-tenant smoke (two-tenant serving): routed equivalence,
    // a skewed two-tenant burst, the unknown-kb contract, and the
    // per-tenant counter identity. ----
    if (const std::string kb_name = flags.GetString("connect-kb");
        !kb_name.empty()) {
      remi::bench::Banner(("named tenant '" + kb_name + "'").c_str());
      // OK mines embed wall-clock timing, so equivalence uses the
      // deterministic error path; the burst below covers routed OK mines.
      std::vector<EquivalenceCase> tenant_cases = {
          {FrameVerb::kMine, R"({"op":"mine","kb":")" + kb_name +
                                 R"(","targets":["NoSuchEntityAnywhere"]})"},
          {FrameVerb::kCounters, R"({"op":"stats","kb":")" + kb_name +
                                     R"("})"},
      };
      size_t tenant_checked = 0;
      if (!CheckEquivalence(port, tenant_cases, &tenant_checked)) ok = false;
      std::printf("  %zu routed request pairs byte-identical\n",
                  tenant_checked);

      const std::string unknown = LineRoundTrip(
          port, R"({"op":"mine","kb":"no_such_tenant","targets":[")" +
                    target + R"("]})");
      const bool unknown_in_band =
          unknown.find("NotFound") != std::string::npos;
      std::printf("  unknown kb rejected in-band: %s\n",
                  unknown_in_band ? "yes" : "NO");
      if (!unknown_in_band) ok = false;

      // Burst with a 2:1 default/named skew across both protocols.
      LoadConfig tenant_burst;
      tenant_burst.port = port;
      tenant_burst.connections = 4;
      tenant_burst.total_requests = 300;
      tenant_burst.rps = 200.0;
      tenant_burst.num_classes = 2;
      for (size_t k = 0; k < tenant_burst.total_requests; ++k) {
        const bool named = k % 3 == 2;
        tenant_burst.scheduled_payloads.push_back(
            named ? R"({"op":"mine","kb":")" + kb_name +
                        R"(","targets":[")" + target + R"("]})"
                  : R"({"op":"mine","targets":[")" + target + R"("]})");
        tenant_burst.scheduled_verbs.push_back(
            static_cast<uint8_t>(FrameVerb::kMine));
        tenant_burst.scheduled_class.push_back(named ? 1 : 0);
      }
      for (const bool binary : {false, true}) {
        tenant_burst.binary = binary;
        const LoadResult load = RunOpenLoopLoad(tenant_burst);
        std::printf(
            "  %-6s default ok=%zu '%s' ok=%zu errors=%zu p99=%.2fms\n",
            binary ? "binary" : "ndjson", load.class_completed[0],
            kb_name.c_str(), load.class_completed[1], load.errors,
            load.p99_ms);
        if (!load.ok || load.class_completed[1] == 0) ok = false;
      }

      // Per-tenant identity + registry gauges after everything drained.
      const std::string slice_doc = FrameRoundTrip(
          port, static_cast<uint8_t>(FrameVerb::kCounters),
          R"({"kb":")" + kb_name + R"("})");
      const std::string global_doc = FrameRoundTrip(
          port, static_cast<uint8_t>(FrameVerb::kCounters), "");
      auto slice = remi::ParseJson(slice_doc);
      auto global_counters = remi::ParseJson(global_doc);
      if (!slice.ok() || !global_counters.ok()) {
        ok = false;
      } else {
        const double admitted = JsonNumber(*slice, "admitted");
        const double accounted = JsonNumber(*slice, "completed_ok") +
                                 JsonNumber(*slice, "deadline_exceeded") +
                                 JsonNumber(*slice, "cancelled") +
                                 JsonNumber(*slice, "failed");
        const bool tenant_consistent =
            admitted > 0 && admitted == accounted &&
            JsonNumber(*slice, "in_flight") == 0 &&
            JsonNumber(*global_counters, "tenants_active") >= 2 &&
            JsonNumber(*global_counters, "admitted") >= admitted;
        std::printf(
            "  tenant admitted=%.0f accounted=%.0f tenants_active=%.0f: "
            "%s\n",
            admitted, accounted,
            JsonNumber(*global_counters, "tenants_active"),
            tenant_consistent ? "consistent" : "INCONSISTENT");
        if (!tenant_consistent) ok = false;
      }
    }

    std::printf("\nserve smoke: %s\n", ok ? "PASS" : "FAIL");
    return ok ? 0 : 1;
  }

  // ---- Capacity phase first: fork before this process owns threads. ----
  const std::string kb_path = flags.GetString("kb");
  const double scale = flags.GetDouble("scale");
  CapacityResult cap_threads;
  CapacityResult cap_epoll;
  if (!flags.GetBool("skip-capacity")) {
    remi::bench::Banner("capacity under RLIMIT_AS");
    const size_t limit_mb =
        static_cast<size_t>(flags.GetInt("capacity-limit-mb"));
    const size_t cap_max =
        static_cast<size_t>(flags.GetInt("capacity-max"));
    cap_threads =
        RunCapacityRamp(/*epoll_mode=*/false, limit_mb, cap_max, kb_path,
                        scale);
    std::printf("  threads: %zu connections%s\n", cap_threads.sustained,
                cap_threads.hit_cap ? " (hit ramp cap)" : "");
    cap_epoll = RunCapacityRamp(/*epoll_mode=*/true, limit_mb, cap_max,
                                kb_path, scale);
    std::printf("  epoll:   %zu connections%s\n", cap_epoll.sustained,
                cap_epoll.hit_cap ? " (hit ramp cap)" : "");
    if (cap_threads.ran && cap_epoll.ran && cap_threads.sustained > 0) {
      std::printf("  epoll/threads: %.1fx\n",
                  static_cast<double>(cap_epoll.sustained) /
                      static_cast<double>(cap_threads.sustained));
    }
  }

  // ---- Shared service for the in-process phases. ----
  std::unique_ptr<remi::Service> service;
  if (!kb_path.empty()) {
    remi::KbSpec spec;
    spec.path = kb_path;
    auto opened = remi::Service::Open(spec);
    REMI_CHECK_OK(opened.status());
    service = std::move(*opened);
  } else {
    service = remi::Service::Create(remi::bench::BuildDbpediaLike(scale));
  }
  const remi::KnowledgeBase& kb = service->kb();
  std::printf("\nserving %zu facts, %zu entities\n", kb.NumFacts(),
              kb.NumEntities());

  // Mine targets: mid-prominence entities, addressed by exact IRI so the
  // payloads resolve on the synthetic KB too.
  std::vector<std::string> mine_payloads;
  std::vector<std::string> mine_targets;
  std::string summarize_entity;
  {
    const auto entities = kb.EntitiesByProminence();
    for (size_t rank = 8; rank < entities.size() && mine_payloads.size() < 4;
         rank += 3) {
      const std::string name(kb.dict().lexical(entities[rank]));
      remi::JsonValue request = remi::JsonValue::Object();
      request.Set("op", remi::JsonValue::String("mine"));
      remi::JsonValue targets = remi::JsonValue::Array();
      targets.Append(remi::JsonValue::String(name));
      request.Set("targets", std::move(targets));
      mine_payloads.push_back(request.Dump());
      mine_targets.push_back(name);
      if (summarize_entity.empty()) summarize_entity = name;
    }
  }

  // ---- Equivalence. ----
  remi::bench::Banner("wire-mode equivalence");
  remi::EventServerOptions equivalence_options;
  remi::EventServer equivalence_server(service.get(), equivalence_options);
  REMI_CHECK_OK(equivalence_server.Start());
  std::vector<EquivalenceCase> cases = {
      {FrameVerb::kPing, R"({"op":"ping"})"},
      {FrameVerb::kMine, R"({"op":"mine","targets":["NoSuchEntityAnywhere"]})"},
  };
  if (!summarize_entity.empty()) {
    remi::JsonValue summarize = remi::JsonValue::Object();
    summarize.Set("op", remi::JsonValue::String("summarize"));
    summarize.Set("entity", remi::JsonValue::String(summarize_entity));
    summarize.Set("k", remi::JsonValue::Number(3));
    cases.push_back({FrameVerb::kSummarize, summarize.Dump()});
    remi::JsonValue candidates = remi::JsonValue::Object();
    candidates.Set("op", remi::JsonValue::String("candidates"));
    remi::JsonValue targets = remi::JsonValue::Array();
    targets.Append(remi::JsonValue::String(summarize_entity));
    candidates.Set("targets", std::move(targets));
    candidates.Set("limit", remi::JsonValue::Number(3));
    cases.push_back({FrameVerb::kCandidates, candidates.Dump()});
  }
  size_t equivalence_checked = 0;
  const bool equivalence_ok = CheckEquivalence(
      equivalence_server.port(), cases, &equivalence_checked);
  equivalence_server.Stop();
  std::printf("  %zu request pairs byte-identical: %s\n",
              equivalence_checked, equivalence_ok ? "yes" : "NO");

  // ---- Sweep. ----
  remi::bench::Banner("open-loop sweep");
  const std::vector<size_t> connection_counts =
      ParseSizeList(flags.GetString("connections"), {1, 4, 16, 64});
  LoadConfig base;
  base.total_requests = static_cast<size_t>(flags.GetInt("requests"));
  base.rps = flags.GetDouble("rps");
  const double mine_fraction = flags.GetDouble("mine-fraction");
  base.mine_every =
      mine_fraction > 0.0
          ? static_cast<size_t>(std::max(1.0, 1.0 / mine_fraction))
          : 0;
  base.mine_payloads = mine_payloads;

  std::vector<SweepRow> rows;
  for (const size_t connections : connection_counts) {
    for (int variant = 0; variant < 3; ++variant) {
      SweepRow row;
      row.server = variant == 0 ? "threads" : "epoll";
      row.wire = variant == 2 ? "binary" : "ndjson";
      row.connections = connections;
      LoadConfig config = base;
      config.connections = connections;
      config.binary = variant == 2;
      if (variant == 0) {
        remi::LineServer server(service.get(), {});
        REMI_CHECK_OK(server.Start());
        config.port = server.port();
        row.load = RunOpenLoopLoad(config);
        server.Stop();
      } else {
        remi::EventServerOptions options;
        remi::EventServer server(service.get(), options);
        REMI_CHECK_OK(server.Start());
        config.port = server.port();
        row.load = RunOpenLoopLoad(config);
        server.Stop();
      }
      std::printf("  C=%-4zu %-7s/%-6s p50=%7.2fms p99=%7.2fms "
                  "qps=%8.1f ok=%zu rejected=%zu errors=%zu%s\n",
                  connections, row.server.c_str(), row.wire.c_str(),
                  row.load.p50_ms, row.load.p99_ms, row.load.qps,
                  row.load.completed, row.load.rejected, row.load.errors,
                  row.load.ok ? "" : "  [FAILED]");
      rows.push_back(std::move(row));
    }
  }

  // ---- Multi-tenant sweep (its own servers; BENCH_tenant.json). ----
  std::vector<TenantPassRow> tenant_rows;
  bool tenants_ok = true;
  bool isolation_ok = true;
  if (!flags.GetBool("skip-tenants") && !mine_targets.empty()) {
    remi::bench::Banner("multi-tenant sweep");
    const std::string kb_image = kb.SerializeSnapshot();
    const std::vector<size_t> tenant_counts =
        ParseSizeList(flags.GetString("tenant-counts"), {1, 4, 16});
    const size_t tenant_requests =
        static_cast<size_t>(flags.GetInt("tenant-requests"));
    const double tenant_rps = flags.GetDouble("tenant-rps");
    for (const size_t tenants : tenant_counts) {
      for (const bool hot_quota : {false, true}) {
        TenantPassRow row =
            RunTenantPass(kb_image, tenants, hot_quota, tenant_requests,
                          tenant_rps, mine_targets);
        std::printf("  T=%-3zu %-9s p99=%7.2fms qps=%8.1f ok=%zu "
                    "rejected=%zu errors=%zu",
                    tenants, hot_quota ? "hot-quota" : "baseline",
                    row.load.p99_ms, row.load.qps, row.load.completed,
                    row.load.rejected, row.load.errors);
        if (hot_quota && tenants > 1) {
          // Isolation evidence: t0 sheds, the cold tail stays flat
          // relative to this pass's own cold baseline.
          const TenantPassRow& baseline = tenant_rows.back();
          double cold_p99 = 0.0;
          double cold_baseline_p99 = 0.0;
          size_t cold_rejected = 0;
          for (size_t i = 1; i < tenants; ++i) {
            cold_p99 = std::max(cold_p99, row.load.class_p99_ms[i]);
            cold_baseline_p99 =
                std::max(cold_baseline_p99, baseline.load.class_p99_ms[i]);
            cold_rejected += row.load.class_rejected[i];
          }
          std::printf("  [hot rejected=%zu cold rejected=%zu "
                      "cold p99 %.2f->%.2fms]",
                      row.load.class_rejected[0], cold_rejected,
                      cold_baseline_p99, cold_p99);
          if (row.load.class_rejected[0] == 0 || cold_rejected != 0) {
            isolation_ok = false;
          }
        }
        std::printf("%s\n", row.load.ok ? "" : "  [FAILED]");
        if (!row.load.ok) tenants_ok = false;
        tenant_rows.push_back(std::move(row));
      }
    }
    std::printf("  isolation (hot sheds, cold serves clean): %s\n",
                isolation_ok ? "yes" : "NO");

    const std::string tenant_out_path = flags.GetString("tenant-out");
    FILE* tenant_out = std::fopen(tenant_out_path.c_str(), "wb");
    if (tenant_out == nullptr) {
      std::fprintf(stderr, "error: cannot open %s\n",
                   tenant_out_path.c_str());
      return 1;
    }
    std::fprintf(tenant_out, "{\n  \"context\": {\n");
    std::fprintf(tenant_out, "    \"build_type\": \"%s\",\n",
                 remi::bench::kBuildType);
    remi::bench::WriteHostContextFields(tenant_out);
    std::fprintf(tenant_out, "    \"workload\": \"%s\",\n",
                 kb_path.empty() ? "dbpedia_like" : kb_path.c_str());
    std::fprintf(tenant_out, "    \"num_facts_per_tenant\": %zu,\n",
                 kb.NumFacts());
    std::fprintf(tenant_out, "    \"open_loop_rps\": %g,\n", tenant_rps);
    std::fprintf(tenant_out, "    \"requests_per_pass\": %zu,\n",
                 tenant_requests);
    std::fprintf(tenant_out,
                 "    \"tenant_pick\": \"zipf (rank r weight 1/(r+1))\",\n");
    std::fprintf(tenant_out,
                 "    \"hot_quota\": \"t0 max_in_flight=1 max_queued=0, "
                 "slot pinned in-process\"\n");
    std::fprintf(tenant_out, "  },\n");
    std::fprintf(tenant_out, "  \"isolation_ok\": %s,\n",
                 isolation_ok ? "true" : "false");
    std::fprintf(tenant_out, "  \"sweep\": [\n");
    for (size_t i = 0; i < tenant_rows.size(); ++i) {
      const TenantPassRow& row = tenant_rows[i];
      std::fprintf(tenant_out,
                   "    {\"tenants\": %zu, \"hot_quota\": %s, "
                   "\"p99_ms\": %.3f, \"qps\": %.1f, \"completed\": %zu, "
                   "\"rejected\": %zu, \"errors\": %zu,\n"
                   "     \"per_tenant\": [",
                   row.tenants, row.hot_quota ? "true" : "false",
                   row.load.p99_ms, row.load.qps, row.load.completed,
                   row.load.rejected, row.load.errors);
      for (size_t t = 0; t < row.tenants; ++t) {
        std::fprintf(tenant_out,
                     "%s{\"kb\": \"%s\", \"completed\": %zu, "
                     "\"rejected\": %zu, \"p99_ms\": %.3f}",
                     t == 0 ? "" : ", ", row.names[t].c_str(),
                     row.load.class_completed[t],
                     row.load.class_rejected[t],
                     row.load.class_p99_ms[t]);
      }
      std::fprintf(tenant_out, "]}%s\n",
                   i + 1 < tenant_rows.size() ? "," : "");
    }
    std::fprintf(tenant_out, "  ]\n}\n");
    std::fclose(tenant_out);
    std::printf("wrote %s\n", tenant_out_path.c_str());
  }

  // ---- Counter identity at quiescence. ----
  const remi::ServiceCounters counters = service->counters();
  const bool counters_consistent =
      counters.admitted == counters.completed_ok +
                               counters.deadline_exceeded +
                               counters.cancelled + counters.failed &&
      counters.in_flight == 0;
  std::printf("\ncounters: admitted=%llu ok=%llu rejected=%llu -> %s\n",
              static_cast<unsigned long long>(counters.admitted),
              static_cast<unsigned long long>(counters.completed_ok),
              static_cast<unsigned long long>(counters.rejected),
              counters_consistent ? "consistent" : "INCONSISTENT");

  // ---- JSON. ----
  const std::string out_path = flags.GetString("out");
  FILE* out = std::fopen(out_path.c_str(), "wb");
  if (out == nullptr) {
    std::fprintf(stderr, "error: cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n  \"context\": {\n");
  std::fprintf(out, "    \"build_type\": \"%s\",\n", remi::bench::kBuildType);
  remi::bench::WriteHostContextFields(out);
  std::fprintf(out, "    \"workload\": \"%s\",\n",
               kb_path.empty() ? "dbpedia_like" : kb_path.c_str());
  std::fprintf(out, "    \"num_facts\": %zu,\n", kb.NumFacts());
  std::fprintf(out, "    \"open_loop_rps\": %g,\n", base.rps);
  std::fprintf(out, "    \"requests_per_point\": %zu,\n",
               base.total_requests);
  std::fprintf(out, "    \"mine_fraction\": %g\n", mine_fraction);
  std::fprintf(out, "  },\n");
  std::fprintf(out,
               "  \"equivalence\": {\"checked\": %zu, "
               "\"byte_identical\": %s},\n",
               equivalence_checked, equivalence_ok ? "true" : "false");
  if (cap_threads.ran && cap_epoll.ran) {
    std::fprintf(
        out,
        "  \"capacity\": {\"rlimit_as_mb\": %lld, "
        "\"threads_connections\": %zu, \"epoll_connections\": %zu, "
        "\"epoll_hit_ramp_cap\": %s, \"epoll_over_threads_x\": %.1f},\n",
        static_cast<long long>(flags.GetInt("capacity-limit-mb")),
        cap_threads.sustained,
        cap_epoll.sustained, cap_epoll.hit_cap ? "true" : "false",
        cap_threads.sustained > 0
            ? static_cast<double>(cap_epoll.sustained) /
                  static_cast<double>(cap_threads.sustained)
            : 0.0);
  }
  std::fprintf(out, "  \"counters_consistent\": %s,\n",
               counters_consistent ? "true" : "false");
  std::fprintf(out, "  \"sweep\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const SweepRow& row = rows[i];
    std::fprintf(out,
                 "    {\"server\": \"%s\", \"wire\": \"%s\", "
                 "\"connections\": %zu, \"p50_ms\": %.3f, "
                 "\"p99_ms\": %.3f, \"qps\": %.1f, \"completed\": %zu, "
                 "\"rejected\": %zu, \"errors\": %zu}%s\n",
                 row.server.c_str(), row.wire.c_str(), row.connections,
                 row.load.p50_ms, row.load.p99_ms, row.load.qps,
                 row.load.completed, row.load.rejected, row.load.errors,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote %s\n", out_path.c_str());

  const bool sweep_ok = std::all_of(
      rows.begin(), rows.end(), [](const SweepRow& r) { return r.load.ok; });
  return equivalence_ok && counters_consistent && sweep_ok && tenants_ok &&
                 isolation_ok
             ? 0
             : 1;
}
