#include "client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstring>
#include <deque>
#include <string_view>
#include <unordered_map>

#include "service/frame_codec.h"
#include "service/socket_util.h"
#include "trace.h"
#include "util.h"

namespace remibench {

const char* KindName(Kind kind) {
  switch (kind) {
    case Kind::kPing: return "ping";
    case Kind::kMine: return "mine";
    case Kind::kSummarize: return "summarize";
    case Kind::kCandidates: return "candidates";
    case Kind::kReload: return "reload";
    case Kind::kStats: return "stats";
  }
  return "?";
}

uint8_t KindVerb(Kind kind) {
  using remi::FrameVerb;
  switch (kind) {
    case Kind::kPing: return static_cast<uint8_t>(FrameVerb::kPing);
    case Kind::kMine: return static_cast<uint8_t>(FrameVerb::kMine);
    case Kind::kSummarize: return static_cast<uint8_t>(FrameVerb::kSummarize);
    case Kind::kCandidates:
      return static_cast<uint8_t>(FrameVerb::kCandidates);
    case Kind::kReload: return static_cast<uint8_t>(FrameVerb::kReload);
    case Kind::kStats: return static_cast<uint8_t>(FrameVerb::kCounters);
  }
  return 0;
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
  // A latency-sensitive client disables Nagle on its own side.
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

namespace {

bool SendAll(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t n = send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (n <= 0) return false;
    data.remove_prefix(static_cast<size_t>(n));
  }
  return true;
}

}  // namespace

std::string ProbeNdjson(int port, const std::string& payload) {
  const int fd = ConnectLoopback(port);
  if (fd < 0) return "";
  std::string response;
  if (SendAll(fd, payload + "\n")) {
    char c = 0;
    while (recv(fd, &c, 1, 0) == 1 && c != '\n') response.push_back(c);
  }
  close(fd);
  return response;
}

std::string ProbeFrame(int port, Kind kind, const std::string& payload) {
  const int fd = ConnectLoopback(port);
  if (fd < 0) return "";
  std::string wire;
  remi::AppendFrame(KindVerb(kind), 1, payload, &wire);
  std::string response;
  if (SendAll(fd, wire)) {
    remi::FrameDecoder decoder(64u << 20);
    char chunk[16384];
    for (;;) {
      remi::FrameView frame;
      const auto next = decoder.Next(&frame);
      if (next == remi::FrameDecoder::Result::kFrame) {
        response.assign(frame.payload.data(), frame.payload.size());
        break;
      }
      if (next == remi::FrameDecoder::Result::kError) break;
      const ssize_t n = recv(fd, chunk, sizeof(chunk), 0);
      if (n <= 0) break;
      decoder.Feed(std::string_view(chunk, static_cast<size_t>(n)));
    }
  }
  close(fd);
  return response;
}

namespace {

struct ClientConn {
  int fd = -1;
  bool binary = true;
  bool dead = false;
  std::string out;
  size_t out_off = 0;
  remi::FrameDecoder decoder{64u << 20};
  std::string lines;
  std::deque<size_t> fifo;                     ///< NDJSON: plan indices
  std::unordered_map<uint64_t, size_t> by_id;  ///< binary: id -> index
};

void Flush(ClientConn* conn) {
  while (conn->out_off < conn->out.size()) {
    const ssize_t n = send(conn->fd, conn->out.data() + conn->out_off,
                           conn->out.size() - conn->out_off,
                           MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n > 0) {
      conn->out_off += static_cast<size_t>(n);
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return;
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      conn->dead = true;
      return;
    }
  }
  conn->out.clear();
  conn->out_off = 0;
}

}  // namespace

GeneratorPriority::GeneratorPriority() {
  // Linux applies nice and affinity per thread: only the calling thread
  // changes.
  cpu_set_t old_cpus;
  if (sched_getaffinity(0, sizeof(old_cpus), &old_cpus) != 0) return;
  old_mask_.assign(reinterpret_cast<unsigned char*>(&old_cpus),
                   reinterpret_cast<unsigned char*>(&old_cpus) +
                       sizeof(old_cpus));
  errno = 0;
  old_nice_ = getpriority(PRIO_PROCESS, 0);
  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  CPU_SET(static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN)) - 1, &cpus);
  raised_ = sched_setaffinity(0, sizeof(cpus), &cpus) == 0 &&
            setpriority(PRIO_PROCESS, 0, -10) == 0;
}

GeneratorPriority::~GeneratorPriority() {
  if (old_mask_.empty()) return;
  cpu_set_t cpus;
  std::memcpy(&cpus, old_mask_.data(), sizeof(cpus));
  sched_setaffinity(0, sizeof(cpus), &cpus);
  setpriority(PRIO_PROCESS, 0, old_nice_);
}

std::vector<Outcome> RunOpenLoop(const GeneratorConfig& config,
                                 const std::vector<Planned>& plan) {
  std::vector<Outcome> outcomes(plan.size());
  std::vector<ClientConn> conns(config.binary.size());
  for (size_t i = 0; i < conns.size(); ++i) {
    conns[i].binary = config.binary[i];
    conns[i].fd = ConnectLoopback(config.port);
    if (conns[i].fd < 0 || !remi::SetNonBlocking(conns[i].fd)) {
      conns[i].dead = true;
    }
  }
  auto record = [&](size_t index, std::string_view doc, double arrival) {
    Outcome& o = outcomes[index];
    o.arrival = arrival;
    o.status = std::string(FindStatus(doc));
    o.queue_wait_s = FindJsonNumber(doc, "queue_wait_seconds");
    o.mine_s = FindJsonNumber(doc, "mine_seconds");
    const Kind kind = plan[index].kind;
    if (kind == Kind::kStats || kind == Kind::kReload) o.body = doc;
    if (config.tracer != nullptr) {
      const int64_t span = config.tracer->Add("client.request", o.scheduled,
                                              arrival, -1, index);
      // Stage positions are not on the wire, only their lengths: place
      // them back to back ending at the arrival.
      const double mine_start = arrival - o.mine_s;
      config.tracer->Add("service.queue_wait", mine_start - o.queue_wait_s,
                         mine_start, span, index);
      config.tracer->Add("service.mine", mine_start, arrival, span, index);
    }
  };

  const double start = NowSeconds() + 0.02;
  size_t next = 0;
  size_t answered = 0;
  double last_send = start;
  std::vector<pollfd> pfds(conns.size());
  char chunk[65536];
  while (answered < plan.size()) {
    double now = NowSeconds();
    while (next < plan.size() && start + plan[next].at <= now) {
      const Planned& p = plan[next];
      Outcome& o = outcomes[next];
      o.scheduled = start + p.at;
      ClientConn& conn = conns[static_cast<size_t>(p.conn)];
      if (conn.dead) {
        ++answered;  // undeliverable: stays unanswered
      } else {
        if (conn.binary) {
          remi::AppendFrame(KindVerb(p.kind), next, p.payload, &conn.out);
          conn.by_id.emplace(next, next);
        } else {
          conn.out += p.payload;
          conn.out += '\n';
          conn.fifo.push_back(next);
        }
        o.sent = now;
        Flush(&conn);
      }
      last_send = now;
      ++next;
    }
    if (next >= plan.size() && now - last_send > config.grace_seconds) break;

    double wait = 0.05;
    if (next < plan.size()) wait = std::min(wait, start + plan[next].at - now);
    wait = std::max(wait, 0.0);
    for (size_t i = 0; i < conns.size(); ++i) {
      pfds[i].fd = conns[i].dead ? -1 : conns[i].fd;
      pfds[i].events = static_cast<short>(
          POLLIN | (conns[i].out_off < conns[i].out.size() ? POLLOUT : 0));
      pfds[i].revents = 0;
    }
    timespec ts;
    ts.tv_sec = static_cast<time_t>(wait);
    ts.tv_nsec = static_cast<long>((wait - std::floor(wait)) * 1e9);
    if (ppoll(pfds.data(), pfds.size(), &ts, nullptr) < 0 && errno != EINTR) {
      break;
    }
    for (size_t i = 0; i < conns.size(); ++i) {
      ClientConn& conn = conns[i];
      if (conn.dead) continue;
      if (pfds[i].revents & POLLOUT) Flush(&conn);
      if ((pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      for (;;) {
        const ssize_t n = recv(conn.fd, chunk, sizeof(chunk), MSG_DONTWAIT);
        if (n > 0) {
          const double arrival = NowSeconds();
          if (conn.binary) {
            conn.decoder.Feed(std::string_view(chunk, static_cast<size_t>(n)));
            remi::FrameView frame;
            while (conn.decoder.Next(&frame) ==
                   remi::FrameDecoder::Result::kFrame) {
              const auto it = conn.by_id.find(frame.request_id);
              if (it == conn.by_id.end()) continue;
              record(it->second, frame.payload, arrival);
              conn.by_id.erase(it);
              ++answered;
            }
          } else {
            conn.lines.append(chunk, static_cast<size_t>(n));
            size_t pos = 0;
            for (size_t nl; (nl = conn.lines.find('\n', pos)) !=
                            std::string::npos;
                 pos = nl + 1) {
              if (conn.fifo.empty()) continue;
              record(conn.fifo.front(),
                     std::string_view(conn.lines).substr(pos, nl - pos),
                     arrival);
              conn.fifo.pop_front();
              ++answered;
            }
            conn.lines.erase(0, pos);
          }
        } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
          break;
        } else if (n < 0 && errno == EINTR) {
          continue;
        } else {
          conn.dead = true;
          answered += conn.binary ? conn.by_id.size() : conn.fifo.size();
          conn.by_id.clear();
          conn.fifo.clear();
          break;
        }
      }
    }
  }
  for (auto& conn : conns) {
    if (conn.fd >= 0) close(conn.fd);
  }
  return outcomes;
}

}  // namespace remibench
