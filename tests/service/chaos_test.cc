// Chaos harness: a LIVE multi-tenant Service behind a real EventServer,
// subjected to the FaultInjector's full OS failure surface (EINTR/EAGAIN
// storms, short reads/writes, injected disconnects, accept-time fd
// exhaustion, mmap refusals) while reloads run concurrently.
//
// The contract under chaos, asserted at quiescence:
//   * liveness — every blocking client read completes or sees a clean
//     EOF within a bounded time; a timeout is a hang and fails the test;
//   * byte-identity — a response line that ARRIVES is byte-identical to
//     the fault-free baseline (faults may kill a connection, never
//     corrupt a surviving response);
//   * exact accounting — per-tenant counters sum to the global counters
//     and admitted == completed_ok + deadline_exceeded + cancelled +
//     failed, with in_flight back to zero.
//
// CI runs this file under TSan (filter Chaos*) and the longer seeded
// variant as bench/chaos_soak.cc under ASan with leak detection.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "case_temp_path.h"
#include "kb/knowledge_base.h"
#include "service/event_server.h"
#include "service/service.h"
#include "util/io_hooks.h"

namespace remi {
namespace {

/// Small two-community KB with labels, enough for deterministic
/// summarize output on a named entity.
KnowledgeBase ChaosKb() {
  Dictionary dict;
  std::vector<Triple> triples;
  const TermId label_pred = dict.InternIri(kRdfsLabelIri);
  const TermId type_pred = dict.InternIri(kRdfTypeIri);
  const TermId cls = dict.InternIri("http://chaos.example/class/Node");
  const TermId link = dict.InternIri("http://chaos.example/linksTo");
  std::vector<TermId> nodes;
  for (int i = 0; i < 24; ++i) {
    const TermId node =
        dict.InternIri("http://chaos.example/Node" + std::to_string(i));
    nodes.push_back(node);
    triples.push_back(Triple{node, type_pred, cls});
    triples.push_back(Triple{
        node, label_pred,
        dict.Intern(TermKind::kLiteral,
                    "\"node " + std::to_string(i) + "\"@en")});
  }
  for (int i = 0; i < 24; ++i) {
    triples.push_back(Triple{nodes[i], link, nodes[(i + 1) % 24]});
    triples.push_back(Triple{nodes[i], link, nodes[(i + 7) % 24]});
  }
  return KnowledgeBase::Build(std::move(dict), std::move(triples));
}

/// A blocking NDJSON client on raw syscalls — deliberately NOT routed
/// through io::Hooks(), so it stays clean while the server is faulted.
class RawClient {
 public:
  enum class ReadResult { kLine, kEof, kTimeout };

  explicit RawClient(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return;
    // Bounded reads: a stuck server must surface as kTimeout, not as a
    // hung test binary.
    timeval tv{};
    tv.tv_sec = 10;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    connected_ = ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                           sizeof(addr)) == 0;
  }
  ~RawClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool connected() const { return connected_; }

  bool SendLine(const std::string& request) {
    const std::string wire = request + "\n";
    size_t sent = 0;
    while (sent < wire.size()) {
      const ssize_t n =
          ::send(fd_, wire.data() + sent, wire.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) return false;  // injected disconnect closed our peer
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  ReadResult ReadLine(std::string* line) {
    line->clear();
    char c = 0;
    for (;;) {
      const ssize_t n = ::recv(fd_, &c, 1, 0);
      if (n == 1) {
        if (c == '\n') return ReadResult::kLine;
        line->push_back(c);
        continue;
      }
      if (n == 0 || errno == ECONNRESET) return ReadResult::kEof;
      if (errno == EINTR) continue;
      return ReadResult::kTimeout;  // SO_RCVTIMEO fired: the server hung
    }
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
};

class ChaosServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    image_ = ChaosKb().SerializeSnapshot();
    default_path_ = CaseTempPath("chaos_default", ".rkf2");
    alpha_path_ = CaseTempPath("chaos_alpha", ".rkf2");
    WriteImage(default_path_);
    WriteImage(alpha_path_);

    KbSpec spec;
    spec.path = default_path_;
    auto service = Service::Open(spec);
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    service_ = std::move(*service);
    KbSpec alpha;
    alpha.path = alpha_path_;
    ASSERT_TRUE(service_->AttachKb("alpha", alpha).ok());

    server_ =
        std::make_unique<EventServer>(service_.get(), EventServerOptions{});
    ASSERT_TRUE(server_->Start().ok());
  }

  void TearDown() override {
    if (server_ != nullptr) server_->Stop();
    std::remove(default_path_.c_str());
    std::remove(alpha_path_.c_str());
    for (const std::string& path : reload_paths_) std::remove(path.c_str());
  }

  void WriteImage(const std::string& path) {
    FILE* out = std::fopen(path.c_str(), "wb");
    ASSERT_NE(out, nullptr) << path;
    ASSERT_EQ(std::fwrite(image_.data(), 1, image_.size(), out),
              image_.size());
    ASSERT_EQ(std::fclose(out), 0);
  }

  /// The request mix: one deterministic line per entry, verbatim. Mine
  /// responses carry wall-clock timings, so byte-identity uses the
  /// timing-free verbs only.
  static const std::vector<std::string>& Requests() {
    static const std::vector<std::string> requests = {
        R"({"op":"ping"})",
        R"({"op":"summarize","entity":"Node3","k":3})",
        R"({"op":"summarize","entity":"Node3","k":3,"kb":"alpha"})",
        R"({"op":"candidates","targets":["Node5"],"limit":2})",
    };
    return requests;
  }

  /// Fault-free baselines, one response line per request.
  std::vector<std::string> CollectBaselines() {
    std::vector<std::string> baselines;
    RawClient client(server_->port());
    EXPECT_TRUE(client.connected());
    for (const std::string& request : Requests()) {
      EXPECT_TRUE(client.SendLine(request));
      std::string line;
      EXPECT_EQ(client.ReadLine(&line), RawClient::ReadResult::kLine);
      baselines.push_back(line);
    }
    return baselines;
  }

  /// Sums every tenant's slice and checks it reconciles exactly with the
  /// global counters — under chaos nothing may be double- or un-counted.
  void ExpectExactAccounting() {
    const ServiceCounters global = service_->counters();
    TenantCounters sum;
    for (const KbInfo& info : service_->ListKbs()) {
      if (!info.open) continue;
      auto slice = service_->CountersFor(info.name);
      ASSERT_TRUE(slice.ok()) << info.name;
      sum.admitted += slice->admitted;
      sum.completed_ok += slice->completed_ok;
      sum.deadline_exceeded += slice->deadline_exceeded;
      sum.cancelled += slice->cancelled;
      sum.rejected += slice->rejected;
      sum.failed += slice->failed;
      sum.shed_expired_in_queue += slice->shed_expired_in_queue;
      sum.in_flight += slice->in_flight;
    }
    EXPECT_EQ(sum.admitted, global.admitted);
    EXPECT_EQ(sum.completed_ok, global.completed_ok);
    EXPECT_EQ(sum.deadline_exceeded, global.deadline_exceeded);
    EXPECT_EQ(sum.cancelled, global.cancelled);
    EXPECT_EQ(sum.rejected, global.rejected);
    EXPECT_EQ(sum.failed, global.failed);
    EXPECT_EQ(sum.shed_expired_in_queue, global.shed_expired_in_queue);
    EXPECT_EQ(sum.in_flight, 0u);
    EXPECT_EQ(global.in_flight, 0u);
    // The admission ledger balances: every admitted request reached
    // exactly one terminal outcome.
    EXPECT_EQ(global.admitted, global.completed_ok +
                                   global.deadline_exceeded +
                                   global.cancelled + global.failed);
    // Quiescent epochs: nothing pinned, nothing leaked.
    EXPECT_EQ(global.active_generations, global.tenants_active);
  }

  std::string image_;
  std::string default_path_;
  std::string alpha_path_;
  std::vector<std::string> reload_paths_;
  /// Declared before the server so it is destroyed after it: the loop
  /// thread may still be inside a hooked call (a blocking epoll_wait)
  /// when a test's ScopedHooks uninstalls the injector, so the injector
  /// must outlive the thread, which TearDown joins.
  std::unique_ptr<io::FaultInjector> injector_;
  std::unique_ptr<Service> service_;
  std::unique_ptr<EventServer> server_;
};

TEST_F(ChaosServiceTest, FaultStormPreservesLivenessIdentityAndAccounting) {
  const std::vector<std::string> baselines = CollectBaselines();
  ASSERT_EQ(baselines.size(), Requests().size());

  std::atomic<size_t> delivered{0};
  std::atomic<size_t> divergent{0};
  std::atomic<size_t> severed{0};
  std::atomic<size_t> hung{0};
  std::atomic<size_t> reloads_ok{0};
  {
    io::FaultProfile profile;
    profile.seed = 20260808;
    profile.eintr_probability = 0.05;
    profile.eagain_probability = 0.05;
    profile.short_write_probability = 0.2;
    profile.short_read_probability = 0.2;
    profile.disconnect_probability = 0.01;
    profile.accept_resource_probability = 0.02;
    profile.mmap_fail_probability = 0.2;
    injector_ = std::make_unique<io::FaultInjector>(profile);
    io::ScopedHooks scoped(injector_.get());

    constexpr int kClients = 4;
    constexpr int kRoundsPerClient = 25;
    std::vector<std::thread> threads;
    for (int t = 0; t < kClients; ++t) {
      threads.emplace_back([&] {
        for (int round = 0; round < kRoundsPerClient; ++round) {
          RawClient client(server_->port());
          if (!client.connected()) continue;  // injected EMFILE burst
          for (size_t i = 0; i < Requests().size(); ++i) {
            if (!client.SendLine(Requests()[i])) {
              severed.fetch_add(1, std::memory_order_relaxed);
              break;
            }
            std::string line;
            const auto result = client.ReadLine(&line);
            if (result == RawClient::ReadResult::kEof) {
              // An injected disconnect killed this connection; the
              // request did not survive, so no identity claim applies.
              severed.fetch_add(1, std::memory_order_relaxed);
              break;
            }
            if (result == RawClient::ReadResult::kTimeout) {
              hung.fetch_add(1, std::memory_order_relaxed);
              break;
            }
            delivered.fetch_add(1, std::memory_order_relaxed);
            if (line != baselines[i]) {
              divergent.fetch_add(1, std::memory_order_relaxed);
            }
          }
        }
      });
    }
    // Reloads concurrent with the faulted traffic: the reload path runs
    // under the same injector (mmap refusals exercise the read
    // fallback), and both tenants keep swapping while clients mine.
    threads.emplace_back([&] {
      for (int i = 0; i < 6; ++i) {
        const std::string path =
            CaseTempPath("chaos_reload_" + std::to_string(i), ".rkf2");
        WriteImage(path);
        reload_paths_.push_back(path);
        ReloadKbRequest reload;
        reload.spec.path = path;
        if (i % 2 == 1) reload.kb = "alpha";
        const ReloadKbResponse response = service_->ReloadKb(reload);
        if (response.status.ok()) {
          reloads_ok.fetch_add(1, std::memory_order_relaxed);
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
    });
    for (std::thread& thread : threads) thread.join();
  }

  EXPECT_EQ(hung.load(), 0u) << "a faulted connection stopped the server";
  EXPECT_EQ(divergent.load(), 0u)
      << "a surviving response diverged from the fault-free baseline";
  EXPECT_GT(delivered.load(), 0u) << "the storm let nothing through";
  // The same image was reloaded every time; with the read fallback
  // behind mmap refusals, every reload must have published.
  EXPECT_EQ(reloads_ok.load(), 6u);

  // The hooks are gone: a clean client gets baseline answers again.
  RawClient after(server_->port());
  ASSERT_TRUE(after.connected());
  ASSERT_TRUE(after.SendLine(Requests()[0]));
  std::string line;
  ASSERT_EQ(after.ReadLine(&line), RawClient::ReadResult::kLine);
  EXPECT_EQ(line, baselines[0]);

  ExpectExactAccounting();
}

TEST_F(ChaosServiceTest, AcceptExhaustionStormLeavesTheListenerAlive) {
  const std::vector<std::string> baselines = CollectBaselines();
  size_t refused = 0;
  {
    io::FaultProfile profile;
    profile.seed = 99;
    profile.accept_resource_probability = 0.5;
    injector_ = std::make_unique<io::FaultInjector>(profile);
    io::ScopedHooks scoped(injector_.get());
    // Under an EMFILE/ENFILE/ENOMEM storm half the accepts fail; the
    // loop must survive every one of them and keep accepting the rest.
    for (int i = 0; i < 8; ++i) {
      RawClient client(server_->port());
      if (!client.connected()) {
        ++refused;
        continue;
      }
      if (!client.SendLine(Requests()[0])) continue;
      std::string line;
      const auto result = client.ReadLine(&line);
      if (result == RawClient::ReadResult::kLine) {
        EXPECT_EQ(line, baselines[0]);
      }
    }
    EXPECT_GT(injector_->injected(io::IoOp::kAccept), 0u);
  }

  // The listener survived the storm: a clean connect works first try.
  RawClient after(server_->port());
  ASSERT_TRUE(after.connected());
  ASSERT_TRUE(after.SendLine(Requests()[0]));
  std::string line;
  ASSERT_EQ(after.ReadLine(&line), RawClient::ReadResult::kLine);
  EXPECT_EQ(line, baselines[0]);
  EXPECT_GT(service_->counters().accept_errors_retried, 0u);
  EXPECT_EQ(service_->counters().accept_errors_fatal, 0u);
}

}  // namespace
}  // namespace remi
