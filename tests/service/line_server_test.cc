// remi_server smoke test: an in-process LineServer on an ephemeral
// loopback port, driven through a real TCP socket — the same code path
// tools/remi_server.cc serves, minus the flag parsing.

#include "service/line_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "service/json_codec.h"
#include "util/io_hooks.h"
#include "util/json.h"

#ifndef REMI_TESTDATA_DIR
#define REMI_TESTDATA_DIR "tests/data"
#endif

namespace remi {
namespace {

/// A blocking line-oriented client over one TCP connection.
class LineClient {
 public:
  explicit LineClient(int port, bool expect_connect = true) {
    fd_ = socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    connected_ = connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                         sizeof(addr)) == 0;
    if (expect_connect) EXPECT_TRUE(connected_);
  }
  ~LineClient() {
    if (fd_ >= 0) close(fd_);
  }

  bool connected() const { return connected_; }

  /// Sends one request line without waiting for the response.
  void Send(const std::string& request) {
    std::string out = request + "\n";
    EXPECT_EQ(send(fd_, out.data(), out.size(), 0),
              static_cast<ssize_t>(out.size()));
  }

  /// Reads one response line (empty + failure on EOF).
  std::string ReadLine() {
    std::string line;
    char c = 0;
    while (recv(fd_, &c, 1, 0) == 1) {
      if (c == '\n') return line;
      line.push_back(c);
    }
    ADD_FAILURE() << "connection closed before a full response line";
    return line;
  }

  /// True iff the server closed its end (clean EOF).
  bool AtEof() {
    char c = 0;
    return recv(fd_, &c, 1, 0) == 0;
  }

  /// Sends one request line and reads one response line.
  std::string RoundTrip(const std::string& request) {
    Send(request);
    return ReadLine();
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
};

class LineServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    KbSpec spec;
    spec.path = std::string(REMI_TESTDATA_DIR) + "/smoke.nt";
    auto service = Service::Open(spec);
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    service_ = std::move(*service);
    server_ = std::make_unique<LineServer>(service_.get());
    ASSERT_TRUE(server_->Start().ok());
    ASSERT_GT(server_->port(), 0);
  }

  void TearDown() override { server_->Stop(); }

  JsonValue Request(LineClient* client, const std::string& line) {
    auto parsed = ParseJson(client->RoundTrip(line));
    EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
    return parsed.ok() ? *parsed : JsonValue();
  }

  std::unique_ptr<Service> service_;
  std::unique_ptr<LineServer> server_;
};

TEST_F(LineServerTest, PingMineSummarizeStatsOverOneConnection) {
  LineClient client(server_->port());
  ASSERT_TRUE(client.connected());

  JsonValue ping = Request(&client, R"({"op":"ping"})");
  EXPECT_EQ(ping.Find("status")->AsString(), "OK");

  JsonValue mine = Request(
      &client,
      R"({"op":"mine","targets":["Berlin"],"verbalize":true})");
  EXPECT_EQ(mine.Find("status")->AsString(), "OK");
  EXPECT_TRUE(mine.Find("found")->AsBool());
  EXPECT_FALSE(mine.Find("expression")->AsString().empty());
  EXPECT_FALSE(mine.Find("verbalization")->AsString().empty());
  EXPECT_GT(mine.Find("cost")->AsNumber(), 0.0);

  JsonValue summary = Request(
      &client, R"({"op":"summarize","entity":"Berlin","k":3})");
  EXPECT_EQ(summary.Find("status")->AsString(), "OK");
  EXPECT_EQ(summary.Find("entity")->AsString(), "Berlin");
  EXPECT_GT(summary.Find("items")->items().size(), 0u);

  JsonValue batch = Request(
      &client,
      R"({"op":"batch_mine","target_sets":[["Berlin"],["Hamburg"]]})");
  EXPECT_EQ(batch.Find("status")->AsString(), "OK");
  EXPECT_EQ(batch.Find("results")->items().size(), 2u);

  JsonValue candidates = Request(
      &client, R"({"op":"candidates","targets":["Berlin"],"limit":3})");
  EXPECT_EQ(candidates.Find("status")->AsString(), "OK");
  EXPECT_EQ(candidates.Find("candidates")->items().size(), 3u);

  JsonValue stats = Request(&client, R"({"op":"stats"})");
  EXPECT_EQ(stats.Find("status")->AsString(), "OK");
  // ping/stats bypass mining; mine + summarize + batch + candidates ran.
  EXPECT_GE(stats.Find("admitted")->AsNumber(), 3.0);
  EXPECT_GT(stats.Find("facts")->AsNumber(), 0.0);
}

TEST_F(LineServerTest, ServesConcurrentConnections) {
  LineClient a(server_->port());
  LineClient b(server_->port());
  ASSERT_TRUE(a.connected());
  ASSERT_TRUE(b.connected());
  JsonValue ra =
      Request(&a, R"({"op":"mine","targets":["Berlin"]})");
  JsonValue rb =
      Request(&b, R"({"op":"mine","targets":["Hamburg"]})");
  EXPECT_EQ(ra.Find("status")->AsString(), "OK");
  EXPECT_EQ(rb.Find("status")->AsString(), "OK");
}

TEST_F(LineServerTest, ErrorsAreInBandAndConnectionSurvives) {
  LineClient client(server_->port());
  ASSERT_TRUE(client.connected());

  JsonValue malformed = Request(&client, "{not json");
  EXPECT_EQ(malformed.Find("status")->AsString(), "ParseError");

  JsonValue unknown_op = Request(&client, R"({"op":"fly"})");
  EXPECT_EQ(unknown_op.Find("status")->AsString(), "InvalidArgument");

  JsonValue unknown_target = Request(
      &client, R"({"op":"mine","targets":["Atlantis"]})");
  EXPECT_EQ(unknown_target.Find("status")->AsString(), "NotFound");

  // The connection still answers after three error responses.
  JsonValue ping = Request(&client, R"({"op":"ping"})");
  EXPECT_EQ(ping.Find("status")->AsString(), "OK");
}

TEST_F(LineServerTest, RejectsOutOfRangeNumbersInsteadOfCasting) {
  // 1e999 parses to +inf; casting it to size_t/TermId would be UB, so
  // the codec must reject it as InvalidArgument (covers ReadSize and the
  // numeric-id path of ReadTargetSpec).
  for (const char* line :
       {R"({"op":"mine","targets":["Berlin"],"max_exceptions":1e999})",
        R"({"op":"mine","targets":[1e999]})",
        R"({"op":"mine","targets":[1.5]})",
        R"({"op":"mine","targets":[99999999999]})",
        R"({"op":"summarize","entity":"Berlin","k":-1})",
        R"({"op":"mine","targets":["Berlin"],"deadline_ms":1e999})",
        R"({"op":"mine","targets":["Berlin"],"deadline_ms":1e13})"}) {
    auto response = ParseJson(HandleRequestLine(service_.get(), line));
    ASSERT_TRUE(response.ok()) << line;
    EXPECT_EQ(response->Find("status")->AsString(), "InvalidArgument")
        << line;
  }
}

TEST_F(LineServerTest, DeadlineTravelsOverTheWire) {
  LineClient client(server_->port());
  ASSERT_TRUE(client.connected());
  // deadline_ms of 0.000001 (sub-microsecond) expires before mining.
  JsonValue response = Request(
      &client,
      R"({"op":"mine","targets":["Berlin"],"deadline_ms":0.000001})");
  EXPECT_EQ(response.Find("status")->AsString(), "DeadlineExceeded");
}

TEST_F(LineServerTest, ReloadVerbSwapsGenerationsInBand) {
  LineClient client(server_->port());
  ASSERT_TRUE(client.connected());

  // Good reload: re-open the same smoke KB as generation 2.
  const std::string smoke = std::string(REMI_TESTDATA_DIR) + "/smoke.nt";
  JsonValue good = Request(
      &client, std::string(R"({"op":"reload","path":")") + smoke + "\"}");
  EXPECT_EQ(good.Find("status")->AsString(), "OK");
  EXPECT_EQ(good.Find("generation")->AsNumber(), 2.0);
  EXPECT_GT(good.Find("facts")->AsNumber(), 0.0);

  // Corrupt candidate: valid magic, garbage body. Fail closed in-band —
  // the connection survives and generation 2 keeps serving.
  const std::string corrupt_path =
      ::testing::TempDir() + "/line_server_corrupt.rkf2";
  {
    std::ofstream out(corrupt_path, std::ios::binary | std::ios::trunc);
    out << "RKF2 this is not a snapshot";
  }
  JsonValue corrupt = Request(
      &client,
      std::string(R"({"op":"reload","path":")") + corrupt_path + "\"}");
  EXPECT_EQ(corrupt.Find("status")->AsString(), "Corruption");
  EXPECT_EQ(corrupt.Find("generation")->AsNumber(), 2.0);

  // Still mining, and the stats op reports the registry counters.
  JsonValue mine =
      Request(&client, R"({"op":"mine","targets":["Berlin"]})");
  EXPECT_EQ(mine.Find("status")->AsString(), "OK");
  JsonValue stats = Request(&client, R"({"op":"stats"})");
  EXPECT_EQ(stats.Find("generation")->AsNumber(), 2.0);
  EXPECT_EQ(stats.Find("reloads_ok")->AsNumber(), 1.0);
  EXPECT_EQ(stats.Find("reloads_rejected")->AsNumber(), 1.0);
  EXPECT_GE(stats.Find("active_generations")->AsNumber(), 1.0);
  std::remove(corrupt_path.c_str());
}

TEST_F(LineServerTest, AdmissionOverflowCarriesRetryAfterHint) {
  // A service with one never-queued slot, occupied by a long cancellable
  // batch: the next wire request must come back ResourceExhausted with
  // the retry_after_ms back-off hint.
  KbSpec spec;
  spec.path = std::string(REMI_TESTDATA_DIR) + "/smoke.nt";
  ServiceOptions options;
  options.max_in_flight = 1;
  options.max_queued = 0;
  auto opened = Service::Open(spec, options);
  ASSERT_TRUE(opened.ok());
  Service* service = opened->get();

  CancellationSource source;
  BatchMineRequest slow;
  for (int i = 0; i < 4096; ++i) {
    TargetSpec target;
    target.names = {"Berlin"};
    slow.target_sets.push_back(target);
  }
  slow.control.cancel = source.token();
  std::thread occupant([&] { (void)service->BatchMine(slow); });
  while (service->counters().in_flight == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  auto response = ParseJson(HandleRequestLine(
      service, R"({"op":"mine","targets":["Berlin"]})"));
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->Find("status")->AsString(), "ResourceExhausted");
  ASSERT_NE(response->Find("retry_after_ms"), nullptr);
  EXPECT_GT(response->Find("retry_after_ms")->AsNumber(), 0.0);

  source.RequestCancellation();
  occupant.join();
}

TEST_F(LineServerTest, RetryHintGrowsWithQueueDepth) {
  // The hint is derived from admission state, not a constant: at equal
  // jitter, deeper queues must produce strictly larger hints until the
  // cap, and the jitter band keeps any hint within [0.75x, 1.25x) base.
  uint64_t previous = 0;
  for (size_t queued = 0; queued < 64; ++queued) {
    const uint64_t hint = Service::ComputeRetryAfterMs(
        queued, /*max_in_flight=*/4, /*mean_service_ms=*/40.0,
        /*jitter256=*/128);
    EXPECT_GT(hint, previous) << "queued=" << queued;
    previous = hint;
  }
  // Cold start (no completions yet) still floors at a sane minimum.
  const uint64_t cold = Service::ComputeRetryAfterMs(0, 4, 0.0, 128);
  EXPECT_GE(cold, 25u);
  // The cap bounds even absurd backlogs.
  const uint64_t capped = Service::ComputeRetryAfterMs(
      1u << 20, 1, 5000.0, 255);
  EXPECT_LE(capped, 13000u);
  // Jitter spreads retries instead of synchronizing them.
  const uint64_t low = Service::ComputeRetryAfterMs(8, 4, 40.0, 0);
  const uint64_t high = Service::ComputeRetryAfterMs(8, 4, 40.0, 255);
  EXPECT_LT(low, high);
}

TEST_F(LineServerTest, OversizeCompleteLinePoisonsTheConnection) {
  // The historical check only bounded the *partial* tail, so an oversize
  // line whose newline arrived in the same recv() slipped through. The
  // limit must apply to complete lines too.
  KbSpec spec;
  spec.path = std::string(REMI_TESTDATA_DIR) + "/smoke.nt";
  auto opened = Service::Open(spec);
  ASSERT_TRUE(opened.ok());
  LineServerOptions options;
  options.port = 0;
  options.max_line_bytes = 128;
  LineServer server(opened->get(), options);
  ASSERT_TRUE(server.Start().ok());

  LineClient client(server.port());
  ASSERT_TRUE(client.connected());
  std::string oversize = R"({"op":"ping","pad":")";
  oversize += std::string(512, 'x');
  oversize += "\"}";
  client.Send(oversize);  // appends the newline: a complete line
  auto parsed = ParseJson(client.ReadLine());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->Find("status")->AsString(), "InvalidArgument");
  EXPECT_TRUE(client.AtEof());
  server.Stop();
}

TEST_F(LineServerTest, DrainFlushesBufferedResponsesThenCloses) {
  LineClient client(server_->port());
  ASSERT_TRUE(client.connected());
  EXPECT_EQ(Request(&client, R"({"op":"ping"})").Find("status")->AsString(),
            "OK");

  // A request already on the wire when Drain() starts must still be
  // answered; afterwards the server closes its end and refuses new
  // connections.
  client.Send(R"({"op":"mine","targets":["Berlin"]})");
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_TRUE(server_->Drain(/*grace_seconds=*/10.0));

  auto parsed = ParseJson(client.ReadLine());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->Find("status")->AsString(), "OK");
  EXPECT_TRUE(client.AtEof());

  LineClient late(server_->port(), /*expect_connect=*/false);
  EXPECT_FALSE(late.connected());
}

/// Passes every call through, remembers the last fd the server accepted
/// and records each server-side send.
class RecordAcceptsAndSends : public io::IoHooks {
 public:
  int Accept4(int fd, struct sockaddr* addr, socklen_t* addrlen,
              int flags) override {
    const int accepted = io::IoHooks::Accept4(fd, addr, addrlen, flags);
    if (accepted >= 0) last_accepted_.store(accepted);
    return accepted;
  }
  ssize_t Send(int fd, const void* buf, size_t len, int flags) override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      sends_.emplace_back(static_cast<const char*>(buf), len);
    }
    return io::IoHooks::Send(fd, buf, len, flags);
  }

  int last_accepted() const { return last_accepted_.load(); }
  std::vector<std::string> sends() const {
    std::lock_guard<std::mutex> lock(mu_);
    return sends_;
  }

 private:
  std::atomic<int> last_accepted_{-1};
  mutable std::mutex mu_;
  std::vector<std::string> sends_;
};

TEST_F(LineServerTest, AcceptedSocketsDisableNagleAndAnswerInOneSend) {
  // The fixture's server is already parked inside the pass-through
  // accept, so this test installs the hooks before starting its own.
  RecordAcceptsAndSends record;
  io::ScopedHooks scoped(&record);
  LineServer server(service_.get());
  ASSERT_TRUE(server.Start().ok());

  LineClient client(server.port());
  ASSERT_TRUE(client.connected());
  const std::string response = client.RoundTrip(R"({"op":"ping"})");
  auto parsed = ParseJson(response);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->Find("status")->AsString(), "OK");

  const int server_fd = record.last_accepted();
  ASSERT_GE(server_fd, 0);
  int nodelay = 0;
  socklen_t len = sizeof(nodelay);
  ASSERT_EQ(getsockopt(server_fd, IPPROTO_TCP, TCP_NODELAY, &nodelay, &len),
            0);
  EXPECT_EQ(nodelay, 1);

  // One response, one send, newline included: a trailing 1-byte "\n"
  // segment is what Nagle would hold back.
  const std::vector<std::string> sends = record.sends();
  ASSERT_EQ(sends.size(), 1u);
  EXPECT_EQ(sends[0], response + "\n");
  server.Stop();
}

TEST_F(LineServerTest, StopUnblocksOpenConnections) {
  auto client = std::make_unique<LineClient>(server_->port());
  ASSERT_TRUE(client->connected());
  JsonValue ping = Request(client.get(), R"({"op":"ping"})");
  EXPECT_EQ(ping.Find("status")->AsString(), "OK");
  server_->Stop();  // must join the connection thread without hanging
}

}  // namespace
}  // namespace remi
