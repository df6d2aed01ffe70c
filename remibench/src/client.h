// Wire client of the REMI benchmark: blocking probe round trips and the
// single-threaded open-loop generator that drives a running EventServer
// over loopback TCP with binary frames and NDJSON lines.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace remibench {

class Tracer;

/// Request kinds the workloads send (the NDJSON "op" / frame verb).
enum class Kind : uint8_t { kPing, kMine, kSummarize, kCandidates, kReload, kStats };

const char* KindName(Kind kind);
uint8_t KindVerb(Kind kind);

/// A TCP connection to 127.0.0.1:`port` with TCP_NODELAY set; -1 on
/// failure.
int ConnectLoopback(int port);

/// One blocking round trip on a fresh connection: the response document
/// ("" on failure).
std::string ProbeNdjson(int port, const std::string& payload);
std::string ProbeFrame(int port, Kind kind, const std::string& payload);

/// One request of an open-loop plan.
struct Planned {
  double at = 0.0;  ///< seconds after the plan starts
  int conn = 0;     ///< index into GeneratorConfig::binary
  Kind kind = Kind::kPing;
  std::string payload;
  int tenant = 0;   ///< workload-defined label (tenant index)
  int tag = -1;     ///< workload-defined label (set index)
};

/// What happened to one planned request.
struct Outcome {
  double scheduled = 0.0;  ///< absolute due time
  double sent = -1.0;      ///< when it was handed to the socket buffer
  double arrival = -1.0;   ///< when its response was read; -1 = none
  std::string status;      ///< response "status" ("" = no response)
  double queue_wait_s = 0.0;
  double mine_s = 0.0;
  std::string body;        ///< full response (stats/reload/probe kinds)

  bool answered() const { return arrival >= 0.0; }
  bool ok() const { return status == "OK"; }
  double latency_ms() const { return (arrival - scheduled) * 1e3; }
  double late_ms() const { return (sent - scheduled) * 1e3; }
};

struct GeneratorConfig {
  int port = 0;
  /// One entry per connection: true = binary frames, false = NDJSON.
  std::vector<bool> binary;
  /// Seconds to wait for stragglers after the last scheduled send.
  double grace_seconds = 10.0;
  /// When set, every response records a `client.request` span with
  /// `service.queue_wait` and `service.mine` children from the stage
  /// seconds the response reports.
  Tracer* tracer = nullptr;
};

/// While alive, pins the calling (generator) thread to the last CPU and
/// raises its priority above the server's threads, so the generator's
/// lateness measures the system, not the generator losing its core to the
/// server it drives. Restores the thread's affinity and priority when
/// destroyed (threads created meanwhile would inherit them).
class GeneratorPriority {
 public:
  GeneratorPriority();
  ~GeneratorPriority();
  GeneratorPriority(const GeneratorPriority&) = delete;
  GeneratorPriority& operator=(const GeneratorPriority&) = delete;

  /// False when the host did not allow it (the run still proceeds).
  bool raised() const { return raised_; }

 private:
  bool raised_ = false;
  int old_nice_ = 0;
  std::vector<unsigned char> old_mask_;
};

/// Runs `plan` (sorted by `at`) open loop: every request is written at its
/// scheduled time regardless of outstanding responses, and timed from that
/// time. Returns one Outcome per planned request, in plan order.
std::vector<Outcome> RunOpenLoop(const GeneratorConfig& config,
                                 const std::vector<Planned>& plan);

}  // namespace remibench
