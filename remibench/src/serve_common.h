// Pieces shared by the two serving workloads: the correctness probe, the
// stats-ledger reconciliation, and outcome summaries.

#pragma once

#include <string>
#include <vector>

#include "client.h"
#include "service/service.h"
#include "util.h"

namespace remibench {

/// Generator-side tallies of the admission-gated verbs (mine, summarize):
/// the server's stats ledger must report exactly these.
struct Tally {
  uint64_t ok = 0;
  uint64_t deadline = 0;
  uint64_t rejected = 0;
  uint64_t other = 0;

  void Count(Kind kind, const std::string& status);
};

/// One deterministic probe request: sent over both wire protocols and
/// dispatched in-process on `reference` (whose default tenant holds the
/// same KB as the tenant the payload names).
struct Probe {
  Kind kind = Kind::kPing;
  std::string payload;          ///< as sent on the wire (may name a kb)
  std::string local_payload;    ///< the same request for `reference`
  remi::Service* reference = nullptr;
};

/// Runs every probe; any response that is not byte-identical across
/// binary, NDJSON and in-process dispatch (mine responses compared
/// without their timing-bearing "stats") is a mismatch. Counts the
/// probes into `tally` and `result->attempted/failed`.
void RunProbes(int port, const std::vector<Probe>& probes, Tally* tally,
               RunResult* result);

/// Fetches "stats" at quiescence and reconciles it: admitted ==
/// completed_ok + deadline_exceeded + cancelled + failed, and the
/// generator's tallies equal the server's counts. Returns the parsed
/// stats document (an empty object on failure).
remi::JsonValue CheckLedger(int port, const Tally& tally, RunResult* result);

/// Writes the service.* per-layer shares read from a stats document.
void ServiceShares(const remi::JsonValue& stats, Metrics* metrics);

/// Runs `plan` open loop. In a traced run the plan is split in time: the
/// first half runs untraced and the second half records spans into
/// `tracer`, so the tracing overhead is measured on the same traffic.
/// Outcomes come back in plan order either way; `*traced_from` receives
/// the index of the first traced request (plan.size() when untraced).
std::vector<Outcome> RunMaybeTraced(GeneratorConfig gen,
                                    const std::vector<Planned>& plan,
                                    Tracer* tracer, size_t* traced_from);

/// Median traced minus median untraced latency over the plan entries
/// `pick` selects.
template <typename Pick>
double TracingOverheadMs(const std::vector<Outcome>& out, size_t traced_from,
                         Pick pick) {
  std::vector<double> before, after;
  for (size_t i = 0; i < out.size(); ++i) {
    if (!out[i].ok() || !pick(i)) continue;
    (i < traced_from ? before : after).push_back(out[i].latency_ms());
  }
  return Median(after) - Median(before);
}

}  // namespace remibench
