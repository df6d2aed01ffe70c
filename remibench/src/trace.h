// Tracing for the REMI benchmark's --trace 1 runs.
//
// Spans are recorded from the benchmark's own files, around the calls it
// makes into each layer: one span per call with name, start, end, parent
// span and request id, kept in memory and written out as JSON lines when
// the run ends. Serve workloads build one `client.request` span per wire
// request, with children taken from the stage seconds the response reports
// (the remainder is the event_server's share); the in-process replay
// below re-runs the workload's own mine payloads through the public layer
// functions in pipeline order.

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "service/service.h"
#include "util.h"

namespace remibench {

class Tracer {
 public:
  /// Records one span; returns its id (the parent handle for children).
  /// Parent -1 = a root span.
  int64_t Add(const std::string& name, double start, double end,
              int64_t parent, uint64_t request);

  /// Sets the end of an already recorded span.
  void End(int64_t id, double end) {
    spans_[static_cast<size_t>(id)].end = end;
  }

  /// Self time per span name in ms: each span's duration minus the part
  /// of it covered by its children.
  std::map<std::string, std::vector<double>> SelfTimesMs() const;

  size_t size() const { return spans_.size(); }
  /// Writes one JSON object per span.
  bool WriteJsonl(const std::string& path) const;

 private:
  struct Span {
    uint32_t name = 0;
    double start = 0.0;
    double end = 0.0;
    int64_t parent = -1;
    uint64_t request = 0;
  };
  uint32_t Intern(const std::string& name);

  std::vector<Span> spans_;
  std::vector<std::string> names_;
  std::map<std::string, uint32_t> name_ids_;
};

/// Per-layer samples gathered by ReplayLayers (and by batch passes).
struct LayerSamples {
  std::vector<double> json_decode_us;
  std::vector<double> frame_decode_us;
  std::vector<double> resolve_us;
  std::vector<double> queue_build_us;
  std::vector<double> queue_len;
  std::vector<double> intersect_ns;
  std::vector<double> intersect_bytes;
  /// IntersectCount results that disagreed with EntitySet::Intersect.
  uint64_t intersect_mismatches = 0;
  std::vector<double> search_ms;
  std::vector<double> json_encode_us;
  uint64_t nodes = 0;
  double search_seconds_total = 0.0;
  uint64_t timeouts = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t evaluations = 0;
};

/// Replays up to `limit` mine payloads through the layers, in pipeline
/// order: JSON decode, frame decode, Service::ResolveTargets,
/// RemiMiner::RankedCommonSubgraphs (plus EntitySet::IntersectCount on
/// pairs of the resulting queue match sets), Service::Mine and the JSON
/// encode. Payloads must target `service`'s default tenant (their "kb"
/// member is ignored). `skip_mine` leaves the search to the caller (the
/// batch workload takes it from its own passes).
void ReplayLayers(remi::Service* service,
                  const std::vector<std::string>& payloads, size_t limit,
                  bool skip_mine, Tracer* tracer, LayerSamples* out);

/// Writes every per-layer metric derivable from `s` into `metrics`, and
/// records a mismatch when a set kernel disagreed with the reference.
void LayerMetrics(const LayerSamples& s, RunResult* result);

}  // namespace remibench
