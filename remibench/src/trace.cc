#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>

#include "query/entity_set.h"
#include "remi/remi.h"
#include "service/frame_codec.h"
#include "service/json_codec.h"
#include "util/json.h"

namespace remibench {

uint32_t Tracer::Intern(const std::string& name) {
  auto it = name_ids_.find(name);
  if (it != name_ids_.end()) return it->second;
  const uint32_t id = static_cast<uint32_t>(names_.size());
  names_.push_back(name);
  name_ids_.emplace(name, id);
  return id;
}

int64_t Tracer::Add(const std::string& name, double start, double end,
                    int64_t parent, uint64_t request) {
  spans_.push_back(Span{Intern(name), start, end, parent, request});
  return static_cast<int64_t>(spans_.size() - 1);
}

std::map<std::string, std::vector<double>> Tracer::SelfTimesMs() const {
  // Children of one span never overlap each other here (they are the
  // sequential stages of one call), so coverage is the sum of their
  // durations clipped to the parent.
  std::vector<double> covered(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent < 0) continue;
    const Span& p = spans_[static_cast<size_t>(s.parent)];
    const double lo = std::max(s.start, p.start);
    const double hi = std::min(s.end, p.end);
    if (hi > lo) covered[static_cast<size_t>(s.parent)] += hi - lo;
  }
  std::map<std::string, std::vector<double>> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double self = std::max(0.0, s.end - s.start - covered[i]);
    out[names_[s.name]].push_back(self * 1e3);
  }
  return out;
}

bool Tracer::WriteJsonl(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  char line[512];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(line, sizeof(line),
                  "{\"id\":%zu,\"name\":\"%s\",\"start\":%.9f,\"end\":%.9f,"
                  "\"parent\":%lld,\"request\":%llu}\n",
                  i, names_[s.name].c_str(), s.start, s.end,
                  static_cast<long long>(s.parent),
                  static_cast<unsigned long long>(s.request));
    out << line;
  }
  return static_cast<bool>(out);
}

namespace {

/// Bytes one IntersectCount call reads: a bitmap operand is read word by
/// word over its universe, a sorted-vector operand element by element.
/// Computed from the representations, not measured.
double OperandBytes(const remi::EntitySet& s) {
  if (s.is_bitmap()) {
    return static_cast<double>((s.universe() + 63) / 64 * sizeof(uint64_t));
  }
  return static_cast<double>(s.size() * sizeof(remi::TermId));
}

}  // namespace

void ReplayLayers(remi::Service* service,
                  const std::vector<std::string>& payloads, size_t limit,
                  bool skip_mine, Tracer* tracer, LayerSamples* out) {
  const std::shared_ptr<const remi::KnowledgeBase> kb = service->SharedKb();
  // Queue-build miners (sequential; one per language bias), separate from
  // the Service's own so their caches start as cold as a new set's would.
  std::map<bool, std::unique_ptr<remi::RemiMiner>> miners;
  auto miner_for = [&](bool extended) -> remi::RemiMiner* {
    auto& slot = miners[extended];
    if (!slot) {
      remi::RemiOptions options = service->options().mining;
      options.num_threads = 1;
      options.enumerator.extended_language = extended;
      slot = std::make_unique<remi::RemiMiner>(kb.get(), options);
    }
    return slot.get();
  };

  const size_t n = std::min(limit, payloads.size());
  for (size_t i = 0; i < n; ++i) {
    const std::string& payload = payloads[i];
    const uint64_t request_id = i;
    const double t0 = NowSeconds();
    const int64_t root =
        tracer->Add("replay.request", t0, t0, -1, request_id);
    struct EndRoot {
      Tracer* tracer;
      int64_t id;
      ~EndRoot() { tracer->End(id, NowSeconds()); }
    } end_root{tracer, root};

    // json_codec: decode.
    double a = NowSeconds();
    auto parsed = remi::ParseJson(payload);
    if (!parsed.ok()) continue;
    auto request = remi::MineRequestFromJson(*parsed);
    double b = NowSeconds();
    if (!request.ok()) continue;
    tracer->Add("json_codec.decode", a, b, root, request_id);
    out->json_decode_us.push_back((b - a) * 1e6);
    request->kb.clear();

    // frame_codec: decode of the same payload as a binary frame.
    std::string wire;
    remi::AppendFrame(static_cast<uint8_t>(remi::FrameVerb::kMine),
                      request_id, payload, &wire);
    remi::FrameDecoder decoder(1u << 20);
    remi::FrameView frame;
    a = NowSeconds();
    decoder.Feed(wire);
    const bool framed =
        decoder.Next(&frame) == remi::FrameDecoder::Result::kFrame;
    b = NowSeconds();
    if (framed) {
      tracer->Add("frame_codec.decode", a, b, root, request_id);
      out->frame_decode_us.push_back((b - a) * 1e6);
    }

    // service: target resolution.
    a = NowSeconds();
    auto ids = service->ResolveTargets(request->targets);
    b = NowSeconds();
    if (!ids.ok()) continue;
    tracer->Add("service.resolve", a, b, root, request_id);
    out->resolve_us.push_back((b - a) * 1e6);

    // remi: queue build (Alg. 1 lines 1-2).
    const bool extended = !request->enumerator.has_value() ||
                          request->enumerator->extended_language;
    remi::RemiMiner* miner = miner_for(extended);
    a = NowSeconds();
    auto queue = miner->RankedCommonSubgraphs(*ids);
    b = NowSeconds();
    if (queue.ok()) {
      tracer->Add("remi.queue_build", a, b, root, request_id);
      out->queue_build_us.push_back((b - a) * 1e6);
      out->queue_len.push_back(static_cast<double>(queue->size()));

      // entity_set: IntersectCount on consecutive queue match sets.
      std::vector<std::shared_ptr<const remi::MatchSet>> sets;
      for (size_t k = 0; k < queue->size() && sets.size() < 8; ++k) {
        sets.push_back(miner->evaluator()->Match((*queue)[k].expression));
      }
      for (size_t k = 1; k < sets.size(); ++k) {
        constexpr int kReps = 16;
        size_t sink = 0;
        a = NowSeconds();
        for (int r = 0; r < kReps; ++r) {
          sink += sets[k - 1]->IntersectCount(
              *sets[k], std::numeric_limits<size_t>::max());
        }
        b = NowSeconds();
        // The kernel's count must equal the materialized intersection's.
        if (sink != kReps * sets[k - 1]->Intersect(*sets[k]).size()) {
          ++out->intersect_mismatches;
        }
        tracer->Add("entity_set.intersect_count", a, b, root, request_id);
        out->intersect_ns.push_back((b - a) * 1e9 / kReps);
        out->intersect_bytes.push_back(OperandBytes(*sets[k - 1]) +
                                       OperandBytes(*sets[k]));
      }
    }

    if (!skip_mine) {
      // remi: the full mine through the Service (search = Alg. 1 4-8).
      a = NowSeconds();
      auto mined = service->Mine(*request);
      b = NowSeconds();
      if (!mined.ok()) continue;
      const int64_t mine_span =
          tracer->Add("service.mine", a, b, root, request_id);
      const remi::RemiStats& st = mined->stats;
      const double qb_end = a + st.queue_build_seconds;
      tracer->Add("remi.queue_build", a, qb_end, mine_span, request_id);
      tracer->Add("remi.search", qb_end, qb_end + st.search_seconds,
                  mine_span, request_id);
      out->search_ms.push_back(st.search_seconds * 1e3);
      out->search_seconds_total += st.search_seconds;
      out->nodes += st.nodes_visited;
      if (mined->status.IsDeadlineExceeded()) ++out->timeouts;
      out->cache_hits += st.eval.cache_hits;
      out->cache_misses += st.eval.cache_misses;
      out->evaluations += st.eval.subgraph_evaluations;

      // json_codec: encode.
      a = NowSeconds();
      const std::string doc = remi::MineResponseToJson(*mined).Dump();
      b = NowSeconds();
      if (!doc.empty()) {
        tracer->Add("json_codec.encode", a, b, root, request_id);
        out->json_encode_us.push_back((b - a) * 1e6);
      }
    }
  }
}

void LayerMetrics(const LayerSamples& s, RunResult* result) {
  if (s.intersect_mismatches > 0) {
    result->Mismatch("EntitySet::IntersectCount disagreed with Intersect " +
                     std::to_string(s.intersect_mismatches) + " times");
  }
  Metrics* m = &result->metrics;
  m->Set("json_codec.decode_us", Median(s.json_decode_us), "us");
  m->Set("json_codec.encode_us", Median(s.json_encode_us), "us");
  m->Set("frame_codec.decode_us", Median(s.frame_decode_us), "us");
  m->Set("service.resolve_us", Median(s.resolve_us), "us");
  m->Set("remi.queue_build_p50_us", Median(s.queue_build_us), "us");
  m->Set("remi.queue_build_p99_us", TailOf(s.queue_build_us).value, "us");
  m->Set("remi.queue_len_p50", Median(s.queue_len), "count");
  m->Set("remi.search_p50_ms", Median(s.search_ms), "ms");
  m->Set("remi.search_p99_ms", TailOf(s.search_ms).value, "ms");
  m->Set("remi.nodes_visited", static_cast<double>(s.nodes), "count");
  m->Set("remi.nodes_per_s",
         s.search_seconds_total > 0
             ? static_cast<double>(s.nodes) / s.search_seconds_total
             : 0.0,
         "1/s");
  m->Set("remi.timeouts", static_cast<double>(s.timeouts), "count");
  const double lookups = static_cast<double>(s.cache_hits + s.cache_misses);
  m->Set("eval_cache.hit_ratio",
         lookups > 0 ? static_cast<double>(s.cache_hits) / lookups : 0.0,
         "fraction");
  m->Set("eval_cache.hits", static_cast<double>(s.cache_hits), "count");
  m->Set("eval_cache.misses", static_cast<double>(s.cache_misses), "count");
  m->Set("evaluator.evaluations", static_cast<double>(s.evaluations),
         "count");
  m->Set("entity_set.intersect_count_ns", Median(s.intersect_ns), "ns");
  m->Set("entity_set.bytes_per_call", Median(s.intersect_bytes), "bytes");
}

}  // namespace remibench
