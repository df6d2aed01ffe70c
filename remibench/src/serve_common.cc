#include "serve_common.h"

#include "service/json_codec.h"
#include "trace.h"

namespace remibench {

void Tally::Count(Kind kind, const std::string& status) {
  if (kind != Kind::kMine && kind != Kind::kSummarize) return;
  if (status == "OK") {
    ++ok;
  } else if (status == "DeadlineExceeded") {
    ++deadline;
  } else if (status == "ResourceExhausted") {
    ++rejected;
  } else {
    ++other;
  }
}

void RunProbes(int port, const std::vector<Probe>& probes, Tally* tally,
               RunResult* result) {
  for (const Probe& probe : probes) {
    const std::string binary = ProbeFrame(port, probe.kind, probe.payload);
    const std::string ndjson = ProbeNdjson(port, probe.payload);
    std::string local;
    if (auto parsed = remi::ParseJson(probe.local_payload); parsed.ok()) {
      local = remi::DispatchRequest(probe.reference, KindName(probe.kind),
                                    *parsed);
    }
    for (const std::string* doc : {&binary, &ndjson}) {
      result->attempted += 1;
      const std::string status(FindStatus(*doc));
      if (status != "OK") result->failed += 1;
      tally->Count(probe.kind, status);
    }
    const std::vector<std::string> timing = {"stats"};
    const std::string a = WithoutMembers(binary, timing);
    const std::string b = WithoutMembers(ndjson, timing);
    const std::string c = WithoutMembers(local, timing);
    if (FindStatus(binary) != "OK" || a != b || a != c) {
      result->Mismatch("probe " + probe.payload + ": binary=" + a +
                       " ndjson=" + b + " in-process=" + c);
    }
  }
}

remi::JsonValue CheckLedger(int port, const Tally& tally, RunResult* result) {
  const std::string doc = ProbeFrame(port, Kind::kStats, "");
  auto parsed = remi::ParseJson(doc);
  if (!parsed.ok() || FindStatus(doc) != "OK") {
    result->Mismatch("stats verb failed: " + doc);
    return remi::JsonValue::Object();
  }
  auto num = [&](const char* key) -> uint64_t {
    const remi::JsonValue* v = parsed->Find(key);
    return v != nullptr && v->is_number() ? static_cast<uint64_t>(v->AsNumber())
                                          : 0;
  };
  const uint64_t admitted = num("admitted");
  const uint64_t ok = num("completed_ok");
  const uint64_t deadline = num("deadline_exceeded");
  const uint64_t cancelled = num("cancelled");
  const uint64_t failed = num("failed");
  if (admitted != ok + deadline + cancelled + failed) {
    result->Mismatch("ledger: admitted != completed_ok + deadline_exceeded "
                     "+ cancelled + failed: " + doc);
  }
  if (ok != tally.ok || deadline != tally.deadline ||
      num("rejected") != tally.rejected || failed + cancelled != tally.other) {
    result->Mismatch(
        "ledger: generator tallies ok=" + std::to_string(tally.ok) +
        " deadline=" + std::to_string(tally.deadline) +
        " rejected=" + std::to_string(tally.rejected) +
        " other=" + std::to_string(tally.other) + " != server " + doc);
  }
  result->context.Set("server_stats", *parsed);
  return *parsed;
}

std::vector<Outcome> RunMaybeTraced(GeneratorConfig gen,
                                    const std::vector<Planned>& plan,
                                    Tracer* tracer, size_t* traced_from) {
  if (tracer == nullptr || plan.empty()) {
    *traced_from = plan.size();
    return RunOpenLoop(gen, plan);
  }
  const double half = plan.back().at / 2;
  size_t mid = 0;
  while (mid < plan.size() && plan[mid].at < half) ++mid;
  *traced_from = mid;
  const std::vector<Planned> first(plan.begin(), plan.begin() + mid);
  std::vector<Planned> second(plan.begin() + mid, plan.end());
  for (Planned& p : second) p.at -= half;
  std::vector<Outcome> out = RunOpenLoop(gen, first);
  gen.tracer = tracer;
  const std::vector<Outcome> traced = RunOpenLoop(gen, second);
  out.insert(out.end(), traced.begin(), traced.end());
  return out;
}

void ServiceShares(const remi::JsonValue& stats, Metrics* m) {
  auto num = [&](const char* key) {
    const remi::JsonValue* v = stats.Find(key);
    return v != nullptr && v->is_number() ? v->AsNumber() : 0.0;
  };
  const double admitted = num("admitted");
  const double offered = admitted + num("rejected");
  m->Set("service.rejected_share",
         offered > 0 ? num("rejected") / offered : 0.0, "fraction");
  m->Set("service.shed_share",
         admitted > 0 ? num("shed_expired_in_queue") / admitted : 0.0,
         "fraction");
  m->Set("service.deadline_share",
         admitted > 0 ? num("deadline_exceeded") / admitted : 0.0,
         "fraction");
  m->Set("service.peak_in_flight", num("peak_in_flight"), "count");
}

}  // namespace remibench
