// serve_heavy: open loop at one fixed rate against a forked EventServer
// serving three named tenants.
//
// Extended-language mines on sampled target sets, drawn with Zipf
// popularity from a fixed per-tenant pool (repeats hit the warm match-set
// cache), tenants picked Zipf-skewed, every mine carrying a deadline.
// Pings ride their own binary connection so head-of-line blocking on a
// serial NDJSON connection cannot pose as scheduler delay. One tenant is
// reloaded every few seconds from alternating byte-identical RKF2 copies,
// and "stats" is polled on the same admin (NDJSON) connection.
//
// Deadlines are chosen per mine so that exactly the same mines fail in
// every run of a seed: a sequential screen (outside the measurement)
// sorts each pooled set into light (search completes within the tenant's
// node budget — a deterministic test) or heavy. Light mines get a deadline
// far above anything they need; heavy mines get 5% of their screened
// search time (0.2-15 ms), far below what they need even with P-REMI's
// occasional super-linear speed-up.

#include <algorithm>
#include <cmath>

#include "inputs.h"
#include "serve_common.h"
#include "server_process.h"
#include "trace.h"
#include "util/random.h"
#include "workloads.h"

namespace remibench {

namespace {

struct TenantDef {
  const char* name;
  Preset preset;
  double scale;
  /// Light-class node budget, sized to this KB's per-node cost so light
  /// searches stay well inside kScreenCapSeconds.
  uint64_t light_node_budget;
};
// Zipf rank order: the first tenant is the hottest.
const TenantDef kTenants[] = {
    {"dbpedia_s", Preset::kDbpedia, 0.05, 40000},
    {"wikidata", Preset::kWikidata, 0.3, 40000},
    {"dbpedia_m", Preset::kDbpedia, 1.0, 10000},
};
constexpr size_t kReloaded = 2;  // the tenant reloaded under load
constexpr size_t kNumTenants = 3;
constexpr int kSetups = 11;
constexpr size_t kPoolSets = 256;         // per tenant
constexpr double kSetZipf = 0.3;          // popularity within a pool
constexpr double kTenantZipf = 1.0;
constexpr double kMineRps = 240.0;
constexpr double kPingRps = 300.0;
constexpr double kReloadEverySeconds = 2.0;
constexpr double kStatsEverySeconds = 0.5;
constexpr double kPostReloadWindowSeconds = 0.5;
constexpr double kSloMs = 100.0;
constexpr double kScreenCapSeconds = 0.3;
constexpr double kLightDeadlineMs = 5000.0;
constexpr double kHeavyDeadlineFraction = 0.05;
constexpr double kHeavyDeadlineMinMs = 0.2;
// Connections: 0 pings (binary), 1-2 mines (binary), 3 admin (NDJSON).
const std::vector<bool> kConnections = {true, true, true, false};

/// A heavy mine's deadline derives from its screened *search* time only:
/// once the match-set cache is warm, queue build costs next to nothing,
/// and the deadline must stay far below what the search alone needs.
double DeadlineMsFor(const ScreenEntry& e, bool light) {
  if (light) return kLightDeadlineMs;
  const double search = std::min(e.search_seconds(), kScreenCapSeconds);
  return std::max(search * kHeavyDeadlineFraction * 1e3, kHeavyDeadlineMinMs);
}

struct PoolEntry {
  std::string payload;        // wire payload (names the tenant)
  std::string local_payload;  // same request for the tenant's own Service
  bool light = false;
};

}  // namespace

void RunServeHeavy(const RunSettings& s, RunResult* r) {
  Context& ctx = r->context;
  std::vector<KbFiles> files;
  std::vector<std::unique_ptr<remi::Service>> screens;
  std::vector<double> open_ms;
  remi::JsonValue tenant_ctx = remi::JsonValue::Object();
  for (size_t t = 0; t < kNumTenants; ++t) {
    auto written = WriteKb(kTenants[t].preset, kTenants[t].scale, s.work_dir,
                           std::string("t_") + kTenants[t].name, true);
    if (!written.ok()) return r->Mismatch(written.status().ToString());
    files.push_back(*written);
    remi::JsonValue entry = remi::JsonValue::Object();
    entry.Set("kb", remi::JsonValue::String(written->name));
    entry.Set("facts",
              remi::JsonValue::Number(static_cast<double>(written->facts)));
    tenant_ctx.Set(kTenants[t].name, std::move(entry));
    // Sequential screening Service per tenant (no threads before fork).
    remi::KbSpec spec;
    spec.path = written->rkf2;
    remi::ServiceOptions options;
    options.max_in_flight = 0;
    const double t0 = NowSeconds();
    auto opened = remi::Service::Open(spec, options);
    open_ms.push_back((NowSeconds() - t0) * 1e3);
    if (!opened.ok()) return r->Mismatch(opened.status().ToString());
    screens.push_back(std::move(*opened));
  }
  ctx.Set("tenants", std::move(tenant_ctx));

  // Set-up, kSetups times: default tenant plus three named ones; the last
  // server stays up for the measurement.
  ServerSpec server_spec;
  server_spec.default_kb = files[0].rkf2;
  for (size_t t = 0; t < kNumTenants; ++t) {
    server_spec.tenants.emplace_back(kTenants[t].name, files[t].rkf2);
  }
  server_spec.nproc = s.nproc;
  std::vector<double> setups;
  ServerProcess server;
  for (int i = 0; i < kSetups; ++i) {
    if (i > 0) server.Stop();
    if (auto st = server.Start(server_spec); !st.ok()) {
      return r->Mismatch(st.ToString());
    }
    setups.push_back(server.setup_seconds());
  }
  const int port = server.port();
  ctx.Num("server_rss_after_setup_mb", PeakRssMb(server.pid()));

  // Pools and the deadline screen.
  std::vector<std::vector<PoolEntry>> pools(kNumTenants);
  std::vector<TargetSetIris> probe_sets(kNumTenants);
  remi::JsonValue screen_ctx = remi::JsonValue::Object();
  for (size_t t = 0; t < kNumTenants; ++t) {
    const auto sets = SampleTargetSets(screens[t]->kb(), kPoolSets,
                                       s.seed * 1000003 + t);
    const auto screened = ScreenSets(screens[t].get(), sets, kScreenCapSeconds,
                                     kTenants[t].light_node_budget, s.nproc);
    probe_sets[t] = sets.front();
    size_t heavy = 0;
    double light_max_s = 0.0;
    for (size_t i = 0; i < sets.size(); ++i) {
      PoolEntry entry;
      entry.light = IsLight(screened[i], kTenants[t].light_node_budget);
      const double deadline = DeadlineMsFor(screened[i], entry.light);
      entry.payload = MinePayload(sets[i], kTenants[t].name, deadline);
      entry.local_payload = MinePayload(sets[i], "", deadline);
      heavy += !entry.light;
      if (entry.light) {
        light_max_s = std::max(light_max_s, screened[i].search_seconds());
      }
      pools[t].push_back(std::move(entry));
    }
    remi::JsonValue e = remi::JsonValue::Object();
    e.Set("heavy_sets", remi::JsonValue::Number(static_cast<double>(heavy)));
    e.Set("light_max_search_s", remi::JsonValue::Number(light_max_s));
    screen_ctx.Set(kTenants[t].name, std::move(e));
  }
  ctx.Set("screen", std::move(screen_ctx));

  // Correctness probe: a ping, and per tenant a summarize, a candidates
  // and its first four light mines, against the tenant's own in-process
  // Service.
  Tally tally;
  std::vector<Probe> probes;
  probes.push_back({Kind::kPing, R"({"op":"ping"})", R"({"op":"ping"})",
                    screens[0].get()});
  for (size_t t = 0; t < kNumTenants; ++t) {
    remi::JsonValue summarize = remi::JsonValue::Object();
    summarize.Set("op", remi::JsonValue::String("summarize"));
    summarize.Set("entity", remi::JsonValue::String(probe_sets[t].iris.front()));
    summarize.Set("k", remi::JsonValue::Number(3));
    remi::JsonValue candidates = remi::JsonValue::Object();
    candidates.Set("op", remi::JsonValue::String("candidates"));
    remi::JsonValue targets = remi::JsonValue::Array();
    for (const std::string& iri : probe_sets[t].iris) {
      targets.Append(remi::JsonValue::String(iri));
    }
    candidates.Set("targets", std::move(targets));
    candidates.Set("limit", remi::JsonValue::Number(5));
    for (auto& [kind, request] : {std::make_pair(Kind::kSummarize, summarize),
                                  std::make_pair(Kind::kCandidates, candidates)}) {
      remi::JsonValue wire = request;
      wire.Set("kb", remi::JsonValue::String(kTenants[t].name));
      probes.push_back({kind, wire.Dump(), request.Dump(), screens[t].get()});
    }
  }
  for (size_t t = 0; t < kNumTenants; ++t) {
    size_t added = 0;
    for (const PoolEntry& e : pools[t]) {
      if (!e.light || added == 4) continue;
      probes.push_back({Kind::kMine, e.payload, e.local_payload,
                        screens[t].get()});
      ++added;
    }
  }
  RunProbes(port, probes, &tally, r);

  // The plan: mines (Zipf tenant, Zipf set), pings, reloads, stats polls.
  const double phase_seconds = s.seconds * 0.85;
  remi::Rng rng(s.seed * 0x9E3779B97F4A7C15ull + 2);
  const remi::ZipfSampler tenant_zipf(kNumTenants, kTenantZipf);
  const remi::ZipfSampler set_zipf(kPoolSets, kSetZipf);
  std::vector<std::vector<size_t>> popularity(kNumTenants);
  for (auto& order : popularity) {
    for (size_t i = 0; i < kPoolSets; ++i) order.push_back(i);
    rng.Shuffle(&order);
  }
  std::vector<Planned> plan;
  const size_t mines = static_cast<size_t>(kMineRps * phase_seconds);
  for (size_t k = 0; k < mines; ++k) {
    const size_t t = tenant_zipf.Sample(&rng) - 1;
    const size_t set = popularity[t][set_zipf.Sample(&rng) - 1];
    Planned p;
    // Each request lands at a uniform offset inside its 1/rate slot, so the
    // gap to the next request on its connection varies around the mean of
    // connections / rate instead of being exactly that: the latency floor
    // stays at connections / rate on average, but the latencies it holds
    // back no longer pile up on exact multiples of it, where a tail
    // percentile would jump a whole step between runs.
    p.at = (static_cast<double>(k) + rng.NextDouble()) / kMineRps;
    p.conn = 1 + static_cast<int>(k % 2);
    p.kind = Kind::kMine;
    p.payload = pools[t][set].payload;
    p.tenant = static_cast<int>(t);
    p.tag = static_cast<int>(set);
    plan.push_back(std::move(p));
  }
  for (size_t k = 0; k < static_cast<size_t>(kPingRps * phase_seconds); ++k) {
    Planned p;
    p.at = (static_cast<double>(k) + rng.NextDouble()) / kPingRps;
    p.kind = Kind::kPing;
    p.payload = R"({"op":"ping"})";
    plan.push_back(std::move(p));
  }
  int reload_index = 0;
  for (double at = 0.5; at < phase_seconds - 0.5; at += kReloadEverySeconds) {
    Planned p;
    p.at = at;
    p.conn = 3;
    p.kind = Kind::kReload;
    const std::string& path =
        reload_index++ % 2 == 0 ? files[kReloaded].rkf2_b : files[kReloaded].rkf2;
    p.payload = std::string(R"({"op":"reload","kb":")") + kTenants[kReloaded].name +
                R"(","path":")" + path + R"("})";
    plan.push_back(std::move(p));
  }
  for (double at = 0.25; at < phase_seconds; at += kStatsEverySeconds) {
    Planned p;
    p.at = at;
    p.conn = 3;
    p.kind = Kind::kStats;
    p.payload = R"({"op":"stats"})";
    plan.push_back(std::move(p));
  }
  std::stable_sort(plan.begin(), plan.end(),
                   [](const Planned& a, const Planned& b) { return a.at < b.at; });

  GeneratorConfig gen;
  gen.port = port;
  gen.binary = kConnections;
  Tracer tracer;
  const double cpu0 = CpuSeconds(server.pid());
  const double wall0 = NowSeconds();
  size_t traced_from = 0;
  std::vector<Outcome> out;
  {
    const GeneratorPriority priority;
    ctx.Num("generator_priority_raised", priority.raised() ? 1 : 0);
    out = RunMaybeTraced(gen, plan, s.trace ? &tracer : nullptr, &traced_from);
  }
  const double cpu_util = (CpuSeconds(server.pid()) - cpu0) /
                          ((NowSeconds() - wall0) * s.nproc);

  std::vector<double> mine_ms, ping_ms, late, queue_wait, reload_ms;
  size_t within = 0, counted = 0, mines_ok = 0, mines_sent = 0;
  size_t off_class = 0;
  double epochs_max = 0.0;
  std::vector<std::pair<double, double>> reload_windows;
  for (size_t i = 0; i < plan.size(); ++i) {
    const Outcome& o = out[i];
    r->attempted += 1;
    if (!o.ok()) r->failed += 1;
    tally.Count(plan[i].kind, o.status);
    if (o.sent >= 0) late.push_back(o.late_ms());
    switch (plan[i].kind) {
      case Kind::kMine:
        ++mines_sent;
        ++counted;
        // Deadline classes must decide every mine's outcome.
        if (pools[static_cast<size_t>(plan[i].tenant)]
                 [static_cast<size_t>(plan[i].tag)].light != o.ok()) {
          ++off_class;
        }
        if (o.answered()) mine_ms.push_back(o.latency_ms());
        if (o.ok()) {
          ++mines_ok;
          within += o.latency_ms() <= kSloMs;
          queue_wait.push_back(o.queue_wait_s * 1e3);
        }
        break;
      case Kind::kPing:
        ++counted;
        if (o.ok()) {
          ping_ms.push_back(o.latency_ms());
          within += o.latency_ms() <= kSloMs;
        }
        break;
      case Kind::kReload:
        if (!o.ok()) r->Mismatch("reload failed: " + o.body);
        if (o.answered()) {
          reload_ms.push_back(o.latency_ms());
          reload_windows.emplace_back(
              o.scheduled, o.arrival + kPostReloadWindowSeconds);
        }
        break;
      case Kind::kStats:
        if (auto parsed = remi::ParseJson(o.body); parsed.ok()) {
          if (const remi::JsonValue* v = parsed->Find("epochs_live_total")) {
            epochs_max = std::max(epochs_max, v->AsNumber());
          }
        }
        break;
      default:
        break;
    }
  }
  // Mines on the reloaded tenant scheduled inside a reload window: from
  // the reload's send to half a second after it returned.
  std::vector<double> post_reload;
  for (size_t i = 0; i < plan.size(); ++i) {
    if (plan[i].kind != Kind::kMine ||
        plan[i].tenant != static_cast<int>(kReloaded) ||
        !out[i].answered()) {
      continue;
    }
    for (const auto& [from, to] : reload_windows) {
      if (out[i].scheduled >= from && out[i].scheduled <= to) {
        post_reload.push_back(out[i].latency_ms());
        break;
      }
    }
  }

  const Pct mine_p50 = PctOf(mine_ms, 0.5);
  const Pct mine_tail = QuietTail(mine_ms);
  const Pct ping_tail = QuietTail(ping_ms);
  const Pct late_tail = TailOf(late);
  ctx.PctEntry("mine_p50_ms", mine_p50);
  ctx.PctEntry("mine_tail_ms", mine_tail);
  ctx.PctEntry("ping_tail_ms", ping_tail);
  ctx.PctEntry("gen_late_tail_ms", late_tail);
  if (late_tail.value > kSloMs / 2) {
    // The generator fell behind its own schedule: the run's latencies
    // measure the generator as much as the server.
    ctx.Str("invalid", "generator p99 lateness above half the latency limit");
  }
  ctx.PctEntry("post_reload_mine_tail_ms", TailOf(post_reload));
  ctx.Num("reloads", static_cast<double>(reload_ms.size()));
  ctx.Num("mines_sent", static_cast<double>(mines_sent));
  ctx.Num("mines_ok", static_cast<double>(mines_ok));
  ctx.Num("mines_off_class", static_cast<double>(off_class));

  const remi::JsonValue stats = CheckLedger(port, tally, r);
  Metrics& m = r->metrics;
  if (!s.trace) {
    m.Set("setup_s", Median(setups), "s");
    m.Set("mine_p50_ms", mine_p50.value, "ms");
    m.Set("mine_p99_ms", mine_tail.value, "ms");
    m.Set("ping_p99_ms", ping_tail.value, "ms");
    m.Set("slo_ok_share",
          static_cast<double>(within) / static_cast<double>(counted),
          "fraction");
    // One fixed rate here: the rate of requests answered within the limit.
    m.Set("max_rps_under_slo", static_cast<double>(within) / phase_seconds,
          "req/s");
    m.Set("reload_ms", Median(reload_ms), "ms");
    m.Set("sets_per_s", static_cast<double>(mines_ok) / phase_seconds,
          "sets/s");
    m.Set("sets_solved_share",
          static_cast<double>(mines_ok) / static_cast<double>(mines_sent),
          "fraction");
    m.Set("peak_rss_mb", PeakRssMb(server.pid()), "MB");
  } else {
    ServiceShares(stats, &m);
    m.Set("service.queue_wait_p50_ms", Median(queue_wait), "ms");
    m.Set("service.queue_wait_p99_ms", TailOf(queue_wait).value, "ms");
    const std::vector<double> self = tracer.SelfTimesMs()["client.request"];
    m.Set("event_server.overhead_p50_ms", Median(self), "ms");
    m.Set("event_server.overhead_p99_ms", TailOf(self).value, "ms");
    m.Set("gen.late_p99_ms", late_tail.value, "ms");
    m.Set("thread_pool.cpu_util", cpu_util, "fraction");
    m.Set("kb.open_ms", Median(open_ms), "ms");
    m.Set("kb.nt_load_ms", files[0].nt_load_ms, "ms");
    m.Set("tenant_registry.epochs_live_max", epochs_max, "count");
    m.Set("tenant_registry.post_reload_mine_p99_ms", TailOf(post_reload).value,
          "ms");
    m.Set("trace.overhead_mine_p50_ms",
          TracingOverheadMs(out, traced_from,
                            [&](size_t i) { return plan[i].kind == Kind::kMine; }),
          "ms");
    // Replay each tenant's mine payloads on a Service in the serving
    // configuration over the same snapshot.
    LayerSamples layers;
    for (size_t t = 0; t < kNumTenants; ++t) {
      std::vector<std::string> payloads;
      for (const Planned& p : plan) {
        if (p.kind == Kind::kMine && p.tenant == static_cast<int>(t)) {
          payloads.push_back(pools[t][static_cast<size_t>(p.tag)].local_payload);
        }
      }
      remi::KbSpec spec;
      spec.path = files[t].rkf2;
      auto replay = remi::Service::Open(spec, ServingOptions(s.nproc));
      if (!replay.ok()) return r->Mismatch(replay.status().ToString());
      ReplayLayers(replay->get(), payloads, 150, false, &tracer, &layers);
    }
    LayerMetrics(layers, r);
    tracer.WriteJsonl(s.out_dir + "/spans.jsonl");
    ctx.Num("spans", static_cast<double>(tracer.size()));
  }
  server.Stop();
}

}  // namespace remibench
