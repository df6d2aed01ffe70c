#include "inputs.h"

#include <atomic>
#include <fstream>
#include <thread>

#include "kbgen/synthetic.h"
#include "kbgen/workload.h"
#include "rdf/ntriples.h"
#include "util.h"
#include "util/json.h"
#include "util/random.h"

namespace remibench {

namespace {

remi::Status WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.close();
  if (!out) return remi::Status::IoError("cannot write " + path);
  return remi::Status::OK();
}

}  // namespace

remi::Result<KbFiles> WriteKb(Preset preset, double scale,
                              const std::string& dir, const std::string& stem,
                              bool snapshot) {
  remi::SyntheticKbConfig config =
      preset == Preset::kDbpedia
          ? remi::SyntheticKbConfig::DBpediaLike(scale)
          : remi::SyntheticKbConfig::WikidataLike(scale);
  // Base facts only: the reader materializes inverses itself on load.
  remi::KbOptions raw;
  raw.inverse_top_fraction = 0.0;
  KbFiles files;
  files.name = std::string(preset == Preset::kDbpedia ? "dbpedia" : "wikidata") +
               "@" + std::to_string(scale).substr(0, 4);
  files.nt = dir + "/" + stem + ".nt";
  {
    const remi::KnowledgeBase generated = remi::BuildSyntheticKb(config, raw);
    const std::vector<remi::Triple> triples(generated.store().spo().begin(),
                                            generated.store().spo().end());
    REMI_RETURN_NOT_OK(
        WriteFile(files.nt, remi::WriteNTriples(generated.dict(), triples)));
  }
  remi::KbSpec spec;
  spec.path = files.nt;
  const double start = NowSeconds();
  REMI_ASSIGN_OR_RETURN(remi::LoadedKb loaded, remi::LoadKbFromSpec(spec));
  files.nt_load_ms = (NowSeconds() - start) * 1e3;
  files.facts = loaded.kb.NumFacts();
  if (snapshot) {
    files.rkf2 = dir + "/" + stem + ".rkf2";
    files.rkf2_b = dir + "/" + stem + "_b.rkf2";
    const std::string image = loaded.kb.SerializeSnapshot();
    REMI_RETURN_NOT_OK(WriteFile(files.rkf2, image));
    REMI_RETURN_NOT_OK(WriteFile(files.rkf2_b, image));
  }
  return files;
}

std::vector<TargetSetIris> SampleTargetSets(const remi::KnowledgeBase& kb,
                                            size_t count, uint64_t seed) {
  const std::vector<remi::TermId> classes = remi::LargestClasses(kb, 4);
  remi::WorkloadConfig config;
  config.num_sets = count;
  remi::Rng rng(seed);
  std::vector<TargetSetIris> out;
  for (const remi::TargetSet& set :
       remi::SampleEntitySets(kb, classes, config, &rng)) {
    TargetSetIris iris;
    for (const remi::TermId id : set.entities) {
      iris.iris.emplace_back(kb.dict().lexical(id));
    }
    out.push_back(std::move(iris));
  }
  return out;
}

std::vector<ScreenEntry> ScreenSets(remi::Service* service,
                                    const std::vector<TargetSetIris>& sets,
                                    double search_cap_seconds,
                                    uint64_t node_budget, int threads) {
  std::vector<ScreenEntry> out(sets.size());
  std::atomic<size_t> next{0};
  auto worker = [&] {
    for (size_t i = next.fetch_add(1); i < sets.size(); i = next.fetch_add(1)) {
      ScreenEntry& e = out[i];
      const double start = NowSeconds();
      // Queue build first (it fills the match-set cache the mine then
      // hits), so the cap below bounds the search alone: a set whose
      // queue is merely slow to build still completes.
      remi::CandidatesRequest candidates;
      candidates.targets.names = sets[i].iris;
      candidates.limit = 1;
      if (!service->Candidates(candidates).ok()) continue;
      e.queue_seconds = NowSeconds() - start;
      // The search also pins the queue's match sets, work that grows with
      // the queue: a set with a slow queue build gets time for it. A search
      // cut inside the node budget cannot be classed yet, so it gets one
      // more try with a far longer cap; past the budget it is heavy
      // whatever it would have needed.
      for (const double cap : {search_cap_seconds, 16 * search_cap_seconds}) {
        remi::MineRequest request;
        request.targets.names = sets[i].iris;
        request.control.deadline_seconds = cap + 4 * e.queue_seconds;
        const double mine_start = NowSeconds();
        auto mined = service->Mine(request);
        e.seconds = e.queue_seconds + NowSeconds() - mine_start;
        if (!mined.ok()) break;  // unresolvable: never "completed"
        e.completed = mined->status.ok();
        e.found = mined->found;
        e.cost = mined->cost;
        e.expression = mined->expression_text;
        e.nodes = mined->stats.nodes_visited;
        if (e.completed || e.nodes > node_budget) break;
      }
    }
  };
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) pool.emplace_back(worker);
  for (auto& t : pool) t.join();
  return out;
}

std::string MinePayload(const TargetSetIris& set, const std::string& kb,
                        double deadline_ms) {
  remi::JsonValue request = remi::JsonValue::Object();
  request.Set("op", remi::JsonValue::String("mine"));
  if (!kb.empty()) request.Set("kb", remi::JsonValue::String(kb));
  remi::JsonValue targets = remi::JsonValue::Array();
  for (const std::string& iri : set.iris) {
    targets.Append(remi::JsonValue::String(iri));
  }
  request.Set("targets", std::move(targets));
  request.Set("language", remi::JsonValue::String("extended"));
  if (deadline_ms > 0) {
    request.Set("deadline_ms", remi::JsonValue::Number(deadline_ms));
  }
  return request.Dump();
}

}  // namespace remibench
