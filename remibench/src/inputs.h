// Input generation for the REMI benchmark: kbgen DBpedia-/Wikidata-like
// KBs written out as N-Triples (and RKF2 snapshots for the serving
// workloads), target sets sampled by the paper's §4.2.2 protocol, and the
// sequential screen that fixes each mine's deadline class.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "service/service.h"

namespace remibench {

/// One generated KB on disk.
struct KbFiles {
  std::string name;    ///< preset label, e.g. "dbpedia@0.05"
  std::string nt;      ///< N-Triples file (base facts, no inverses)
  std::string rkf2;    ///< RKF2 snapshot of the built KB ("" if not made)
  std::string rkf2_b;  ///< byte-identical second copy (reload target)
  size_t facts = 0;    ///< facts of the built KB (inverses included)
  double nt_load_ms = 0.0;  ///< N-Triples parse + build of the conversion
};

/// kbgen preset selector.
enum class Preset { kDbpedia, kWikidata };

/// Generates the preset KB at `scale` (fixed generator seed: the stand-in
/// for the paper's fixed dumps) and writes `<dir>/<stem>.nt`. With
/// `snapshot`, also opens the N-Triples file the way a server would and
/// saves `<stem>.rkf2` plus a byte-identical `<stem>_b.rkf2`.
remi::Result<KbFiles> WriteKb(Preset preset, double scale,
                              const std::string& dir, const std::string& stem,
                              bool snapshot);

/// One sampled target set, as full IRIs (what a wire client sends).
struct TargetSetIris {
  std::vector<std::string> iris;
};

/// Samples `count` target sets of one class each from the four largest
/// classes, sizes 1/2/3 in proportions 50/30/20% (paper §4.2.2).
std::vector<TargetSetIris> SampleTargetSets(const remi::KnowledgeBase& kb,
                                            size_t count, uint64_t seed);

/// The per-set outcome of a sequential (num_threads = 1) mining run.
struct ScreenEntry {
  bool completed = false;  ///< finished inside the screen's cap
  bool found = false;
  double cost = 0.0;
  std::string expression;
  uint64_t nodes = 0;      ///< DFS nodes (deterministic when completed)
  double seconds = 0.0;    ///< queue build + mine
  double queue_seconds = 0.0;

  double search_seconds() const { return seconds - queue_seconds; }
};

/// Mines every set (extended language) sequentially on `service`, which
/// must run with mining.num_threads = 1, from `threads` caller threads.
/// Each set's queue is built first; its search then gets
/// `search_cap_seconds` (plus four times the queue-build time). A search
/// cut before `node_budget` nodes is retried once with a 16x longer cap,
/// so IsLight below never depends on timing.
std::vector<ScreenEntry> ScreenSets(remi::Service* service,
                                    const std::vector<TargetSetIris>& sets,
                                    double search_cap_seconds,
                                    uint64_t node_budget, int threads);

/// Deadline classes. A set is "light" iff its sequential search completed
/// after at most `node_budget` nodes — a deterministic test, because
/// sequential node counts do not depend on timing. Everything else is
/// "heavy".
inline bool IsLight(const ScreenEntry& e, uint64_t node_budget) {
  return e.completed && e.nodes <= node_budget;
}

/// `{"op":"mine",...}` payload (extended language) for one set, with no
/// trailing newline; `kb` "" = the default tenant, `deadline_ms` 0 = none.
std::string MinePayload(const TargetSetIris& set, const std::string& kb,
                        double deadline_ms);

}  // namespace remibench
