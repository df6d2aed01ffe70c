// The benchmark's workloads. Each fills a RunResult: correctness,
// attempted/failed operation counts, and either the end-to-end metrics
// (tracing off) or the per-layer metrics (tracing on).

#pragma once

#include "util.h"

namespace remibench {

void RunServeHeavy(const RunSettings& settings, RunResult* result);
void RunBatchMine(const RunSettings& settings, RunResult* result);

}  // namespace remibench
