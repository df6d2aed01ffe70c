// remibench — the REMI benchmark harness.
//
//   remibench --workload serve_heavy|batch_mine --seed N
//             --seconds S --trace 0|1 --work-dir DIR --out-dir DIR
//
// Generates every input from the seed under --work-dir, runs the
// workload, checks its outputs, and prints one JSON object as the last
// line of stdout: {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones, with --trace 1 the
// per-layer ones. The run's context (host, configuration, sample counts,
// check details) goes to --out-dir/context.json and to stderr.
// remibench/run.py builds this binary and calls it.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include "util.h"
#include "util/cpu_features.h"
#include "util/flags.h"
#include "workloads.h"

namespace {

#ifndef REMIBENCH_BUILD_TYPE
#define REMIBENCH_BUILD_TYPE "unknown"
#endif

bool OptimizedBuild() {
#ifdef NDEBUG
  return std::strcmp(REMIBENCH_BUILD_TYPE, "Release") == 0;
#else
  return false;
#endif
}

}  // namespace

int main(int argc, char** argv) {
  remi::Flags flags;
  flags.DefineString("workload", "", "serve_heavy | batch_mine");
  flags.DefineInt("seed", 1, "input seed");
  flags.DefineDouble("seconds", 10.0, "measured seconds");
  flags.DefineInt("trace", 0, "1 = per-layer metrics from a traced run");
  flags.DefineString("work-dir", "", "directory for generated inputs");
  flags.DefineString("out-dir", "", "directory for spans and context");
  if (auto status = flags.Parse(argc, argv); !status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 2;
  }
  if (!OptimizedBuild()) {
    std::fprintf(stderr, "error: refusing to measure a %s build; build with "
                         "-DCMAKE_BUILD_TYPE=Release\n", REMIBENCH_BUILD_TYPE);
    return 2;
  }
  remibench::RunSettings s;
  s.workload = flags.GetString("workload");
  s.seed = static_cast<uint64_t>(flags.GetInt("seed"));
  s.seconds = flags.GetDouble("seconds");
  s.trace = flags.GetInt("trace") != 0;
  s.work_dir = flags.GetString("work-dir");
  s.out_dir = flags.GetString("out-dir");
  s.nproc = static_cast<int>(std::max<long>(1, sysconf(_SC_NPROCESSORS_ONLN)));
  if (s.work_dir.empty() || s.out_dir.empty() || s.seconds <= 0) {
    std::fprintf(stderr, "error: --work-dir, --out-dir and --seconds > 0 "
                         "are required\n");
    return 2;
  }

  remibench::RunResult result;
  remibench::Context& ctx = result.context;
  ctx.Str("workload", s.workload);
  ctx.Num("seed", static_cast<double>(s.seed));
  ctx.Num("seconds", s.seconds);
  ctx.Num("trace", s.trace ? 1 : 0);
  ctx.Num("nproc", s.nproc);
  ctx.Str("simd", remi::SimdLevelName(remi::ActiveSimdLevel()));
  ctx.Str("build_type", REMIBENCH_BUILD_TYPE);
  ctx.Str("server_config",
          "EventServer (epoll), 4 dispatch threads, max_in_flight 4, "
          "max_queued 16, no brownout, mining.num_threads = nproc");

  if (s.workload == "serve_heavy") {
    remibench::RunServeHeavy(s, &result);
  } else if (s.workload == "batch_mine") {
    remibench::RunBatchMine(s, &result);
  } else {
    std::fprintf(stderr, "error: unknown workload '%s'\n", s.workload.c_str());
    return 2;
  }

  remi::JsonValue mismatches = remi::JsonValue::Array();
  for (const std::string& why : result.mismatches) {
    mismatches.Append(remi::JsonValue::String(why));
    std::fprintf(stderr, "check failed: %s\n", why.c_str());
  }
  ctx.Set("mismatches", std::move(mismatches));
  ctx.Set("metrics", result.metrics.ToJson());
  const std::string context = ctx.json().Dump();
  std::ofstream(s.out_dir + "/context.json", std::ios::trunc) << context << "\n";
  std::fprintf(stderr, "context: %s\n", context.c_str());

  remi::JsonValue out = remi::JsonValue::Object();
  out.Set("correct", remi::JsonValue::Bool(result.correct));
  out.Set("attempted",
          remi::JsonValue::Number(static_cast<double>(result.attempted)));
  out.Set("failed", remi::JsonValue::Number(static_cast<double>(result.failed)));
  out.Set("metrics", result.metrics.ToJson());
  std::printf("%s\n", out.Dump().c_str());
  return result.correct ? 0 : 1;
}
