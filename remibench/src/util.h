// Small shared helpers of the REMI benchmark harness: clocks, sample
// statistics, /proc readers and the metric/context accumulators that end
// up in the run's JSON result.

#pragma once

#include <sys/types.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/json.h"

namespace remibench {

inline double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Linear-interpolated quantile of `values` (q in [0,1]); 0 when empty.
inline double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

inline double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

/// The highest percentile (at most p99) with at least ten samples beyond
/// it, for `n` samples; the median when even that cannot be supported.
inline double TailQuantileFor(size_t n) {
  if (n < 20) return 0.5;
  return std::min(0.99, 1.0 - 10.0 / static_cast<double>(n));
}

/// A reported percentile: its value, which quantile it is, and the sample
/// count it was taken over.
struct Pct {
  double value = 0.0;
  double quantile = 0.0;
  size_t samples = 0;
};

inline Pct PctOf(const std::vector<double>& values, double q) {
  return Pct{Quantile(values, q), q, values.size()};
}

/// The tail percentile of `values` under the ten-beyond rule.
inline Pct TailOf(const std::vector<double>& values) {
  return PctOf(values, TailQuantileFor(values.size()));
}

/// The tail of a long run on a shared host. `values` (in arrival order)
/// are cut into consecutive windows of at least `min_window` samples, and
/// the lower quartile of the windows' TailOf is returned: the tail of the
/// run's quieter stretches, away from CPU steal by other tenants of the
/// host. Fewer than two windows' worth of samples falls back to TailOf
/// over everything.
inline Pct QuietTail(const std::vector<double>& values,
                     size_t min_window = 1000) {
  const size_t windows = values.size() / min_window;
  if (windows < 2) return TailOf(values);
  std::vector<double> tails;
  const size_t per = values.size() / windows;
  Pct last;
  for (size_t w = 0; w < windows; ++w) {
    const std::vector<double> window(values.begin() + w * per,
                                     values.begin() + (w + 1) * per);
    last = TailOf(window);
    tails.push_back(last.value);
  }
  return Pct{Quantile(tails, 0.25), last.quantile, values.size()};
}

/// Peak resident set (VmHWM) of a process in MiB; 0 when unreadable.
double PeakRssMb(pid_t pid);

/// User + system CPU seconds consumed so far by a process (all threads).
double CpuSeconds(pid_t pid);

/// Ordered name -> (value, unit) collection printed as the run's metrics.
class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    entries_[name] = {value, unit};
  }
  remi::JsonValue ToJson() const;

 private:
  std::map<std::string, std::pair<double, std::string>> entries_;
};

/// Free-form run context: configuration, sample counts, check outcomes.
/// Written next to the result and summarised on stderr.
class Context {
 public:
  void Set(const std::string& key, remi::JsonValue value) {
    root_.Set(key, std::move(value));
  }
  void Num(const std::string& key, double v) {
    Set(key, remi::JsonValue::Number(v));
  }
  void Str(const std::string& key, const std::string& v) {
    Set(key, remi::JsonValue::String(v));
  }
  void PctEntry(const std::string& key, const Pct& p) {
    remi::JsonValue v = remi::JsonValue::Object();
    v.Set("value", remi::JsonValue::Number(p.value));
    v.Set("quantile", remi::JsonValue::Number(p.quantile));
    v.Set("samples", remi::JsonValue::Number(static_cast<double>(p.samples)));
    Set(key, std::move(v));
  }
  const remi::JsonValue& json() const { return root_; }

 private:
  remi::JsonValue root_ = remi::JsonValue::Object();
};

/// Outcome of one workload run.
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Human-readable reasons `correct` turned false.
  std::vector<std::string> mismatches;
  Metrics metrics;
  Context context;

  void Mismatch(const std::string& why) {
    correct = false;
    mismatches.push_back(why);
  }
};

/// Settings shared by every workload of one invocation.
struct RunSettings {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for generated inputs (inside the checkout).
  std::string work_dir;
  /// Where the spans and the detailed context are written.
  std::string out_dir;
  int nproc = 1;
};

/// Reads a numeric member `"key":<number>` from a serialized JSON
/// document without a full parse (the generator reads thousands of
/// responses per second); `fallback` when absent.
double FindJsonNumber(std::string_view doc, std::string_view key,
                      double fallback = 0.0);

/// The "status" string of a serialized response ("" when absent).
std::string_view FindStatus(std::string_view doc);

/// `doc` re-serialized without the named top-level members (used to drop
/// the timing-bearing "stats" object before byte comparisons).
std::string WithoutMembers(std::string_view doc,
                           const std::vector<std::string>& keys);

}  // namespace remibench
