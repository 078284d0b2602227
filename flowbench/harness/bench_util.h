#ifndef FLOWBENCH_HARNESS_BENCH_UTIL_H_
#define FLOWBENCH_HARNESS_BENCH_UTIL_H_

// Shared plumbing of the benchmark harness: clocks, the seeded client
// RNG, latency summaries, the span tracer, the result checker and the
// metric report. Nothing here calls into flowmotif except the result
// fingerprint, which reads QueryResult's public fields.

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "engine/query_engine.h"

namespace flowbench {

using SteadyClock = std::chrono::steady_clock;

inline double SecondsSince(SteadyClock::time_point start) {
  return std::chrono::duration<double>(SteadyClock::now() - start).count();
}

/// The benchmark client's own RNG (splitmix64), independent of the
/// library's generators so that query schedules do not change when the
/// program under test does.
class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, bound); bound > 0. The modulo bias is irrelevant at
  /// the bounds used here (< 2^16).
  uint64_t Below(uint64_t bound) { return Next() % bound; }
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

/// Deterministic per-purpose seed derived from the benchmark seed.
uint64_t DeriveSeed(uint64_t seed, const std::string& purpose);

/// FNV-1a over a byte range, chainable.
uint64_t Fnv1a(const void* data, size_t size,
               uint64_t hash = 0xcbf29ce484222325ULL);
std::string Hex64(uint64_t value);

/// Nearest-rank percentile (p in [0, 100]) of an unsorted sample.
double Percentile(std::vector<double> values, double p);
double Median(std::vector<double> values);

/// A latency summary: median plus the highest percentile of the ladder
/// {99.9, 99, 95, 90, 75, 50} that has at least ten samples beyond it in
/// a sample of `planned` entries. `planned` is the size the run's
/// settings give the sample, never the size measured, so a program that
/// gets faster or slower is still compared at the same percentile.
struct LatencySummary {
  size_t count = 0;
  double p50 = 0.0;
  double tail = 0.0;
  double tail_percentile = 0.0;  // 100 (the maximum) when planned < 20
};
LatencySummary Summarize(const std::vector<double>& values, size_t planned);

/// Peak resident set size of this process, MiB.
double PeakRssMb();

/// Canonical digest of a query's answer: mode, termination, instance and
/// structural-match counts, collected instances, top-k entries and the
/// top-1 incumbent, with flows compared bit for bit. Work counters
/// (windows, prunes, skips, batches, timers) are execution statistics,
/// not answers, and are excluded.
uint64_t ResultFingerprint(const flowmotif::QueryResult& result);

/// Name of a query mode as used in metric and span names.
const char* ModeName(flowmotif::QueryMode mode);

// ---------------------------------------------------------------------
// Tracing: spans kept in memory and written as Chrome trace-event JSON.

struct Span {
  const char* name = "";
  int64_t parent = -1;   // index of the parent span, -1 for a root
  int64_t request = -1;  // request id shared by one query's spans
  int64_t start_ns = 0;
  int64_t end_ns = -1;
  uint64_t thread = 0;
};

/// Thread-safe. Untraced code passes a null Tracer* instead of one.
class Tracer {
 public:
  /// Opens a span and returns its id.
  int64_t Begin(const char* name, int64_t parent, int64_t request);
  void End(int64_t id);
  /// Records an already finished span from its endpoints (used for the
  /// phases a served query reports about itself).
  int64_t Add(const char* name, int64_t parent, int64_t request,
              SteadyClock::time_point start, SteadyClock::time_point end);

  /// Self seconds per span name: each span's duration minus the part of
  /// it covered by the union of its children. Thread-compatible: call
  /// after every span is closed.
  std::vector<std::pair<std::string, double>> SelfSecondsByName() const;
  /// Total duration of root spans named `name`.
  double RootSeconds(const std::string& name) const;

  /// Writes every span as a Chrome trace-event file. Returns false on an
  /// I/O error.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  const SteadyClock::time_point origin_ = SteadyClock::now();
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span; a no-op when the tracer is null.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int64_t parent = -1,
             int64_t request = -1)
      : tracer_(tracer),
        id_(tracer != nullptr ? tracer->Begin(name, parent, request) : -1) {}
  ~ScopedSpan() {
    if (id_ >= 0) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  int64_t id_;
};

// ---------------------------------------------------------------------
// Checks and the metric report.

/// Named output checks. Each check records the request ids it covers; a
/// failed check marks them failed, so `failed` counts requests, not
/// checks.
class Checker {
 public:
  void Expect(const std::string& check, bool ok, int64_t request,
              const std::string& detail = "");
  int64_t FailedRequests() const;
  /// One line per check name: passes, failures, the first failures.
  std::vector<std::string> SummaryLines() const;
  bool all_passed() const;

 private:
  struct Tally {
    std::string name;
    int64_t passed = 0;
    int64_t failed = 0;
    std::string first_failure;  // details of the first three
  };
  Tally* Find(const std::string& name);
  std::vector<Tally> tallies_;
  std::vector<int64_t> failed_requests_;
};

/// Everything one harness run reports.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  void Note(const std::string& key, const std::string& value);
  /// Prints the human-readable report, then the JSON result line.
  void Print(bool correct, int64_t attempted, int64_t failed,
             const Checker& checker) const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> notes_;
};

/// Options shared by every workload run.
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  double scale = 1.0;  // input-size multiplier (the self-test shrinks it)
  std::string inputs;  // directory written by the gen step
  std::string trace_path;
  bool plant_wrong = false;  // corrupt one result; the checker must fail
};

/// Records `report` metrics for a latency sample under `prefix`
/// ("<prefix>p50_ms", "<prefix>tail_ms") and notes the percentile used
/// and the sample count; see Summarize for `planned`.
void AddLatency(Report* report, const std::string& prefix,
                const std::vector<double>& millis, size_t planned);

/// Setup repetitions per run; setup_s is their median.
constexpr int kSetupRepeats = 9;

}  // namespace flowbench

#endif  // FLOWBENCH_HARNESS_BENCH_UTIL_H_
