#ifndef FLOWBENCH_HARNESS_WORKLOADS_H_
#define FLOWBENCH_HARNESS_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "bench_util.h"
#include "engine/query_options.h"
#include "gen/presets.h"
#include "graph/time_series_graph.h"

namespace flowbench {

/// Input generation: writes the workload's edge files under `out_dir`
/// and prints one JSON line describing them (sizes and a digest).
int GenerateInputs(const std::string& workload, uint64_t seed, double scale,
                   const std::string& out_dir);

int RunAnalytic(const RunOptions& options);
int RunStudy(const RunOptions& options);
int RunLive(const RunOptions& options);

/// The dataset preset and input scale each workload generates from.
struct WorkloadInput {
  flowmotif::DatasetKind dataset;
  double scale;
};
/// False for an unknown workload name.
bool LookupWorkload(const std::string& workload, WorkloadInput* input);

/// One (catalog motif, mode, delta) query of the analytic and live mixes.
struct CatalogQuery {
  size_t motif;  // index into MotifCatalog::All()
  flowmotif::QueryMode mode;
  flowmotif::Timestamp delta;
};
/// Every catalog motif x {enumerate, count, topk, top1} x the preset's
/// delta sweep, in a fixed order (200 queries for the paper presets).
std::vector<CatalogQuery> AllCatalogQueries(const flowmotif::DatasetPreset& preset);
/// The query's options with num_threads = 1. Threshold modes use the
/// preset phi and enumerate collects every instance; top-k (k = 10) and
/// top-1 are the paper's pure searches with no floor, so top1 flow ==
/// topk[0].flow is an identity the checks can use.
flowmotif::QueryOptions OptionsFor(const CatalogQuery& query,
                                   const flowmotif::DatasetPreset& preset);

/// A graph loaded from an edge file, with the setup timings: load (text
/// parse) and Build, each the median over kSetupRepeats repetitions.
struct LoadedGraph {
  flowmotif::TimeSeriesGraph graph;
  double load_s = 0.0;
  double build_s = 0.0;
  double setup_s = 0.0;  // median of per-repetition load + build
};
/// Loads and builds `path` kSetupRepeats times; exits the process with
/// an error message when the file cannot be read.
LoadedGraph LoadGraphTimed(const std::string& path);

/// Notes shared by every workload's report: build configuration and the
/// run's seed.
void AddContextNotes(const RunOptions& options, Report* report);

/// True when the harness was compiled with optimization and without
/// assertions — the only builds whose timings are valid.
bool OptimizedBuild();

}  // namespace flowbench

#endif  // FLOWBENCH_HARNESS_WORKLOADS_H_
