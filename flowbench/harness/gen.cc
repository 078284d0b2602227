// Input generation and the setup helpers shared by the workloads.

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <tuple>
#include <vector>

#include "core/motif_catalog.h"
#include "graph/graph_io.h"
#include "graph/interaction_graph.h"
#include "workloads.h"

namespace flowbench {

using flowmotif::DatasetKind;
using flowmotif::InteractionGraph;
using flowmotif::QueryMode;
using flowmotif::TimeSeriesGraph;

bool LookupWorkload(const std::string& workload, WorkloadInput* input) {
  if (workload == "analytic") {
    *input = {DatasetKind::kBitcoin, 4.0};
  } else if (workload == "study") {
    *input = {DatasetKind::kFacebook, 4.0};
  } else if (workload == "live") {
    *input = {DatasetKind::kBitcoin, 1.0};
  } else {
    return false;
  }
  return true;
}

namespace {

/// Writes edges as "src dst t flow" lines with round-trip flow precision
/// and folds the bytes into `*digest`.
bool WriteEdges(const std::string& path,
                const std::vector<InteractionGraph::Edge>& edges,
                uint64_t* digest) {
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  char line[128];
  for (const auto& e : edges) {
    const int n = std::snprintf(line, sizeof(line), "%lld %lld %lld %.17g\n",
                                static_cast<long long>(e.src),
                                static_cast<long long>(e.dst),
                                static_cast<long long>(e.t), e.f);
    *digest = Fnv1a(line, static_cast<size_t>(n), *digest);
    std::fputs(line, out);
  }
  return std::fclose(out) == 0;
}

}  // namespace

int GenerateInputs(const std::string& workload, uint64_t seed, double scale,
                   const std::string& out_dir) {
  WorkloadInput input;
  if (!LookupWorkload(workload, &input)) {
    std::fprintf(stderr, "unknown workload '%s'\n", workload.c_str());
    return 2;
  }
  flowmotif::DatasetPreset preset = flowmotif::GetPreset(input.dataset);
  preset.config.seed = DeriveSeed(seed, "trace:" + workload);
  const TimeSeriesGraph graph =
      flowmotif::GenerateDataset(preset, input.scale * scale);

  // Flatten to interactions in time order (ties broken by pair and flow,
  // so the order is a function of the seed alone).
  std::vector<InteractionGraph::Edge> edges;
  for (const auto& pair : graph.pairs()) {
    for (size_t i = 0; i < pair.series.size(); ++i) {
      edges.push_back({pair.src, pair.dst, pair.series.time(i),
                       pair.series.flow(i)});
    }
  }
  std::sort(edges.begin(), edges.end(), [](const auto& a, const auto& b) {
    return std::tie(a.t, a.src, a.dst, a.f) < std::tie(b.t, b.src, b.dst, b.f);
  });

  uint64_t digest = Fnv1a(workload.data(), workload.size());
  bool ok = true;
  size_t seed_edges = edges.size();
  if (workload == "live") {
    // The first 80% (by time) seed epoch 0; the rest is the live stream.
    seed_edges = edges.size() * 4 / 5;
    const std::vector<InteractionGraph::Edge> head(edges.begin(),
                                                   edges.begin() + seed_edges);
    const std::vector<InteractionGraph::Edge> tail(edges.begin() + seed_edges,
                                                   edges.end());
    ok = WriteEdges(out_dir + "/seed.txt", head, &digest) &&
         WriteEdges(out_dir + "/tail.txt", tail, &digest);
  } else {
    ok = WriteEdges(out_dir + "/edges.txt", edges, &digest);
  }
  if (!ok) {
    std::fprintf(stderr, "cannot write inputs under %s\n", out_dir.c_str());
    return 1;
  }
  std::printf(
      "{\"dataset\":\"%s\",\"scale\":%g,\"vertices\":%" PRId64
      ",\"pairs\":%" PRId64 ",\"interactions\":%zu,\"seed_interactions\":%zu,"
      "\"digest\":\"%s\"}\n",
      preset.name.c_str(), input.scale * scale, graph.num_vertices(),
      graph.num_pairs(), edges.size(), seed_edges, Hex64(digest).c_str());
  return 0;
}

std::vector<CatalogQuery> AllCatalogQueries(const flowmotif::DatasetPreset& preset) {
  std::vector<CatalogQuery> queries;
  for (size_t m = 0; m < flowmotif::MotifCatalog::All().size(); ++m) {
    for (QueryMode mode : {QueryMode::kEnumerate, QueryMode::kCount,
                           QueryMode::kTopK, QueryMode::kTop1}) {
      for (flowmotif::Timestamp delta : preset.delta_sweep) {
        queries.push_back({m, mode, delta});
      }
    }
  }
  return queries;
}

flowmotif::QueryOptions OptionsFor(const CatalogQuery& query,
                                   const flowmotif::DatasetPreset& preset) {
  flowmotif::QueryOptions o;
  o.mode = query.mode;
  o.delta = query.delta;
  const bool threshold =
      query.mode == QueryMode::kEnumerate || query.mode == QueryMode::kCount;
  o.phi = threshold ? preset.default_phi : 0.0;
  o.k = 10;
  o.collect_limit = -1;
  return o;
}

LoadedGraph LoadGraphTimed(const std::string& path) {
  LoadedGraph out;
  std::vector<double> load, build, setup;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    const auto t0 = SteadyClock::now();
    auto multigraph = flowmotif::LoadInteractionGraph(path);
    if (!multigraph.ok()) {
      std::fprintf(stderr, "cannot load %s: %s\n", path.c_str(),
                   multigraph.status().ToString().c_str());
      std::exit(1);
    }
    const double load_s = SecondsSince(t0);
    out.graph = TimeSeriesGraph();  // release the previous repetition first
    const auto t1 = SteadyClock::now();
    out.graph = TimeSeriesGraph::Build(*multigraph);
    const double build_s = SecondsSince(t1);
    load.push_back(load_s);
    build.push_back(build_s);
    setup.push_back(load_s + build_s);
  }
  out.load_s = Median(load);
  out.build_s = Median(build);
  out.setup_s = Median(setup);
  return out;
}

bool OptimizedBuild() {
#if defined(__OPTIMIZE__) && defined(NDEBUG)
  return true;
#else
  return false;
#endif
}

void AddContextNotes(const RunOptions& options, Report* report) {
  report->Note("workload", options.workload);
  report->Note("seed", std::to_string(options.seed));
  report->Note("build_type", FLOWBENCH_BUILD_TYPE);
  report->Note("compiler", FLOWBENCH_COMPILER);
  report->Note("optimized", OptimizedBuild() ? "true" : "false");
  report->Note("scale", std::to_string(options.scale));
}

}  // namespace flowbench
