#ifndef FLOWMOTIF_CORE_COUNTER_H_
#define FLOWMOTIF_CORE_COUNTER_H_

#include <cstdint>
#include <vector>

#include "core/motif.h"
#include "core/structural_match.h"
#include "core/window_cursor.h"
#include "graph/time_series_graph.h"
#include "graph/types.h"

namespace flowmotif {

/// Counts flow motif instances without constructing them — the paper's
/// future-work direction (Sec. 7, "counting instances of motifs without
/// constructing them", in the spirit of Paranjape et al.).
///
/// The enumerator's search tree expands every combination of edge-set
/// prefixes even when only the total count is wanted. This module
/// instead counts per window with a memoized recursion: the number of
/// valid ways to instantiate the motif suffix e_i..e_m only depends on
/// (i, first usable element index of e_i), because
///  * phi-feasibility of a prefix of e_i is local to that edge,
///  * the prefix-domination rule depends only on e_i and e_{i+1}, and
///  * the window end is fixed.
/// Distinct enumeration branches that reach the same (i, index) state —
/// which happens whenever different e_{i-1} prefixes end before the same
/// e_i element — therefore share one memo entry, turning the
/// multiplicative tree into a linear pass per window.
///
/// The per-window machinery rides the shared core/window_cursor layer:
/// window lists come from the caller's WindowListMru reader, the
/// per-level window bounds slide on a
/// WindowCursorSet instead of one UpperBound per recursion call, and
/// the recursion's per-element next-edge searches are monotone
/// galloping advances.
class InstanceCounter {
 public:
  struct Result {
    int64_t num_instances = 0;
    int64_t num_structural_matches = 0;
    int64_t num_windows = 0;
    int64_t memo_hits = 0;  // branches answered from the memo
  };

  /// The counter holds no window-list state: CountMatch reads through
  /// the caller's reader (one per worker, optionally backed by a
  /// cross-query tier), and Run / RunOnMatches use one tier-less reader
  /// per call.
  InstanceCounter(const TimeSeriesGraph& graph, const Motif& motif,
                  Timestamp delta, Flow phi);
  // The counter keeps a reference to the graph: temporaries would dangle.
  InstanceCounter(TimeSeriesGraph&&, const Motif&, Timestamp, Flow) = delete;

  /// Counts over the whole graph (phase P1 + counting per match).
  Result Run() const;

  /// Counts over precomputed structural matches.
  Result RunOnMatches(const std::vector<MatchBinding>& matches) const;

  /// Counts within a single structural match, reading its window list
  /// through `reader` — the calling worker's reader, bound to this
  /// counter's delta (and billing its query control). Callers loop over
  /// serial-order matches with one reader, so consecutive matches
  /// sharing a (first, last) pair hit its slot.
  int64_t CountMatch(MatchRef binding, Result* result,
                     WindowListMru* reader) const;

 private:
  const TimeSeriesGraph& graph_;
  const Motif motif_;
  Timestamp delta_;
  Flow phi_;
};

}  // namespace flowmotif

#endif  // FLOWMOTIF_CORE_COUNTER_H_
