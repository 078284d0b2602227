#include "core/join_baseline.h"

#include <algorithm>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/sliding_window.h"
#include "util/logging.h"
#include "util/timer.h"

namespace flowmotif {

namespace {

/// One step-1 quintuple: a contiguous run [begin, end) of a pair's series
/// (u and v are implied by the pair index).
struct Quint {
  size_t begin;
  size_t end;  // exclusive
};

/// A sub-motif instance covering the first `level+1` motif edges.
struct Partial {
  MatchBinding binding;               // -1 for still-unbound motif nodes
  std::vector<std::pair<size_t, Quint>> slices;  // (pair index, run)
  Timestamp anchor = 0;               // time of the first S1 element
  Timestamp last_time = 0;            // time of the last element so far
};

/// Canonical edge-sets are *time-closed* element ranges: a run must not
/// end between two equal-timestamp elements (they always travel
/// together).
bool SplitsDuplicateAtEnd(const EdgeSeries& series, const Quint& q) {
  return q.end < series.size() &&
         series.time(q.end) == series.time(q.end - 1);
}

/// The contiguous group of quintuples starting exactly at `begin`.
/// Step 1 emits quintuples with non-decreasing `begin` (the anchor loop
/// ascends), so the group is one binary-searched range — the join probe
/// that used to scan the pair's whole table.
std::pair<const Quint*, const Quint*> QuintGroupAt(
    const std::vector<Quint>& quints, size_t begin) {
  const Quint* first = std::partition_point(
      quints.data(), quints.data() + quints.size(),
      [begin](const Quint& q) { return q.begin < begin; });
  const Quint* last = first;
  while (last != quints.data() + quints.size() && last->begin == begin) {
    ++last;
  }
  return {first, last};
}

}  // namespace

JoinMotifEnumerator::JoinMotifEnumerator(const TimeSeriesGraph& graph,
                                         const Motif& motif, Timestamp delta,
                                         Flow phi)
    : graph_(graph), motif_(motif), delta_(delta), phi_(phi) {
  FLOWMOTIF_CHECK_GE(delta, 0);
  FLOWMOTIF_CHECK_GE(phi, 0.0);
  FLOWMOTIF_CHECK(motif.is_path())
      << "the join baseline is defined for spanning-path motifs (as in the "
         "paper); use FlowMotifEnumerator for general motifs";
}

JoinMotifEnumerator::Result JoinMotifEnumerator::Run(
    const JoinVisitor& visitor) const {
  Result result;
  WallTimer timer;
  const int m = motif_.num_edges();

  // ---- Step 1: per-pair quintuple tables. -------------------------------
  // The duration limit per anchor i — one past the last element within
  // [time(i), time(i)+delta] — is non-decreasing in i, so one galloping
  // cursor per series replaces the per-anchor rescan.
  std::vector<std::vector<Quint>> quints(
      static_cast<size_t>(graph_.num_pairs()));
  for (size_t p = 0; p < static_cast<size_t>(graph_.num_pairs()); ++p) {
    const EdgeSeries& series = graph_.pair(p).series;
    size_t duration_limit = 0;
    for (size_t i = 0; i < series.size(); ++i) {
      duration_limit = series.AdvanceUpperBound(
          duration_limit, WindowEndSaturating(series.time(i), delta_));
      for (size_t j = i; j < duration_limit; ++j) {
        if (series.FlowSum(i, j) >= phi_) {
          quints[p].push_back(Quint{i, j + 1});
        }
      }
    }
    result.num_quintuples += static_cast<int64_t>(quints[p].size());
  }

  // ---- Seed: every quintuple is a candidate instance of sub-motif e1. ---
  // Canonical S1 runs start at the first occurrence of their anchor
  // timestamp (the enumerator's window starts *at* the anchor element).
  const auto [e1_src, e1_dst] = motif_.edge(0);
  std::vector<Partial> frontier;
  for (size_t p = 0; p < quints.size(); ++p) {
    const TimeSeriesGraph::PairEdge& pe = graph_.pair(p);
    if (pe.src == pe.dst) continue;  // motif nodes bind injectively
    const EdgeSeries& series = pe.series;
    for (const Quint& q : quints[p]) {
      if (q.begin > 0 && series.time(q.begin - 1) == series.time(q.begin)) {
        continue;  // not the first occurrence of the anchor timestamp
      }
      if (m > 1 && SplitsDuplicateAtEnd(series, q)) continue;
      if (m == 1) {
        // Single-edge motif: the run must already extend to the window
        // end (handled below by the completion filter), so defer nothing.
      }
      Partial partial;
      partial.binding.assign(static_cast<size_t>(motif_.num_nodes()), -1);
      partial.binding[static_cast<size_t>(e1_src)] = pe.src;
      partial.binding[static_cast<size_t>(e1_dst)] = pe.dst;
      partial.slices.emplace_back(p, q);
      partial.anchor = series.time(q.begin);
      partial.last_time = series.time(q.end - 1);
      frontier.push_back(std::move(partial));
    }
  }
  result.num_partials += static_cast<int64_t>(frontier.size());

  // ---- Steps 2..m: join the frontier with the next edge's quintuples. ---
  for (int level = 1; level < m; ++level) {
    const auto [src_node, dst_node] = motif_.edge(level);
    const bool is_last = level == m - 1;
    std::vector<Partial> next_frontier;

    for (const Partial& partial : frontier) {
      const VertexId from =
          partial.binding[static_cast<size_t>(src_node)];
      FLOWMOTIF_CHECK_GE(from, 0);
      const VertexId bound_to =
          partial.binding[static_cast<size_t>(dst_node)];

      const size_t p_begin = graph_.OutBegin(from);
      const size_t p_end = graph_.OutEnd(from);
      for (size_t p = p_begin; p < p_end; ++p) {
        const TimeSeriesGraph::PairEdge& pe = graph_.pair(p);
        if (bound_to >= 0) {
          if (pe.dst != bound_to) continue;
        } else {
          // Injectivity for a newly bound motif node.
          bool used = false;
          for (VertexId b : partial.binding) {
            if (b == pe.dst) {
              used = true;
              break;
            }
          }
          if (used) continue;
        }

        const EdgeSeries& series = pe.series;
        const Timestamp window_end =
            WindowEndSaturating(partial.anchor, delta_);
        // Canonical start: the run begins at the first element after the
        // previous edge's split.
        const size_t canonical_begin = series.UpperBound(partial.last_time);
        // Canonical end for the last motif edge: every element up to the
        // window end is taken.
        const size_t canonical_end = series.UpperBound(window_end);
        // The previous edge's run must not be extendable before this
        // run's first element (prefix-domination).
        const EdgeSeries& prev_series =
            graph_.pair(partial.slices.back().first).series;

        // Only the quintuple group anchored at the canonical start can
        // join; everything else used to be filtered one-by-one.
        const auto [group_begin, group_end] =
            QuintGroupAt(quints[p], canonical_begin);
        for (const Quint* qp = group_begin; qp != group_end; ++qp) {
          const Quint& q = *qp;
          const Timestamp t_first = series.time(q.begin);
          const Timestamp t_last = series.time(q.end - 1);
          if (t_first <= partial.last_time) continue;   // strict time order
          if (t_last > window_end) continue;            // duration bound
          if (is_last && q.end != canonical_end) continue;
          if (!is_last && SplitsDuplicateAtEnd(series, q)) continue;
          if (prev_series.HasElementInOpenClosed(partial.last_time,
                                                 t_first - 1)) {
            continue;  // a longer previous run dominates this combination
          }

          Partial next = partial;
          if (bound_to < 0) {
            next.binding[static_cast<size_t>(dst_node)] = pe.dst;
          }
          next.slices.emplace_back(p, q);
          next.last_time = t_last;
          next_frontier.push_back(std::move(next));
        }
      }
    }
    frontier = std::move(next_frontier);
    result.num_partials += static_cast<int64_t>(frontier.size());
  }

  // ---- Completion: single-edge motifs defer the window-end filter. ------
  if (m == 1) {
    std::vector<Partial> kept;
    for (const Partial& partial : frontier) {
      const auto& [p, q] = partial.slices[0];
      const EdgeSeries& series = graph_.pair(p).series;
      if (q.end ==
          series.UpperBound(WindowEndSaturating(partial.anchor, delta_))) {
        kept.push_back(partial);
      }
    }
    frontier = std::move(kept);
  }

  // ---- Anchor novelty: keep only instances whose anchor is a processed
  // window position for their (e1, em) series pair. The frontier
  // interleaves pairs (partials of one first pair alternate between
  // last pairs anchor by anchor), so a one-entry slot would rescan; a
  // run-local map keyed on the pair indices scans each pair once. -----
  std::unordered_map<uint64_t, std::vector<Window>> windows_by_pair;
  const auto num_pairs = static_cast<uint64_t>(graph_.num_pairs());
  for (const Partial& partial : frontier) {
    const size_t first_pair = partial.slices.front().first;
    const size_t last_pair = partial.slices.back().first;
    const auto [entry, inserted] =
        windows_by_pair.try_emplace(first_pair * num_pairs + last_pair);
    if (inserted) {
      ComputeProcessedWindows(graph_.pair(first_pair).series,
                              graph_.pair(last_pair).series, delta_,
                              &entry->second);
    }
    const std::vector<Window>& windows = entry->second;
    const auto window_at = std::partition_point(
        windows.begin(), windows.end(), [&partial](const Window& w) {
          return w.start < partial.anchor;
        });
    if (window_at == windows.end() || window_at->start != partial.anchor) {
      continue;
    }

    ++result.num_instances;
    if (visitor) {
      MotifInstance instance;
      instance.binding = partial.binding;
      instance.edge_sets.resize(partial.slices.size());
      for (size_t i = 0; i < partial.slices.size(); ++i) {
        const auto& [p, q] = partial.slices[i];
        const EdgeSeries& series = graph_.pair(p).series;
        for (size_t idx = q.begin; idx < q.end; ++idx) {
          instance.edge_sets[i].push_back(series.at(idx));
        }
      }
      if (!visitor(instance)) break;
    }
  }

  result.seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace flowmotif
