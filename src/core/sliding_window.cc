#include "core/sliding_window.h"

#include <limits>

namespace flowmotif {

Timestamp WindowEndSaturating(Timestamp anchor, Timestamp delta) {
  return delta > 0 &&
                 anchor > std::numeric_limits<Timestamp>::max() - delta
             ? std::numeric_limits<Timestamp>::max()
             : anchor + delta;
}

std::vector<Window> ComputeProcessedWindows(const EdgeSeries& first,
                                            const EdgeSeries& last,
                                            Timestamp delta) {
  std::vector<Window> windows;
  ComputeProcessedWindows(first, last, delta, &windows);
  return windows;
}

namespace {

/// What one anchor of the processed-window scan decided.
enum class ScanStep { kSkip, kEmit, kExhausted };

/// Inline cursor steps before a move switches to galloping.
constexpr int kLinearProbes = 4;

/// First index >= c of `last` with time > t (kPast) or >= t (!kPast).
/// Consecutive anchors usually move the R(em) cursor a few elements,
/// where inline steps beat a call; a sparse R(e1) against a dense R(em)
/// moves it far, where the gallop pays O(log gap) instead of the gap.
template <bool kPast>
inline size_t AdvanceCursor(const EdgeSeries& last, size_t c, Timestamp t) {
  const size_t n = last.size();
  const auto behind = [&](size_t i) {
    return kPast ? last.time(i) <= t : last.time(i) < t;
  };
  for (int probe = 0; probe < kLinearProbes; ++probe) {
    if (c == n || !behind(c)) return c;
    ++c;
  }
  return kPast ? last.AdvanceUpperBound(c, t) : last.AdvanceLowerBound(c, t);
}

/// One anchor of the novelty scan over R(em), shared by every scan loop
/// below: skips a duplicate anchor timestamp, advances the monotone
/// R(em) cursor, and decides whether the window [anchor, anchor + delta]
/// holds a novel R(em) element. Before the first processed window the cursor
/// trails the anchor (the novelty rule reduces to "any element in
/// [anchor, end]"); afterwards it sits at the first element past the
/// previous processed end ("any element in (prev_end, end]"). Anchors
/// and window ends are both non-decreasing, and prev_end >= the anchor
/// that set it, so the cursor never moves backwards when the rule
/// switches. Long cursor moves gallop, so a whole scan is
/// O(min(|R(e1)| + |R(em)|, |R(e1)| log |R(em)|)): a sparse R(e1)
/// against a dense R(em) no longer walks all of R(em). kExhausted means
/// the cursor ran off R(em): no later anchor of this series pair can
/// produce a novel window either. On kEmit the caller appends
/// Window{anchor, state->prev_end}; `state->anchor_idx` is the caller's.
inline ScanStep NoveltyStep(const EdgeSeries& last, Timestamp anchor,
                            Timestamp delta, WindowScanState* state) {
  // "No window processed yet" is tracked explicitly: encoding it as
  // numeric_limits::min() sentinels collided with a legal first anchor
  // at exactly that timestamp, which was then dropped as a "duplicate"
  // and whose `anchor - 1` probe underflowed.
  const Timestamp end = WindowEndSaturating(anchor, delta);
  size_t c = state->em_cursor;
  if (state->have_processed) {
    if (anchor == state->prev_anchor) {
      return ScanStep::kSkip;  // duplicate anchor timestamp
    }
    c = AdvanceCursor</*kPast=*/true>(last, c, state->prev_end);
  } else {
    c = AdvanceCursor</*kPast=*/false>(last, c, anchor);
  }
  state->em_cursor = c;
  if (c >= last.size()) return ScanStep::kExhausted;
  if (last.time(c) > end) return ScanStep::kSkip;
  state->prev_end = end;
  state->prev_anchor = anchor;
  state->have_processed = true;
  return ScanStep::kEmit;
}

}  // namespace

void ComputeProcessedWindows(const EdgeSeries& first, const EdgeSeries& last,
                             Timestamp delta, std::vector<Window>* out) {
  out->clear();
  WindowScanState state;
  for (size_t i = 0; i < first.size(); ++i) {
    const Timestamp anchor = first.time(i);
    const ScanStep step = NoveltyStep(last, anchor, delta, &state);
    if (step == ScanStep::kExhausted) break;
    if (step == ScanStep::kEmit) {
      out->push_back(Window{anchor, state.prev_end});
    }
  }
}

void ComputeProcessedWindowsMulti(const EdgeSeries& first,
                                  const EdgeSeries& last,
                                  const std::vector<Timestamp>& deltas,
                                  std::vector<std::vector<Window>>* out) {
  const size_t n = deltas.size();
  out->resize(n);
  for (std::vector<Window>& w : *out) w.clear();
  if (n == 0) return;

  // The largest delta runs first, alone: a window needs an R(em)
  // element inside [anchor, anchor + delta], and that interval only
  // shrinks with delta, so an empty list at the maximum proves every
  // other list empty. Sweep recording calls this once per structural
  // match and most matches die exactly here — they pay one single-delta
  // scan instead of a |deltas|-wide one.
  size_t widest = 0;
  for (size_t d = 1; d < n; ++d) {
    if (deltas[d] > deltas[widest]) widest = d;
  }
  ComputeProcessedWindows(first, last, deltas[widest], &(*out)[widest]);
  if (n == 1 || (*out)[widest].empty()) return;

  // One scan state per delta (one contiguous struct each — the inner
  // loop touches every field); the anchor walk and the R(em) reads are
  // shared across all of them. `done` mirrors the single-delta early
  // break (cursor ran off R(em)); the shared loop stops once every
  // delta is done. The states live in a small stack buffer: this runs
  // once per structural match, and a heap vector here was a measurable
  // slice of sweep recording.
  struct DeltaScan {
    WindowScanState state;
    Timestamp delta;
    size_t list;
    bool done;
  };
  constexpr size_t kInlineDeltas = 15;
  DeltaScan inline_scans[kInlineDeltas];
  std::vector<DeltaScan> heap_scans;
  DeltaScan* scans = inline_scans;
  const size_t num_scans = n - 1;  // `widest` is already done
  if (num_scans > kInlineDeltas) {
    heap_scans.resize(num_scans);
    scans = heap_scans.data();
  }
  for (size_t d = 0, k = 0; d < n; ++d) {
    if (d == widest) continue;
    scans[k++] = DeltaScan{WindowScanState(), deltas[d], d, false};
  }
  size_t num_done = 0;
  for (size_t i = 0; i < first.size() && num_done < num_scans; ++i) {
    const Timestamp anchor = first.time(i);
    for (size_t k = 0; k < num_scans; ++k) {
      DeltaScan& s = scans[k];
      if (s.done) continue;
      const ScanStep step = NoveltyStep(last, anchor, s.delta, &s.state);
      if (step == ScanStep::kExhausted) {
        s.done = true;
        ++num_done;
      } else if (step == ScanStep::kEmit) {
        (*out)[s.list].push_back(Window{anchor, s.state.prev_end});
      }
    }
  }
}

void AdvanceProcessedWindows(const EdgeSeries& first, const EdgeSeries& last,
                             Timestamp delta, Timestamp settle_before,
                             WindowScanState* state,
                             std::vector<Window>* settled,
                             std::vector<Window>* hot) {
  hot->clear();
  const size_t num_anchors = first.size();

  // Settled phase: the batch loop of ComputeProcessedWindows, mutating
  // the persistent state, stopping at the first anchor whose window end
  // reaches settle_before (ends are non-decreasing in anchor order, so
  // the anchors split into a clean settled prefix / hot suffix). Two
  // deviations from the batch loop, both final for settled anchors:
  // running the R(em) cursor off the series is a per-anchor skip rather
  // than a scan-wide break (later hot anchors may gain elements in a
  // future epoch; this anchor cannot — everything with time <= its end
  // is already here), and duplicate-anchor skips advance anchor_idx
  // permanently.
  size_t i = state->anchor_idx;
  for (; i < num_anchors; ++i) {
    const Timestamp anchor = first.time(i);
    const Timestamp end = WindowEndSaturating(anchor, delta);
    if (end >= settle_before) break;
    if (NoveltyStep(last, anchor, delta, state) == ScanStep::kEmit) {
      settled->push_back(Window{anchor, end});
    }
  }
  state->anchor_idx = i;

  // Hot phase: replay the rest of the scan on a throwaway copy. Here
  // the batch early-break is restored verbatim — it only prunes work
  // the next call redoes anyway.
  WindowScanState s = *state;
  for (; i < num_anchors; ++i) {
    const Timestamp anchor = first.time(i);
    const ScanStep step = NoveltyStep(last, anchor, delta, &s);
    if (step == ScanStep::kExhausted) break;
    if (step == ScanStep::kEmit) hot->push_back(Window{anchor, s.prev_end});
  }
}

std::vector<Window> ComputeAllWindows(const EdgeSeries& first,
                                      Timestamp delta) {
  std::vector<Window> windows;
  Timestamp prev_anchor = 0;
  bool have_prev = false;
  for (size_t i = 0; i < first.size(); ++i) {
    const Timestamp anchor = first.time(i);
    if (have_prev && anchor == prev_anchor) continue;
    windows.push_back(Window{anchor, WindowEndSaturating(anchor, delta)});
    prev_anchor = anchor;
    have_prev = true;
  }
  return windows;
}

}  // namespace flowmotif
