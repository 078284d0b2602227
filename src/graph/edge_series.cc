#include "graph/edge_series.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>
#include <utility>

#include "util/logging.h"

namespace flowmotif {

namespace {

/// All default-constructed series share one empty timestamp array. The
/// identity collision is benign: identical timestamps imply identical
/// window lists, which is the only property the cache key relies on.
const std::shared_ptr<const std::vector<Timestamp>>& EmptyTimes() {
  static const std::shared_ptr<const std::vector<Timestamp>>* const kEmpty =
      new std::shared_ptr<const std::vector<Timestamp>>(
          std::make_shared<const std::vector<Timestamp>>());
  return *kEmpty;
}

/// OK iff `f` is positive and finite; otherwise InvalidArgument naming
/// element `index` of the caller's input.
Status ValidateFlow(Flow f, size_t index) {
  if (std::isfinite(f) && f > 0.0) return Status::OK();
  std::ostringstream msg;
  msg << "flow " << f << " at index " << index
      << ": flows must be positive and finite";
  return Status::InvalidArgument(msg.str());
}

}  // namespace

StatusOr<EdgeSeries> EdgeSeries::Create(std::vector<Interaction> interactions,
                                        EpochId epoch) {
  for (size_t i = 0; i < interactions.size(); ++i) {
    FLOWMOTIF_RETURN_IF_ERROR(ValidateFlow(interactions[i].f, i));
  }
  return EdgeSeries(std::move(interactions), epoch);
}

EdgeSeries::EdgeSeries() : times_(EmptyTimes()) {
  SyncTimesView();
  RebuildPrefix();
}

EdgeSeries::EdgeSeries(std::vector<Interaction> interactions, EpochId epoch)
    : storage_epoch_(epoch) {
  std::sort(interactions.begin(), interactions.end());
  std::vector<Timestamp> times;
  times.reserve(interactions.size());
  flows_.reserve(interactions.size());
  for (const Interaction& x : interactions) {
    FLOWMOTIF_CHECK_GT(x.f, 0.0) << "flows must be positive";
    times.push_back(x.t);
    flows_.push_back(x.f);
  }
  times_ = std::make_shared<const std::vector<Timestamp>>(std::move(times));
  SyncTimesView();
  RebuildPrefix();
}

EdgeSeries EdgeSeries::WithFlows(std::vector<Flow> new_flows) const {
  FLOWMOTIF_CHECK_EQ(new_flows.size(), flows_.size());
  for (Flow f : new_flows) FLOWMOTIF_CHECK_GT(f, 0.0);
  EdgeSeries view;
  view.times_ = times_;  // shared storage, same identity
  view.storage_epoch_ = storage_epoch_;
  view.SyncTimesView();
  view.flows_ = std::move(new_flows);
  view.RebuildPrefix();
  return view;
}

EdgeSeries EdgeSeries::DeepCopy() const {
  EdgeSeries copy = *this;
  copy.times_ = std::make_shared<const std::vector<Timestamp>>(*times_);
  copy.SyncTimesView();
  return copy;
}

EdgeSeries EdgeSeries::WithAppended(std::vector<Interaction> tail,
                                    EpochId epoch) const {
  // Concatenate and hand to the sorting constructor: byte identity with
  // a from-scratch build of the union holds by construction. The input
  // is two sorted runs, which std::sort handles near-linearly, so the
  // seal cost of a dirty series stays close to one merge pass.
  std::vector<Interaction> all;
  all.reserve(size() + tail.size());
  for (size_t i = 0; i < num_elements_; ++i) all.push_back(at(i));
  all.insert(all.end(), tail.begin(), tail.end());
  return EdgeSeries(std::move(all), epoch);
}

void EdgeSeries::RebuildPrefix() {
  prefix_.assign(num_elements_ + 1, 0.0);
  for (size_t i = 0; i < flows_.size(); ++i) {
    prefix_[i + 1] = prefix_[i] + flows_[i];
  }
}

size_t EdgeSeries::LowerBound(Timestamp t) const {
  return static_cast<size_t>(
      std::lower_bound(times_data_, times_data_ + num_elements_, t) -
      times_data_);
}

size_t EdgeSeries::UpperBound(Timestamp t) const {
  return static_cast<size_t>(
      std::upper_bound(times_data_, times_data_ + num_elements_, t) -
      times_data_);
}

size_t EdgeSeries::AdvanceLowerBound(size_t from, Timestamp t) const {
  const Timestamp* const times = times_data_;
  const size_t n = num_elements_;
  if (from >= n || times[from] >= t) return from;
  // Gallop: double the step while the probe is still < t, keeping the
  // invariant times[low] < t, then binary-search the bracket. Cost is
  // O(log gap), so tight window-to-window slides stay ~constant and a
  // first window deep into the series costs no more than LowerBound.
  size_t low = from;
  size_t step = 1;
  while (low + step < n && times[low + step] < t) {
    low += step;
    step <<= 1;
  }
  const size_t high = std::min(n, low + step);
  return static_cast<size_t>(
      std::lower_bound(times + low + 1, times + high, t) - times);
}

size_t EdgeSeries::AdvanceUpperBound(size_t from, Timestamp t) const {
  const Timestamp* const times = times_data_;
  const size_t n = num_elements_;
  if (from >= n || times[from] > t) return from;
  size_t low = from;  // invariant: times[low] <= t
  size_t step = 1;
  while (low + step < n && times[low + step] <= t) {
    low += step;
    step <<= 1;
  }
  const size_t high = std::min(n, low + step);
  return static_cast<size_t>(
      std::upper_bound(times + low + 1, times + high, t) - times);
}

Flow EdgeSeries::FlowInOpenClosed(Timestamp lo, Timestamp hi) const {
  if (lo >= hi) return 0.0;
  size_t first = UpperBound(lo);
  size_t last = UpperBound(hi);
  if (first >= last) return 0.0;
  return prefix_[last] - prefix_[first];
}

Flow EdgeSeries::FlowInClosed(Timestamp lo, Timestamp hi) const {
  if (lo > hi) return 0.0;
  size_t first = LowerBound(lo);
  size_t last = UpperBound(hi);
  if (first >= last) return 0.0;
  return prefix_[last] - prefix_[first];
}

bool EdgeSeries::HasElementInOpenClosed(Timestamp lo, Timestamp hi) const {
  if (lo >= hi) return false;
  size_t first = UpperBound(lo);
  return first < size() && times_data_[first] <= hi;
}

Status EdgeSeries::ReplaceFlows(const std::vector<Flow>& new_flows) {
  if (new_flows.size() != flows_.size()) {
    return Status::InvalidArgument(
        "ReplaceFlows got " + std::to_string(new_flows.size()) +
        " flows for a series of " + std::to_string(flows_.size()));
  }
  for (size_t i = 0; i < new_flows.size(); ++i) {
    FLOWMOTIF_RETURN_IF_ERROR(ValidateFlow(new_flows[i], i));
  }
  flows_ = new_flows;
  RebuildPrefix();
  return Status::OK();
}

}  // namespace flowmotif
