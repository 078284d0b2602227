#include "graph/epoch_log.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "util/logging.h"

namespace flowmotif {

EpochLog::EpochLog()
    : watermark_(std::numeric_limits<Timestamp>::min()),
      snapshot_(std::make_shared<const TimeSeriesGraph>()) {}

EpochLog::EpochLog(const InteractionGraph& seed)
    : watermark_(std::numeric_limits<Timestamp>::min()) {
  num_vertices_ = seed.num_vertices();
  auto graph = std::make_shared<const TimeSeriesGraph>(
      TimeSeriesGraph::Build(seed));
  TimeSeriesGraph::Stats stats = graph->ComputeStats();
  if (stats.num_interactions > 0) {
    watermark_ = stats.max_time;
    empty_ = false;
  }
  snapshot_ = std::move(graph);
}

EpochLog::EpochLog(TimeSeriesGraph seed)
    : watermark_(std::numeric_limits<Timestamp>::min()) {
  num_vertices_ = seed.num_vertices();
  auto graph = std::make_shared<const TimeSeriesGraph>(std::move(seed));
  TimeSeriesGraph::Stats stats = graph->ComputeStats();
  if (stats.num_interactions > 0) {
    watermark_ = stats.max_time;
    empty_ = false;
  }
  // Adopt the seed's epoch stamps: if the graph came out of another
  // log's ExtendWith chain, future seals here must stamp strictly
  // larger epochs so StorageIdentity keys can never alias across the
  // handoff.
  for (const TimeSeriesGraph::PairEdge& pair : graph->pairs()) {
    epoch_ = std::max(epoch_, pair.series.timestamp_identity().epoch);
  }
  snapshot_ = std::move(graph);
}

Status EpochLog::Append(VertexId src, VertexId dst, Timestamp t, Flow f) {
  // Validate everything before mutating anything: a rejected edge must
  // leave the tail (and the watermark) exactly as it found them.
  if (src < 0 || dst < 0) {
    return Status::InvalidArgument("vertex ids must be non-negative");
  }
  if (!(f > 0.0) || !std::isfinite(f)) {
    return Status::InvalidArgument("flows must be positive and finite");
  }
  if (!empty_ && t < watermark_) {
    return Status::InvalidArgument(
        "stream timestamps must be non-decreasing: t=" + std::to_string(t) +
        " < watermark=" + std::to_string(watermark_));
  }
  watermark_ = std::max(watermark_, t);
  empty_ = false;
  num_vertices_ =
      std::max(num_vertices_, static_cast<int64_t>(std::max(src, dst)) + 1);
  tail_.push_back(InteractionGraph::Edge{src, dst, t, f});
  return Status::OK();
}

EpochLog::SealInfo EpochLog::SealEpoch() {
  SealInfo info;
  info.watermark = watermark_;
  if (tail_.empty()) {
    info.epoch = epoch_;
    info.graph = Snapshot();
    return info;
  }

  std::shared_ptr<const TimeSeriesGraph> base = Snapshot();
  info.num_appended = tail_.size();
  info.min_new_time = tail_.front().t;  // monotone stream: front is min

  info.dirty_pairs.reserve(tail_.size());
  for (const InteractionGraph::Edge& e : tail_) {
    info.dirty_pairs.emplace_back(e.src, e.dst);
  }
  std::sort(info.dirty_pairs.begin(), info.dirty_pairs.end());
  info.dirty_pairs.erase(
      std::unique(info.dirty_pairs.begin(), info.dirty_pairs.end()),
      info.dirty_pairs.end());
  for (const auto& pair : info.dirty_pairs) {
    if (base->FindPairIndex(pair.first, pair.second) < 0) {
      info.new_pairs.push_back(pair);
    }
  }
  info.topology_changed =
      !info.new_pairs.empty() || num_vertices_ != base->num_vertices();

  info.epoch = ++epoch_;
  auto next = std::make_shared<const TimeSeriesGraph>(
      TimeSeriesGraph::ExtendWith(*base, std::move(tail_), num_vertices_,
                                  info.epoch));
  tail_.clear();
  {
    std::lock_guard<std::mutex> lock(snapshot_mutex_);
    snapshot_ = next;
  }
  info.graph = std::move(next);
#ifndef NDEBUG
  const Status verified = Verify();
  FLOWMOTIF_CHECK(verified.ok()) << verified;
#endif
  return info;
}

Status EpochLog::Verify() const {
  const auto fail = [](const std::string& what) {
    return Status::Internal("EpochLog::Verify: " + what);
  };
  const std::shared_ptr<const TimeSeriesGraph> graph = Snapshot();
  Status status = graph->Verify();
  if (!status.ok()) return status;
  bool any_published = false;
  Timestamp published_max = 0;
  for (const TimeSeriesGraph::PairEdge& pair : graph->pairs()) {
    const EdgeSeries& series = pair.series;
    if (series.timestamp_identity().epoch > epoch_) {
      return fail("series (" + std::to_string(pair.src) + ", " +
                  std::to_string(pair.dst) + ") is stamped with epoch " +
                  std::to_string(series.timestamp_identity().epoch) +
                  " > epoch() " + std::to_string(epoch_));
    }
    // Series are time-sorted (checked by the snapshot's Verify).
    const Timestamp series_max = series.time(series.size() - 1);
    if (!any_published || series_max > published_max) {
      published_max = series_max;
    }
    any_published = true;
  }
  if (any_published && watermark_ < published_max) {
    return fail("watermark is below a published timestamp");
  }
  for (size_t i = 0; i < tail_.size(); ++i) {
    const InteractionGraph::Edge& e = tail_[i];
    const std::string at = "tail edge " + std::to_string(i);
    if (e.src < 0 || e.dst < 0 || e.src >= num_vertices_ ||
        e.dst >= num_vertices_) {
      return fail(at + " has a vertex id outside [0, num_vertices())");
    }
    if (i > 0 && e.t < tail_[i - 1].t) return fail(at + " is out of time order");
    if (any_published && e.t < published_max) {
      return fail(at + " precedes a published timestamp");
    }
    if (e.t > watermark_) return fail(at + " is above the watermark");
  }
  return Status::OK();
}

std::shared_ptr<const TimeSeriesGraph> EpochLog::Snapshot() const {
  std::lock_guard<std::mutex> lock(snapshot_mutex_);
  return snapshot_;
}

}  // namespace flowmotif
