#include "engine/batching.h"

#include <algorithm>
#include <utility>

#include "util/logging.h"

namespace flowmotif {

ShardPrefixMerger::ShardPrefixMerger(int64_t num_shards, int64_t max_matches)
    : shards_(static_cast<size_t>(num_shards)),
      complete_(static_cast<size_t>(num_shards), false),
      max_matches_(max_matches) {
  FLOWMOTIF_CHECK_GE(num_shards, 0);
}

std::vector<ShardPrefixMerger::ReleasedShardEntry> ShardPrefixMerger::Complete(
    int64_t shard, MatchList matches) {
  std::lock_guard<std::mutex> lock(mu_);
  FLOWMOTIF_CHECK_GE(shard, 0);
  FLOWMOTIF_CHECK_LT(shard, static_cast<int64_t>(shards_.size()));
  FLOWMOTIF_CHECK(!complete_[static_cast<size_t>(shard)])
      << "shard " << shard << " completed twice";
  shards_[static_cast<size_t>(shard)] = std::move(matches);
  complete_[static_cast<size_t>(shard)] = true;

  std::vector<ReleasedShardEntry> released;
  while (next_unreleased_ < static_cast<int64_t>(shards_.size()) &&
         complete_[static_cast<size_t>(next_unreleased_)]) {
    MatchList& buffer = shards_[static_cast<size_t>(next_unreleased_)];
    if (max_matches_ >= 0) {
      const int64_t room =
          std::max<int64_t>(0, max_matches_ - released_matches_);
      if (static_cast<int64_t>(buffer.size()) > room) {
        buffer.Truncate(static_cast<size_t>(room));
        truncated_ = true;
      }
    }
    released.push_back({next_unreleased_, {released_matches_, &buffer}});
    released_matches_ += static_cast<int64_t>(buffer.size());
    ++next_unreleased_;
  }
  return released;
}

void ShardPrefixMerger::FreeShard(int64_t shard) {
  std::lock_guard<std::mutex> lock(mu_);
  FLOWMOTIF_CHECK_GE(shard, 0);
  FLOWMOTIF_CHECK_LT(shard, static_cast<int64_t>(shards_.size()));
  // Element addresses in shards_ stay stable; only this slot's buffer
  // is reclaimed.
  shards_[static_cast<size_t>(shard)].Release();
}

int64_t ShardPrefixMerger::num_released() const {
  std::lock_guard<std::mutex> lock(mu_);
  return released_matches_;
}

bool ShardPrefixMerger::truncated() const {
  std::lock_guard<std::mutex> lock(mu_);
  return truncated_;
}

}  // namespace flowmotif
