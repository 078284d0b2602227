#ifndef FLOWMOTIF_CORE_MATCH_LIST_H_
#define FLOWMOTIF_CORE_MATCH_LIST_H_

#include <algorithm>
#include <cstddef>
#include <vector>

#include "core/motif.h"
#include "util/logging.h"

namespace flowmotif {

/// A read-only view of one structural match: element i is the graph
/// vertex motif node i maps to. It points into a MatchBinding or into a
/// row of a MatchList and is valid only while that storage lives — the
/// per-match entry points of phase P2 take it so a match never has to
/// be copied into its own heap vector.
class MatchRef {
 public:
  MatchRef() = default;
  MatchRef(const VertexId* data, size_t size) : data_(data), size_(size) {}
  /// Views `binding` in place (implicit, like a string_view).
  MatchRef(const MatchBinding& binding)  // NOLINT
      : data_(binding.data()), size_(binding.size()) {}

  VertexId operator[](size_t i) const { return data_[i]; }
  size_t size() const { return size_; }
  const VertexId* begin() const { return data_; }
  const VertexId* end() const { return data_ + size_; }

  /// An owning copy.
  MatchBinding ToBinding() const { return MatchBinding(begin(), end()); }

  friend bool operator==(MatchRef a, MatchRef b) {
    return a.size_ == b.size_ && std::equal(a.begin(), a.end(), b.begin());
  }

 private:
  const VertexId* data_ = nullptr;
  size_t size_ = 0;
};

/// Structural matches stored flat: one contiguous VertexId buffer with a
/// fixed stride (the motif's node count), match i at [i * stride,
/// (i + 1) * stride). A phase-P1 match list of n matches is one
/// allocation of n * stride * 4 bytes instead of n separately allocated
/// MatchBinding vectors (~56 bytes each with allocator overhead).
class MatchList {
 public:
  MatchList() = default;
  explicit MatchList(size_t stride) : stride_(stride) {}
  /// Flattens `bindings`, which must all have `stride` entries.
  MatchList(size_t stride, const std::vector<MatchBinding>& bindings)
      : stride_(stride) {
    data_.reserve(bindings.size() * stride);
    for (const MatchBinding& b : bindings) Append(b);
  }

  size_t stride() const { return stride_; }
  size_t size() const { return stride_ == 0 ? 0 : data_.size() / stride_; }
  bool empty() const { return data_.empty(); }

  MatchRef operator[](size_t i) const {
    return MatchRef(data_.data() + i * stride_, stride_);
  }

  void Append(MatchRef match) {
    FLOWMOTIF_CHECK_EQ(match.size(), stride_);
    data_.insert(data_.end(), match.begin(), match.end());
  }
  /// Appends every match of `other` (same stride) in order.
  void Append(const MatchList& other) {
    FLOWMOTIF_CHECK_EQ(other.stride_, stride_);
    data_.insert(data_.end(), other.data_.begin(), other.data_.end());
  }
  void Reserve(size_t num_matches) { data_.reserve(num_matches * stride_); }
  /// Keeps the first `num_matches` matches.
  void Truncate(size_t num_matches) {
    if (num_matches < size()) data_.resize(num_matches * stride_);
  }
  /// Empties the list and returns its storage.
  void Release() { std::vector<VertexId>().swap(data_); }

  /// Owning copies of every match, in order.
  std::vector<MatchBinding> ToBindings() const {
    std::vector<MatchBinding> out;
    out.reserve(size());
    for (size_t i = 0; i < size(); ++i) out.push_back((*this)[i].ToBinding());
    return out;
  }

 private:
  size_t stride_ = 0;
  std::vector<VertexId> data_;
};

}  // namespace flowmotif

#endif  // FLOWMOTIF_CORE_MATCH_LIST_H_
