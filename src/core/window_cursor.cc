#include "core/window_cursor.h"

#include <functional>

#include "util/cancellation.h"
#include "util/failpoint.h"
#include "util/logging.h"

namespace flowmotif {

void ChargeComputedWindows(QueryControl* control, size_t num_windows,
                           size_t container_bytes) {
  if (control == nullptr) return;
  const int64_t elements = static_cast<int64_t>(num_windows);
  control->ChargeWindowElements(elements, failpoint::kCacheWindows);
  control->ChargeMemoryBytes(
      elements * static_cast<int64_t>(sizeof(Window)) +
          static_cast<int64_t>(container_bytes),
      failpoint::kCacheWindows);
}

void ResolveMatchSeries(const TimeSeriesGraph& graph, const Motif& motif,
                        MatchRef binding,
                        std::vector<const EdgeSeries*>* series) {
  const int m = motif.num_edges();
  series->resize(static_cast<size_t>(m));
  for (int i = 0; i < m; ++i) {
    const auto [src, dst] = motif.edge(i);
    const EdgeSeries* s = graph.FindSeries(binding[static_cast<size_t>(src)],
                                           binding[static_cast<size_t>(dst)]);
    FLOWMOTIF_CHECK(s != nullptr)
        << "binding is not a structural match of " << motif.name();
    (*series)[static_cast<size_t>(i)] = s;
  }
}

void UnionTimeline::Build(const std::vector<const EdgeSeries*>& series,
                          const WindowCursorSet& cursors) {
  const size_t m = series.size();
  times_.clear();
  heads_.assign(cursors.lo_indices().begin(), cursors.lo_indices().end());
  while (true) {
    Timestamp next = 0;
    bool any = false;
    for (size_t k = 0; k < m; ++k) {
      if (heads_[k] >= cursors.hi(k)) continue;
      const Timestamp t = series[k]->time(heads_[k]);
      if (!any || t < next) {
        next = t;
        any = true;
      }
    }
    if (!any) break;
    times_.push_back(next);
    for (size_t k = 0; k < m; ++k) {
      while (heads_[k] < cursors.hi(k) &&
             series[k]->time(heads_[k]) == next) {
        ++heads_[k];
      }
    }
  }
}

void TimelineOffsets::Build(const std::vector<const EdgeSeries*>& series,
                            const WindowCursorSet& cursors,
                            const UnionTimeline& timeline) {
  const size_t m = series.size();
  tau_ = timeline.size();
  lower_.resize(m * tau_);
  upper_.resize(m * tau_);
  for (size_t k = 0; k < m; ++k) {
    const std::vector<Timestamp>& times = series[k]->times();
    const size_t series_end = cursors.hi(k);
    size_t lower = cursors.lo(k);
    size_t upper = cursors.lo(k);
    size_t* lower_row = lower_.data() + k * tau_;
    size_t* upper_row = upper_.data() + k * tau_;
    for (size_t i = 0; i < tau_; ++i) {
      const Timestamp t = timeline[i];
      while (lower < series_end && times[lower] < t) ++lower;
      lower_row[i] = lower;
      if (upper < lower) upper = lower;
      while (upper < series_end && times[upper] <= t) ++upper;
      upper_row[i] = upper;
    }
  }
}

WindowListMru::WindowListMru(Timestamp delta, SharedWindowCache* tier,
                             QueryControl* control)
    : delta_(delta), tier_(tier), control_(control) {
  FLOWMOTIF_CHECK_GE(delta, 0);
  if (tier != nullptr) {
    FLOWMOTIF_CHECK_EQ(tier->delta(), delta)
        << "window-list tier bound to a different delta";
    lease_ = tier->AcquireTierLease();
  }
}

const std::vector<Window>& WindowListMru::Get(const EdgeSeries& first,
                                              const EdgeSeries& last) {
  const StorageIdentity first_id = first.timestamp_identity();
  const StorageIdentity last_id = last.timestamp_identity();
  if (first_id == first_id_ && last_id == last_id_) {
    return from_tier_ != nullptr ? *from_tier_ : windows_;
  }
  first_id_ = first_id;
  last_id_ = last_id;
  // A zero-capacity tier answers null: compute into the slot instead.
  from_tier_ = tier_ != nullptr
                   ? tier_->LeasedGet(&lease_, first, last, control_)
                   : nullptr;
  if (from_tier_ != nullptr) return *from_tier_;
  ComputeProcessedWindows(first, last, delta_, &windows_);
  ChargeComputedWindows(control_, windows_.size(), 0);
  return windows_;
}

namespace {

/// Smallest power of two >= n (n <= 2^63).
size_t NextPowerOfTwo(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

struct SharedWindowCache::Node {
  StorageIdentity first_id;
  StorageIdentity last_id;
  std::vector<Window> windows;
  Node* next;
};

/// One entry pool: a fixed open-hashed bucket array of insert-only node
/// chains plus a reservation counter. The tier rotates through
/// shared_ptr-owned ones, each freed when the last lease drops it.
struct SharedWindowCache::Generation {
  explicit Generation(size_t cap)
      : max_entries(cap),
        // Load factor <= 1 at saturation; the bucket array is fixed for
        // the generation's lifetime, which is what keeps reads
        // lock-free.
        buckets(NextPowerOfTwo(cap == 0 ? 1 : cap)) {
    for (std::atomic<Node*>& bucket : buckets) {
      bucket.store(nullptr, std::memory_order_relaxed);
    }
  }

  ~Generation() {
    for (std::atomic<Node*>& bucket : buckets) {
      Node* node = bucket.load(std::memory_order_acquire);
      while (node != nullptr) {
        Node* next = node->next;
        delete node;
        node = next;
      }
    }
  }

  const size_t max_entries;
  std::vector<std::atomic<Node*>> buckets;
  std::atomic<size_t> size{0};
};

namespace {

size_t HashIdentity(const StorageIdentity& id) {
  const size_t h = std::hash<const void*>()(id.storage);
  return h ^ (std::hash<size_t>()(id.epoch) + 0x9e3779b9u + (h << 6) +
              (h >> 2));
}

size_t PairHash(const StorageIdentity& first_id,
                const StorageIdentity& last_id) {
  const size_t h = HashIdentity(first_id);
  return h ^ (HashIdentity(last_id) + 0x9e3779b9u + (h << 6) + (h >> 2));
}

}  // namespace

SharedWindowCache::SharedWindowCache(Timestamp delta, size_t max_entries,
                                     bool)
    : delta_(delta),
      max_entries_(max_entries),
      cur_(std::make_shared<Generation>(max_entries)) {
  FLOWMOTIF_CHECK_GE(delta, 0);
}

SharedWindowCache::~SharedWindowCache() = default;

size_t SharedWindowCache::size() const {
  std::lock_guard<std::mutex> lock(gen_mu_);
  size_t total = cur_->size.load(std::memory_order_acquire);
  if (prev_ != nullptr) total += prev_->size.load(std::memory_order_acquire);
  return total;
}

SharedWindowCache::Node* SharedWindowCache::FindIn(
    const Generation& gen, const StorageIdentity& first_id,
    const StorageIdentity& last_id) {
  const std::atomic<Node*>& bucket =
      gen.buckets[PairHash(first_id, last_id) & (gen.buckets.size() - 1)];
  for (Node* node = bucket.load(std::memory_order_acquire); node != nullptr;
       node = node->next) {
    if (node->first_id == first_id && node->last_id == last_id) return node;
  }
  return nullptr;
}

bool SharedWindowCache::TryReserve(Generation* gen) {
  // Reserve a slot before building. The CAS loop (rather than a
  // blind fetch_add with rollback) keeps `size()` <= max_entries even
  // transiently, and once saturated every further miss costs one
  // relaxed load — no contended RMW on the shared counter.
  size_t reserved = gen->size.load(std::memory_order_relaxed);
  while (true) {
    if (reserved >= gen->max_entries) return false;
    if (gen->size.compare_exchange_weak(reserved, reserved + 1,
                                        std::memory_order_acq_rel,
                                        std::memory_order_relaxed)) {
      return true;
    }
  }
}

const std::vector<Window>* SharedWindowCache::InsertReserved(Generation* gen,
                                                             Node* node) {
  std::atomic<Node*>& bucket =
      gen->buckets[PairHash(node->first_id, node->last_id) &
                   (gen->buckets.size() - 1)];
  // CAS-insert at the bucket head. A racing insert of the same key may
  // have published between the caller's lookup miss and here, so every
  // attempt first scans the chain prefix not yet examined (insert-only
  // means new nodes only ever prepend); on finding the racer we adopt
  // its list, delete ours, and release the reserved slot.
  Node* scanned_until = nullptr;
  Node* expected = bucket.load(std::memory_order_acquire);
  while (true) {
    for (Node* other = expected; other != scanned_until;
         other = other->next) {
      if (other->first_id == node->first_id &&
          other->last_id == node->last_id) {
        const std::vector<Window>* windows = &other->windows;
        delete node;
        gen->size.fetch_sub(1, std::memory_order_acq_rel);
        return windows;
      }
    }
    scanned_until = expected;
    node->next = expected;
    if (bucket.compare_exchange_weak(expected, node,
                                     std::memory_order_release,
                                     std::memory_order_acquire)) {
      return &node->windows;
    }
  }
}

SharedWindowCache::TierLease SharedWindowCache::AcquireTierLease() {
  TierLease lease;
  std::lock_guard<std::mutex> lock(gen_mu_);
  lease.cur_ = cur_;
  lease.prev_ = prev_;
  return lease;
}

void SharedWindowCache::Rotate(TierLease* lease) {
  std::lock_guard<std::mutex> lock(gen_mu_);
  if (cur_ == lease->cur_) {
    // This lease saw the newest generation saturated: rotate. The old
    // previous generation leaves the publication path here, but its
    // nodes live on until every lease that served pointers from it
    // drains — that, not the rotation, is the free point.
    prev_ = std::move(cur_);
    cur_ = std::make_shared<Generation>(max_entries_);
    rotations_.fetch_add(1, std::memory_order_relaxed);
  }
  // Refresh the lease to the cache's current pair (another reader — or
  // a sweep — may already have moved it past the saturated generation
  // this lease saw). Everything the lease moves past stays retained.
  lease->retained_.push_back(std::move(lease->cur_));
  if (lease->prev_ != nullptr) {
    lease->retained_.push_back(std::move(lease->prev_));
  }
  lease->cur_ = cur_;
  lease->prev_ = prev_;
}

const std::vector<Window>* SharedWindowCache::LeasedGet(
    TierLease* lease, const EdgeSeries& first, const EdgeSeries& last,
    QueryControl* control) {
  FLOWMOTIF_CHECK(lease != nullptr && lease->active());
  lookups_.fetch_add(1, std::memory_order_relaxed);
  const StorageIdentity first_id = first.timestamp_identity();
  const StorageIdentity last_id = last.timestamp_identity();
  if (Node* node = FindIn(*lease->cur_, first_id, last_id)) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    return &node->windows;
  }
  if (lease->prev_ != nullptr) {
    if (Node* node = FindIn(*lease->prev_, first_id, last_id)) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      // Clock second chance: copy the touched entry into the current
      // generation so it survives the next rotation. Not billed — the
      // windows were charged when first materialized. If the current
      // generation is full the hit is still served from previous (the
      // next miss will rotate anyway).
      if (TryReserve(lease->cur_.get())) {
        Node* copy = new Node{first_id, last_id, node->windows, nullptr};
        return InsertReserved(lease->cur_.get(), copy);
      }
      return &node->windows;
    }
  }
  if (max_entries_ == 0) return nullptr;
  // Saturated: rotate instead of declining, then retry through the
  // refreshed lease. Loop, not a single retry — under contention the
  // refreshed current generation may already have been filled by other
  // threads, and each Rotate call either installs a fresh generation
  // or moves the lease to a strictly newer one, so this terminates.
  while (!TryReserve(lease->cur_.get())) {
    Rotate(lease);
  }
  Node* node = new Node{first_id, last_id,
                        ComputeProcessedWindows(first, last, delta_),
                        nullptr};
  ChargeComputedWindows(control, node->windows.size(), sizeof(Node));
  return InsertReserved(lease->cur_.get(), node);
}

void SharedWindowCache::SweepGenerations(
    const std::function<bool(const StorageIdentity&)>& live) {
  std::lock_guard<std::mutex> lock(gen_mu_);
  auto fresh = std::make_shared<Generation>(max_entries_);
  const Generation* sources[2] = {cur_.get(), prev_.get()};
  bool full = false;
  for (const Generation* gen : sources) {
    if (gen == nullptr || full) continue;
    for (const std::atomic<Node*>& bucket : gen->buckets) {
      if (full) break;
      for (Node* node = bucket.load(std::memory_order_acquire);
           node != nullptr; node = node->next) {
        if (!live(node->first_id) || !live(node->last_id)) continue;
        // Current generation is copied first, so on a duplicate key the
        // fresher entry wins (they are byte-identical anyway: same
        // identities, same delta).
        if (FindIn(*fresh, node->first_id, node->last_id) != nullptr) {
          continue;
        }
        if (!TryReserve(fresh.get())) {
          full = true;
          break;
        }
        Node* copy =
            new Node{node->first_id, node->last_id, node->windows, nullptr};
        InsertReserved(fresh.get(), copy);
      }
    }
  }
  prev_.reset();
  cur_ = std::move(fresh);
}

}  // namespace flowmotif
