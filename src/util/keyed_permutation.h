#ifndef FLOWMOTIF_UTIL_KEYED_PERMUTATION_H_
#define FLOWMOTIF_UTIL_KEYED_PERMUTATION_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace flowmotif {

/// Draw `draw` of a seeded family of pseudo-random bijections π of the
/// slots [0, n) — the flow permutation of the significance null model
/// (Sec. 6.3): slot p of draw i carries original value π_i(p). The
/// permutation is keyed by a SplitMix64 mix of (seed, draw), so any
/// π_i(p) is computable on its own in O(1): draws do not depend on each
/// other, on the order they are taken in, on the thread that takes them,
/// or on which slots a caller reads.
///
/// Two regimes, one function of (n, seed, draw):
///  * n <= kTableSlots: the Fisher-Yates shuffle of the identity under an
///    Rng seeded with the key — exactly uniform. A Feistel network on a
///    domain this small is measurably far from uniform (per-slot
///    marginal chi-square z of 14.5 at n = 5 for the network below).
///  * larger n: a 4-round Feistel network with modular addition over the
///    mixed-radix domain [0, a) x [0, b), a = ceil(sqrt(n)),
///    b = ceil(n / a), cycle-walked back into [0, n). Since a * b - n < a,
///    fewer than one input in b walks at all. Round r adds F_r(y) to x
///    modulo x's radix, F_r a SplitMix64 output reduced to that radix;
///    since y ranges over only a or b values, the constructor tabulates
///    each F_r (about 4 sqrt(n) entries), and a slot costs four table
///    lookups and modular adds. Evaluate walks a contiguous slot range
///    without a division per slot.
/// π is pseudo-random, not uniform over all n! orders; the
/// flow_permutation tests bound its per-slot marginals by a chi-square
/// test. Requires n <= 2^32.
class KeyedPermutation {
 public:
  static constexpr uint64_t kTableSlots = 1024;

  KeyedPermutation(uint64_t n, uint64_t seed, uint64_t draw);

  uint64_t size() const { return n_; }

  /// π(p) for p < size().
  uint64_t operator()(uint64_t p) const {
    uint64_t v = 0;
    Evaluate(p, 1, &v);
    return v;
  }

  /// Writes π(first), ..., π(first + count - 1) to out[0..count).
  /// Requires first + count <= size().
  void Evaluate(uint64_t first, uint64_t count, uint64_t* out) const;

 private:
  static constexpr int kRounds = 4;

  uint64_t n_;
  uint64_t a_ = 0;
  uint64_t b_ = 1;
  // Small n: π itself. Larger n: the round functions, F_r at
  // round_begin_[r] (r even: b_ entries reduced to a_, r odd: a_
  // entries reduced to b_; every value < 2^16 since a_, b_ <= 2^16).
  std::vector<uint32_t> table_;
  std::vector<uint16_t> rounds_;
  size_t round_begin_[kRounds] = {};
};

/// Draw `draw` of the null model over `values`:
/// (*out)[p] = values[π(p)] for π = KeyedPermutation(values.size(), seed,
/// draw). The one definition of a permuted flow vector — every route
/// that permutes flows (full draws, views, sparse arena fills) reads
/// slot p of draw i as values[π_i(p)].
template <typename T>
void ApplyKeyedPermutation(const std::vector<T>& values, uint64_t seed,
                           uint64_t draw, std::vector<T>* out) {
  const KeyedPermutation perm(values.size(), seed, draw);
  out->resize(values.size());
  // Slot indices first, then the gather: a chunk of independent loads
  // keeps many cache misses in flight, which the lookup chain
  // interleaved with each load would not.
  constexpr uint64_t kChunk = 256;
  uint64_t slots[kChunk];
  for (uint64_t first = 0; first < values.size(); first += kChunk) {
    const uint64_t count = std::min<uint64_t>(kChunk, values.size() - first);
    perm.Evaluate(first, count, slots);
    for (uint64_t k = 0; k < count; ++k) {
      (*out)[first + k] = values[slots[k]];
    }
  }
}

}  // namespace flowmotif

#endif  // FLOWMOTIF_UTIL_KEYED_PERMUTATION_H_
