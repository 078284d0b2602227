#include "util/keyed_permutation.h"

#include <cmath>
#include <numeric>

#include "util/logging.h"
#include "util/random.h"

namespace flowmotif {

namespace {

/// The SplitMix64 finalizer: a bijective 64-bit mix.
uint64_t Mix64(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

constexpr uint64_t kGolden = 0x9e3779b97f4a7c15ULL;

}  // namespace

KeyedPermutation::KeyedPermutation(uint64_t n, uint64_t seed, uint64_t draw)
    : n_(n) {
  // The draw key; the round keys are a SplitMix64 stream from it.
  uint64_t state = Mix64(Mix64(seed + kGolden) ^ draw);
  if (n <= kTableSlots) {
    table_.resize(n);
    std::iota(table_.begin(), table_.end(), uint32_t{0});
    Rng rng(state);
    rng.Shuffle(&table_);
    return;
  }
  FLOWMOTIF_CHECK_LE(n, uint64_t{1} << 32);
  a_ = static_cast<uint64_t>(std::sqrt(static_cast<double>(n)));
  while (a_ * a_ < n) ++a_;
  while ((a_ - 1) * (a_ - 1) >= n) --a_;
  b_ = (n + a_ - 1) / a_;
  for (int r = 0; r < kRounds; ++r) {
    const uint64_t domain = r % 2 == 0 ? b_ : a_;
    const uint64_t radix = r % 2 == 0 ? a_ : b_;
    state += kGolden;
    const uint64_t key = Mix64(state);
    round_begin_[r] = rounds_.size();
    for (uint64_t y = 0; y < domain; ++y) {
      // SplitMix64 output y + 1 of the round's stream, reduced to the
      // radix by a multiply-high of its top 32 bits.
      const uint64_t hash = Mix64(key + (y + 1) * kGolden) >> 32;
      rounds_.push_back(static_cast<uint16_t>((hash * radix) >> 32));
    }
  }
}

void KeyedPermutation::Evaluate(uint64_t first, uint64_t count,
                                uint64_t* out) const {
  FLOWMOTIF_CHECK_LE(first + count, n_);
  if (!table_.empty() || count == 0) {
    for (uint64_t k = 0; k < count; ++k) out[k] = table_[first + k];
    return;
  }
  // Raw pointers in locals: the compiler keeps them in registers across
  // the stores to `out`.
  const uint16_t* f[kRounds];
  for (int r = 0; r < kRounds; ++r) f[r] = rounds_.data() + round_begin_[r];
  const uint64_t a = a_;
  const uint64_t b = b_;
  const uint64_t n = n_;
  const auto encrypt = [&](uint64_t x, uint64_t y) {
    uint64_t x_radix = a;
    uint64_t y_radix = b;
#pragma GCC unroll 4
    for (int r = 0; r < kRounds; ++r) {
      uint64_t z = x + f[r][y];
      z = z >= x_radix ? z - x_radix : z;
      x = y;
      y = z;
      std::swap(x_radix, y_radix);
    }
    // An even round count restores the (a, b) layout.
    return x * b + y;
  };
  // Walk the input's mixed-radix digits instead of dividing per slot.
  uint64_t x = first / b;
  uint64_t y = first % b;
  for (uint64_t k = 0; k < count; ++k) {
    uint64_t v = encrypt(x, y);
    while (v >= n) v = encrypt(v / b, v % b);
    out[k] = v;
    if (++y == b) {
      y = 0;
      ++x;
    }
  }
}

}  // namespace flowmotif
