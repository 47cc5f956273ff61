#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

/// \file row_index.h
/// A flat open-addressing index of row ids: the hash table behind row
/// matching (`MatchRowsOnKeys`), deduplication (`DeduplicateRows`) and the
/// facade's distinctness check. The caller hashes rows to 64 bits and says
/// when two rows are equal; the index keeps one row id per distinct row in
/// one array, so a probe allocates nothing. It stores no hashes: the caller's
/// `hash_of(row)` gives a stored row's hash, which the index compares before
/// it asks `equal(row)`, and uses to place rows when it grows. Rows are
/// `size_t`, so any table fits.

namespace amalur {
namespace rel {

class RowIndex {
 public:
  /// No row.
  static constexpr size_t kNone = static_cast<size_t>(-1);

  /// An index with room for `rows` distinct rows before it grows.
  explicit RowIndex(size_t rows = 0) { Allocate(rows); }

  /// The stored row r with hash_of(r) == hash that `equal(r)` accepts, or
  /// `kNone`.
  template <typename HashOf, typename Equal>
  size_t Find(uint64_t hash, const HashOf& hash_of, const Equal& equal) const {
    return slots_[Probe(hash, hash_of, equal)];
  }

  /// As `Find`; where no stored row is equal, stores `row` (whose hash is
  /// `hash`) and returns it. So a caller that inserts rows in ascending
  /// order gets, for each row, the first row equal to it.
  template <typename HashOf, typename Equal>
  size_t FindOrInsert(uint64_t hash, size_t row, const HashOf& hash_of,
                      const Equal& equal) {
    size_t& slot = slots_[Probe(hash, hash_of, equal)];
    if (slot != kNone) return slot;
    slot = row;
    if (2 * ++size_ > slots_.size()) {
      std::vector<size_t> old = std::move(slots_);
      Allocate(old.size());
      for (size_t stored : old) {
        if (stored == kNone) continue;
        size_t s = Home(hash_of(stored));
        while (slots_[s] != kNone) s = (s + 1) & mask_;
        slots_[s] = stored;
      }
    }
    return row;
  }

 private:
  /// Fibonacci hashing: the top bits of hash · 2^64/φ pick the home slot.
  size_t Home(uint64_t hash) const {
    return static_cast<size_t>((hash * 0x9E3779B97F4A7C15ULL) >> shift_);
  }

  /// The slot holding the row equal to the probe, else the empty slot
  /// where it would go (linear probing from the home slot).
  template <typename HashOf, typename Equal>
  size_t Probe(uint64_t hash, const HashOf& hash_of, const Equal& equal) const {
    for (size_t s = Home(hash);; s = (s + 1) & mask_) {
      const size_t stored = slots_[s];
      if (stored == kNone || (hash_of(stored) == hash && equal(stored))) {
        return s;
      }
    }
  }

  /// Empty slots for `rows` rows at a load of at most one half.
  void Allocate(size_t rows) {
    size_t capacity = 8;
    shift_ = 61;
    while (capacity < 2 * rows) {
      capacity *= 2;
      --shift_;
    }
    slots_.assign(capacity, kNone);
    mask_ = capacity - 1;
  }

  std::vector<size_t> slots_;
  size_t mask_ = 0;
  unsigned shift_ = 0;
  size_t size_ = 0;
};

}  // namespace rel
}  // namespace amalur
