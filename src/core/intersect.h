// Set intersection of tile index lists (Algorithm 2, lines 6-18).
//
// Matching the non-empty tiles of a tile row of A against a tile column of
// B is a sorted-set intersection. The paper searches each element of the
// shorter list in the longer one with a binary search whose left bound is
// narrowed after every hit (both lists are sorted); intersect_tiles keeps
// that form as the test oracle and for the tsparse baseline.
//
// Steps 2 and 3 use TileRowStamp instead: Gustavson's dense marker array
// applied to tile ids. A worker stamps the positions of A's tile row i once
// and then answers every C tile (i, j) it visits with one lookup per entry
// of B's tile column j. The binned schedule keeps tile order within a bin,
// so consecutive visits mostly share a tile row and re-stamps are rare.
#pragma once

#include <algorithm>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "common/config.h"
#include "common/memory.h"

namespace tsg {

/// One matched (A_ik, B_kj) tile pair, by storage id.
struct MatchedPair {
  offset_t tile_a;
  offset_t tile_b;
};

// Pairs are bulk-copied between per-thread caches and the step-3 consumers
// (vector::insert over raw ranges); the type must stay a plain value.
static_assert(std::is_trivially_copyable_v<MatchedPair> &&
                  std::is_standard_layout_v<MatchedPair>,
              "MatchedPair is memcpy'd through per-thread pair caches");

namespace detail {

/// Lower-bound binary search in arr[lo, hi) for `key`; returns hi if absent.
inline index_t lower_bound_idx(const index_t* arr, index_t lo, index_t hi, index_t key) {
  while (lo < hi) {
    const index_t mid = lo + (hi - lo) / 2;
    if (arr[mid] < key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace detail

/// Intersect the sorted tile-column list of A's tile row i
/// (a_cols[0..len_a), whose s-th entry is tile id a_base+s) with the sorted
/// tile-row list of B's tile column j (b_rows[0..len_b), whose s-th entry is
/// tile id b_ids[s]). Appends matched pairs to `out` in increasing k order.
inline void intersect_tiles(const index_t* a_cols, offset_t a_base, index_t len_a,
                            const index_t* b_rows, const offset_t* b_ids, index_t len_b,
                            std::vector<MatchedPair>& out) {
  if (len_a == 0 || len_b == 0) return;

  // Probe each element of the shorter list into the longer one. After a
  // hit the left search bound moves past the match (both lists are
  // sorted), shrinking every subsequent search range.
  if (len_a <= len_b) {
    index_t left = 0;
    for (index_t s = 0; s < len_a; ++s) {
      const index_t pos = detail::lower_bound_idx(b_rows, left, len_b, a_cols[s]);
      if (pos < len_b && b_rows[pos] == a_cols[s]) {
        out.push_back({a_base + s, b_ids[pos]});
        left = pos + 1;
      } else {
        left = pos;
      }
      if (left >= len_b) break;
    }
  } else {
    index_t left = 0;
    for (index_t s = 0; s < len_b; ++s) {
      const index_t pos = detail::lower_bound_idx(a_cols, left, len_a, b_rows[s]);
      if (pos < len_a && a_cols[pos] == b_rows[s]) {
        out.push_back({a_base + pos, b_ids[s]});
        left = pos + 1;
      } else {
        left = pos;
      }
      if (left >= len_a) break;
    }
  }
}

/// One worker's stamp of an A tile row: entry k holds the storage id of
/// A tile (row, k). An entry is live for the stamped row exactly when it
/// lies in that row's storage range, so moving to another row of the same
/// A only writes the new row's entries: a stale entry names a tile of
/// another row, whose range is disjoint. Entries written under a previous
/// A carry no such guarantee, hence reset().
class TileRowStamp {
 public:
  /// Size for an A with `tile_cols` tile columns (capacity is kept across
  /// calls).
  void prepare(index_t tile_cols) {
    if (pos_.size() < static_cast<std::size_t>(tile_cols)) {
      pos_.assign(static_cast<std::size_t>(tile_cols), kUnstamped);
    }
    width_ = tile_cols;
  }

  /// Forget the stamped row. The next intersect() clears every entry
  /// before it stamps, so a reused context never trusts a previous A.
  void reset() { row_ = kNoRow; }

  /// Appends to `out`, in increasing k, the matched pairs of A's tile row
  /// `row` (a_cols[0..len_a), tile ids a_base + s) with B's tile column
  /// (b_rows[0..len_b), tile ids b_ids[s]): the pairs intersect_tiles
  /// gives, in the same order. Re-stamps only when `row` differs from the
  /// row stamped last. Requires prepare() with A's tile_cols.
  void intersect(index_t row, const index_t* a_cols, offset_t a_base, index_t len_a,
                 const index_t* b_rows, const offset_t* b_ids, index_t len_b,
                 std::vector<MatchedPair>& out) {
    if (len_a == 0 || len_b == 0) return;
    if (row != row_) {
      if (row_ == kNoRow) std::fill_n(pos_.begin(), width_, kUnstamped);
      for (index_t s = 0; s < len_a; ++s) pos_[static_cast<std::size_t>(a_cols[s])] = a_base + s;
      row_ = row;
    }
    // One unsigned compare tests a_base <= pos < a_base + len_a.
    const auto len = static_cast<std::uint64_t>(len_a);
    for (index_t s = 0; s < len_b; ++s) {
      const offset_t pos = pos_[static_cast<std::size_t>(b_rows[s])];
      if (static_cast<std::uint64_t>(pos - a_base) < len) out.push_back({pos, b_ids[s]});
    }
  }

  std::size_t bytes() const { return pos_.capacity() * sizeof(offset_t); }

 private:
  static constexpr offset_t kUnstamped = -1;
  static constexpr index_t kNoRow = -1;

  tracked_vector<offset_t> pos_;
  index_t width_ = 0;
  index_t row_ = kNoRow;
};

}  // namespace tsg
