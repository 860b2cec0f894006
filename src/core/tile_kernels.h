// Per-tile numeric kernels shared by step 3 and the fused step-2+3 path,
// for plain, masked and semiring products alike. Each kernel works on one
// output tile whose symbolic structure (16 row masks + local row pointers)
// is already known; all state fits in registers / L1, mirroring the paper's
// warp-local accumulation (Algorithm 3).
//
// Two compile-time parameters cover every product the engine runs:
//   * S, the semiring (semiring.h). PlusTimes<T> takes the dispatched
//     sparse/dense kernels; any other semiring takes the generic sparse
//     accumulator (identity fill, then reduce(slot, combine(va, vb))).
//   * kMasked, set when an output mask was ANDed into the tile's row masks
//     in step 2. Those masks are then no longer the OR of B's rows, so
//     products outside them must be skipped rather than scattered.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "core/intersect.h"
#include "core/semiring.h"
#include "core/simd_dispatch.h"
#include "core/tile_format.h"

namespace tsg {
namespace detail {

/// Reduce the products of all matched pairs into `slots` via popcount-rank
/// indexing (Algorithm 3 lines 4-12): the final position of column cb in
/// C's local row r is row_ptr[r] + rank of cb in mask[r]. For PlusTimes the
/// reduce(slot, combine(va, vb)) below is exactly `slot += va * vb`.
template <class S, bool kMasked, class T>
inline void accumulate_pairs_sparse(const TileMatrix<T>& a, const TileMatrix<T>& b,
                                    const MatchedPair* pairs, std::size_t pair_count,
                                    const rowmask_t* mask_c, const std::uint8_t* row_ptr_c,
                                    T* slots) {
  for (std::size_t pi = 0; pi < pair_count; ++pi) {
    const MatchedPair& p = pairs[pi];
    const offset_t a_nz = a.tile_nnz[p.tile_a];
    const index_t a_cnt = a.tile_nnz_of(p.tile_a);
    const offset_t b_nz = b.tile_nnz[p.tile_b];
    for (index_t k = 0; k < a_cnt; ++k) {
      const std::size_t ga = static_cast<std::size_t>(a_nz + k);
      const index_t r = a.row_idx[ga];
      const index_t col_a = a.col_idx[ga];
      const T va = a.val[ga];
      index_t lo, hi;
      b.tile_row_range(p.tile_b, col_a, lo, hi);
      const std::uint8_t base = row_ptr_c[r];
      const rowmask_t m = mask_c[r];
      if (kMasked && m == 0) continue;  // whole output row masked away
      for (index_t kb = lo; kb < hi; ++kb) {
        const std::size_t gb = static_cast<std::size_t>(b_nz + kb);
        const index_t cb = b.col_idx[gb];
        if (kMasked && (m & bit_of(cb)) == 0) continue;  // outside the mask
        T& slot = slots[base + mask_rank(m, cb)];
        slot = S::reduce(slot, S::combine(va, b.val[gb]));
      }
    }
  }
}

/// The accumulate kernel's view of one matched pair.
template <class T>
inline simd::PairTiles<T> pair_tiles(const TileMatrix<T>& a, const TileMatrix<T>& b,
                                     const MatchedPair& p) {
  const auto a_nz = static_cast<std::size_t>(a.tile_nnz[p.tile_a]);
  const auto b_nz = static_cast<std::size_t>(b.tile_nnz[p.tile_b]);
  const std::size_t b_rows = static_cast<std::size_t>(p.tile_b) * kTileDim;
  return {a.row_idx.data() + a_nz, a.col_idx.data() + a_nz, a.val.data() + a_nz,
          a.tile_nnz_of(p.tile_a),  b.mask.data() + b_rows,  b.row_ptr.data() + b_rows,
          b.col_idx.data() + b_nz,  b.val.data() + b_nz,     b.tile_nnz_of(p.tile_b)};
}

/// Accumulate into a dense 16x16 scratch tile through the dispatched
/// per-pair kernel, then compress through the mask (Algorithm 3 lines
/// 13-17). Unmasked, only rows that hold an output nonzero are zeroed: no
/// product lands anywhere else, and the compress reads nothing else. Masked,
/// products also land in rows the mask emptied, so all 16 rows are zeroed;
/// lanes outside the mask are computed but never compressed. Every level's
/// kernel keeps the oracle's per-entry order (see simd::NumericOps), which
/// is what keeps every simd::Level bit-identical. `out` needs capacity
/// kTileNnzMax unless nops.compress_exact.
template <bool kMasked, class T>
inline void accumulate_pairs_dense(const TileMatrix<T>& a, const TileMatrix<T>& b,
                                   const MatchedPair* pairs, std::size_t pair_count,
                                   const rowmask_t* mask_c, T* out,
                                   const simd::NumericOps& nops) {
  alignas(64) T acc[kTileNnzMax];
  if (kMasked) {
    std::fill_n(acc, kTileNnzMax, T{});
  } else {
    for (index_t r = 0; r < kTileDim; ++r) {
      if (mask_c[r] != 0) {
        std::fill_n(acc + static_cast<std::size_t>(r) * kTileDim, kTileDim, T{});
      }
    }
  }
  for (std::size_t pi = 0; pi < pair_count; ++pi) {
    simd::accumulate_pair<T>(nops, pair_tiles(a, b, pairs[pi]), acc);
  }
  // Compress: the mask's bit order in packed-word form equals the storage
  // order of the tile's nonzeros (with four rows per word, bit b of word
  // wi indexes dense slot 64*wi + b), so the dispatched compress kernel is
  // a pure in-order gather of the set slots.
  simd::compress_tile<T>(nops, acc, mask_c, out);
}

/// Whether tile-level accumulation should take the dense 256-slot path for
/// an output tile of `nnz_c` nonzeros under the given options. Keeping the
/// predicate in one place guarantees the fused step-2 path and the staged
/// step-3 path choose the same accumulator for a tile.
inline bool use_dense_accumulator(const TileSpgemmOptions& options, index_t nnz_c) {
  return options.accumulator == AccumulatorPolicy::kAlwaysDense ||
         (options.accumulator == AccumulatorPolicy::kAdaptive && nnz_c > options.tnnz);
}

/// Accumulate one output tile's nnz_c values into `out` over semiring S;
/// returns whether the dense accumulator ran. PlusTimes takes the one the
/// options pick; other semirings always take the generic sparse one.
/// `out` may point into C's shared values: the dense path bounces through a
/// local scratch when the level's compress over-stores, unless kRoomyOut
/// says `out` has room for kTileNnzMax values.
template <class S, bool kMasked, bool kRoomyOut = false, class T>
inline bool accumulate_tile(const TileMatrix<T>& a, const TileMatrix<T>& b,
                            const MatchedPair* pairs, std::size_t pair_count,
                            const rowmask_t* mask_c, const std::uint8_t* row_ptr_c,
                            index_t nnz_c, const TileSpgemmOptions& options,
                            const simd::NumericOps& nops, T* out) {
  if (!std::is_same_v<S, PlusTimes<T>> || !use_dense_accumulator(options, nnz_c)) {
    std::fill_n(out, nnz_c, S::identity());
    accumulate_pairs_sparse<S, kMasked>(a, b, pairs, pair_count, mask_c, row_ptr_c, out);
    return false;
  }
  if (kRoomyOut || nops.compress_exact) {
    accumulate_pairs_dense<kMasked>(a, b, pairs, pair_count, mask_c, out, nops);
  } else {
    T scratch[kTileNnzMax];
    accumulate_pairs_dense<kMasked>(a, b, pairs, pair_count, mask_c, scratch, nops);
    std::copy_n(scratch, nnz_c, out);
  }
  return true;
}

/// Materialise a tile's local row/column index arrays from its 16 row
/// masks; the mask bit order is the storage order. Writes nnz_c entries at
/// row_idx/col_idx (already offset to the tile's base). Word-packed: one
/// bit-scan loop over four 64-bit words instead of sixteen per-row loops —
/// bit b of word wi is local (4*wi + b/16, b%16).
inline void materialize_tile_indices(const rowmask_t* mask_c, std::uint8_t* row_idx,
                                     std::uint8_t* col_idx) {
  index_t out = 0;
  for (int wi = 0; wi < kTileMaskWords; ++wi) {
    std::uint64_t w = pack_rowmask_word(mask_c + wi * kRowsPerMaskWord);
    const std::uint8_t row_base = static_cast<std::uint8_t>(wi * kRowsPerMaskWord);
    while (w != 0) {
      const int b = std::countr_zero(w);
      row_idx[out] = static_cast<std::uint8_t>(row_base + (b >> 4));
      col_idx[out] = static_cast<std::uint8_t>(b & 0xF);
      ++out;
      w &= w - 1;
    }
  }
}

/// Per-row reference version of materialize_tile_indices, kept as the A/B
/// oracle for the word-packed enumeration order.
inline void materialize_tile_indices_scalar(const rowmask_t* mask_c, std::uint8_t* row_idx,
                                            std::uint8_t* col_idx) {
  index_t out = 0;
  for (index_t r = 0; r < kTileDim; ++r) {
    rowmask_t m = mask_c[r];
    while (m != 0) {
      const index_t col = static_cast<index_t>(std::countr_zero(static_cast<unsigned>(m)));
      row_idx[out] = static_cast<std::uint8_t>(r);
      col_idx[out] = static_cast<std::uint8_t>(col);
      ++out;
      m = static_cast<rowmask_t>(m & (m - 1));
    }
  }
}

}  // namespace detail
}  // namespace tsg
