// Per-tile numeric kernels shared by step 3 and the fused step-2+3 path,
// for plain, masked and semiring products alike. Each kernel works on one
// output tile whose symbolic structure (16 row masks + local row pointers)
// is already known; all state fits in registers / L1, mirroring the paper's
// warp-local accumulation (Algorithm 3).
//
// The semiring S (semiring.h) is a compile-time parameter: PlusTimes<T>
// takes the dispatched sparse/dense kernels; any other semiring takes the
// generic sparse accumulator (identity fill, then reduce(slot, combine(va,
// vb))). A masked product has kernels of its own: accumulate_masked_sparse
// walks only the products the mask keeps, and the dense kernel's kMasked
// form serves mask tiles above tnnz.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "core/intersect.h"
#include "core/options.h"
#include "core/semiring.h"
#include "core/simd_dispatch.h"
#include "core/tile_format.h"

namespace tsg {
namespace detail {

/// Reduce the products of all matched pairs into `slots` via popcount-rank
/// indexing (Algorithm 3 lines 4-12): the final position of column cb in
/// C's local row r is row_ptr[r] + rank of cb in mask[r]. For PlusTimes the
/// reduce(slot, combine(va, vb)) below is exactly `slot += va * vb`.
template <class S, class T>
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
      for (index_t kb = lo; kb < hi; ++kb) {
        const std::size_t gb = static_cast<std::size_t>(b_nz + kb);
        const index_t cb = b.col_idx[gb];
        T& slot = slots[base + mask_rank(m, cb)];
        slot = S::reduce(slot, S::combine(va, b.val[gb]));
      }
    }
  }
}

/// One output tile of a masked product, C = (A*B) .* M, accumulated over
/// semiring S from the products M keeps and nothing else. For each A
/// nonzero (r, k) in pair order, then A storage order, keep = B's row mask
/// k & M's row mask r; each set bit c of keep adds one term to slot (r, c),
/// indexed by its rank in M's tile and filled with S::identity() first.
/// Every (r, c) thus sums the same terms in the same order as the unmasked
/// kernels. The OR of the keeps is C's symbolic result: it lands in
/// `hit`, and the hit slots are compressed in place to out[0, count), in
/// mask bit order. `out` needs room for M's tile nnz. Returns count.
template <class S, class T>
inline index_t accumulate_masked_sparse(const TileMatrix<T>& a, const TileMatrix<T>& b,
                                        const MatchedPair* pairs, std::size_t pair_count,
                                        const rowmask_t* mask_m, T* out, rowmask_t* hit) {
  std::uint8_t slot_base[kTileDim];
  index_t nnz_m = 0;
  for (index_t r = 0; r < kTileDim; ++r) {
    slot_base[r] = static_cast<std::uint8_t>(nnz_m);
    nnz_m += popcount16(mask_m[r]);
    hit[r] = 0;
  }
  std::fill_n(out, nnz_m, S::identity());
  for (std::size_t pi = 0; pi < pair_count; ++pi) {
    const MatchedPair& p = pairs[pi];
    const offset_t a_nz = a.tile_nnz[p.tile_a];
    const index_t a_cnt = a.tile_nnz_of(p.tile_a);
    const rowmask_t* mask_b = b.tile_mask(p.tile_b);
    const std::uint8_t* row_ptr_b =
        b.row_ptr.data() + static_cast<std::size_t>(p.tile_b) * kTileDim;
    const T* val_b = b.val.data() + b.tile_nnz[p.tile_b];
    for (index_t k = 0; k < a_cnt; ++k) {
      const std::size_t ga = static_cast<std::size_t>(a_nz + k);
      const index_t r = a.row_idx[ga];
      const index_t col_a = a.col_idx[ga];
      const rowmask_t row_b = mask_b[col_a];
      const rowmask_t row_m = mask_m[r];
      unsigned keep = static_cast<unsigned>(row_b & row_m);
      if (keep == 0) continue;
      hit[r] = static_cast<rowmask_t>(hit[r] | keep);
      const T va = a.val[ga];
      const T* vb = val_b + row_ptr_b[col_a];
      T* slots = out + slot_base[r];
      do {
        const auto c = static_cast<index_t>(std::countr_zero(keep));
        T& slot = slots[mask_rank(row_m, c)];
        slot = S::reduce(slot, S::combine(va, vb[mask_rank(row_b, c)]));
        keep &= keep - 1;
      } while (keep != 0);
    }
  }
  // Compress: walk M's slots in bit order and keep the hit ones. The write
  // cursor never passes the read cursor, so this is safe in place.
  index_t count = 0;
  for (index_t r = 0; r < kTileDim; ++r) {
    const unsigned h = hit[r];
    if (h == 0) continue;
    unsigned m = mask_m[r];
    for (index_t at = slot_base[r]; m != 0; ++at, m &= m - 1) {
      if ((h >> std::countr_zero(m)) & 1u) out[count++] = out[at];
    }
  }
  return count;
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

/// accumulate_pairs_dense into `out`, which has room for nnz_c values (or
/// kTileNnzMax under kRoomyOut): bounces through a local scratch when the
/// level's compress over-stores.
template <bool kMasked, bool kRoomyOut, class T>
inline void accumulate_dense_into(const TileMatrix<T>& a, const TileMatrix<T>& b,
                                  const MatchedPair* pairs, std::size_t pair_count,
                                  const rowmask_t* mask_c, index_t nnz_c,
                                  const simd::NumericOps& nops, T* out) {
  if (kRoomyOut || nops.compress_exact) {
    accumulate_pairs_dense<kMasked>(a, b, pairs, pair_count, mask_c, out, nops);
  } else {
    T scratch[kTileNnzMax];
    accumulate_pairs_dense<kMasked>(a, b, pairs, pair_count, mask_c, scratch, nops);
    std::copy_n(scratch, nnz_c, out);
  }
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
/// says `out` has room for kTileNnzMax values. Unmasked products only.
template <class S, bool kRoomyOut = false, class T>
inline bool accumulate_tile(const TileMatrix<T>& a, const TileMatrix<T>& b,
                            const MatchedPair* pairs, std::size_t pair_count,
                            const rowmask_t* mask_c, const std::uint8_t* row_ptr_c,
                            index_t nnz_c, const TileSpgemmOptions& options,
                            const simd::NumericOps& nops, T* out) {
  if (!std::is_same_v<S, PlusTimes<T>> || !use_dense_accumulator(options, nnz_c)) {
    std::fill_n(out, nnz_c, S::identity());
    accumulate_pairs_sparse<S>(a, b, pairs, pair_count, mask_c, row_ptr_c, out);
    return false;
  }
  accumulate_dense_into<false, kRoomyOut>(a, b, pairs, pair_count, mask_c, nnz_c, nops, out);
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
