// CSR <-> sparse tile format conversion (the Fig. 12 "format conversion"
// cost). The forward conversion is two passes over the nonzeros: one to
// discover the non-empty tiles and count their nonzeros, one to scatter
// indices/values and build the masks and local row pointers.
//
// The backward direction is built from two pieces that SpgemmContext's
// direct-CSR output (step 3 writing C straight into CSR) shares, so the
// tile -> CSR layout logic exists once: csr_layout derives the CSR row
// pointers (and, on request, every tile row's CSR start) from the row
// masks alone, and scatter_tile_rows copies one tile's values into place.
#pragma once

#include <bit>
#include <cstddef>

#include "core/tile_format.h"
#include "matrix/csr.h"

namespace tsg {

/// Convert a CSR matrix (rows must be sorted) to the sparse tile format.
template <class T>
TileMatrix<T> csr_to_tile(const Csr<T>& a);

/// Convert back to CSR with sorted rows.
template <class T>
Csr<T> tile_to_csr(const TileMatrix<T>& t);

namespace detail {

/// CSR layout of tile rows [first, first + count) of a `rows`-row tile
/// matrix, from the row masks alone. `tile_ptr` is the full tile-row
/// pointer array; `mask` (16 per tile) and `tile_row_off` are indexed from
/// tile tile_ptr[first]. `row_ptr` is the full CSR row-pointer array whose
/// entry at row 16*first already holds where these rows start; entries up
/// to row min(16*(first+count), rows) are filled. When `tile_row_off` is
/// non-null it also receives, per tile, the CSR position of each of its 16
/// local rows' first entry (rows past `rows` point at the end).
void csr_layout(const offset_t* tile_ptr, index_t first, index_t count, index_t rows,
                const rowmask_t* mask, offset_t* row_ptr, offset_t* tile_row_off);

/// Copy one tile's values (`vals`, in storage order: row-major, mask-bit
/// order) into CSR rows. Local row r's entries go to col_idx/val starting at
/// cursor[r], with column col_base + bit; cursor[r] advances past them.
/// Tiles of a tile row visited in column order keep every CSR row sorted.
template <class T>
inline void scatter_tile_rows(const rowmask_t* mask, const T* vals, index_t col_base,
                              offset_t* cursor, index_t* col_idx, T* val) {
  for (index_t r = 0; r < kTileDim; ++r) {
    unsigned m = mask[r];
    if (m == 0) continue;
    auto dst = static_cast<std::size_t>(cursor[r]);
    do {
      col_idx[dst] = col_base + std::countr_zero(m);
      val[dst++] = *vals++;
      m &= m - 1;
    } while (m != 0);
    cursor[r] = static_cast<offset_t>(dst);
  }
}

}  // namespace detail

extern template TileMatrix<double> csr_to_tile(const Csr<double>&);
extern template TileMatrix<float> csr_to_tile(const Csr<float>&);
extern template Csr<double> tile_to_csr(const TileMatrix<double>&);
extern template Csr<float> tile_to_csr(const TileMatrix<float>&);

}  // namespace tsg
