// Step 3 of TileSpGEMM (Algorithm 3): the numeric phase. For every tile of
// C the matched tile pairs are re-gathered (the intersection is cheap and
// re-running it avoids storing pair lists in global memory, as on the GPU)
// and the products are accumulated with an adaptively chosen accumulator:
//
//   * sparse (nnz <= tnnz): the column layout of the C tile is already known
//     from the step-2 masks, so each product is scattered directly to its
//     final slot via popcount-rank indexing — no temporary space at all.
//   * dense  (nnz >  tnnz): a 256-slot accumulator on the stack, filled by
//     the dispatched per-pair SIMD kernel (simd::NumericOps::accumulate_*)
//     and compressed through the mask afterwards.
//
// When the ExecutionPlan enabled the pair cache, step 2 left each tile's
// matched pairs in the workspace and this pass skips the re-intersection;
// when it enabled fusion, light tiles arrive with their values already
// staged and only need copying into place. A masked product arrives with
// every value already computed (step 2's masked route): this pass only
// materialises C's indices and places the values. Over a semiring other
// than plus-times, every tile takes the generic sparse accumulator.
//
// C lands either in tile form or, for the CSR-out entry points, straight in
// CSR: each tile is accumulated into a local 256-slot scratch and its rows
// are scattered to their CSR positions, so C's tile arrays never exist.
#pragma once

#include "core/step2.h"

namespace tsg {

/// Step 3 writes C's tile form: the low-level arrays of a TileMatrix, each
/// tile's nonzeros at its tile_nnz offset.
template <class T>
struct TileSink {
  std::uint8_t* row_idx;
  std::uint8_t* col_idx;
  T* val;
};

/// Step 3 writes C straight into CSR: local row r of tile t starts at
/// col_idx/val position row_off[16*t + r] (see detail::csr_layout). The
/// offsets are consumed as cursors — each tile advances its own 16.
template <class T>
struct CsrSink {
  offset_t* row_off;
  index_t* col_idx;
  T* val;
};

/// Numeric pass over the tiles of `structure`, reading their symbolic
/// result from `symbolic` and writing through `sink` (TileSink<T> or
/// CsrSink<T>; the choice is compile-time, so the tile output carries no
/// trace of the CSR one). `ws` holds the per-thread intersection scratch
/// plus any pair-cache / staged-value records written by step 2 under the
/// same plan. Under a mask, `masked_val` is step 2's bound buffer, holding
/// C's values at its tile offsets; a TileSink's values are that buffer, so
/// only a CsrSink reads it. Instantiated in step3.cpp for
/// TSG_FOR_EACH_SEMIRING x both sinks.
template <class T, class S, class Sink>
void step3_numeric(const TileMatrix<T>& a, const TileMatrix<T>& b,
                   const TileLayoutCsc& b_csc, const TileStructure& structure,
                   const TileSpgemmOptions& options, const Step2Result& symbolic,
                   const Sink& sink, SpgemmWorkspace<T>& ws, const ExecutionPlan& plan,
                   const T* masked_val);

}  // namespace tsg
