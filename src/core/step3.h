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
// staged and only need copying into place. Under an output mask, products
// outside C's (mask-ANDed) row masks are skipped. Over a semiring other
// than plus-times, every tile takes the generic sparse accumulator.
#pragma once

#include "core/step2.h"

namespace tsg {

/// Numeric pass: fills the low-level arrays of C (row_idx/col_idx/val).
/// `c` must already carry its high-level structure and the step-2 results;
/// see spgemm_context.cpp for the assembly. `ws` holds the per-thread
/// intersection scratch plus any pair-cache / staged-value records written
/// by step 2 under the same plan. Instantiated in step3.cpp for
/// TSG_FOR_EACH_SEMIRING.
template <class T, class S = PlusTimes<T>>
void step3_numeric(const TileMatrix<T>& a, const TileMatrix<T>& b,
                   const TileLayoutCsc& b_csc, const TileStructure& structure,
                   const TileSpgemmOptions& options, TileMatrix<T>& c,
                   SpgemmWorkspace<T>& ws, const ExecutionPlan& plan);

}  // namespace tsg
