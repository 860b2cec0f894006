// Step 2 of TileSpGEMM (Algorithm 2, Figures 4-5): for every tile of C,
// gather the matched (A_ik, B_kj) tile pairs by set intersection, OR the
// row masks of B selected by A's nonzeros into the C tile masks, and derive
// the per-tile nonzero count and local row pointer. All per-tile state is
// bounded by 16 masks / 256 nonzeros and lives on the stack — no global
// intermediate space, which is the paper's answer to performance issue #2.
//
// Under an ExecutionPlan the pass can also (a) visit tiles in the binned
// heavy-first order, (b) record each tile's matched pairs in the workspace
// pair cache for step 3, (c) fuse the numeric phase for light tiles: once a
// tile's masks are known its values are accumulated (over semiring S)
// immediately and staged in the workspace, so step 3 only copies them out,
// and (d) AND an output mask into C's masks before they are derived.
#pragma once

#include <cstdint>

#include "core/options.h"
#include "core/semiring.h"
#include "core/step1.h"

namespace tsg {

struct ExecutionPlan;
template <class T>
struct SpgemmWorkspace;

/// Per-tile symbolic results for C. The three arrays are fresh allocations
/// (they are moved into the output matrix); every scratch buffer the pass
/// uses comes from the workspace.
struct Step2Result {
  tracked_vector<offset_t> tile_nnz;    ///< size numtiles+1, offsets
  tracked_vector<std::uint8_t> row_ptr; ///< numtiles*16 local row pointers
  tracked_vector<rowmask_t> mask;       ///< numtiles*16 row masks
  offset_t fused_tiles = 0;             ///< tiles whose values were staged

  offset_t nnz() const { return tile_nnz.empty() ? 0 : tile_nnz.back(); }
};

/// Symbolic per-tile pass. `b_csc` is the column-major view of B's tile
/// layout (tileColPtr_B / tileRowidx_B in Algorithm 2). Pair-cache and
/// fused-value records land in `ws`; `plan` controls visit order, caching,
/// fusion and the output mask. S only matters to fused tiles. Instantiated
/// in step2.cpp for TSG_FOR_EACH_SEMIRING.
template <class T, class S = PlusTimes<T>>
Step2Result step2_symbolic(const TileMatrix<T>& a, const TileMatrix<T>& b,
                           const TileLayoutCsc& b_csc, const TileStructure& structure,
                           const TileSpgemmOptions& options, SpgemmWorkspace<T>& ws,
                           const ExecutionPlan& plan);

}  // namespace tsg
