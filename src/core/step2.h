// Step 2 of TileSpGEMM (Algorithm 2, Figures 4-5): for every tile of C,
// gather the matched (A_ik, B_kj) tile pairs by set intersection, OR the
// row masks of B selected by A's nonzeros into the C tile masks, and derive
// the per-tile nonzero count and local row pointer. All per-tile state is
// bounded by 16 masks / 256 nonzeros and lives on the stack — no global
// intermediate space, which is the paper's answer to performance issue #2.
//
// Under an ExecutionPlan the pass can also (a) visit tiles in the binned
// heavy-first order, (b) record each tile's matched pairs in the workspace
// pair cache for step 3, and (c) fuse the numeric phase for light tiles:
// once a tile's masks are known its values are accumulated (over semiring
// S) immediately and staged in the workspace, so step 3 only copies them
// out.
//
// A masked product, C = (A*B) .* M, takes its own route, chosen because
// the call has a mask: every tile of C is finished here, in one visit. The
// pass intersects once, then, for the A nonzeros of rows M keeps,
// accumulates only the products M keeps (ANDing B's row mask with M's)
// into slots indexed by their rank in M's tile; the OR of those ANDs is
// the symbolic result. Mask tiles above tnnz compute the ANDed symbolic
// result and run the dense kernel on the still-hot pairs instead. Either
// way the tile's values land in its slice of a bound buffer laid out like
// M (C is a subset of M), and after the offset scan they are compacted to
// C's tile offsets. Step 3 then only places them.
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
  offset_t fused_tiles = 0;             ///< non-empty tiles finished in step 2

  offset_t nnz() const { return tile_nnz.empty() ? 0 : tile_nnz.back(); }
};

/// Symbolic per-tile pass. `b_csc` is the column-major view of B's tile
/// layout (tileColPtr_B / tileRowidx_B in Algorithm 2). Pair-cache and
/// fused-value records land in `ws`; `plan` controls visit order, caching,
/// fusion and the output mask. Under a mask, `masked_val` is the bound
/// buffer (plan.out_bound's extent, this chunk's slice) and ends up holding
/// C's values at the returned tile offsets; it is unused otherwise. S only
/// matters to tiles finished here. Instantiated in step2.cpp for
/// TSG_FOR_EACH_SEMIRING.
template <class T, class S = PlusTimes<T>>
Step2Result step2_symbolic(const TileMatrix<T>& a, const TileMatrix<T>& b,
                           const TileLayoutCsc& b_csc, const TileStructure& structure,
                           const TileSpgemmOptions& options, SpgemmWorkspace<T>& ws,
                           const ExecutionPlan& plan, T* masked_val);

}  // namespace tsg
