#include "baselines/tsparse.h"

#include <stdexcept>
#include <vector>

#include "common/half.h"
#include "common/parallel.h"
#include "common/status.h"
#include "common/timer.h"
#include "core/intersect.h"
#include "core/step1.h"
#include "core/tile_convert.h"

namespace tsg {

namespace {

thread_local std::vector<MatchedPair> t_pairs;

/// Expand a sparse tile into a dense 16x16 buffer, rounding values through
/// half precision (the tensor-core input format).
void expand_tile_half(const TileMatrix<float>& m, offset_t tile, float* dense) {
  for (index_t k = 0; k < kTileNnzMax; ++k) dense[k] = 0.0f;
  const offset_t base = m.tile_nnz[static_cast<std::size_t>(tile)];
  const index_t count = m.tile_nnz_of(tile);
  for (index_t k = 0; k < count; ++k) {
    const std::size_t g = static_cast<std::size_t>(base + k);
    dense[static_cast<std::size_t>(m.row_idx[g]) * kTileDim + m.col_idx[g]] =
        static_cast<float>(half(m.val[g]));
  }
}

}  // namespace

Csr<float> spgemm_tsparse(const Csr<float>& a, const Csr<float>& b,
                          TsparseTimings* timings) {
  if (a.cols != b.rows) throw std::invalid_argument("spgemm: inner dimensions differ");
  TsparseTimings tm;

  // Operands in tile form (outside the timed phases, as for TileSpGEMM).
  const TileMatrix<float> ta = csr_to_tile(a);
  const TileMatrix<float> tb = csr_to_tile(b);

  TileLayoutCsc b_csc;
  {
    ScopedAccumulator scope(tm.alloc_ms);
    b_csc = tile_layout_csc(tb);
  }

  TileStructure structure;
  {
    ScopedAccumulator scope(tm.step1_ms);
    structure = step1_tile_structure(ta, tb);
  }
  const offset_t ntiles = structure.num_tiles();

  // The global dense intermediate buffer: one full 16x16 float tile per
  // output tile. tSparse grows this storage repeatedly as tiles are
  // produced; we model the cost with doubling growth over tile chunks.
  tracked_vector<float> dense_c;
  {
    ScopedAccumulator scope(tm.alloc_ms);
    std::size_t capacity = 1024;
    while (capacity < static_cast<std::size_t>(ntiles) * kTileNnzMax) {
      capacity *= 2;
      dense_c.reserve(capacity);  // forces the realloc-and-copy sequence
    }
    dense_c.assign(checked_size_mul(static_cast<std::size_t>(ntiles), kTileNnzMax), 0.0f);
  }

  // Dense tile multiplication: for every C tile, 16^3 MAC per matched pair.
  {
    ScopedAccumulator scope(tm.step2_ms);
    parallel_for(offset_t{0}, ntiles, [&](offset_t t) {
      const index_t tile_i = structure.tile_row_idx[static_cast<std::size_t>(t)];
      const index_t tile_j = structure.tile_col_idx[static_cast<std::size_t>(t)];

      std::vector<MatchedPair>& pairs = t_pairs;
      pairs.clear();
      const offset_t a_base = ta.tile_ptr[tile_i];
      const index_t len_a = static_cast<index_t>(ta.tile_ptr[tile_i + 1] - a_base);
      const offset_t b_base = b_csc.col_ptr[tile_j];
      const index_t len_b = static_cast<index_t>(b_csc.col_ptr[tile_j + 1] - b_base);
      intersect_tiles(ta.tile_col_idx.data() + a_base, a_base, len_a,
                      b_csc.row_idx.data() + b_base, b_csc.tile_id.data() + b_base, len_b,
                      pairs);

      float* acc = dense_c.data() + static_cast<std::size_t>(t) * kTileNnzMax;
      float da[kTileNnzMax];
      float db[kTileNnzMax];
      for (const MatchedPair& p : pairs) {
        expand_tile_half(ta, p.tile_a, da);
        expand_tile_half(tb, p.tile_b, db);
        // Dense 16x16x16 kernel — the tensor-core MMA stand-in.
        for (index_t r = 0; r < kTileDim; ++r) {
          for (index_t k = 0; k < kTileDim; ++k) {
            const float av = da[static_cast<std::size_t>(r) * kTileDim + k];
            if (av == 0.0f) continue;  // same early-out a fragment loader gets free
            const float* brow = db + static_cast<std::size_t>(k) * kTileDim;
            float* crow = acc + static_cast<std::size_t>(r) * kTileDim;
            for (index_t col = 0; col < kTileDim; ++col) crow[col] += av * brow[col];
          }
        }
      }
    });
  }

  // Dense -> sparse conversion of C (per original row, sorted by design).
  Csr<float> c;
  {
    ScopedAccumulator scope(tm.step3_ms);
    c.rows = a.rows;
    c.cols = b.cols;
    c.row_ptr.assign(static_cast<std::size_t>(a.rows) + 1, 0);
    for (offset_t t = 0; t < ntiles; ++t) {
      const index_t row_base = structure.tile_row_idx[static_cast<std::size_t>(t)] * kTileDim;
      const float* acc = dense_c.data() + static_cast<std::size_t>(t) * kTileNnzMax;
      for (index_t r = 0; r < kTileDim && row_base + r < c.rows; ++r) {
        offset_t count = 0;
        for (index_t col = 0; col < kTileDim; ++col) {
          if (acc[static_cast<std::size_t>(r) * kTileDim + col] != 0.0f) ++count;
        }
        c.row_ptr[row_base + r + 1] += count;
      }
    }
    for (index_t i = 0; i < c.rows; ++i) c.row_ptr[i + 1] += c.row_ptr[i];
    c.col_idx.resize(static_cast<std::size_t>(c.nnz()));
    c.val.resize(static_cast<std::size_t>(c.nnz()));

    tracked_vector<offset_t> cursor(c.row_ptr.begin(), c.row_ptr.end() - 1);
    // Tiles are stored tile-row-major with ascending tile columns, so
    // appending per row in tile order keeps each CSR row sorted.
    for (offset_t t = 0; t < ntiles; ++t) {
      const index_t row_base = structure.tile_row_idx[static_cast<std::size_t>(t)] * kTileDim;
      const index_t col_base = structure.tile_col_idx[static_cast<std::size_t>(t)] * kTileDim;
      const float* acc = dense_c.data() + static_cast<std::size_t>(t) * kTileNnzMax;
      for (index_t r = 0; r < kTileDim && row_base + r < c.rows; ++r) {
        for (index_t col = 0; col < kTileDim; ++col) {
          const float v = acc[static_cast<std::size_t>(r) * kTileDim + col];
          if (v != 0.0f) {
            const offset_t dst = cursor[row_base + r]++;
            c.col_idx[dst] = col_base + col;
            c.val[dst] = v;
          }
        }
      }
    }
  }

  if (timings != nullptr) *timings = tm;
  return c;
}

}  // namespace tsg
