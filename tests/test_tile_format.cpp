// The sparse tile data structure (Section 3.2): conversion round trips over
// all structure classes and shapes, mask/row-pointer consistency, the
// uint8 boundaries, and the column-major layout view.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "core/spgemm_context.h"
#include "core/tile_convert.h"
#include "core/tile_format.h"
#include "core/tile_stats.h"
#include "gen/generators.h"
#include "matrix/convert.h"
#include "matrix/coo.h"
#include "test_support.h"

namespace tsg {
namespace {

struct RoundTripCase {
  const char* name;
  Csr<double> (*make)();
};

class TileRoundTrip : public ::testing::TestWithParam<RoundTripCase> {};

TEST_P(TileRoundTrip, CsrTileCsrIsIdentity) {
  const Csr<double> a = GetParam().make();
  const TileMatrix<double> t = csr_to_tile(a);
  ASSERT_TRUE(t.validate().empty()) << GetParam().name << ": " << t.validate();
  EXPECT_EQ(t.nnz(), a.nnz());
  test::expect_equal(a, tile_to_csr(t), GetParam().name, 1e-15);
}

INSTANTIATE_TEST_SUITE_P(
    StructureClasses, TileRoundTrip,
    ::testing::Values(RoundTripCase{"er_small", test::make_er_small},
                      RoundTripCase{"er_rect", test::make_er_rect},
                      RoundTripCase{"er_dense", test::make_er_dense},
                      RoundTripCase{"rmat", test::make_rmat_small},
                      RoundTripCase{"stencil", test::make_stencil},
                      RoundTripCase{"band", test::make_band},
                      RoundTripCase{"band_wide", test::make_band_wide},
                      RoundTripCase{"blocks", test::make_blocks},
                      RoundTripCase{"clustered", test::make_clustered},
                      RoundTripCase{"hyper_sparse", test::make_hyper_sparse}),
    [](const auto& info) { return std::string(info.param.name); });

TEST(TileFormat, GridDimensions) {
  const TileMatrix<double> t = csr_to_tile(gen::erdos_renyi(100, 50, 200, 90));
  EXPECT_EQ(t.tile_rows, 7);  // ceil(100/16)
  EXPECT_EQ(t.tile_cols, 4);  // ceil(50/16)
}

TEST(TileFormat, SingleFullTileUsesAllUint8Values) {
  const Csr<double> a = gen::dense_blocks(1, 16, 91);
  const TileMatrix<double> t = csr_to_tile(a);
  ASSERT_EQ(t.num_tiles(), 1);
  ASSERT_EQ(t.tile_nnz_of(0), 256);
  // Row pointers are 0,16,...,240 — the full uint8-representable ladder.
  for (index_t r = 0; r < kTileDim; ++r) {
    EXPECT_EQ(t.row_ptr[static_cast<std::size_t>(r)], r * 16);
    EXPECT_EQ(t.tile_mask(0)[r], 0xFFFF);
  }
  // The implied 17th row-pointer entry (tile_nnz) reconstructs 256.
  index_t lo, hi;
  t.tile_row_range(0, 15, lo, hi);
  EXPECT_EQ(lo, 240);
  EXPECT_EQ(hi, 256);
}

TEST(TileFormat, MasksMatchColumnIndices) {
  const TileMatrix<double> t = csr_to_tile(gen::rmat(9, 5.0, 92));
  for (offset_t tile = 0; tile < t.num_tiles(); ++tile) {
    for (index_t r = 0; r < kTileDim; ++r) {
      index_t lo, hi;
      t.tile_row_range(tile, r, lo, hi);
      rowmask_t rebuilt = 0;
      for (index_t k = lo; k < hi; ++k) {
        rebuilt |= bit_of(t.col_idx[static_cast<std::size_t>(t.tile_nnz[tile] + k)]);
      }
      ASSERT_EQ(rebuilt, t.tile_mask(tile)[r]);
    }
  }
}

TEST(TileFormat, EmptyMatrix) {
  const TileMatrix<double> t = csr_to_tile(Csr<double>(40, 40));
  EXPECT_EQ(t.num_tiles(), 0);
  EXPECT_EQ(t.nnz(), 0);
  EXPECT_TRUE(t.validate().empty()) << t.validate();
  const Csr<double> back = tile_to_csr(t);
  EXPECT_EQ(back.nnz(), 0);
  EXPECT_EQ(back.rows, 40);
}

TEST(TileFormat, PartialEdgeTiles) {
  // 17x17: 2x2 tile grid where the last tile row/column holds one line.
  Coo<double> coo;
  coo.rows = coo.cols = 17;
  coo.push_back(16, 16, 5.0);  // lone entry in the corner tile
  coo.push_back(16, 0, 6.0);   // bottom edge tile
  coo.push_back(0, 16, 7.0);   // right edge tile
  const Csr<double> a = coo_to_csr(std::move(coo));
  const TileMatrix<double> t = csr_to_tile(a);
  ASSERT_TRUE(t.validate().empty()) << t.validate();
  EXPECT_EQ(t.num_tiles(), 3);
  test::expect_equal(a, tile_to_csr(t), "edge tiles", 1e-15);
}

TEST(TileFormat, ValidateCatchesCorruptedMask) {
  TileMatrix<double> t = csr_to_tile(gen::banded(64, 2, 93));
  ASSERT_TRUE(t.validate().empty());
  t.mask[0] ^= 1;  // flip one bit
  EXPECT_FALSE(t.validate().empty());
}

TEST(TileFormat, ValidateCatchesBadTileOrder) {
  TileMatrix<double> t = csr_to_tile(gen::banded(64, 20, 94));
  ASSERT_GE(t.num_tiles(), 2);
  std::swap(t.tile_col_idx[0], t.tile_col_idx[1]);
  EXPECT_FALSE(t.validate().empty());
}

TEST(TileLayoutCsc, MatchesRowMajorLayout) {
  const TileMatrix<double> t = csr_to_tile(gen::rmat(8, 4.0, 95));
  const TileLayoutCsc v = tile_layout_csc(t);
  ASSERT_EQ(static_cast<offset_t>(v.row_idx.size()), t.num_tiles());
  // Every (tile row, tile col) pair present row-major must appear in the
  // column view with the right storage id, and row indices sorted per col.
  offset_t checked = 0;
  for (index_t tc = 0; tc < t.tile_cols; ++tc) {
    for (offset_t k = v.col_ptr[tc]; k < v.col_ptr[tc + 1]; ++k) {
      const index_t tr = v.row_idx[k];
      const offset_t id = v.tile_id[k];
      ASSERT_EQ(t.tile_col_idx[id], tc);
      ASSERT_GE(id, t.tile_ptr[tr]);
      ASSERT_LT(id, t.tile_ptr[tr + 1]);
      if (k > v.col_ptr[tc]) {
        ASSERT_LT(v.row_idx[k - 1], tr);
      }
      ++checked;
    }
  }
  EXPECT_EQ(checked, t.num_tiles());
}

TEST(TileStats, CountsAndBytes) {
  const Csr<double> a = gen::dense_blocks(2, 16, 96);  // two full tiles
  const TileMatrix<double> t = csr_to_tile(a);
  const TileFormatStats s = tile_format_stats(t);
  EXPECT_EQ(s.num_tiles, 2);
  EXPECT_EQ(s.nnz, 512);
  EXPECT_DOUBLE_EQ(s.avg_nnz_per_tile, 256.0);
  EXPECT_EQ(s.max_nnz_per_tile, 256);
  EXPECT_EQ(s.empty_tiles, 0);
  EXPECT_EQ(s.bytes, t.bytes());
  EXPECT_EQ(s.mask_bytes, 2u * 16 * 2);
  EXPECT_EQ(s.row_ptr_bytes, 2u * 16);
  EXPECT_GT(s.high_level_bytes, 0u);
}

TEST(TileStats, HyperSparseTilesLookLikeCop20k) {
  // Scattered nonzeros: most tiles hold ~1 nonzero (the cop20k_A pathology
  // of Section 4.2 — tile overhead dominates).
  const Csr<double> a = gen::erdos_renyi(3000, 3000, 4000, 97);
  const TileFormatStats s = tile_format_stats(csr_to_tile(a));
  EXPECT_LT(s.avg_nnz_per_tile, 1.5);
}

TEST(TileFormat, FloatInstantiationWorks) {
  const Csr<float> a = gen::cast_values<float>(gen::banded(40, 3, 98));
  const TileMatrix<float> t = csr_to_tile(a);
  EXPECT_TRUE(t.validate().empty());
  const Csr<float> back = tile_to_csr(t);
  EXPECT_EQ(back.nnz(), a.nnz());
}

// ------------------------------------------------ tile_to_csr edge cases --

/// Naive tile -> CSR conversion: every stored nonzero as a global
/// (row, col, value) triple, sorted. The reference for tile_to_csr.
template <class T>
Csr<T> naive_tile_to_csr(const TileMatrix<T>& t) {
  struct Entry {
    index_t row, col;
    T val;
  };
  std::vector<Entry> entries;
  for (index_t tr = 0; tr < t.tile_rows; ++tr) {
    for (offset_t tile = t.tile_ptr[tr]; tile < t.tile_ptr[tr + 1]; ++tile) {
      for (offset_t k = t.tile_nnz[tile]; k < t.tile_nnz[tile + 1]; ++k) {
        entries.push_back({tr * kTileDim + t.row_idx[k],
                           t.tile_col_idx[tile] * kTileDim + t.col_idx[k], t.val[k]});
      }
    }
  }
  std::sort(entries.begin(), entries.end(), [](const Entry& x, const Entry& y) {
    return x.row != y.row ? x.row < y.row : x.col < y.col;
  });
  Csr<T> out(t.rows, t.cols);
  for (const Entry& e : entries) {
    ++out.row_ptr[e.row + 1];
    out.col_idx.push_back(e.col);
    out.val.push_back(e.val);
  }
  for (index_t i = 0; i < t.rows; ++i) out.row_ptr[i + 1] += out.row_ptr[i];
  return out;
}

/// Entry-by-entry comparison, values bitwise (tile_to_csr only moves them).
template <class T>
void expect_same_csr(const Csr<T>& want, const Csr<T>& got, const char* what) {
  SCOPED_TRACE(what);
  ASSERT_EQ(got.rows, want.rows);
  ASSERT_EQ(got.cols, want.cols);
  ASSERT_EQ(got.row_ptr.size(), want.row_ptr.size());
  for (std::size_t i = 0; i < want.row_ptr.size(); ++i) {
    ASSERT_EQ(got.row_ptr[i], want.row_ptr[i]) << "row_ptr " << i;
  }
  ASSERT_EQ(got.col_idx.size(), want.col_idx.size());
  ASSERT_EQ(got.val.size(), want.val.size());
  for (std::size_t k = 0; k < want.col_idx.size(); ++k) {
    ASSERT_EQ(got.col_idx[k], want.col_idx[k]) << "col_idx " << k;
    ASSERT_EQ(std::memcmp(&got.val[k], &want.val[k], sizeof(T)), 0) << "val " << k;
  }
}

TEST(TileToCsr, RowCountNotAMultipleOfTheTileSize) {
  for (const index_t rows : {1, 15, 17, 37, 101}) {
    const TileMatrix<double> t = csr_to_tile(
        gen::erdos_renyi(rows, 50, static_cast<offset_t>(rows) * 4, 600 + rows));
    ASSERT_TRUE(t.validate().empty());
    expect_same_csr(naive_tile_to_csr(t), tile_to_csr(t),
                    ("rows " + std::to_string(rows)).c_str());
  }
}

TEST(TileToCsr, TileRowsWithoutTiles) {
  // Nonzeros only in tile rows 0 and 3 of a 5-tile-row matrix (the last one
  // partial): tile rows 1, 2 and 4 hold no tiles, and their CSR rows must
  // come out empty.
  Coo<double> coo{75, 40, {}, {}, {}};
  for (index_t i = 0; i < 16; i += 3) coo.push_back(i, (i * 7) % 40, 1.0 + i);
  for (index_t i = 48; i < 64; i += 2) coo.push_back(i, (i * 5) % 40, -2.0 - i);
  const TileMatrix<double> t = csr_to_tile(coo_to_csr(coo));
  ASSERT_EQ(t.tile_rows, 5);
  ASSERT_EQ(t.tile_ptr[2] - t.tile_ptr[1], 0);
  ASSERT_EQ(t.tile_ptr[5] - t.tile_ptr[4], 0);
  const Csr<double> got = tile_to_csr(t);
  expect_same_csr(naive_tile_to_csr(t), got, "empty tile rows");
  for (index_t i = 16; i < 48; ++i) EXPECT_EQ(got.row_nnz(i), 0) << "row " << i;
}

TEST(TileToCsr, TilesThatStepOneKeepsButEndUpEmpty) {
  // A's tile (0,0) holds (0,0); B's tile (0,0) holds (1,0). The tile grid
  // product is non-empty, so step 1 keeps C's tile (0,0), but A's column 0
  // meets B's empty row 0: the tile ends with no nonzeros. A second block
  // pair gives C a non-empty tile after it.
  Coo<double> ca{40, 40, {}, {}, {}};
  ca.push_back(0, 0, 2.0);
  ca.push_back(20, 20, 3.0);
  Coo<double> cb{40, 40, {}, {}, {}};
  cb.push_back(1, 0, 5.0);
  cb.push_back(20, 33, 7.0);
  const TileMatrix<double> a = csr_to_tile(coo_to_csr(ca));
  const TileMatrix<double> b = csr_to_tile(coo_to_csr(cb));
  SpgemmContext ctx;
  const TileMatrix<double> c = ctx.run(a, b).c;
  ASSERT_TRUE(c.validate().empty()) << c.validate();
  bool has_empty_tile = false;
  for (offset_t tile = 0; tile < c.num_tiles(); ++tile) {
    has_empty_tile = has_empty_tile || c.tile_nnz_of(tile) == 0;
  }
  ASSERT_TRUE(has_empty_tile);
  const Csr<double> got = tile_to_csr(c);
  expect_same_csr(naive_tile_to_csr(c), got, "empty kept tile");
  ASSERT_EQ(got.nnz(), 1);
  EXPECT_EQ(got.col_idx[0], 33);
  EXPECT_EQ(got.val[0], 21.0);
}

TEST(TileToCsr, FloatMatchesNaiveReference) {
  for (const Csr<double>& a : {test::make_er_rect(), test::make_blocks(), test::make_stencil(),
                               test::make_hyper_sparse()}) {
    const TileMatrix<float> t = csr_to_tile(gen::cast_values<float>(a));
    expect_same_csr(naive_tile_to_csr(t), tile_to_csr(t), "float");
  }
}

TEST(TileToCsr, DoubleMatchesNaiveReferenceAcrossStructureClasses) {
  for (const Csr<double>& a : {test::make_er_small(), test::make_rmat_small(),
                               test::make_band_wide(), test::make_clustered(),
                               test::make_blocks_large()}) {
    const TileMatrix<double> t = csr_to_tile(a);
    expect_same_csr(naive_tile_to_csr(t), tile_to_csr(t), "double");
  }
}

}  // namespace
}  // namespace tsg
