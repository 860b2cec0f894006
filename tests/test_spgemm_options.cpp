// The algorithm's tunables: both intersection methods, all accumulator
// policies and threshold settings must give bit-identical structure and
// tolerance-identical values — they are performance choices, not semantics.
#include <gtest/gtest.h>

#include "common/random.h"
#include "core/intersect.h"
#include "core/tile_spgemm.h"
#include "gen/generators.h"
#include "test_support.h"

namespace tsg {
namespace {

struct OptionsCase {
  const char* name;
  TileSpgemmOptions options;
};

class OptionsSweep : public ::testing::TestWithParam<OptionsCase> {};

TEST_P(OptionsSweep, AllConfigurationsMatchReference) {
  const TileSpgemmOptions& opt = GetParam().options;
  for (auto make : {test::make_er_small, test::make_band_wide, test::make_blocks,
                    test::make_rmat_small, test::make_blocks_large}) {
    const Csr<double> a = make();
    test::check_against_reference(
        a, a, [&](const Csr<double>& x, const Csr<double>& y) { return spgemm_tile(x, y, opt); },
        GetParam().name);
  }
}

std::vector<OptionsCase> option_grid() {
  std::vector<OptionsCase> grid;
  grid.push_back({"defaults", {}});
  TileSpgemmOptions o;
  o.intersect = IntersectMethod::kMerge;
  grid.push_back({"merge_intersect", o});
  o = {};
  o.accumulator = AccumulatorPolicy::kAlwaysSparse;
  grid.push_back({"always_sparse", o});
  o = {};
  o.accumulator = AccumulatorPolicy::kAlwaysDense;
  grid.push_back({"always_dense", o});
  o = {};
  o.tnnz = 0;  // adaptive but everything lands dense
  grid.push_back({"tnnz_0", o});
  o = {};
  o.tnnz = 255;  // adaptive but everything lands sparse
  grid.push_back({"tnnz_255", o});
  o = {};
  o.tnnz = 1;
  grid.push_back({"tnnz_1", o});
  o = {};
  o.cache_pairs = true;
  grid.push_back({"cache_pairs", o});
  o = {};
  o.cache_pairs = true;
  o.intersect = IntersectMethod::kMerge;
  o.accumulator = AccumulatorPolicy::kAlwaysSparse;
  grid.push_back({"cache_pairs_merge_sparse", o});
  return grid;
}

INSTANTIATE_TEST_SUITE_P(Grid, OptionsSweep, ::testing::ValuesIn(option_grid()),
                         [](const auto& info) { return std::string(info.param.name); });

TEST(Options, ThresholdBoundaryTilesAgree) {
  // Dense 14x14 blocks inside 16x16 tiles -> output tiles have exactly 196
  // nonzeros, straddling the paper's tnnz=192: adaptive picks dense, while
  // tnnz=200 picks sparse. Both must agree.
  const Csr<double> a = gen::dense_blocks(3, 14, 201);
  TileSpgemmOptions dense_side;
  dense_side.tnnz = kAccumulatorThreshold;
  TileSpgemmOptions sparse_side;
  sparse_side.tnnz = 200;
  const Csr<double> c_dense = spgemm_tile(a, a, dense_side);
  const Csr<double> c_sparse = spgemm_tile(a, a, sparse_side);
  test::expect_equal(c_dense, c_sparse, "threshold boundary");
}

// ------------------------------------------------- intersect unit tests --

std::vector<MatchedPair> run_intersect(const std::vector<index_t>& a_cols,
                                       const std::vector<index_t>& b_rows,
                                       IntersectMethod method) {
  std::vector<offset_t> b_ids(b_rows.size());
  for (std::size_t i = 0; i < b_ids.size(); ++i) b_ids[i] = 100 + static_cast<offset_t>(i);
  std::vector<MatchedPair> out;
  intersect_tiles(a_cols.data(), 0, static_cast<index_t>(a_cols.size()), b_rows.data(),
                  b_ids.data(), static_cast<index_t>(b_rows.size()), method, out);
  return out;
}

TEST(Intersect, BothMethodsAgreeOnRandomSets) {
  Xoshiro256 rng(11);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<index_t> a, b;
    index_t va = 0, vb = 0;
    const int la = 1 + static_cast<int>(rng.next_below(20));
    const int lb = 1 + static_cast<int>(rng.next_below(20));
    for (int i = 0; i < la; ++i) a.push_back(va += 1 + static_cast<index_t>(rng.next_below(4)));
    for (int i = 0; i < lb; ++i) b.push_back(vb += 1 + static_cast<index_t>(rng.next_below(4)));

    const auto r1 = run_intersect(a, b, IntersectMethod::kBinarySearch);
    const auto r2 = run_intersect(a, b, IntersectMethod::kMerge);
    ASSERT_EQ(r1.size(), r2.size()) << "trial " << trial;
    for (std::size_t i = 0; i < r1.size(); ++i) {
      ASSERT_EQ(r1[i].tile_a, r2[i].tile_a);
      ASSERT_EQ(r1[i].tile_b, r2[i].tile_b);
    }
  }
}

TEST(Intersect, PaperFigure4Example) {
  // Fig. 4: tilecolidx_A(row 1) = {0,1,3}, tilerowidx_B(col 2) = {1,3}
  // -> matches at tiles (A11,B12) and (A13,B32).
  const auto r =
      run_intersect({0, 1, 3}, {1, 3}, IntersectMethod::kBinarySearch);
  ASSERT_EQ(r.size(), 2u);
  EXPECT_EQ(r[0].tile_a, 1);    // position of '1' in A's list
  EXPECT_EQ(r[0].tile_b, 100);  // first B tile id
  EXPECT_EQ(r[1].tile_a, 2);
  EXPECT_EQ(r[1].tile_b, 101);
}

TEST(Intersect, EmptyAndDisjoint) {
  EXPECT_TRUE(run_intersect({}, {1, 2}, IntersectMethod::kBinarySearch).empty());
  EXPECT_TRUE(run_intersect({1, 2}, {}, IntersectMethod::kBinarySearch).empty());
  EXPECT_TRUE(run_intersect({0, 2, 4}, {1, 3, 5}, IntersectMethod::kBinarySearch).empty());
  EXPECT_TRUE(run_intersect({0, 2, 4}, {1, 3, 5}, IntersectMethod::kMerge).empty());
}

TEST(Intersect, IdenticalSetsMatchFully) {
  const std::vector<index_t> s = {2, 5, 9, 11, 40};
  const auto r = run_intersect(s, s, IntersectMethod::kBinarySearch);
  ASSERT_EQ(r.size(), s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    EXPECT_EQ(r[i].tile_a, static_cast<offset_t>(i));
    EXPECT_EQ(r[i].tile_b, 100 + static_cast<offset_t>(i));
  }
}

}  // namespace
}  // namespace tsg
