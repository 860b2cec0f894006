// The algorithm's tunables: all accumulator policies, threshold settings
// and the pair cache must give bit-identical structure and
// tolerance-identical values — they are performance choices, not semantics.
// Also the two tile-pair intersections: the binary search of Algorithm 2
// and the A tile-row stamp steps 2 and 3 use must give the same pairs.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

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
  o.accumulator = AccumulatorPolicy::kAlwaysSparse;
  grid.push_back({"cache_pairs_sparse", o});
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
                                       const std::vector<index_t>& b_rows) {
  std::vector<offset_t> b_ids(b_rows.size());
  for (std::size_t i = 0; i < b_ids.size(); ++i) b_ids[i] = 100 + static_cast<offset_t>(i);
  std::vector<MatchedPair> out;
  intersect_tiles(a_cols.data(), 0, static_cast<index_t>(a_cols.size()), b_rows.data(),
                  b_ids.data(), static_cast<index_t>(b_rows.size()), out);
  return out;
}

/// Random sorted set of 1..max_len distinct tile ids below `width`.
std::vector<index_t> random_set(Xoshiro256& rng, index_t width, int max_len) {
  const int len = 1 + static_cast<int>(rng.next_below(static_cast<std::uint64_t>(max_len)));
  std::vector<index_t> out;
  index_t v = -1;
  for (int i = 0; i < len; ++i) {
    v += 1 + static_cast<index_t>(rng.next_below(4));
    if (v >= width) break;
    out.push_back(v);
  }
  return out;
}

void expect_same_pairs(const std::vector<MatchedPair>& want,
                       const std::vector<MatchedPair>& got, const std::string& what) {
  ASSERT_EQ(want.size(), got.size()) << what;
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(want[i].tile_a, got[i].tile_a) << what << " pair " << i;
    ASSERT_EQ(want[i].tile_b, got[i].tile_b) << what << " pair " << i;
  }
}

/// A's tile layout as tile rows of sorted tile columns, stored row after
/// row the way TileMatrix::tile_col_idx is.
struct TileRows {
  std::vector<offset_t> ptr{0};
  std::vector<index_t> cols;

  void add(const std::vector<index_t>& row) {
    cols.insert(cols.end(), row.begin(), row.end());
    ptr.push_back(static_cast<offset_t>(cols.size()));
  }

  /// Pairs of tile row `i` with a B tile column, by the stamp and by the
  /// binary-search oracle.
  std::pair<std::vector<MatchedPair>, std::vector<MatchedPair>> both(
      TileRowStamp& stamp, index_t i, const std::vector<index_t>& b_rows) const {
    std::vector<offset_t> b_ids(b_rows.size());
    for (std::size_t s = 0; s < b_ids.size(); ++s) b_ids[s] = 1000 + static_cast<offset_t>(s);
    const offset_t base = ptr[static_cast<std::size_t>(i)];
    const auto len = static_cast<index_t>(ptr[static_cast<std::size_t>(i) + 1] - base);
    std::vector<MatchedPair> via_stamp, via_search;
    stamp.intersect(i, cols.data() + base, base, len, b_rows.data(), b_ids.data(),
                    static_cast<index_t>(b_rows.size()), via_stamp);
    intersect_tiles(cols.data() + base, base, len, b_rows.data(), b_ids.data(),
                    static_cast<index_t>(b_rows.size()), via_search);
    return {std::move(via_search), std::move(via_stamp)};
  }
};

TEST(Intersect, StampAgreesWithBinarySearchOnRandomSets) {
  // Each trial is a fresh A of one tile row against one B tile column.
  constexpr index_t kWidth = 96;
  Xoshiro256 rng(11);
  TileRowStamp stamp;
  stamp.prepare(kWidth);
  for (int trial = 0; trial < 300; ++trial) {
    TileRows a;
    a.add(random_set(rng, kWidth, 40));
    const std::vector<index_t> b = random_set(rng, kWidth, 40);
    stamp.reset();
    const auto [want, got] = a.both(stamp, 0, b);
    expect_same_pairs(want, got, "trial " + std::to_string(trial));
  }
}

TEST(Intersect, StampRevisitsRowsAfterOtherRows) {
  // One A of many tile rows, visited in an order that leaves a row and
  // comes back to it; every stale entry names another row's tile.
  constexpr index_t kWidth = 64;
  Xoshiro256 rng(12);
  TileRows a;
  for (int r = 0; r < 6; ++r) a.add(random_set(rng, kWidth, 30));
  a.add({});  // an empty tile row matches nothing
  TileRowStamp stamp;
  stamp.prepare(kWidth);
  const index_t order[] = {0, 0, 1, 0, 2, 3, 2, 6, 1, 5, 4, 5, 0, 6, 6, 3};
  for (int visit = 0; visit < 200; ++visit) {
    const index_t row = order[visit % 16];
    const std::vector<index_t> b = random_set(rng, kWidth, 30);
    const auto [want, got] = a.both(stamp, row, b);
    expect_same_pairs(want, got, "visit " + std::to_string(visit));
  }
}

TEST(Intersect, StampResetForgetsThePreviousA) {
  // Two As whose tile row 0 sits at the same storage ids: without reset()
  // the second would be answered from the first one's stamp.
  TileRows a1, a2;
  a1.add({0, 1, 2});
  a2.add({3});
  const std::vector<index_t> b = {0, 1, 2, 3};
  TileRowStamp stamp;
  stamp.prepare(4);
  (void)a1.both(stamp, 0, b);
  stamp.reset();
  const auto [want, got] = a2.both(stamp, 0, b);
  ASSERT_EQ(want.size(), 1u);
  expect_same_pairs(want, got, "after reset");
}

TEST(Intersect, PaperFigure4Example) {
  // Fig. 4: tilecolidx_A(row 1) = {0,1,3}, tilerowidx_B(col 2) = {1,3}
  // -> matches at tiles (A11,B12) and (A13,B32).
  const auto r = run_intersect({0, 1, 3}, {1, 3});
  ASSERT_EQ(r.size(), 2u);
  EXPECT_EQ(r[0].tile_a, 1);    // position of '1' in A's list
  EXPECT_EQ(r[0].tile_b, 100);  // first B tile id
  EXPECT_EQ(r[1].tile_a, 2);
  EXPECT_EQ(r[1].tile_b, 101);
}

TEST(Intersect, EmptyAndDisjoint) {
  EXPECT_TRUE(run_intersect({}, {1, 2}).empty());
  EXPECT_TRUE(run_intersect({1, 2}, {}).empty());
  EXPECT_TRUE(run_intersect({0, 2, 4}, {1, 3, 5}).empty());
  TileRows a;
  a.add({0, 2, 4});
  TileRowStamp stamp;
  stamp.prepare(6);
  EXPECT_TRUE(a.both(stamp, 0, {1, 3, 5}).second.empty());
}

TEST(Intersect, IdenticalSetsMatchFully) {
  const std::vector<index_t> s = {2, 5, 9, 11, 40};
  const auto r = run_intersect(s, s);
  ASSERT_EQ(r.size(), s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    EXPECT_EQ(r[i].tile_a, static_cast<offset_t>(i));
    EXPECT_EQ(r[i].tile_b, 100 + static_cast<offset_t>(i));
  }
}

}  // namespace
}  // namespace tsg
