// A/B bit-identity contracts for the hot-path kernels: the word-packed
// step-2 symbolic kernel vs the scalar reference, the matched-pair cache
// (per cost bin, and dropped under a tight device budget) vs the paper's
// recompute policy, the masked and semiring products vs the plain one at
// every SIMD level, and the direct-CSR output of try_run_csr and the CSR
// wrappers vs the tile-form product converted back. "Bit-identical" means
// every array of the produced matrix — structure and values — compares
// equal byte-for-byte; the optimisations only reorder *reads*, never the
// accumulation order.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/memory.h"
#include "common/random.h"
#include "core/masked_spgemm.h"
#include "core/semiring_spgemm.h"
#include "core/spgemm_context.h"
#include "core/tile_convert.h"
#include "core/tile_spgemm.h"
#include "gen/generators.h"
#include "matrix/convert.h"
#include "matrix/coo.h"
#include "matrix/ops.h"
#include "matrix/transpose.h"
#include "obs/metrics.h"
#include "test_support.h"

namespace tsg {
namespace {

template <class V>
void expect_bytes_equal(const tracked_vector<V>& x, const tracked_vector<V>& y,
                        const std::string& what) {
  ASSERT_EQ(x.size(), y.size()) << what << " size";
  if (!x.empty()) {
    EXPECT_EQ(std::memcmp(x.data(), y.data(), x.size() * sizeof(V)), 0) << what;
  }
}

/// Bit-exact TileMatrix equality, including the value payload (memcmp, not
/// tolerance compare: the A/B paths must not change even one ulp).
template <class T>
void expect_tiles_identical(const TileMatrix<T>& x, const TileMatrix<T>& y,
                            const std::string& context) {
  SCOPED_TRACE(context);
  ASSERT_EQ(x.rows, y.rows);
  ASSERT_EQ(x.cols, y.cols);
  expect_bytes_equal(x.tile_ptr, y.tile_ptr, "tile_ptr");
  expect_bytes_equal(x.tile_col_idx, y.tile_col_idx, "tile_col_idx");
  expect_bytes_equal(x.tile_nnz, y.tile_nnz, "tile_nnz");
  expect_bytes_equal(x.row_ptr, y.row_ptr, "row_ptr");
  expect_bytes_equal(x.row_idx, y.row_idx, "row_idx");
  expect_bytes_equal(x.col_idx, y.col_idx, "col_idx");
  expect_bytes_equal(x.mask, y.mask, "mask");
  expect_bytes_equal(x.val, y.val, "val");
}

/// Seed-dependent square matrix mixing the structure classes that stress
/// both sides of the packed kernel's sparse/dense dispatch.
Csr<double> fuzz_matrix(std::uint64_t seed) {
  Xoshiro256 rng(seed * 6364136223846793005ull + 1442695040888963407ull);
  const index_t n = 16 + static_cast<index_t>(rng.next_below(280));
  switch (rng.next_below(5)) {
    case 0: return gen::erdos_renyi(n, n, static_cast<offset_t>(n) * 4, rng.next());
    case 1: return gen::dense_blocks(1 + n / 24, 16, rng.next());
    case 2: return gen::banded(n, 1 + static_cast<index_t>(rng.next_below(30)), rng.next());
    case 3: return gen::clustered_rows(n, 3, 8, rng.next());
    default: return gen::rmat(8, 6.0, rng.next());
  }
}

// ------------------------------------------------- packed vs scalar step2 --

class SymbolicAb : public ::testing::TestWithParam<int> {};

TEST_P(SymbolicAb, WordPackedMatchesScalarBitExact) {
  const Csr<double> a = fuzz_matrix(static_cast<std::uint64_t>(GetParam()));
  const TileMatrix<double> ta = csr_to_tile(a);
  TileSpgemmOptions packed, scalar;
  packed.symbolic = SymbolicKernel::kWordPacked;
  scalar.symbolic = SymbolicKernel::kScalar;
  expect_tiles_identical(tile_spgemm(ta, ta, scalar).c, tile_spgemm(ta, ta, packed).c,
                         "seed " + std::to_string(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Fuzz, SymbolicAb, ::testing::Range(0, 32));

TEST(SymbolicAb, StructureClassesMatchBitExact) {
  const test::GenCase cases[] = {
      {"er_small", test::make_er_small},     {"er_dense", test::make_er_dense},
      {"rmat_small", test::make_rmat_small}, {"stencil9", test::make_stencil9},
      {"band_wide", test::make_band_wide},   {"blocks", test::make_blocks},
      {"clustered", test::make_clustered},   {"hyper_sparse", test::make_hyper_sparse},
  };
  for (const test::GenCase& gc : cases) {
    const TileMatrix<double> t = csr_to_tile(gc.make());
    TileSpgemmOptions packed, scalar;
    packed.symbolic = SymbolicKernel::kWordPacked;
    scalar.symbolic = SymbolicKernel::kScalar;
    expect_tiles_identical(tile_spgemm(t, t, scalar).c, tile_spgemm(t, t, packed).c,
                           gc.name);
  }
}

TEST(SymbolicAb, PackedPathStillMatchesReferenceProduct) {
  // Belt and braces: beyond A/B identity, the packed default also has to be
  // the right answer.
  const Csr<double> a = gen::dense_blocks(8, 16, 9301);
  test::check_against_reference(
      a, a, [](const Csr<double>& x, const Csr<double>& y) { return spgemm_tile(x, y); },
      "packed vs reference");
}

// --------------------------------------------- cached vs recomputed pairs --

class PairCacheAb : public ::testing::TestWithParam<int> {};

TEST_P(PairCacheAb, CachedPairsMatchRecomputeBitExact) {
  const TileMatrix<double> t =
      csr_to_tile(fuzz_matrix(static_cast<std::uint64_t>(GetParam()) + 5000));
  SpgemmContext recompute(SpgemmContext::Config{}.with_pair_cache(false));
  const TileMatrix<double> gold = recompute.run(t, t).c;
  // Every bin cached (0), the default heavy-only split (1), and a bin that
  // exceeds the binning range so the sentinel forces recompute everywhere.
  for (const int min_bin : {0, 1, 99}) {
    SpgemmContext cached(
        SpgemmContext::Config{}.with_pair_cache(true).with_pair_cache_min_bin(min_bin));
    expect_tiles_identical(gold, cached.run(t, t).c,
                           "min_bin " + std::to_string(min_bin) + " seed " +
                               std::to_string(GetParam()));
  }
}

INSTANTIATE_TEST_SUITE_P(Fuzz, PairCacheAb, ::testing::Range(0, 16));

TEST(PairCacheAb, FusedPathMatchesRecomputeBitExact) {
  const TileMatrix<double> t = csr_to_tile(gen::clustered_rows(320, 3, 6, 9302));
  SpgemmContext recompute(SpgemmContext::Config{}.with_pair_cache(false));
  SpgemmContext fused(SpgemmContext::Config{}.with_fused_path(true));
  expect_tiles_identical(recompute.run(t, t).c, fused.run(t, t).c, "fused");
}

// ------------------------------------------- budget-degraded (chunked) AB --

/// Restores the process-wide budget override on scope exit.
struct BudgetOverrideGuard {
  ~BudgetOverrideGuard() { set_device_memory_budget_bytes(0); }
};

TEST(PairCacheAb, TightBudgetDropsCacheButStaysBitExact) {
  BudgetOverrideGuard guard;
  const TileMatrix<double> t = csr_to_tile(gen::banded(3000, 24, 9303));
  SpgemmContext roomy(
      SpgemmContext::Config{}.with_pair_cache(true).with_device_mem_mb(4096));
  const TileSpgemmResult<double> gold = roomy.run(t, t);
  ASSERT_FALSE(gold.timings.budget_limited);
  ASSERT_FALSE(gold.timings.pair_cache_dropped);

  // Staged degradation: the pair cache is dropped first (back to the paper's
  // recompute policy), and only then does the run chunk; dropping the cache
  // alone may already clear the budget, so only the drop flag is asserted —
  // either way the payload must not move a bit.
  SpgemmContext squeezed(
      SpgemmContext::Config{}.with_pair_cache(true).with_device_mem_mb(2));
  const TileSpgemmResult<double> degraded = squeezed.run(t, t);
  EXPECT_TRUE(degraded.timings.pair_cache_dropped);
  expect_tiles_identical(gold.c, degraded.c, "tight budget");
}

TEST(PairCacheAb, ChunkedFuzzStaysBitExact) {
  BudgetOverrideGuard guard;
  for (int seed = 0; seed < 8; ++seed) {
    const TileMatrix<double> t =
        csr_to_tile(fuzz_matrix(static_cast<std::uint64_t>(seed) + 7000));
    SpgemmContext roomy(
        SpgemmContext::Config{}.with_pair_cache(true).with_device_mem_mb(4096));
    const TileMatrix<double> gold = roomy.run(t, t).c;
    SpgemmContext squeezed(
        SpgemmContext::Config{}.with_pair_cache(true).with_device_mem_mb(1));
    expect_tiles_identical(gold, squeezed.run(t, t).c, "seed " + std::to_string(seed));
  }
}

// ------------------------------------- masked and semiring vs plain product --

using test::accumulator_routes;
using test::available_levels;

template <class T>
void expect_csr_identical(const Csr<T>& x, const Csr<T>& y, const std::string& context) {
  SCOPED_TRACE(context);
  ASSERT_EQ(x.rows, y.rows);
  ASSERT_EQ(x.cols, y.cols);
  expect_bytes_equal(x.row_ptr, y.row_ptr, "row_ptr");
  expect_bytes_equal(x.col_idx, y.col_idx, "col_idx");
  expect_bytes_equal(x.val, y.val, "val");
}

/// C = (A*B) .* M where the plain product A*B carries NaN/Inf that M keeps
/// out: A's rows in `poison` and B's columns in `poison` hold NaN, +Inf and
/// -Inf, and M excludes those rows and columns. M also drops every third
/// remaining product entry (partial tiles and rows) and adds positions the
/// product never reaches (they must not appear in C).
template <class T>
struct MaskedCase {
  Csr<T> a, b, m;
  Csr<T> plain;  ///< A*B, scalar level, single shot
};

/// The plain product A*B, computed at the scalar level in one shot.
template <class T>
Csr<T> plain_product(const Csr<T>& a, const Csr<T>& b) {
  SpgemmContext gold(
      SpgemmContext::Config{}.with_simd_level(simd::Level::kScalar).with_device_mem_mb(4096));
  return gold.run_csr(a, b);
}

template <class T>
MaskedCase<T> masked_case(std::uint64_t seed) {
  const T specials[] = {std::numeric_limits<T>::quiet_NaN(), std::numeric_limits<T>::infinity(),
                        -std::numeric_limits<T>::infinity()};
  MaskedCase<T> mc;
  mc.a = gen::cast_values<T>(gen::rmat(9, 8.0, seed));
  mc.b = mc.a;
  const index_t n = mc.a.rows;
  auto poisoned = [&](index_t x) { return x % 37 == 5; };
  for (index_t i = 0; i < n; ++i) {
    for (offset_t g = mc.a.row_ptr[i]; g < mc.a.row_ptr[i + 1]; ++g) {
      const auto k = static_cast<std::size_t>(g);
      if (poisoned(i)) mc.a.val[k] = specials[k % 3];
      if (poisoned(mc.b.col_idx[k])) mc.b.val[k] = specials[(k + 1) % 3];
    }
  }
  mc.plain = plain_product(mc.a, mc.b);

  mc.m = Csr<T>(n, n);
  std::vector<index_t> cols;
  for (index_t i = 0; i < n; ++i) {
    cols.clear();
    if (!poisoned(i)) {
      for (offset_t g = mc.plain.row_ptr[i]; g < mc.plain.row_ptr[i + 1]; ++g) {
        const index_t j = mc.plain.col_idx[static_cast<std::size_t>(g)];
        if (!poisoned(j) && g % 3 != 0) cols.push_back(j);
      }
      const index_t extra = (i * 7 + 3) % n;
      const auto row_begin = mc.plain.col_idx.begin() + mc.plain.row_ptr[i];
      const auto row_end = mc.plain.col_idx.begin() + mc.plain.row_ptr[i + 1];
      if (!poisoned(extra) && std::find(row_begin, row_end, extra) == row_end) {
        cols.push_back(extra);
      }
      std::sort(cols.begin(), cols.end());
    }
    for (index_t j : cols) {
      mc.m.col_idx.push_back(j);
      mc.m.val.push_back(T{1});
    }
    mc.m.row_ptr[static_cast<std::size_t>(i) + 1] = static_cast<offset_t>(mc.m.col_idx.size());
  }
  return mc;
}

/// C must hold exactly the plain product's entries on M's pattern, with
/// memcmp-equal values, and nothing non-finite.
template <class T>
void expect_masked_matches_plain(const MaskedCase<T>& mc, const Csr<T>& c,
                                 const std::string& context) {
  SCOPED_TRACE(context);
  ASSERT_EQ(c.rows, mc.plain.rows);
  ASSERT_EQ(c.cols, mc.plain.cols);
  for (index_t i = 0; i < c.rows; ++i) {
    std::vector<std::size_t> want;  // positions in mc.plain
    offset_t p = mc.plain.row_ptr[i];
    for (offset_t q = mc.m.row_ptr[i]; q < mc.m.row_ptr[i + 1]; ++q) {
      const index_t j = mc.m.col_idx[static_cast<std::size_t>(q)];
      while (p < mc.plain.row_ptr[i + 1] && mc.plain.col_idx[static_cast<std::size_t>(p)] < j) ++p;
      if (p < mc.plain.row_ptr[i + 1] && mc.plain.col_idx[static_cast<std::size_t>(p)] == j) {
        want.push_back(static_cast<std::size_t>(p));
      }
    }
    ASSERT_EQ(static_cast<std::size_t>(c.row_nnz(i)), want.size()) << "row " << i;
    for (std::size_t k = 0; k < want.size(); ++k) {
      const auto g = static_cast<std::size_t>(c.row_ptr[i]) + k;
      ASSERT_EQ(c.col_idx[g], mc.plain.col_idx[want[k]]) << "row " << i;
      ASSERT_TRUE(std::isfinite(c.val[g])) << "row " << i << " col " << c.col_idx[g];
      ASSERT_EQ(std::memcmp(&c.val[g], &mc.plain.val[want[k]], sizeof(T)), 0)
          << "row " << i << " col " << c.col_idx[g];
    }
  }
}

/// Tiles of C holding a nonzero: the masked route finishes each of them in
/// step 2, so this is what it must report as fused.
template <class T>
offset_t nonempty_tiles(const TileMatrix<T>& c) {
  offset_t n = 0;
  for (offset_t t = 0; t < c.num_tiles(); ++t) n += c.tile_nnz_of(t) > 0 ? 1 : 0;
  return n;
}

/// Every level x route x {single shot, 1 MB forced chunks}, through
/// try_run_masked (tile form) and spgemm_tile_masked (CSR): C equals the
/// plain product on M's pattern, and the masked route ran, finishing every
/// non-empty C tile in step 2.
template <class T>
void expect_masked_sweep_matches_plain(const MaskedCase<T>& mc, const std::string& name) {
  BudgetOverrideGuard guard;
  const TileMatrix<T> ta = csr_to_tile(mc.a);
  const TileMatrix<T> tb = csr_to_tile(mc.b);
  const TileMatrix<T> tm = csr_to_tile(mc.m);
  obs::MetricsRegistry& reg = obs::MetricsRegistry::instance();
  const obs::Counter& chunks = reg.counter("spgemm.chunks");
  const obs::Counter& fused = reg.counter("spgemm.tiles.fused");
  for (const simd::Level level : available_levels()) {
    for (const test::Route& route : accumulator_routes(level)) {
      for (const std::size_t mb : {std::size_t{4096}, std::size_t{1}}) {
        const std::string what = name + " " + simd::level_name(level) + " " + route.name +
                                 (mb == 1 ? " chunked" : " single-shot");
        SpgemmContext ctx(SpgemmContext::Config(route.config).with_device_mem_mb(mb));
        TileSpgemmTimings timings;
        Expected<TileMatrix<T>> c = ctx.try_run_masked(ta, tb, tm, &timings);
        ASSERT_TRUE(c.ok()) << what << ": " << c.status().to_string();
        EXPECT_EQ(timings.chunks > 1, mb == 1) << what;
        EXPECT_EQ(timings.fused_tiles, nonempty_tiles(*c)) << what;
        expect_masked_matches_plain(mc, tile_to_csr(*c), what);

        // The CSR wrapper's transient context reads the process-wide
        // budget the context above published.
        const std::int64_t chunks_before = chunks.value();
        const std::int64_t fused_before = fused.value();
        const Csr<T> csr = spgemm_tile_masked(mc.a, mc.b, mc.m, route.config.options);
        EXPECT_EQ(chunks.value() - chunks_before > 1, mb == 1) << what << " (CSR)";
        EXPECT_EQ(fused.value() - fused_before, nonempty_tiles(*c)) << what << " (CSR)";
        expect_csr_identical(tile_to_csr(*c), csr, what + " (CSR)");
      }
    }
  }
}

TEST(MaskedAb, MaskedEqualsPlainOnMaskPatternDouble) {
  const MaskedCase<double> mc = masked_case<double>(9401);
  ASSERT_GT(mc.m.nnz(), 0);
  expect_masked_sweep_matches_plain(mc, "poisoned");
}

TEST(MaskedAb, MaskedEqualsPlainOnMaskPatternFloat) {
  const MaskedCase<float> mc = masked_case<float>(9402);
  ASSERT_GT(mc.m.nnz(), 0);
  expect_masked_sweep_matches_plain(mc, "poisoned");
}

/// Strict lower triangle of a symmetrised R-MAT graph, with random values
/// in [-1, 1).
Csr<double> random_lower_triangle(int scale, std::uint64_t seed) {
  Csr<double> l = tril_strict(gen::symmetrized(gen::rmat(scale, 8.0, seed)));
  Xoshiro256 rng(seed);
  for (double& v : l.val) v = static_cast<double>(rng.next() >> 11) * 0x1.0p-52 - 1.0;
  return l;
}

TEST(MaskedAb, RandomTriangleProduct) {
  // (L*L) .* L, the triangle-counting product, with values that make any
  // change in summation order visible.
  MaskedCase<double> mc;
  mc.a = random_lower_triangle(10, 9404);
  mc.b = mc.a;
  mc.m = mc.a;
  mc.plain = plain_product(mc.a, mc.b);
  expect_masked_sweep_matches_plain(mc, "triangle");
}

TEST(MaskedAb, MaskTilesAboveTnnzTakeTheDenseKernel) {
  // A wide band's square, kept on two of every three entries: the mask
  // tiles along the band hold far more than tnnz nonzeros, so adaptive
  // runs send them to the dense kernel (counted with metrics detail on).
  MaskedCase<double> mc;
  mc.a = gen::banded(1500, 24, 9405);
  mc.b = mc.a;
  mc.plain = plain_product(mc.a, mc.b);
  mc.m = mc.plain;
  mc.m.col_idx.clear();
  mc.m.val.clear();
  for (index_t i = 0; i < mc.plain.rows; ++i) {
    for (offset_t g = mc.plain.row_ptr[i]; g < mc.plain.row_ptr[i + 1]; ++g) {
      if (g % 3 == 0) continue;
      mc.m.col_idx.push_back(mc.plain.col_idx[static_cast<std::size_t>(g)]);
      mc.m.val.push_back(1.0);
    }
    mc.m.row_ptr[static_cast<std::size_t>(i) + 1] = static_cast<offset_t>(mc.m.col_idx.size());
  }
  const TileMatrix<double> tm = csr_to_tile(mc.m);
  offset_t above = 0;
  for (offset_t t = 0; t < tm.num_tiles(); ++t) {
    above += tm.tile_nnz_of(t) > TileSpgemmOptions{}.tnnz ? 1 : 0;
  }
  ASSERT_GT(above, tm.num_tiles() / 2);

  const bool detail_was = obs::metrics_detail_enabled();
  obs::set_metrics_detail_enabled(true);
  const obs::Counter& dense = obs::MetricsRegistry::instance().counter("spgemm.accumulator.dense");
  const std::int64_t dense_before = dense.value();
  expect_masked_sweep_matches_plain(mc, "dense mask");
  EXPECT_GT(dense.value() - dense_before, 0);
  obs::set_metrics_detail_enabled(detail_was);
}

TEST(MaskedAb, MaskTheProductMisses) {
  // L*L is strictly lower triangular and the mask L^T strictly upper, so
  // nnz(C) = 0 while C keeps every (empty) tile of the mask.
  MaskedCase<double> mc;
  mc.a = random_lower_triangle(10, 9406);
  mc.b = mc.a;
  mc.m = transpose(mc.a);
  mc.plain = plain_product(mc.a, mc.b);
  const TileMatrix<double> c = tile_spgemm_masked(csr_to_tile(mc.a), csr_to_tile(mc.b),
                                                  csr_to_tile(mc.m));
  ASSERT_EQ(c.nnz(), 0);
  ASSERT_GT(c.num_tiles(), 0);
  expect_masked_sweep_matches_plain(mc, "missed mask");
}

/// The plus-times semiring runs the plain product's dispatched kernels.
template <class T>
void expect_plus_times_matches_run_csr(const Csr<T>& a) {
  for (const simd::Level level : available_levels()) {
    for (const test::Route& route : accumulator_routes(level)) {
      SpgemmContext ctx(route.config);
      expect_csr_identical(ctx.run_csr(a, a),
                           spgemm_semiring<PlusTimes<T>>(a, a, route.config.options),
                           std::string(simd::level_name(level)) + " " + route.name);
    }
  }
}

TEST(SemiringAb, PlusTimesEqualsRunCsr) {
  const Csr<double> a = fuzz_matrix(9403);
  expect_plus_times_matches_run_csr(a);
  expect_plus_times_matches_run_csr(gen::cast_values<float>(gen::dense_blocks(6, 16, 9404)));
}

// ------------------------------------- direct CSR output vs tile -> CSR --

/// A*B pairs that stress the direct-CSR sink: non-square, row and column
/// counts that are not multiples of 16, NaN/+Inf/-Inf operand values,
/// tiles step 1 keeps that come out empty, and a product with no nonzeros.
template <class T>
std::vector<std::pair<Csr<T>, Csr<T>>> csr_sink_cases() {
  const T specials[] = {std::numeric_limits<T>::quiet_NaN(), std::numeric_limits<T>::infinity(),
                        -std::numeric_limits<T>::infinity()};
  auto poison = [&](Csr<T> m, std::size_t every, std::size_t at) {
    for (std::size_t k = at; k < m.val.size(); k += every) m.val[k] = specials[k % 3];
    return m;
  };
  // Entries (i, c) for every row i and every column c in cols_of(i).
  auto pattern = [](index_t rows, index_t ncols, auto cols_of) {
    Coo<double> coo;
    coo.rows = rows;
    coo.cols = ncols;
    for (index_t i = 0; i < rows; ++i) {
      for (index_t c : cols_of(i)) {
        coo.push_back(i, c, 1.0 + 0.25 * static_cast<double>(i % 7 + c % 5));
      }
    }
    return gen::cast_values<T>(coo_to_csr(coo));
  };
  using Cols = std::vector<index_t>;
  std::vector<std::pair<Csr<T>, Csr<T>>> out;
  // Big enough to chunk under a 1 MB budget.
  out.emplace_back(poison(gen::cast_values<T>(gen::erdos_renyi(611, 389, 611 * 12, 9501)), 97, 5),
                   poison(gen::cast_values<T>(gen::erdos_renyi(389, 517, 389 * 12, 9502)), 89, 7));
  // A's tile column 0 holds only local column 0, and B leaves row 0 empty:
  // the (A(i,0), B(0,j)) pairs step 1 uses to keep C's tiles in tile
  // columns 1-2 contribute nothing, so those tiles come out empty. C's tile
  // column 0 fills through A's column 20 and B's tile row 1.
  out.emplace_back(pattern(37, 50, [](index_t) { return Cols{0, 20}; }),
                   pattern(50, 45, [](index_t i) {
                     return i == 0 ? Cols{} : i < 16 ? Cols{3, 17, 40} : Cols{3};
                   }));
  // nnz(C) = 0: A only in column 0, B only in row 1.
  out.emplace_back(pattern(45, 40, [](index_t) { return Cols{0}; }),
                   pattern(40, 33, [](index_t i) { return i == 1 ? Cols{2, 19, 32} : Cols{}; }));
  return out;
}

/// try_run_csr must equal tile_to_csr(try_run(...).c) byte for byte at
/// every level x accumulator route x {single shot, 1 MB chunks}.
template <class T>
void expect_direct_csr_matches_tile_path() {
  BudgetOverrideGuard guard;
  const auto cases = csr_sink_cases<T>();
  for (std::size_t ci = 0; ci < cases.size(); ++ci) {
    const Csr<T>& a = cases[ci].first;
    const Csr<T>& b = cases[ci].second;
    const TileMatrix<T> ta = csr_to_tile(a);
    const TileMatrix<T> tb = csr_to_tile(b);
    for (const simd::Level level : available_levels()) {
      for (const test::Route& route : accumulator_routes(level)) {
        for (const std::size_t mb : {std::size_t{4096}, std::size_t{1}}) {
          const std::string what = "case " + std::to_string(ci) + " " +
                                   simd::level_name(level) + " " + route.name +
                                   (mb == 1 ? " chunked" : " single-shot");
          SpgemmContext ctx(SpgemmContext::Config(route.config).with_device_mem_mb(mb));
          Expected<TileSpgemmResult<T>> tiles = ctx.try_run(ta, tb);
          ASSERT_TRUE(tiles.ok()) << what << ": " << tiles.status().to_string();
          TileSpgemmTimings tm;
          Expected<Csr<T>> direct = ctx.try_run_csr(a, b, &tm);
          ASSERT_TRUE(direct.ok()) << what << ": " << direct.status().to_string();
          if (ci == 0) {
            EXPECT_EQ(tm.chunks > 1, mb == 1) << what;
            EXPECT_EQ(tm.budget_limited, mb == 1) << what;
          }
          if (ci == 1) {
            bool kept_empty = false;
            for (offset_t t = 0; t < tiles->c.num_tiles(); ++t) {
              kept_empty = kept_empty || tiles->c.tile_nnz_of(t) == 0;
            }
            EXPECT_TRUE(kept_empty) << what << ": no empty C tile";
          }
          if (ci == 2) {
            EXPECT_EQ(direct->nnz(), 0) << what;
          }
          expect_csr_identical(tile_to_csr(tiles->c), *direct, what);
        }
      }
    }
  }
}

TEST(CsrSinkAb, DirectCsrEqualsTileToCsrDouble) {
  expect_direct_csr_matches_tile_path<double>();
}

TEST(CsrSinkAb, DirectCsrEqualsTileToCsrFloat) {
  expect_direct_csr_matches_tile_path<float>();
}

/// The CSR free wrappers (masked, semiring) take the direct-CSR path too;
/// they must equal the tile-form product converted back, single shot and
/// under a process-wide 1 MB budget (their transient contexts read it).
template <class T, class S>
void expect_csr_wrappers_match_tile_path() {
  BudgetOverrideGuard guard;
  const MaskedCase<T> mc = masked_case<T>(9503);
  const TileMatrix<T> ta = csr_to_tile(mc.a);
  const TileMatrix<T> tb = csr_to_tile(mc.b);
  const TileMatrix<T> tm = csr_to_tile(mc.m);
  const obs::Counter& chunks = obs::MetricsRegistry::instance().counter("spgemm.chunks");
  for (const simd::Level level : available_levels()) {
    for (const test::Route& route : accumulator_routes(level)) {
      for (const std::size_t mb : {std::size_t{4096}, std::size_t{1}}) {
        const std::string what = std::string(simd::level_name(level)) + " " + route.name +
                                 (mb == 1 ? " chunked" : " single-shot");
        set_device_memory_budget_bytes(mb * 1024 * 1024);
        const TileSpgemmOptions& opt = route.config.options;
        SpgemmContext ctx(SpgemmContext::Config{}.with_options(opt));
        const std::int64_t chunks_before = chunks.value();
        expect_csr_identical(tile_to_csr(ctx.run_masked(ta, tb, tm)),
                             spgemm_tile_masked(mc.a, mc.b, mc.m, opt), "masked " + what);
        expect_csr_identical(tile_to_csr(ctx.run_semiring<S>(ta, tb).c),
                             spgemm_semiring<S>(mc.a, mc.b, opt), "semiring " + what);
        if (mb == 1) {
          // Four runs (tile and CSR form of each product), each chunked.
          EXPECT_GE(chunks.value() - chunks_before, 8) << what << ": 1 MB did not chunk";
        }
      }
    }
  }
}

TEST(CsrSinkAb, WrappersEqualTileToCsrDouble) {
  expect_csr_wrappers_match_tile_path<double, MinPlus<double>>();
}

TEST(CsrSinkAb, WrappersEqualTileToCsrFloat) {
  expect_csr_wrappers_match_tile_path<float, MaxTimes<float>>();
}

}  // namespace
}  // namespace tsg
