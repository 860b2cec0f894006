// Selection and bit-identity contracts for the runtime SIMD dispatch family
// (core/simd_dispatch.h): TSG_SIMD-style level parsing, CPUID clamping, the
// per-primitive A/B of every available level against the scalar oracle, and
// whole-pipeline memcmp identity when a level (or a fusion bin cap) is
// forced through the context Config. "Bit-identical" is the family's core
// promise — the vector kernels reorder reads, never accumulation.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/bitops.h"
#include "common/random.h"
#include "core/simd_dispatch.h"
#include "core/spgemm_context.h"
#include "core/tile_convert.h"
#include "core/tile_spgemm.h"
#include "gen/generators.h"
#include "obs/metrics.h"
#include "test_support.h"

namespace tsg {
namespace {

using test::available_levels;

// ------------------------------------------------------- level selection --

TEST(SimdSelect, ParseAcceptsEveryLevelName) {
  for (int l = 0; l < simd::kLevelCount; ++l) {
    const auto level = static_cast<simd::Level>(l);
    const Expected<simd::Level> parsed = simd::parse_level(simd::level_name(level));
    ASSERT_TRUE(parsed.ok()) << simd::level_name(level);
    EXPECT_EQ(*parsed, level);
  }
}

TEST(SimdSelect, ParseRejectsUnknownNamesWithStructuredStatus) {
  for (const char* bad : {"", "AVX2", "sse", "avx-512", "scalar "}) {
    const Expected<simd::Level> parsed = simd::parse_level(bad);
    ASSERT_FALSE(parsed.ok()) << "'" << bad << "'";
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
    // The message must name the accepted values — it surfaces in the
    // TSG_SIMD warning event and has to be actionable on its own.
    EXPECT_NE(parsed.status().message().find("scalar"), std::string::npos);
  }
}

TEST(SimdSelect, ScalarAndSwarAlwaysAvailable) {
  EXPECT_TRUE(simd::level_available(simd::Level::kScalar));
  EXPECT_TRUE(simd::level_available(simd::Level::kSwar));
  EXPECT_GE(simd::detected_level(), simd::Level::kSwar);
  EXPECT_TRUE(simd::level_available(simd::active_level()));
}

TEST(SimdSelect, ClampIsMonotoneAndLandsOnAvailable) {
  for (int l = 0; l < simd::kLevelCount; ++l) {
    const auto req = static_cast<simd::Level>(l);
    const simd::Level got = simd::clamp_to_available(req);
    EXPECT_LE(got, req);
    EXPECT_TRUE(simd::level_available(got));
    if (simd::level_available(req)) {
      EXPECT_EQ(got, req);
    }
  }
}

TEST(SimdSelect, CompileProbesGateAvxAvailability) {
  if (!simd::compiled_avx2()) {
    EXPECT_FALSE(simd::level_available(simd::Level::kAvx2));
  }
  if (!simd::compiled_avx512()) {
    EXPECT_FALSE(simd::level_available(simd::Level::kAvx512));
  }
}

// -------------------------------------------------- per-primitive vs oracle --

/// Random 16-row tile mask with a controllable density character: mixes
/// empty rows, dense rows, and single-bit rows so the compress/materialize
/// kernels see their edge lanes.
void random_masks(Xoshiro256& rng, rowmask_t m[kTileDim]) {
  for (int r = 0; r < kTileDim; ++r) {
    switch (rng.next_below(4)) {
      case 0: m[r] = 0; break;
      case 1: m[r] = static_cast<rowmask_t>(rng.next()); break;
      case 2: m[r] = 0xFFFF; break;
      default: m[r] = bit_of(static_cast<index_t>(rng.next_below(kTileDim))); break;
    }
  }
}

TEST(SimdPrimitives, MaskOrMatchesScalarOracle) {
  const simd::SymbolicOps& oracle = simd::symbolic_ops(simd::Level::kScalar);
  Xoshiro256 rng(0xA50);
  for (int trial = 0; trial < 200; ++trial) {
    alignas(32) rowmask_t mask_a[kTileDim];
    alignas(32) rowmask_t mask_b[kTileDim];
    random_masks(rng, mask_a);
    random_masks(rng, mask_b);
    std::uint64_t seed_cm[kTileMaskWords] = {rng.next(), rng.next(), rng.next(),
                                             rng.next()};
    std::uint64_t want[kTileMaskWords];
    std::memcpy(want, seed_cm, sizeof(want));
    oracle.mask_or(mask_a, mask_b, want);
    for (const simd::Level level : available_levels()) {
      std::uint64_t got[kTileMaskWords];
      std::memcpy(got, seed_cm, sizeof(got));
      simd::symbolic_ops(level).mask_or(mask_a, mask_b, got);
      ASSERT_EQ(std::memcmp(got, want, sizeof(want)), 0)
          << simd::level_name(level) << " trial " << trial;
    }
  }
}

TEST(SimdPrimitives, DeriveMatchesScalarOracle) {
  const simd::SymbolicOps& oracle = simd::symbolic_ops(simd::Level::kScalar);
  Xoshiro256 rng(0xA51);
  for (int trial = 0; trial < 200; ++trial) {
    std::uint64_t cm[kTileMaskWords] = {rng.next(), rng.next(), rng.next(), rng.next()};
    if (trial == 0) std::memset(cm, 0, sizeof(cm));       // empty tile
    if (trial == 1) std::memset(cm, 0xFF, sizeof(cm));    // full tile (nnz 256)
    alignas(32) rowmask_t want_mask[kTileDim];
    std::uint8_t want_rp[kTileDim];
    const index_t want_nnz = oracle.derive(cm, want_mask, want_rp);
    for (const simd::Level level : available_levels()) {
      alignas(32) rowmask_t got_mask[kTileDim];
      std::uint8_t got_rp[kTileDim];
      const index_t got_nnz = simd::symbolic_ops(level).derive(cm, got_mask, got_rp);
      ASSERT_EQ(got_nnz, want_nnz) << simd::level_name(level) << " trial " << trial;
      ASSERT_EQ(std::memcmp(got_mask, want_mask, sizeof(want_mask)), 0)
          << simd::level_name(level) << " trial " << trial;
      ASSERT_EQ(std::memcmp(got_rp, want_rp, sizeof(want_rp)), 0)
          << simd::level_name(level) << " trial " << trial;
    }
  }
}

template <class T>
void check_compress_level() {
  const simd::NumericOps& oracle = simd::numeric_ops(simd::Level::kScalar);
  Xoshiro256 rng(sizeof(T) == 8 ? 0xA52 : 0xA53);
  for (int trial = 0; trial < 200; ++trial) {
    alignas(64) T acc[kTileNnzMax];
    for (T& v : acc) v = static_cast<T>(rng.next_double() * 2.0 - 1.0);
    alignas(32) rowmask_t mask_c[kTileDim];
    random_masks(rng, mask_c);
    if (trial == 0) std::memset(mask_c, 0xFF, sizeof(mask_c));
    int n = 0;
    for (int r = 0; r < kTileDim; ++r) n += popcount16(mask_c[r]);
    alignas(64) T want[kTileNnzMax];
    simd::compress_tile<T>(oracle, acc, mask_c, want);
    for (const simd::Level level : available_levels()) {
      // Compress may over-store past n (the contract allows whole-vector
      // stores into the thread-local scratch) — only [0, n) is compared.
      alignas(64) T got[kTileNnzMax];
      simd::compress_tile<T>(simd::numeric_ops(level), acc, mask_c, got);
      ASSERT_EQ(std::memcmp(got, want, static_cast<std::size_t>(n) * sizeof(T)), 0)
          << simd::level_name(level) << " trial " << trial << " n " << n;
    }
  }
}

TEST(SimdPrimitives, CompressDoubleMatchesScalarOracle) { check_compress_level<double>(); }

TEST(SimdPrimitives, CompressFloatMatchesScalarOracle) { check_compress_level<float>(); }

TEST(SimdPrimitives, MaterializeIsExactWidthAndMatchesOracle) {
  const simd::NumericOps& oracle = simd::numeric_ops(simd::Level::kScalar);
  Xoshiro256 rng(0xA54);
  for (int trial = 0; trial < 200; ++trial) {
    alignas(32) rowmask_t mask_c[kTileDim];
    random_masks(rng, mask_c);
    if (trial == 0) std::memset(mask_c, 0xFF, sizeof(mask_c));
    int n = 0;
    for (int r = 0; r < kTileDim; ++r) n += popcount16(mask_c[r]);
    std::uint8_t want_row[kTileNnzMax], want_col[kTileNnzMax];
    std::memset(want_row, 0xEE, sizeof(want_row));
    std::memset(want_col, 0xEE, sizeof(want_col));
    oracle.materialize(mask_c, want_row, want_col);
    for (const simd::Level level : available_levels()) {
      std::uint8_t got_row[kTileNnzMax], got_col[kTileNnzMax];
      std::memset(got_row, 0xEE, sizeof(got_row));
      std::memset(got_col, 0xEE, sizeof(got_col));
      simd::numeric_ops(level).materialize(mask_c, got_row, got_col);
      ASSERT_EQ(std::memcmp(got_row, want_row, sizeof(want_row)), 0)
          << simd::level_name(level) << " trial " << trial;
      ASSERT_EQ(std::memcmp(got_col, want_col, sizeof(want_col)), 0)
          << simd::level_name(level) << " trial " << trial;
      // Exact-store contract: materialize targets C's shared arrays, so the
      // sentinel bytes past n must be untouched at EVERY level.
      for (int k = n; k < static_cast<int>(kTileNnzMax); ++k) {
        ASSERT_EQ(got_row[k], 0xEE) << simd::level_name(level) << " over-store at " << k;
        ASSERT_EQ(got_col[k], 0xEE) << simd::level_name(level) << " over-store at " << k;
      }
    }
  }
}

/// A random value that is a NaN, +-Inf, -0.0 or +0.0 one time in three.
template <class T>
T special_or_random(Xoshiro256& rng) {
  switch (rng.next_below(12)) {
    case 0: return std::numeric_limits<T>::quiet_NaN();
    case 1: return std::numeric_limits<T>::infinity();
    case 2: return -std::numeric_limits<T>::infinity();
    case 3: return static_cast<T>(-0.0);
    default: return static_cast<T>(rng.next_double() * 4.0 - 2.0);
  }
}

/// Same bits, or both NaN: NaN payloads are not part of the identity (the
/// order of the operands of an add decides which NaN survives, and the
/// compiler may swap them in the scalar code).
template <class T>
bool same_value(T x, T y) {
  return (std::isnan(x) && std::isnan(y)) || std::memcmp(&x, &y, sizeof(T)) == 0;
}

/// A B tile with the given row masks and random values in storage order.
/// The values live in a heap buffer of exactly b_nnz elements, so an
/// over-read past them trips ASan.
template <class T>
struct BTile {
  alignas(32) rowmask_t mask[kTileDim];
  std::uint8_t row_ptr[kTileDim];
  std::vector<std::uint8_t> col;
  std::vector<T> val;

  BTile(const rowmask_t* masks, Xoshiro256& rng, bool specials) {
    std::memcpy(mask, masks, sizeof(mask));
    for (int r = 0; r < kTileDim; ++r) {
      row_ptr[r] = static_cast<std::uint8_t>(col.size());
      for (unsigned m = mask[r]; m != 0; m &= m - 1) {
        col.push_back(static_cast<std::uint8_t>(std::countr_zero(m)));
        val.push_back(specials ? special_or_random<T>(rng)
                               : static_cast<T>(rng.next_double() - 0.5));
      }
    }
  }
};

/// An A tile holding the given local positions (row * 16 + col, sorted:
/// row-major storage order).
template <class T>
struct ATile {
  std::vector<std::uint8_t> row, col;
  std::vector<T> val;

  ATile(const std::vector<int>& positions, Xoshiro256& rng, bool specials) {
    for (const int pos : positions) {
      row.push_back(static_cast<std::uint8_t>(pos / kTileDim));
      col.push_back(static_cast<std::uint8_t>(pos % kTileDim));
      val.push_back(specials ? special_or_random<T>(rng)
                             : static_cast<T>(rng.next_double() - 0.5));
    }
  }
};

/// `n` distinct sorted local positions out of the 256.
std::vector<int> random_positions(Xoshiro256& rng, int n) {
  std::vector<int> slots(kTileNnzMax);
  for (int i = 0; i < kTileNnzMax; ++i) slots[static_cast<std::size_t>(i)] = i;
  for (int i = 0; i < n; ++i) {
    const auto j = i + static_cast<int>(rng.next_below(static_cast<std::uint64_t>(kTileNnzMax - i)));
    std::swap(slots[static_cast<std::size_t>(i)], slots[static_cast<std::size_t>(j)]);
  }
  slots.resize(static_cast<std::size_t>(n));
  std::sort(slots.begin(), slots.end());
  return slots;
}

template <class T>
simd::PairTiles<T> make_pair(const ATile<T>& a, const BTile<T>& b) {
  return {a.row.data(), a.col.data(), a.val.data(), static_cast<index_t>(a.val.size()),
          b.mask,       b.row_ptr,    b.col.data(), b.val.data(),
          static_cast<index_t>(b.val.size())};
}

/// Per-primitive A/B of the accumulate kernel: 1-4 pairs into one dense
/// tile, at every level against the scalar oracle. The accumulator starts
/// as a mix of values, -0.0, +-Inf and NaN; with `specials` the A and B
/// values are mixed the same way. Trial 0 drives full A tiles against full
/// B tiles (16-column rows, row 15 through the implied 17th row pointer);
/// trial 1 pairs full A tiles with all-empty B tiles; the rest mix empty,
/// full, single-bit and random B rows.
template <class T>
void check_accumulate_level(bool specials) {
  const simd::NumericOps& oracle = simd::numeric_ops(simd::Level::kScalar);
  Xoshiro256 rng((sizeof(T) == 8 ? 0xA55 : 0xA56) + (specials ? 2 : 0));
  for (int trial = 0; trial < 300; ++trial) {
    const int pairs = 1 + static_cast<int>(rng.next_below(4));
    std::vector<ATile<T>> as;
    std::vector<BTile<T>> bs;
    for (int p = 0; p < pairs; ++p) {
      const int a_nnz = trial < 2 ? kTileNnzMax : static_cast<int>(rng.next_below(48));
      as.emplace_back(random_positions(rng, a_nnz), rng, specials);
      alignas(32) rowmask_t masks[kTileDim];
      random_masks(rng, masks);
      if (trial == 0) std::fill(std::begin(masks), std::end(masks), rowmask_t{0xFFFF});
      if (trial == 1) std::fill(std::begin(masks), std::end(masks), rowmask_t{0});
      bs.emplace_back(masks, rng, specials);
    }
    alignas(64) T start[kTileNnzMax];
    for (T& v : start) v = special_or_random<T>(rng);
    alignas(64) T want[kTileNnzMax];
    std::memcpy(want, start, sizeof(want));
    for (int p = 0; p < pairs; ++p) {
      simd::accumulate_pair<T>(oracle, make_pair(as[p], bs[p]), want);
    }
    for (const simd::Level level : available_levels()) {
      alignas(64) T got[kTileNnzMax];
      std::memcpy(got, start, sizeof(got));
      for (int p = 0; p < pairs; ++p) {
        simd::accumulate_pair<T>(simd::numeric_ops(level), make_pair(as[p], bs[p]), got);
      }
      for (int e = 0; e < kTileNnzMax; ++e) {
        ASSERT_TRUE(same_value(got[e], want[e]))
            << simd::level_name(level) << " trial " << trial << " entry " << e << ": got "
            << got[e] << " want " << want[e];
      }
    }
  }
}

TEST(SimdPrimitives, AccumulateDoubleMatchesScalarOracle) {
  check_accumulate_level<double>(false);
}

TEST(SimdPrimitives, AccumulateFloatMatchesScalarOracle) { check_accumulate_level<float>(false); }

TEST(SimdPrimitives, AccumulateDoubleWithNanInfNegZeroMatchesScalarOracle) {
  check_accumulate_level<double>(true);
}

TEST(SimdPrimitives, AccumulateFloatWithNanInfNegZeroMatchesScalarOracle) {
  check_accumulate_level<float>(true);
}

template <class T>
void check_accumulate_stays_in_mask() {
  // A holds +Inf at (3, 5); B's row 5 holds one entry, 2 at column 9, and
  // every other B row is full. The vector levels multiply Inf by the zeroed
  // lanes of the expanded row (NaN), so only the mask keeps that out: the
  // accumulator, all -0.0, must change at (3, 9) alone, to +Inf.
  Xoshiro256 rng(0xA57);
  ATile<T> a({3 * kTileDim + 5}, rng, false);
  a.val[0] = std::numeric_limits<T>::infinity();
  rowmask_t masks[kTileDim];
  std::fill(std::begin(masks), std::end(masks), rowmask_t{0xFFFF});
  masks[5] = bit_of(9);
  BTile<T> b(masks, rng, false);
  b.val[b.row_ptr[5]] = T{2};
  const T neg_zero = static_cast<T>(-0.0);
  for (const simd::Level level : available_levels()) {
    alignas(64) T acc[kTileNnzMax];
    std::fill(std::begin(acc), std::end(acc), neg_zero);
    simd::accumulate_pair<T>(simd::numeric_ops(level), make_pair(a, b), acc);
    for (int e = 0; e < kTileNnzMax; ++e) {
      const T want = e == 3 * kTileDim + 9 ? std::numeric_limits<T>::infinity() : neg_zero;
      ASSERT_EQ(std::memcmp(&acc[e], &want, sizeof(T)), 0)
          << simd::level_name(level) << " entry " << e << " holds " << acc[e];
    }
  }
}

TEST(SimdPrimitives, AccumulateDoubleAddsOnlyUnderBsRowMask) {
  check_accumulate_stays_in_mask<double>();
}

TEST(SimdPrimitives, AccumulateFloatAddsOnlyUnderBsRowMask) {
  check_accumulate_stays_in_mask<float>();
}

// -------------------------------------------------- whole-pipeline identity --

template <class V>
void expect_bytes_equal(const tracked_vector<V>& x, const tracked_vector<V>& y,
                        const std::string& what) {
  ASSERT_EQ(x.size(), y.size()) << what << " size";
  if (!x.empty()) {
    EXPECT_EQ(std::memcmp(x.data(), y.data(), x.size() * sizeof(V)), 0) << what;
  }
}

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

/// The accumulator routes every level is pinned against the scalar oracle:
/// the default adaptive threshold, each accumulator forced everywhere, and
/// the fused step-2 caller (every bin fused) on the dense route.
template <class T>
void expect_every_level_and_route_matches_scalar(const TileMatrix<T>& t,
                                                 const std::string& context) {
  SpgemmContext scalar(SpgemmContext::Config{}.with_simd_level(simd::Level::kScalar));
  const TileMatrix<T> gold = scalar.run(t, t).c;
  for (const simd::Level level : available_levels()) {
    for (const test::Route& route : test::accumulator_routes(level)) {
      SpgemmContext forced(route.config);
      expect_tiles_identical(gold, forced.run(t, t).c,
                             std::string(simd::level_name(level)) + " " + route.name + " " +
                                 context);
    }
  }
}

class ForcedLevelAb : public ::testing::TestWithParam<int> {};

TEST_P(ForcedLevelAb, EveryLevelMatchesScalarEndToEnd) {
  const TileMatrix<double> t =
      csr_to_tile(fuzz_matrix(static_cast<std::uint64_t>(GetParam()) + 7000));
  expect_every_level_and_route_matches_scalar(t, "seed " + std::to_string(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Fuzz, ForcedLevelAb, ::testing::Range(0, 16));

TEST(ForcedLevelAb, FloatPipelineMatchesScalarEndToEnd) {
  expect_every_level_and_route_matches_scalar(
      csr_to_tile(gen::cast_values<float>(gen::dense_blocks(10, 16, 4212))), "blocks");
  expect_every_level_and_route_matches_scalar(
      csr_to_tile(gen::cast_values<float>(fuzz_matrix(7100))), "fuzz");
}

// ------------------------------------------------------- fusion bin sweep --

class FusedBinAb : public ::testing::TestWithParam<int> {};

TEST_P(FusedBinAb, EveryBinCapMatchesUnfusedBitExact) {
  const TileMatrix<double> t =
      csr_to_tile(fuzz_matrix(static_cast<std::uint64_t>(GetParam()) + 8000));
  SpgemmContext unfused(SpgemmContext::Config{}.with_pair_cache(false));
  const TileMatrix<double> gold = unfused.run(t, t).c;
  offset_t prev_fused = 0;
  // -1 fuses nothing, kCostBins - 1 fuses every scheduled tile; the fused
  // tile count must grow monotonically with the cap while the result stays
  // byte-for-byte unchanged.
  for (const int cap : {-1, 0, 1, kCostBins - 1}) {
    SpgemmContext fused(SpgemmContext::Config{}.with_fused_path(true).with_fuse_max_bin(cap));
    const TileSpgemmResult<double> got = fused.run(t, t);
    expect_tiles_identical(gold, got.c,
                           "cap " + std::to_string(cap) + " seed " +
                               std::to_string(GetParam()));
    if (cap == -1) {
      EXPECT_EQ(got.timings.fused_tiles, 0) << "cap -1 must fuse nothing";
    } else {
      EXPECT_GE(got.timings.fused_tiles, prev_fused) << "cap " << cap;
    }
    prev_fused = got.timings.fused_tiles;
  }
}

INSTANTIATE_TEST_SUITE_P(Fuzz, FusedBinAb, ::testing::Range(0, 12));

// ------------------------------------------------------------ observability --

TEST(SimdObservability, TimingsReportTheResolvedLevel) {
  const TileMatrix<double> t = csr_to_tile(gen::dense_blocks(4, 16, 11));
  for (const simd::Level level : available_levels()) {
    SpgemmContext ctx(SpgemmContext::Config{}.with_simd_level(level));
    EXPECT_EQ(ctx.run(t, t).timings.simd_level, static_cast<int>(level))
        << simd::level_name(level);
  }
  // Requests above what the host supports clamp, and the timings report the
  // level that actually ran, not the request.
  SpgemmContext top(SpgemmContext::Config{}.with_simd_level(simd::Level::kAvx512));
  EXPECT_EQ(top.run(t, t).timings.simd_level,
            static_cast<int>(simd::clamp_to_available(simd::Level::kAvx512)));
}

TEST(SimdObservability, AccumulatorCountersCountTheKernelEachTileRan) {
  // One count per non-empty C tile, from whichever path accumulated it
  // (step 3 or the fused step-2 path), naming the accumulator it ran.
  const TileMatrix<double> t = csr_to_tile(fuzz_matrix(7003));
  obs::MetricsRegistry& reg = obs::MetricsRegistry::instance();
  obs::set_metrics_detail_enabled(true);
  for (const simd::Level level : available_levels()) {
    for (const test::Route& route : test::accumulator_routes(level)) {
      SpgemmContext ctx(route.config);
      const obs::MetricsSnapshot before = reg.snapshot();
      const TileSpgemmResult<double> res = ctx.run(t, t);
      const obs::MetricsSnapshot d = obs::MetricsSnapshot::delta(before, reg.snapshot());
      std::int64_t non_empty = 0;
      std::int64_t above_tnnz = 0;
      for (offset_t tile = 0; tile < res.c.num_tiles(); ++tile) {
        non_empty += res.c.tile_nnz_of(tile) > 0 ? 1 : 0;
        above_tnnz += res.c.tile_nnz_of(tile) > kCpuAccumulatorThreshold ? 1 : 0;
      }
      const std::int64_t dense = d.counter("spgemm.accumulator.dense");
      const std::int64_t sparse = d.counter("spgemm.accumulator.sparse");
      const std::string what = std::string(simd::level_name(level)) + " " + route.name;
      EXPECT_EQ(dense + sparse, non_empty) << what;
      const AccumulatorPolicy policy = route.config.options.accumulator;
      const std::int64_t want_dense = policy == AccumulatorPolicy::kAlwaysDense    ? non_empty
                                      : policy == AccumulatorPolicy::kAlwaysSparse ? 0
                                                                                   : above_tnnz;
      EXPECT_EQ(dense, want_dense) << what;
    }
  }
  obs::set_metrics_detail_enabled(false);
}

TEST(SimdObservability, ScalarSymbolicKernelPinsScalarLevel) {
  // The pre-SIMD scalar reference path (SymbolicKernel::kScalar) stays the
  // oracle: it must resolve to the scalar table no matter the simd option.
  TileSpgemmOptions options;
  options.symbolic = SymbolicKernel::kScalar;
  options.simd = simd::Level::kAvx512;
  const TileMatrix<double> t = csr_to_tile(gen::dense_blocks(4, 16, 12));
  SpgemmContext ctx(SpgemmContext::Config{}.with_options(options));
  EXPECT_EQ(ctx.run(t, t).timings.simd_level, static_cast<int>(simd::Level::kScalar));
}

}  // namespace
}  // namespace tsg
