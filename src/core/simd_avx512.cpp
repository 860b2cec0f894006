// AVX-512 (F + BW + VL) kernels for the step-2/3 dispatch family. The
// mask registers and compress instructions remove the AVX2 kernels' two
// workarounds: compare-and-blend mask selection becomes k-register ops,
// the accumulate's load-permute-blend becomes vexpand plus masked
// multiply/add, and the compress/materialize emulations become single
// vpcompress / masked-store instructions with *exact* store widths (safe to
// target shared output directly). Reached only through runtime CPUID dispatch.
#include "core/simd_dispatch.h"
#include "core/simd_x86.h"

#if defined(__AVX512F__) && defined(__AVX512BW__) && defined(__AVX512VL__) && \
    defined(__AVX2__) && defined(__BMI2__)

#include <immintrin.h>

#include <bit>

namespace tsg::simd {
namespace {

void mask_or_avx512(const rowmask_t* mask_a, const rowmask_t* mask_b,
                    std::uint64_t cm[kTileMaskWords]) {
  const __m256i va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(mask_a));
  __m256i acc = _mm256_loadu_si256(reinterpret_cast<__m256i*>(cm));
  std::uint32_t uni = x86::union_rowmask16(va);
  while (uni != 0) {
    const int c = std::countr_zero(uni);
    uni &= uni - 1;
    const __mmask16 sel =
        _mm256_test_epi16_mask(va, _mm256_set1_epi16(static_cast<short>(1u << c)));
    // No 16-bit-masked OR exists; OR unconditionally and blend the result
    // back into the selected lanes (vmovdqu16 with a k-mask, BW + VL).
    acc = _mm256_mask_mov_epi16(
        acc, sel, _mm256_or_si256(acc, _mm256_set1_epi16(static_cast<short>(mask_b[c]))));
  }
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(cm), acc);
}

index_t derive_avx512(const std::uint64_t cm[kTileMaskWords], rowmask_t* mask_out,
                      std::uint8_t* row_ptr_out) {
  return x86::derive_epi16(cm, mask_out, row_ptr_out);
}

// Accumulate: per A nonzero, expand B's row under its mask (the zero-mask
// expand load reads exactly popcount elements, so nothing past B's values
// is touched), multiply by the broadcast A value with the other lanes
// zeroed, and add into the accumulator row only under the mask. A's
// nonzeros are stored row-major, so a run of them shares accumulator row r
// and keeps it in registers; per entry the products still arrive in the
// oracle's order. A nonzero whose B row is empty is skipped before its
// row is loaded, so only rows that receive a product are touched.
void accumulate_avx512_d(const PairTiles<double>& p, double* acc) {
  index_t k = 0;
  while (k < p.a_nnz) {
    if (p.b_mask[p.a_col[k]] == 0) {
      ++k;
      continue;
    }
    const index_t r = p.a_row[k];
    double* row = acc + static_cast<std::size_t>(r) * kTileDim;
    __m512d lo = _mm512_loadu_pd(row);
    __m512d hi = _mm512_loadu_pd(row + 8);
    do {
      const index_t c = p.a_col[k];
      const unsigned m = p.b_mask[c];
      const double* src = p.b_val + p.b_row_ptr[c];
      const __m512d va = _mm512_set1_pd(p.a_val[k]);
      const auto m_lo = static_cast<__mmask8>(m & 0xFFu);
      const auto m_hi = static_cast<__mmask8>(m >> 8);
      lo = _mm512_mask_add_pd(
          lo, m_lo, lo, _mm512_maskz_mul_pd(m_lo, va, _mm512_maskz_expandloadu_pd(m_lo, src)));
      hi = _mm512_mask_add_pd(
          hi, m_hi, hi,
          _mm512_maskz_mul_pd(m_hi, va,
                              _mm512_maskz_expandloadu_pd(
                                  m_hi, src + std::popcount(static_cast<unsigned>(m_lo)))));
      ++k;
    } while (k < p.a_nnz && p.a_row[k] == r);
    _mm512_storeu_pd(row, lo);
    _mm512_storeu_pd(row + 8, hi);
  }
}

void accumulate_avx512_f(const PairTiles<float>& p, float* acc) {
  index_t k = 0;
  while (k < p.a_nnz) {
    if (p.b_mask[p.a_col[k]] == 0) {
      ++k;
      continue;
    }
    const index_t r = p.a_row[k];
    float* row = acc + static_cast<std::size_t>(r) * kTileDim;
    __m512 v = _mm512_loadu_ps(row);
    do {
      const index_t c = p.a_col[k];
      const auto m = static_cast<__mmask16>(p.b_mask[c]);
      const __m512 va = _mm512_set1_ps(p.a_val[k]);
      v = _mm512_mask_add_ps(
          v, m, v,
          _mm512_maskz_mul_ps(m, va, _mm512_maskz_expandloadu_ps(m, p.b_val + p.b_row_ptr[c])));
      ++k;
    } while (k < p.a_nnz && p.a_row[k] == r);
    _mm512_storeu_ps(row, v);
  }
}

void compress_avx512_d(const double* acc, const rowmask_t* mask_c, double* out) {
  index_t o = 0;
  for (int wi = 0; wi < kTileMaskWords; ++wi) {
    const std::uint64_t w = pack_rowmask_word(mask_c + wi * kRowsPerMaskWord);
    if (w == 0) continue;
    const double* acc_w = acc + static_cast<std::size_t>(wi) * (kRowsPerMaskWord * kTileDim);
    for (int k = 0; k < 8; ++k) {
      const auto m8 = static_cast<__mmask8>((w >> (8 * k)) & 0xFFu);
      if (m8 == 0) continue;
      _mm512_mask_compressstoreu_pd(out + o, m8, _mm512_loadu_pd(acc_w + 8 * k));
      o += static_cast<index_t>(std::popcount(static_cast<unsigned>(m8)));
    }
  }
}

void compress_avx512_f(const float* acc, const rowmask_t* mask_c, float* out) {
  index_t o = 0;
  for (int wi = 0; wi < kTileMaskWords; ++wi) {
    const std::uint64_t w = pack_rowmask_word(mask_c + wi * kRowsPerMaskWord);
    if (w == 0) continue;
    const float* acc_w = acc + static_cast<std::size_t>(wi) * (kRowsPerMaskWord * kTileDim);
    for (int k = 0; k < 4; ++k) {
      const auto m16 = static_cast<__mmask16>((w >> (16 * k)) & 0xFFFFu);
      if (m16 == 0) continue;
      _mm512_mask_compressstoreu_ps(out + o, m16, _mm512_loadu_ps(acc_w + 16 * k));
      o += static_cast<index_t>(std::popcount(static_cast<unsigned>(m16)));
    }
  }
}

void materialize_avx512(const rowmask_t* mask_c, std::uint8_t* row_idx,
                        std::uint8_t* col_idx) {
  const __m512i identity =
      _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
  index_t n = 0;
  for (index_t r = 0; r < kTileDim; ++r) {
    const auto m = static_cast<__mmask16>(mask_c[r]);
    if (m == 0) continue;
    const index_t cnt = popcount16(mask_c[r]);
    // maskz variant: the plain cvt seeds its unused lanes from
    // _mm_undefined_si128(), which gcc's -Wmaybe-uninitialized flags.
    const __m128i cols =
        _mm512_maskz_cvtepi32_epi8(0xFFFF, _mm512_maskz_compress_epi32(m, identity));
    // Exact masked stores straight into the shared output arrays — no
    // staging copy needed at this level.
    const auto width = static_cast<__mmask16>((1u << cnt) - 1u);
    _mm_mask_storeu_epi8(col_idx + n, width, cols);
    _mm_mask_storeu_epi8(row_idx + n, width, _mm_set1_epi8(static_cast<char>(r)));
    n += cnt;
  }
}

constexpr SymbolicOps kSym = {&mask_or_avx512, &derive_avx512};
constexpr NumericOps kNum = {&accumulate_avx512_d, &accumulate_avx512_f,
                             &compress_avx512_d,   &compress_avx512_f,
                             &materialize_avx512,  /*compress_exact=*/true};

}  // namespace

namespace detail {
LevelKernels avx512_kernels() { return {&kSym, &kNum}; }
}  // namespace detail

}  // namespace tsg::simd

#else  // stub body: toolchain could not target AVX-512

namespace tsg::simd::detail {
LevelKernels avx512_kernels() { return {nullptr, nullptr}; }
}  // namespace tsg::simd::detail

#endif
