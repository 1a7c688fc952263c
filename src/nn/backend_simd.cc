// Explicit AVX2+FMA kernels for the `simd` backend (docs/BACKENDS.md).
//
// This translation unit is compiled with -mavx2 -mfma (see
// src/nn/CMakeLists.txt) and must therefore never be entered unless
// SimdAvailable() reported AVX2+FMA at runtime — backend.cc's dispatch
// table is the only caller, and it checks first. The TU is also compiled
// with -ffp-contract=off so the compiler cannot fuse any *other*
// multiply-add behind our back: the only FMAs are the explicit
// _mm256_fmadd_ps in the vector bodies and the std::fmaf in the scalar
// tails, which keeps the two paths bit-identical per element.
//
// Determinism contract (the part the fleet's solo==batched digest relies
// on): every output element is computed as
//
//   GemmZero:  first k-term by one multiply, each later term by one fused
//              multiply-add, ascending k;
//   Gemm:      start from the existing C value, every term fused, ascending
//              k;
//
// in BOTH the 8-wide vector body and the scalar column tail. A column's
// bits therefore do not depend on where it falls in the batch, so per-
// record results are invariant under batch composition. Against the
// blocked backend the values differ (FMA rounds once per term instead of
// twice) within the documented 1e-5 score bound.
#include <immintrin.h>

#include <cmath>
#include <cstring>

#include "nn/activations_inl.h"

namespace eventhit::nn::detail {
namespace {

#if defined(__GNUC__) || defined(__clang__)
#define EVENTHIT_RESTRICT __restrict__
#else
#define EVENTHIT_RESTRICT
#endif

// --- float GEMM ------------------------------------------------------------

template <bool kAccumulate>
void GemmAvx2Impl(size_t m, size_t n, size_t k,
                  const float* EVENTHIT_RESTRICT a, size_t lda,
                  const float* EVENTHIT_RESTRICT b, size_t ldb,
                  float* EVENTHIT_RESTRICT c, size_t ldc) {
  if (k == 0) {
    if constexpr (!kAccumulate) {
      for (size_t i = 0; i < m; ++i) {
        std::memset(c + i * ldc, 0, n * sizeof(float));
      }
    }
    return;
  }
  size_t j = 0;
  // 8-column panels: the B panel rows stream once per A row tile and stay
  // hot in L1; four A rows share each B load.
  for (; j + 8 <= n; j += 8) {
    const float* bcol = b + j;
    float* ccol = c + j;
    size_t i = 0;
    for (; i + 4 <= m; i += 4) {
      const float* a0 = a + i * lda;
      const float* a1 = a0 + lda;
      const float* a2 = a1 + lda;
      const float* a3 = a2 + lda;
      float* c0p = ccol + i * ldc;
      float* c1p = c0p + ldc;
      float* c2p = c1p + ldc;
      float* c3p = c2p + ldc;
      __m256 acc0, acc1, acc2, acc3;
      size_t kk;
      if constexpr (kAccumulate) {
        acc0 = _mm256_loadu_ps(c0p);
        acc1 = _mm256_loadu_ps(c1p);
        acc2 = _mm256_loadu_ps(c2p);
        acc3 = _mm256_loadu_ps(c3p);
        kk = 0;
      } else {
        const __m256 b0 = _mm256_loadu_ps(bcol);
        acc0 = _mm256_mul_ps(_mm256_set1_ps(a0[0]), b0);
        acc1 = _mm256_mul_ps(_mm256_set1_ps(a1[0]), b0);
        acc2 = _mm256_mul_ps(_mm256_set1_ps(a2[0]), b0);
        acc3 = _mm256_mul_ps(_mm256_set1_ps(a3[0]), b0);
        kk = 1;
      }
      for (; kk < k; ++kk) {
        const __m256 bv = _mm256_loadu_ps(bcol + kk * ldb);
        acc0 = _mm256_fmadd_ps(_mm256_set1_ps(a0[kk]), bv, acc0);
        acc1 = _mm256_fmadd_ps(_mm256_set1_ps(a1[kk]), bv, acc1);
        acc2 = _mm256_fmadd_ps(_mm256_set1_ps(a2[kk]), bv, acc2);
        acc3 = _mm256_fmadd_ps(_mm256_set1_ps(a3[kk]), bv, acc3);
      }
      _mm256_storeu_ps(c0p, acc0);
      _mm256_storeu_ps(c1p, acc1);
      _mm256_storeu_ps(c2p, acc2);
      _mm256_storeu_ps(c3p, acc3);
    }
    for (; i < m; ++i) {
      const float* arow = a + i * lda;
      float* crow = ccol + i * ldc;
      __m256 acc;
      size_t kk;
      if constexpr (kAccumulate) {
        acc = _mm256_loadu_ps(crow);
        kk = 0;
      } else {
        acc = _mm256_mul_ps(_mm256_set1_ps(arow[0]), _mm256_loadu_ps(bcol));
        kk = 1;
      }
      for (; kk < k; ++kk) {
        acc = _mm256_fmadd_ps(_mm256_set1_ps(arow[kk]),
                              _mm256_loadu_ps(bcol + kk * ldb), acc);
      }
      _mm256_storeu_ps(crow, acc);
    }
  }
  // Scalar column tail — same op order per element (one multiply for the
  // first term under !kAccumulate, fused multiply-adds after), so a column
  // computes the same bits whether it lands here or in the vector body.
  for (; j < n; ++j) {
    for (size_t i = 0; i < m; ++i) {
      const float* arow = a + i * lda;
      float acc;
      size_t kk;
      if constexpr (kAccumulate) {
        acc = c[i * ldc + j];
        kk = 0;
      } else {
        acc = arow[0] * b[j];
        kk = 1;
      }
      for (; kk < k; ++kk) {
        acc = std::fmaf(arow[kk], b[kk * ldb + j], acc);
      }
      c[i * ldc + j] = acc;
    }
  }
}

// --- activations ------------------------------------------------------------
//
// The same rational tanh as activations.cc (coefficients shared via
// activations_inl.h) with the Horner steps fused. Vector body and scalar
// tail perform the identical operation sequence: clamp (min/max), x2 = x*x,
// fused Horner for numerator and denominator, p*x, one divide. Sigmoid is
// 0.5 + 0.5*tanh(0.5*x) with the multiply and add kept separate (not
// fused) in both paths.

inline __m256 TanhVec(__m256 x) {
  const __m256 clamp_hi = _mm256_set1_ps(kTanhClamp);
  const __m256 clamp_lo = _mm256_set1_ps(-kTanhClamp);
  x = _mm256_min_ps(_mm256_max_ps(x, clamp_lo), clamp_hi);
  const __m256 x2 = _mm256_mul_ps(x, x);
  __m256 p = _mm256_set1_ps(kTanhNum[0]);
  for (size_t i = 1; i < kTanhNumTerms; ++i) {
    p = _mm256_fmadd_ps(p, x2, _mm256_set1_ps(kTanhNum[i]));
  }
  p = _mm256_mul_ps(p, x);
  __m256 q = _mm256_set1_ps(kTanhDen[0]);
  for (size_t i = 1; i < kTanhDenTerms; ++i) {
    q = _mm256_fmadd_ps(q, x2, _mm256_set1_ps(kTanhDen[i]));
  }
  return _mm256_div_ps(p, q);
}

inline float TanhFma(float x) {
  x = std::fmin(std::fmax(x, -kTanhClamp), kTanhClamp);
  const float x2 = x * x;
  float p = kTanhNum[0];
  for (size_t i = 1; i < kTanhNumTerms; ++i) {
    p = std::fmaf(p, x2, kTanhNum[i]);
  }
  p = p * x;
  float q = kTanhDen[0];
  for (size_t i = 1; i < kTanhDenTerms; ++i) {
    q = std::fmaf(q, x2, kTanhDen[i]);
  }
  return p / q;
}

inline __m256 SigmoidVec(__m256 x) {
  const __m256 half = _mm256_set1_ps(0.5f);
  const __m256 t = TanhVec(_mm256_mul_ps(half, x));
  return _mm256_add_ps(half, _mm256_mul_ps(half, t));
}

inline float SigmoidFma(float x) {
  const float t = TanhFma(0.5f * x);
  const float half_t = 0.5f * t;
  return 0.5f + half_t;
}

}  // namespace

void GemmZeroAvx2(size_t m, size_t n, size_t k, const float* a, size_t lda,
                  const float* b, size_t ldb, float* c, size_t ldc) {
  GemmAvx2Impl<false>(m, n, k, a, lda, b, ldb, c, ldc);
}

void GemmAvx2(size_t m, size_t n, size_t k, const float* a, size_t lda,
              const float* b, size_t ldb, float* c, size_t ldc) {
  GemmAvx2Impl<true>(m, n, k, a, lda, b, ldb, c, ldc);
}

void TanhInPlaceAvx2(float* x, size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(x + i, TanhVec(_mm256_loadu_ps(x + i)));
  }
  for (; i < n; ++i) x[i] = TanhFma(x[i]);
}

void SigmoidInPlaceAvx2(float* x, size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(x + i, SigmoidVec(_mm256_loadu_ps(x + i)));
  }
  for (; i < n; ++i) x[i] = SigmoidFma(x[i]);
}

}  // namespace eventhit::nn::detail
