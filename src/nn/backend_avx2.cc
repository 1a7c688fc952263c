// Explicit AVX2 kernels: the fast body of the `blocked` backend
// (docs/BACKENDS.md).
//
// This translation unit is compiled with -mavx2 (see src/nn/CMakeLists.txt)
// and must therefore never be entered unless Avx2Available() reported AVX2
// at runtime — backend.cc's dispatch table is the only caller, and it
// checks first.
//
// Bit-exactness contract: every output element gets the same float
// operations, in the same order, as the scalar reference (backend.cc) and
// the portable kernels (gemm.cc, activations.cc):
//
//   GemmZero:  first k-term by one multiply, each later term by a separate
//              multiply then add, ascending k;
//   Gemm:      start from the existing C value, each term a separate
//              multiply then add, ascending k;
//   tanh:      clamp (max then min), x2 = x*x, Horner steps each a multiply
//              then an add, p*x, one divide; sigmoid = 0.5 + 0.5*tanh(0.5*x).
//
// No fused multiply-add appears anywhere: the TU is built without -mfma and
// the whole nn target with -ffp-contract=off. Every vector operation is
// lane-wise, and the n % 8 tails run the same vector code under a lane
// mask rather than a separate scalar loop, so an element's bits do not
// depend on its position in the batch or the array.
#include <immintrin.h>

#include <cstring>

#include "nn/activations_inl.h"

namespace eventhit::nn::detail {
namespace {

#if defined(__GNUC__) || defined(__clang__)
#define EVENTHIT_RESTRICT __restrict__
#else
#define EVENTHIT_RESTRICT
#endif

// Rows of A (and C) per register tile. A tile keeps 4 rows x 16 columns
// (eight 8-wide accumulators; 4 x 8 at a panel remainder) in ymm registers
// across the whole k loop: each B load feeds four rows and each A
// broadcast two vectors, and eight independent add chains hide the add
// latency that four would expose.
constexpr size_t kRowTile = 4;

// Active lanes for a tail of `rem` < 8 floats: lane l is on iff l < rem.
// vmaskmovps reads masked-off lanes as zero and never touches their
// memory, so tails need no padding.
inline __m256i TailMask(size_t rem) {
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(rem)),
                            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

template <bool kMasked>
inline __m256 Load(const float* p, __m256i mask) {
  if constexpr (kMasked) {
    return _mm256_maskload_ps(p, mask);
  } else {
    return _mm256_loadu_ps(p);
  }
}

template <bool kMasked>
inline void Store(float* p, __m256 v, __m256i mask) {
  if constexpr (kMasked) {
    _mm256_maskstore_ps(p, mask, v);
  } else {
    _mm256_storeu_ps(p, v);
  }
}

// --- float GEMM ------------------------------------------------------------

// One register tile: rows [0, kRows) of A times kVecs 8-column B vectors
// at `b`, into C at `c`. Under !kAccumulate the first k-term is a plain
// multiply, so C is never read or pre-zeroed; k must be > 0 then. kMasked
// applies `mask` to the (single) vector of a column tail.
template <bool kAccumulate, bool kMasked, size_t kRows, size_t kVecs>
inline void Tile(size_t k, const float* EVENTHIT_RESTRICT a, size_t lda,
                 const float* EVENTHIT_RESTRICT b, size_t ldb,
                 float* EVENTHIT_RESTRICT c, size_t ldc, __m256i mask) {
  static_assert(!kMasked || kVecs == 1);
  __m256 acc[kRows][kVecs];
  size_t kk = 0;
  if constexpr (kAccumulate) {
    for (size_t r = 0; r < kRows; ++r) {
      for (size_t v = 0; v < kVecs; ++v) {
        acc[r][v] = Load<kMasked>(c + r * ldc + 8 * v, mask);
      }
    }
  } else {
    __m256 b0[kVecs];
    for (size_t v = 0; v < kVecs; ++v) b0[v] = Load<kMasked>(b + 8 * v, mask);
    for (size_t r = 0; r < kRows; ++r) {
      const __m256 ar = _mm256_set1_ps(a[r * lda]);
      for (size_t v = 0; v < kVecs; ++v) acc[r][v] = _mm256_mul_ps(ar, b0[v]);
    }
    kk = 1;
  }
  for (; kk < k; ++kk) {
    __m256 bv[kVecs];
    for (size_t v = 0; v < kVecs; ++v) {
      bv[v] = Load<kMasked>(b + kk * ldb + 8 * v, mask);
    }
    for (size_t r = 0; r < kRows; ++r) {
      const __m256 ar = _mm256_set1_ps(a[r * lda + kk]);
      for (size_t v = 0; v < kVecs; ++v) {
        acc[r][v] = _mm256_add_ps(acc[r][v], _mm256_mul_ps(ar, bv[v]));
      }
    }
  }
  for (size_t r = 0; r < kRows; ++r) {
    for (size_t v = 0; v < kVecs; ++v) {
      Store<kMasked>(c + r * ldc + 8 * v, acc[r][v], mask);
    }
  }
}

// Every row tile of one panel of kVecs 8-column vectors: the panel's B
// rows stream once per tile and stay hot in L1.
template <bool kAccumulate, bool kMasked, size_t kVecs>
inline void Panel(size_t m, size_t k, const float* a, size_t lda,
                  const float* b, size_t ldb, float* c, size_t ldc,
                  __m256i mask) {
  size_t i = 0;
  for (; i + kRowTile <= m; i += kRowTile) {
    Tile<kAccumulate, kMasked, kRowTile, kVecs>(k, a + i * lda, lda, b, ldb,
                                                c + i * ldc, ldc, mask);
  }
  for (; i < m; ++i) {
    Tile<kAccumulate, kMasked, 1, kVecs>(k, a + i * lda, lda, b, ldb,
                                         c + i * ldc, ldc, mask);
  }
}

template <bool kAccumulate>
void GemmAvx2Impl(size_t m, size_t n, size_t k, const float* a, size_t lda,
                  const float* b, size_t ldb, float* c, size_t ldc) {
  if (k == 0) {
    if constexpr (!kAccumulate) {
      for (size_t i = 0; i < m; ++i) {
        std::memset(c + i * ldc, 0, n * sizeof(float));
      }
    }
    return;
  }
  const __m256i all = _mm256_set1_epi32(-1);
  size_t j = 0;
  for (; j + 16 <= n; j += 16) {
    Panel<kAccumulate, false, 2>(m, k, a, lda, b + j, ldb, c + j, ldc, all);
  }
  for (; j + 8 <= n; j += 8) {
    Panel<kAccumulate, false, 1>(m, k, a, lda, b + j, ldb, c + j, ldc, all);
  }
  if (j < n) {
    Panel<kAccumulate, true, 1>(m, k, a, lda, b + j, ldb, c + j, ldc,
                                TailMask(n - j));
  }
}

// --- activations ------------------------------------------------------------
//
// The rational tanh of activations.cc (coefficients shared via
// activations_inl.h), one IEEE operation per scalar operation.

inline __m256 TanhVec(__m256 x) {
  // std::max(x, lo) is (x < lo ? lo : x) and std::min(y, hi) is
  // (hi < y ? hi : y); maxps/minps return their *second* operand when
  // either is NaN, so x goes second and a NaN input stays NaN, as in the
  // scalar code.
  x = _mm256_min_ps(_mm256_set1_ps(kTanhClamp),
                    _mm256_max_ps(_mm256_set1_ps(-kTanhClamp), x));
  const __m256 x2 = _mm256_mul_ps(x, x);
  __m256 p = _mm256_set1_ps(kTanhNum[0]);
  for (size_t i = 1; i < kTanhNumTerms; ++i) {
    p = _mm256_add_ps(_mm256_mul_ps(p, x2), _mm256_set1_ps(kTanhNum[i]));
  }
  p = _mm256_mul_ps(p, x);
  __m256 q = _mm256_set1_ps(kTanhDen[0]);
  for (size_t i = 1; i < kTanhDenTerms; ++i) {
    q = _mm256_add_ps(_mm256_mul_ps(q, x2), _mm256_set1_ps(kTanhDen[i]));
  }
  return _mm256_div_ps(p, q);
}

inline __m256 SigmoidVec(__m256 x) {
  const __m256 half = _mm256_set1_ps(0.5f);
  const __m256 t = TanhVec(_mm256_mul_ps(half, x));
  return _mm256_add_ps(half, _mm256_mul_ps(half, t));
}

template <__m256 (*kFn)(__m256)>
void MapInPlace(float* x, size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(x + i, kFn(_mm256_loadu_ps(x + i)));
  }
  if (i < n) {
    const __m256i mask = TailMask(n - i);
    _mm256_maskstore_ps(x + i, mask, kFn(_mm256_maskload_ps(x + i, mask)));
  }
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

void TanhInPlaceAvx2(float* x, size_t n) { MapInPlace<TanhVec>(x, n); }

void SigmoidInPlaceAvx2(float* x, size_t n) { MapInPlace<SigmoidVec>(x, n); }

}  // namespace eventhit::nn::detail
