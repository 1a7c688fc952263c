#include "nn/backend.h"

#include "nn/activations.h"
#include "nn/gemm.h"

namespace eventhit::nn {

#if EVENTHIT_NN_HAVE_AVX2
// Implemented in backend_avx2.cc, which is compiled with -mavx2. Declared
// here (not in a header) so nothing outside the dispatch table can call
// them without going through the Avx2Available() cpuid gate.
namespace detail {
void GemmZeroAvx2(size_t m, size_t n, size_t k, const float* a, size_t lda,
                  const float* b, size_t ldb, float* c, size_t ldc);
void GemmAvx2(size_t m, size_t n, size_t k, const float* a, size_t lda,
              const float* b, size_t ldb, float* c, size_t ldc);
void TanhInPlaceAvx2(float* x, size_t n);
void SigmoidInPlaceAvx2(float* x, size_t n);
}  // namespace detail
#endif  // EVENTHIT_NN_HAVE_AVX2

namespace {

// --- scalar reference kernels ---------------------------------------------
//
// Same summation order as both blocked bodies (gemm.cc, backend_avx2.cc):
// for GemmZero the first k-term is a plain multiply, every later term a
// separate multiply then add, ascending k. With identical float operations
// in identical order the scalar and blocked backends are bit-identical —
// scalar is the oracle the tiled/vectorized paths are tested against, not
// a tolerance partner.

void ScalarGemmZero(size_t m, size_t n, size_t k, const float* a, size_t lda,
                    const float* b, size_t ldb, float* c, size_t ldc) {
  for (size_t i = 0; i < m; ++i) {
    const float* arow = a + i * lda;
    float* crow = c + i * ldc;
    for (size_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      if (k > 0) {
        acc = arow[0] * b[j];
        for (size_t kk = 1; kk < k; ++kk) acc += arow[kk] * b[kk * ldb + j];
      }
      crow[j] = acc;
    }
  }
}

void ScalarGemm(size_t m, size_t n, size_t k, const float* a, size_t lda,
                const float* b, size_t ldb, float* c, size_t ldc) {
  for (size_t i = 0; i < m; ++i) {
    const float* arow = a + i * lda;
    float* crow = c + i * ldc;
    for (size_t j = 0; j < n; ++j) {
      float acc = crow[j];
      for (size_t kk = 0; kk < k; ++kk) acc += arow[kk] * b[kk * ldb + j];
      crow[j] = acc;
    }
  }
}

// --- dispatch tables -------------------------------------------------------

constexpr BackendKernels kScalarKernels = {ScalarGemmZero, ScalarGemm,
                                           TanhInPlace, SigmoidInPlace};

// The two bodies of the blocked backend.
constexpr BackendKernels kPortableKernels = {GemmZero, Gemm, TanhInPlace,
                                             SigmoidInPlace};

#if EVENTHIT_NN_HAVE_AVX2
constexpr BackendKernels kAvx2Kernels = {
    detail::GemmZeroAvx2, detail::GemmAvx2, detail::TanhInPlaceAvx2,
    detail::SigmoidInPlaceAvx2};
#endif

// The blocked backend's body, chosen once: AVX2 when the CPU has it.
const BackendKernels* BlockedKernels() {
#if EVENTHIT_NN_HAVE_AVX2
  if (Avx2Available()) return &kAvx2Kernels;
#endif
  return &kPortableKernels;
}

}  // namespace

bool Avx2Available() {
#if EVENTHIT_NN_HAVE_AVX2 && (defined(__x86_64__) || defined(__i386__))
  // __builtin_cpu_supports returns the feature's mask *bit*, not 0/1 —
  // always compare against zero.
  static const bool available = __builtin_cpu_supports("avx2") != 0;
  return available;
#else
  return false;
#endif
}

const Backend& GetBackend(BackendKind kind) {
  static const Backend scalar{BackendKind::kScalar, "scalar",
                              &kScalarKernels};
  static const Backend blocked{BackendKind::kBlocked, "blocked",
                               BlockedKernels()};
  return kind == BackendKind::kScalar ? scalar : blocked;
}

const char* BackendKindName(BackendKind kind) {
  return kind == BackendKind::kScalar ? "scalar" : "blocked";
}

Result<BackendKind> ParseBackendKind(const std::string& name) {
  if (name == "scalar") return BackendKind::kScalar;
  if (name == "blocked") return BackendKind::kBlocked;
  return InvalidArgumentError("unknown nn backend '" + name +
                              "' (choices: scalar, blocked)");
}

std::vector<BackendKind> AllBackendKinds() {
  return {BackendKind::kScalar, BackendKind::kBlocked};
}

}  // namespace eventhit::nn
