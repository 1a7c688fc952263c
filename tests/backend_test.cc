// Contract tests for the runtime-dispatched kernel backends (nn/backend.h,
// docs/BACKENDS.md): both bodies of the blocked backend — the AVX2 one
// chosen by cpuid and the portable one — replay scalar's float operations
// element for element, so every output matches scalar to the bit on every
// shape, tail and edge input.
#include "nn/backend.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "nn/activations.h"
#include "nn/activations_inl.h"
#include "nn/gemm.h"

namespace eventhit::nn {
namespace {

std::vector<float> RandomBuffer(size_t n, Rng& rng, double scale = 1.0) {
  std::vector<float> buf(n);
  for (auto& v : buf) v = static_cast<float>(rng.Gaussian(0.0, scale));
  return buf;
}

// Bitwise equality: unlike ==, tells -0 from +0 and accepts NaN == NaN
// only when the payloads agree.
bool SameBits(float a, float b) {
  return std::bit_cast<uint32_t>(a) == std::bit_cast<uint32_t>(b);
}

TEST(BackendDispatchTest, NamesAndEffectiveKinds) {
  EXPECT_STREQ(GetBackend(BackendKind::kScalar).name, "scalar");
  EXPECT_STREQ(GetBackend(BackendKind::kBlocked).name, "blocked");
  EXPECT_EQ(GetBackend(BackendKind::kScalar).kind, BackendKind::kScalar);
  EXPECT_EQ(GetBackend(BackendKind::kBlocked).kind, BackendKind::kBlocked);
#if defined(__x86_64__) || defined(__i386__)
  // An AVX2 CPU must get the AVX2 body: a build that dropped it (or a
  // broken cpuid gate) would silently run the portable kernels.
  EXPECT_EQ(Avx2Available(), __builtin_cpu_supports("avx2") != 0);
#endif
  // The body blocked effectively runs: the AVX2 table exactly when the
  // gate passes, else the portable gemm.cc/activations.cc kernels.
  const BackendKernels& blocked = *GetBackend(BackendKind::kBlocked).kernels;
  const bool portable = blocked.gemm_zero == &GemmZero &&
                        blocked.gemm == &Gemm &&
                        blocked.tanh_inplace == &TanhInPlace &&
                        blocked.sigmoid_inplace == &SigmoidInPlace;
  if (Avx2Available()) {
    EXPECT_NE(blocked.gemm_zero, &GemmZero);
    EXPECT_NE(blocked.gemm, &Gemm);
    EXPECT_NE(blocked.tanh_inplace, &TanhInPlace);
    EXPECT_NE(blocked.sigmoid_inplace, &SigmoidInPlace);
  } else {
    EXPECT_TRUE(portable);
  }
}

TEST(BackendDispatchTest, EveryKernelSlotIsPopulated) {
  for (BackendKind kind : AllBackendKinds()) {
    const Backend& backend = GetBackend(kind);
    ASSERT_NE(backend.kernels, nullptr) << backend.name;
    EXPECT_NE(backend.kernels->gemm_zero, nullptr) << backend.name;
    EXPECT_NE(backend.kernels->gemm, nullptr) << backend.name;
    EXPECT_NE(backend.kernels->tanh_inplace, nullptr) << backend.name;
    EXPECT_NE(backend.kernels->sigmoid_inplace, nullptr) << backend.name;
  }
}

TEST(BackendDispatchTest, ParseBackendKind) {
  EXPECT_EQ(ParseBackendKind("scalar").value(), BackendKind::kScalar);
  EXPECT_EQ(ParseBackendKind("blocked").value(), BackendKind::kBlocked);
  // Unknown names — the removed simd, auto and int8 among them — are
  // rejected with a message that enumerates the valid choices (it reaches
  // CLI users).
  for (const char* name : {"simd", "auto", "avx512", "int8"}) {
    const auto bad = ParseBackendKind(name);
    ASSERT_FALSE(bad.ok()) << name;
    EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument) << name;
    for (const char* choice : {"scalar", "blocked"}) {
      EXPECT_NE(bad.status().message().find(choice), std::string::npos)
          << name << " message lacks " << choice;
    }
  }
}

// scalar and blocked promise the same float summation order, so their
// outputs must match to the bit on every shape, including tile remainders.
TEST(BackendParityTest, ScalarMatchesBlockedBitExact) {
  Rng rng(101);
  for (const auto [m, n, k] :
       {std::array<size_t, 3>{1, 1, 1}, std::array<size_t, 3>{4, 8, 16},
        std::array<size_t, 3>{7, 13, 5}, std::array<size_t, 3>{96, 37, 24},
        std::array<size_t, 3>{5, 3, 0}}) {
    const std::vector<float> a = RandomBuffer(m * k, rng);
    const std::vector<float> b = RandomBuffer(k * n, rng);
    std::vector<float> c_scalar(m * n, 0.5f), c_blocked(m * n, 0.5f);
    GetBackend(BackendKind::kScalar)
        .kernels->gemm_zero(m, n, k, a.data(), k, b.data(), n,
                            c_scalar.data(), n);
    GetBackend(BackendKind::kBlocked)
        .kernels->gemm_zero(m, n, k, a.data(), k, b.data(), n,
                            c_blocked.data(), n);
    EXPECT_EQ(c_scalar, c_blocked) << m << "x" << n << "x" << k;

    std::fill(c_scalar.begin(), c_scalar.end(), 0.25f);
    std::fill(c_blocked.begin(), c_blocked.end(), 0.25f);
    GetBackend(BackendKind::kScalar)
        .kernels->gemm(m, n, k, a.data(), k, b.data(), n, c_scalar.data(), n);
    GetBackend(BackendKind::kBlocked)
        .kernels->gemm(m, n, k, a.data(), k, b.data(), n, c_blocked.data(),
                       n);
    EXPECT_EQ(c_scalar, c_blocked) << m << "x" << n << "x" << k;
  }
}

// Every column count from 1 to 17 plus the fleet's batch sizes and their
// neighbours (each 8-wide panel and every masked tail), every row count
// through two 4-row tiles plus the model's 96 gate rows, and k from the
// zero-term edge up. Padded leading dimensions carry a sentinel that the
// kernels must leave untouched, so a masked store that writes past the
// last column fails too.
TEST(BackendParityTest, BlockedGemmMatchesScalarOnEveryShape) {
  constexpr float kSentinel = -12345.0f;
  const BackendKernels& scalar = *GetBackend(BackendKind::kScalar).kernels;
  const BackendKernels& blocked = *GetBackend(BackendKind::kBlocked).kernels;
  std::vector<size_t> ns;
  for (size_t n = 1; n <= 17; ++n) ns.push_back(n);
  for (size_t n : {31, 32, 33, 57, 64, 65}) ns.push_back(n);
  std::vector<size_t> ms;
  for (size_t m = 1; m <= 9; ++m) ms.push_back(m);
  ms.push_back(96);
  Rng rng(105);
  for (const size_t n : ns) {
    for (const size_t m : ms) {
      for (const size_t k : {0, 1, 10, 24}) {
        const size_t lda = k + 1, ldb = n + 3, ldc = n + 2;
        const std::vector<float> a = RandomBuffer(m * lda, rng);
        const std::vector<float> b = RandomBuffer(std::max<size_t>(k, 1) * ldb,
                                                  rng);
        const std::vector<float> c0 = RandomBuffer(m * ldc, rng);
        for (const bool accumulate : {false, true}) {
          const GemmFn ref = accumulate ? scalar.gemm : scalar.gemm_zero;
          const GemmFn fast = accumulate ? blocked.gemm : blocked.gemm_zero;
          std::vector<float> c_ref = c0, c_fast = c0;
          for (size_t i = 0; i < m; ++i) {
            for (size_t j = n; j < ldc; ++j) {
              c_ref[i * ldc + j] = c_fast[i * ldc + j] = kSentinel;
            }
          }
          ref(m, n, k, a.data(), lda, b.data(), ldb, c_ref.data(), ldc);
          fast(m, n, k, a.data(), lda, b.data(), ldb, c_fast.data(), ldc);
          for (size_t idx = 0; idx < c_ref.size(); ++idx) {
            ASSERT_TRUE(SameBits(c_ref[idx], c_fast[idx]))
                << (accumulate ? "gemm " : "gemm_zero ") << m << "x" << n
                << "x" << k << " element " << idx << ": " << c_ref[idx]
                << " vs " << c_fast[idx];
          }
        }
      }
    }
  }
}

// The activations on every length through two 8-wide vectors plus a
// masked tail, then on edge inputs: signed zeros, infinities, NaN (the
// maxps/minps operand order must match std::max/std::min), the clamp
// point and its neighbours, and subnormals. Edge values sit at every
// position of a 17-element array, so each one passes through both the
// vector body and the tail.
TEST(BackendParityTest, BlockedActivationsMatchScalarBitExact) {
  const BackendKernels& scalar = *GetBackend(BackendKind::kScalar).kernels;
  const BackendKernels& blocked = *GetBackend(BackendKind::kBlocked).kernels;
  const auto check = [&](const std::vector<float>& x, const char* what) {
    for (const bool is_tanh : {true, false}) {
      const UnaryFn ref = is_tanh ? scalar.tanh_inplace
                                  : scalar.sigmoid_inplace;
      const UnaryFn fast = is_tanh ? blocked.tanh_inplace
                                   : blocked.sigmoid_inplace;
      std::vector<float> y_ref = x, y_fast = x;
      ref(y_ref.data(), y_ref.size());
      fast(y_fast.data(), y_fast.size());
      for (size_t i = 0; i < x.size(); ++i) {
        ASSERT_TRUE(SameBits(y_ref[i], y_fast[i]))
            << what << (is_tanh ? " tanh" : " sigmoid") << " length "
            << x.size() << " index " << i << " input " << x[i] << ": "
            << y_ref[i] << " vs " << y_fast[i];
        // The per-record path's scalar helpers agree too.
        const float one = is_tanh ? TanhScalar(x[i]) : SigmoidScalar(x[i]);
        ASSERT_TRUE(SameBits(one, y_fast[i]))
            << what << " scalar helper, input " << x[i];
      }
    }
  };

  Rng rng(106);
  for (size_t n = 0; n <= 17; ++n) {
    // Scale 6 reaches past the clamp in both directions.
    check(RandomBuffer(n, rng, 6.0), "random");
  }

  constexpr float kInf = std::numeric_limits<float>::infinity();
  constexpr float kDenorm = std::numeric_limits<float>::denorm_min();
  const float clamp = detail::kTanhClamp;
  const std::vector<float> edges = {
      0.0f,
      -0.0f,
      kInf,
      -kInf,
      std::numeric_limits<float>::quiet_NaN(),
      clamp,
      -clamp,
      std::nextafter(clamp, 0.0f),
      std::nextafter(clamp, kInf),
      -std::nextafter(clamp, 0.0f),
      kDenorm,
      -kDenorm,
      1e-40f,
      -1e-40f,
      std::numeric_limits<float>::min(),
      std::numeric_limits<float>::max(),
      -std::numeric_limits<float>::max(),
  };
  for (const float edge : edges) {
    for (size_t pos = 0; pos < 17; ++pos) {
      std::vector<float> x = RandomBuffer(17, rng);
      x[pos] = edge;
      check(x, "edge");
    }
    check({edge}, "edge alone");
  }
}

}  // namespace
}  // namespace eventhit::nn
