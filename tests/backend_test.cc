// Contract tests for the runtime-dispatched kernel backends (nn/backend.h,
// docs/BACKENDS.md):
//   * scalar replays blocked's summation order — bit-identical outputs;
//   * simd agrees with blocked within the documented 1e-5 bound and is
//     bit-identical to itself at any batch composition (vector body and
//     scalar tail share the per-element operation order).
#include "nn/backend.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace eventhit::nn {
namespace {

std::vector<float> RandomBuffer(size_t n, Rng& rng) {
  std::vector<float> buf(n);
  for (auto& v : buf) v = static_cast<float>(rng.Gaussian(0.0, 1.0));
  return buf;
}

TEST(BackendDispatchTest, NamesAndEffectiveKinds) {
  EXPECT_STREQ(GetBackend(BackendKind::kScalar).name, "scalar");
  EXPECT_STREQ(GetBackend(BackendKind::kBlocked).name, "blocked");
  EXPECT_STREQ(GetBackend(BackendKind::kSimd).name, "simd");
  EXPECT_EQ(GetBackend(BackendKind::kScalar).effective, BackendKind::kScalar);
  const Backend& simd = GetBackend(BackendKind::kSimd);
  EXPECT_EQ(simd.kind, BackendKind::kSimd);
  if (SimdAvailable()) {
    EXPECT_EQ(simd.effective, BackendKind::kSimd);
  } else {
    // No AVX2+FMA: the simd kind must transparently run the blocked table.
    EXPECT_EQ(simd.effective, BackendKind::kBlocked);
    EXPECT_EQ(simd.kernels, GetBackend(BackendKind::kBlocked).kernels);
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
  EXPECT_EQ(ParseBackendKind("simd").value(), BackendKind::kSimd);
  const auto auto_kind = ParseBackendKind("auto");
  ASSERT_TRUE(auto_kind.ok());
  EXPECT_EQ(auto_kind.value(), SimdAvailable() ? BackendKind::kSimd
                                               : BackendKind::kBlocked);
  // Unknown names, int8 among them, are rejected with a message that
  // enumerates the valid choices (it reaches CLI users).
  for (const char* name : {"avx512", "int8"}) {
    const auto bad = ParseBackendKind(name);
    ASSERT_FALSE(bad.ok()) << name;
    EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument) << name;
    for (const char* choice : {"scalar", "blocked", "simd", "auto"}) {
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

TEST(BackendParityTest, SimdGemmWithinBoundOfBlocked) {
  const size_t m = 96, n = 37, k = 24;
  Rng rng(102);
  const std::vector<float> a = RandomBuffer(m * k, rng);
  const std::vector<float> b = RandomBuffer(k * n, rng);
  std::vector<float> c_simd(m * n), c_blocked(m * n);
  GetBackend(BackendKind::kSimd)
      .kernels->gemm_zero(m, n, k, a.data(), k, b.data(), n, c_simd.data(),
                          n);
  GetBackend(BackendKind::kBlocked)
      .kernels->gemm_zero(m, n, k, a.data(), k, b.data(), n,
                          c_blocked.data(), n);
  for (size_t i = 0; i < m * n; ++i) {
    // Gaussian operands with k=24 terms stay well inside the documented
    // 1e-5 *score* bound at kernel level too.
    EXPECT_NEAR(c_simd[i], c_blocked[i], 1e-4f) << i;
  }
}

// The batch-invariance half of the simd contract: a column's (= batch
// element's) result must not depend on the other columns. Scoring the
// full batch and scoring each column alone must agree to the bit — this
// is what keeps the fleet's solo==batched digest check green under simd.
TEST(BackendParityTest, SimdGemmBatchInvariant) {
  const size_t m = 97, k = 23, n = 37;  // Off-tile shape: body + tails.
  Rng rng(103);
  const std::vector<float> a = RandomBuffer(m * k, rng);
  const std::vector<float> b = RandomBuffer(k * n, rng);
  std::vector<float> full(m * n);
  const BackendKernels& kern = *GetBackend(BackendKind::kSimd).kernels;
  kern.gemm_zero(m, n, k, a.data(), k, b.data(), n, full.data(), n);
  for (size_t j = 0; j < n; ++j) {
    std::vector<float> solo(m);
    // One column: same B storage, ldb = n, n = 1.
    kern.gemm_zero(m, 1, k, a.data(), k, b.data() + j, n, solo.data(), 1);
    for (size_t i = 0; i < m; ++i) {
      ASSERT_EQ(solo[i], full[i * n + j]) << "row " << i << " col " << j;
    }
  }
}

TEST(BackendParityTest, SimdActivationsWithinBoundAndLengthInvariant) {
  const size_t n = 1027;  // 8-wide body plus a scalar tail.
  Rng rng(104);
  const std::vector<float> x = RandomBuffer(n, rng);
  const BackendKernels& simd = *GetBackend(BackendKind::kSimd).kernels;
  const BackendKernels& blocked = *GetBackend(BackendKind::kBlocked).kernels;
  for (const bool is_tanh : {true, false}) {
    const UnaryFn simd_fn = is_tanh ? simd.tanh_inplace : simd.sigmoid_inplace;
    const UnaryFn blocked_fn =
        is_tanh ? blocked.tanh_inplace : blocked.sigmoid_inplace;
    std::vector<float> y_simd = x, y_blocked = x;
    simd_fn(y_simd.data(), n);
    blocked_fn(y_blocked.data(), n);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(y_simd[i], y_blocked[i], 1e-5f) << i;
    }
    // Element-wise invariance: the value at i must not depend on the
    // array length or the element's position (vector body vs tail).
    for (size_t i = 0; i < n; i += 97) {
      float alone = x[i];
      simd_fn(&alone, 1);
      ASSERT_EQ(alone, y_simd[i]) << i;
    }
  }
}

}  // namespace
}  // namespace eventhit::nn
