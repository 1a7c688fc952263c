#include "nn/activations.h"

#include <algorithm>

#include "nn/activations_inl.h"

namespace eventhit::nn {
namespace {

// Rational minimax approximation of tanh on [-7.905, 7.905] (the standard
// 13/6-degree odd/even pair; coefficients in activations_inl.h, shared with
// the AVX2 backend). It is branch-free — clamp via min/max, polynomials,
// one divide — so the element-wise loops below auto-vectorize under plain
// -O3 with baseline SSE2: the inference hot path makes no libm calls.
// Absolute error is under 4e-7 everywhere and a few ulps in the core range,
// far inside the model's 1e-5 score-agreement bound.
//
// Determinism: every operation is IEEE and lane-wise identical whether the
// compiler vectorizes or not (the nn target is built with
// -ffp-contract=off, and nothing reassociates without -ffast-math), so
// scalar and batched forward passes calling these helpers stay
// bit-identical (see nn/matrix.h), as does the AVX2 body.
inline float TanhRational(float x) {
  x = std::min(std::max(x, -detail::kTanhClamp), detail::kTanhClamp);
  const float x2 = x * x;
  float p = detail::kTanhNum[0];
  for (size_t i = 1; i < detail::kTanhNumTerms; ++i) {
    p = p * x2 + detail::kTanhNum[i];
  }
  p = p * x;
  float q = detail::kTanhDen[0];
  for (size_t i = 1; i < detail::kTanhDenTerms; ++i) {
    q = q * x2 + detail::kTanhDen[i];
  }
  return p / q;
}

// sigmoid(x) = (1 + tanh(x/2)) / 2, exact at 0 and saturating to exactly
// 0/1, so probability outputs stay in [0, 1].
inline float SigmoidRational(float x) {
  return 0.5f + 0.5f * TanhRational(0.5f * x);
}

}  // namespace

float SigmoidScalar(float x) { return SigmoidRational(x); }

float TanhScalar(float x) { return TanhRational(x); }

void TanhInPlace(float* x, size_t n) {
  for (size_t i = 0; i < n; ++i) x[i] = TanhRational(x[i]);
}

void SigmoidInPlace(float* x, size_t n) {
  for (size_t i = 0; i < n; ++i) x[i] = SigmoidRational(x[i]);
}

void ReluInPlace(float* x, size_t n) {
  for (size_t i = 0; i < n; ++i) x[i] = x[i] > 0.0f ? x[i] : 0.0f;
}

void TanhBackward(const float* y, const float* dy, float* dx, size_t n) {
  for (size_t i = 0; i < n; ++i) dx[i] = dy[i] * (1.0f - y[i] * y[i]);
}

void SigmoidBackward(const float* y, const float* dy, float* dx, size_t n) {
  for (size_t i = 0; i < n; ++i) dx[i] = dy[i] * y[i] * (1.0f - y[i]);
}

void ReluBackward(const float* y, const float* dy, float* dx, size_t n) {
  for (size_t i = 0; i < n; ++i) dx[i] = y[i] > 0.0f ? dy[i] : 0.0f;
}

}  // namespace eventhit::nn
