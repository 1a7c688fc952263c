// Shared coefficients of the rational tanh approximation (activations.cc).
//
// The AVX2 body of the blocked backend (backend_avx2.cc) re-implements
// TanhRational with intrinsics and must evaluate the *same* polynomial pair
// — a coefficient fork would silently break the bit-exactness contract
// between backends (docs/BACKENDS.md). Both the scalar reference and the
// intrinsic kernels pull the constants from here so there is exactly one
// copy in the tree.
#ifndef EVENTHIT_NN_ACTIVATIONS_INL_H_
#define EVENTHIT_NN_ACTIVATIONS_INL_H_

#include <cstddef>

namespace eventhit::nn::detail {

// |tanh(x)| rounds to 1.0f beyond this, so the input clamps here first.
inline constexpr float kTanhClamp = 7.90531110763549805f;

// Odd numerator P(x) = x * poly(x^2), evaluated Horner-style from
// kTanhNum[0] down; even denominator Q(x) = poly(x^2) likewise. tanh(x) is
// approximated by P(x) / Q(x) on [-kTanhClamp, kTanhClamp].
inline constexpr float kTanhNum[] = {
    -2.76076847742355e-16f, 2.00018790482477e-13f, -8.60467152213735e-11f,
    5.12229709037114e-08f,  1.48572235717979e-05f, 6.37261928875436e-04f,
    4.89352455891786e-03f,
};
inline constexpr float kTanhDen[] = {
    1.19825839466702e-06f,
    1.18534705686654e-04f,
    2.26843463243900e-03f,
    4.89352518554385e-03f,
};

inline constexpr size_t kTanhNumTerms = sizeof(kTanhNum) / sizeof(float);
inline constexpr size_t kTanhDenTerms = sizeof(kTanhDen) / sizeof(float);

}  // namespace eventhit::nn::detail

#endif  // EVENTHIT_NN_ACTIVATIONS_INL_H_
