// Runtime-dispatched inference kernel backends (DESIGN.md §5h,
// docs/BACKENDS.md).
//
// The batched inference path (gemm.h, lstm.h, dense.h, mlp.h) is written
// against a small kernel table — GEMM products and element-wise
// activations — so the same forward-pass code can run on either
// implementation selected once at startup:
//
//   * scalar  — naive reference loops, no tiling. Same ascending-k float
//     summation order as `blocked`, so results are bit-identical to it;
//     exists as the oracle the fast kernels are tested against.
//   * blocked — the default. It has two kernel bodies and picks one by
//     cpuid on first use (Avx2Available()): an explicit AVX2 register-
//     blocked GEMM and 8-wide activations (backend_avx2.cc) when the CPU
//     has AVX2, else the tiled kernels of gemm.cc, auto-vectorized by the
//     baseline build (SSE2 on x86-64, NEON on aarch64). Both bodies do
//     every term as a separate multiply then add, ascending in k, so each
//     output element gets the same float operations and roundings as
//     scalar: the body changes speed, never a score.
//
// Because no backend changes a score, conformal thresholds calibrated
// under one are valid under the other, and per-record and batched results
// agree to the bit at any batch composition.
//
// Threading model: a Backend is immutable global state — GetBackend()
// returns references to static tables, safe to share across threads.
#ifndef EVENTHIT_NN_BACKEND_H_
#define EVENTHIT_NN_BACKEND_H_

#include <cstddef>
#include <string>
#include <vector>

#include "common/status.h"

namespace eventhit::nn {

enum class BackendKind { kScalar, kBlocked };

/// C = A * B (overwrite) / C += A * B with the shape conventions of
/// nn/gemm.h: A m x k (lda), B k x n (ldb), C m x n (ldc), ascending-k
/// accumulation per output element.
using GemmFn = void (*)(size_t m, size_t n, size_t k, const float* a,
                        size_t lda, const float* b, size_t ldb, float* c,
                        size_t ldc);

/// Element-wise activation over n contiguous floats.
using UnaryFn = void (*)(float* x, size_t n);

/// The kernel table a forward pass dispatches through.
struct BackendKernels {
  GemmFn gemm_zero = nullptr;       // C = A*B
  GemmFn gemm = nullptr;            // C += A*B
  UnaryFn tanh_inplace = nullptr;   // x = tanh(x)
  UnaryFn sigmoid_inplace = nullptr;
};

/// One selected backend: its kind, name and kernel table.
struct Backend {
  BackendKind kind = BackendKind::kBlocked;
  const char* name = "blocked";
  const BackendKernels* kernels = nullptr;
};

/// True when the AVX2 kernels are compiled in AND the CPU reports AVX2 at
/// runtime. When true the blocked backend runs the AVX2 body, else the
/// portable one.
bool Avx2Available();

/// The immutable backend singleton for `kind`.
const Backend& GetBackend(BackendKind kind);

/// Canonical lower-case name ("scalar", "blocked").
const char* BackendKindName(BackendKind kind);

/// Parses a backend name. Unknown names produce InvalidArgumentError
/// listing the choices.
Result<BackendKind> ParseBackendKind(const std::string& name);

/// Every kind, in fixed order (scalar, blocked) — for benches and parity
/// sweeps.
std::vector<BackendKind> AllBackendKinds();

}  // namespace eventhit::nn

#endif  // EVENTHIT_NN_BACKEND_H_
