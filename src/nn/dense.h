// Fully connected (affine) layer: y = W x + b. Activation functions are
// applied by the caller so layers compose freely.
#ifndef EVENTHIT_NN_DENSE_H_
#define EVENTHIT_NN_DENSE_H_

#include <string>

#include "common/rng.h"
#include "nn/backend.h"
#include "nn/matrix.h"
#include "nn/parameter.h"

namespace eventhit::nn {

/// An affine transform with trainable weight and bias.
class Dense {
 public:
  Dense() = default;

  /// Glorot-initialised layer mapping `in_dim` -> `out_dim`. `name` prefixes
  /// the parameter names for diagnostics/serialization.
  Dense(std::string name, size_t in_dim, size_t out_dim, Rng& rng);

  size_t in_dim() const { return weight_.value.cols(); }
  size_t out_dim() const { return weight_.value.rows(); }

  /// y = W x + b. `x` has in_dim() elements; `y` is resized to out_dim().
  void Forward(const float* x, Vec& y) const;

  /// Batched forward over `batch` columns stored batch-minor: `x` is
  /// [in_dim() x batch] with the batch contiguous per feature row, `y` is
  /// [out_dim() x batch] and is fully overwritten. One GEMM instead of
  /// `batch` MatVecs; per column the arithmetic (and its summation order —
  /// see matrix.h) is identical to Forward, so results match bit-for-bit.
  void ForwardBatch(const float* x, size_t batch, float* y) const;

  /// Same, dispatching the GEMM through `backend`'s kernel table
  /// (nn/backend.h). Every backend reproduces the overload above
  /// bit-for-bit.
  void ForwardBatch(const float* x, size_t batch, float* y,
                    const Backend& backend) const;

  /// Given the input `x` used in Forward and the upstream gradient `dy`,
  /// accumulates dW, db and adds W^T dy into `dx` (which must be sized
  /// in_dim(); pass nullptr to skip input-gradient computation).
  void Backward(const float* x, const float* dy, float* dx);

  /// Registers this layer's parameters into `out`.
  void CollectParameters(ParameterRefs& out);
  void CollectParameters(ConstParameterRefs& out) const;

  const Parameter& weight() const { return weight_; }
  const Parameter& bias() const { return bias_; }
  Parameter& mutable_weight() { return weight_; }
  Parameter& mutable_bias() { return bias_; }

 private:
  Parameter weight_;  // out_dim x in_dim
  Parameter bias_;    // out_dim x 1
};

}  // namespace eventhit::nn

#endif  // EVENTHIT_NN_DENSE_H_
