// Single-layer LSTM over a fixed-length input sequence, with full
// backpropagation-through-time. EventHit consumes only the final hidden
// state, so the backward entry point takes the gradient of that state.
#ifndef EVENTHIT_NN_LSTM_H_
#define EVENTHIT_NN_LSTM_H_

#include <string>
#include <vector>

#include "common/rng.h"
#include "nn/backend.h"
#include "nn/matrix.h"
#include "nn/parameter.h"
#include "nn/workspace.h"

namespace eventhit::nn {

/// LSTM with input dim D and hidden dim Hd. Gate layout in the packed
/// pre-activation vector is [input, forget, cell, output], each Hd wide.
class Lstm {
 public:
  Lstm() = default;

  /// Glorot-initialised weights; the forget-gate bias starts at +1.0, the
  /// standard trick that prevents early vanishing of long-range signal.
  Lstm(std::string name, size_t input_dim, size_t hidden_dim, Rng& rng);

  size_t input_dim() const { return wx_.value.cols(); }
  size_t hidden_dim() const { return wx_.value.rows() / 4; }

  /// Runs the sequence (steps x input_dim, row-major in `inputs`) from zero
  /// initial state, caching activations for Backward. Returns the final
  /// hidden state h_M.
  Vec ForwardCached(const float* inputs, size_t steps);

  /// Inference-only forward; no cache, ping-pong buffers. Returns h_M.
  Vec Forward(const float* inputs, size_t steps) const;

  /// Batched inference over `batch` independent sequences, stored
  /// batch-minor and time-major: element (t, feature j, sequence b) lives
  /// at inputs[(t * input_dim() + j) * batch + b]. Writes the final hidden
  /// states into `h_out` as [hidden_dim() x batch] (same batch-minor
  /// layout). Each timestep computes all four gates for the whole batch
  /// with two GEMMs (Wx·X_t and Wh·H_{t-1}) instead of 2·batch MatVecs;
  /// scratch comes from `ws` (valid until its next Reset), so a warm
  /// Workspace makes the pass allocation-free. Per sequence the arithmetic
  /// replays Forward's summation order exactly (matrix.h), so results are
  /// bit-identical to the per-record path at any batch size.
  void ForwardBatch(const float* inputs, size_t steps, size_t batch,
                    float* h_out, Workspace& ws) const;

  /// Same, dispatching GEMMs and activations through `backend`'s kernel
  /// table (nn/backend.h). Every backend reproduces the overload above
  /// bit-for-bit.
  void ForwardBatch(const float* inputs, size_t steps, size_t batch,
                    float* h_out, Workspace& ws, const Backend& backend) const;

  /// BPTT from the gradient of the final hidden state. Must follow a
  /// ForwardCached call; accumulates parameter gradients. If `dinputs` is
  /// non-null it must hold steps*input_dim floats and receives +=
  /// gradients w.r.t. the inputs.
  void Backward(const float* dh_final, float* dinputs = nullptr);

  void CollectParameters(ParameterRefs& out);
  void CollectParameters(ConstParameterRefs& out) const;

  const Parameter& wx() const { return wx_; }
  const Parameter& wh() const { return wh_; }
  const Parameter& bias() const { return bias_; }
  Parameter& mutable_wx() { return wx_; }
  Parameter& mutable_wh() { return wh_; }
  Parameter& mutable_bias() { return bias_; }

 private:
  // One timestep's cached activations for BPTT.
  struct StepCache {
    Vec gates;   // 4*Hd: post-activation i, f, g, o
    Vec cell;    // Hd: c_t
    Vec tanh_c;  // Hd: tanh(c_t)
    Vec hidden;  // Hd: h_t
  };

  void StepForward(const float* x, const float* h_prev, const float* c_prev,
                   StepCache& cache) const;

  Parameter wx_;    // 4*Hd x D
  Parameter wh_;    // 4*Hd x Hd
  Parameter bias_;  // 4*Hd x 1

  // Cache of the most recent ForwardCached call.
  std::vector<StepCache> cache_;
  const float* cached_inputs_ = nullptr;
  size_t cached_steps_ = 0;
};

}  // namespace eventhit::nn

#endif  // EVENTHIT_NN_LSTM_H_
