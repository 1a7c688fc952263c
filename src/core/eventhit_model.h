// The EventHit deep model (§III, Figure 3): a shared LSTM encoder over the
// collection window, a shared fully-connected + dropout layer producing the
// latent vector z, and one sigmoid-activated sub-network per event type
// emitting [b_k, theta_{k,1}, ..., theta_{k,H}].
//
// Training minimises L_Total = L1 + L2:
//   L1 — weighted BCE between b_k and 1[E_k in L_n];
//   L2 — for positive records, per-frame BCE between theta_{k,v} and frame
//        occupancy, weighted 1/|interval| inside the occurrence interval and
//        1/(H - |interval|) outside (the paper's normalisation), censored
//        occurrences clipped at the horizon end.
#ifndef EVENTHIT_CORE_EVENTHIT_MODEL_H_
#define EVENTHIT_CORE_EVENTHIT_MODEL_H_

#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "core/eventhit_config.h"
#include "core/prediction.h"
#include "data/record.h"
#include "nn/adam.h"
#include "nn/backend.h"
#include "nn/dense.h"
#include "nn/dropout.h"
#include "nn/lstm.h"
#include "nn/mlp.h"
#include "nn/workspace.h"

namespace eventhit::core {

/// Per-epoch training diagnostics.
struct TrainEpochStats {
  double existence_loss = 0.0;  // L1, averaged over records.
  double occupancy_loss = 0.0;  // L2, averaged over records.
  double total_loss = 0.0;
  double grad_norm = 0.0;  // Mean pre-clip gradient norm across steps.
};

/// The trained/trainable EventHit network.
class EventHitModel {
 public:
  /// Initialises weights from config.seed. `config.feature_dim` and
  /// `config.num_events` must be set.
  explicit EventHitModel(const EventHitConfig& config);

  const EventHitConfig& config() const { return config_; }

  /// Trains end-to-end on `records` (their covariates must be
  /// M x feature_dim). Returns per-epoch statistics.
  std::vector<TrainEpochStats> Train(const std::vector<data::Record>& records);

  /// Inference: raw scores for one covariate block, through the
  /// per-record float path. Bit-identical to PredictBatched under every
  /// backend, so the selected backend does not matter here.
  EventScores Predict(const data::Record& record) const;

  /// Inference from a raw covariate pointer (M x D floats). Always the
  /// float per-record path (MatVec kernels, bit-identical to the scalar
  /// and blocked backends) regardless of the selected backend.
  EventScores PredictCovariates(const float* covariates) const;

  /// Selects the kernel backend used by PredictBatched (nn/backend.h;
  /// docs/BACKENDS.md). Every backend computes the same bits, so the
  /// choice changes speed only, never a score or a conformal threshold.
  void SetInferenceBackend(nn::BackendKind kind);

  nn::BackendKind inference_backend() const { return backend_kind_; }

  /// Batched inference: scores `count` records in one pass through the
  /// GEMM path (nn/gemm.h) — covariates are gathered into a batch-minor
  /// buffer, the LSTM runs two GEMMs per timestep for the whole batch, the
  /// per-event MLP heads run one batched forward each, and the logits are
  /// scattered back into `out[0..count)`. Scratch comes from `ws` (Reset
  /// per call), so a warm Workspace makes the pass allocation-free apart
  /// from the EventScores vectors themselves. Per record the results are
  /// bit-identical to Predict at any batch size (summation-order contract,
  /// nn/matrix.h).
  void PredictBatched(const data::Record* records, size_t count,
                      EventScores* out, nn::Workspace& ws) const;

  /// Number of trainable scalars.
  size_t ParameterCount() const;

  /// Persists / restores all weights.
  Status Save(const std::string& path) const;
  Status Load(const std::string& path);

 private:
  // Shared trunk forward pass (inference mode: no dropout). Fills z and the
  // concatenated sub-network input u = z ++ x_last.
  void TrunkForward(const float* covariates, nn::Vec& z, nn::Vec& u) const;

  // One training example: forward + loss + backward. Returns (L1, L2).
  std::pair<double, double> TrainStep(const data::Record& record, Rng& rng);

  nn::ParameterRefs Parameters();
  nn::ConstParameterRefs Parameters() const;

  EventHitConfig config_;
  nn::Lstm lstm_;
  nn::Dense shared_fc_;
  nn::Dropout dropout_;
  std::vector<nn::Mlp> event_nets_;
  mutable Rng rng_;  // Dropout masks and shuffling during Train.

  nn::BackendKind backend_kind_ = nn::BackendKind::kBlocked;
};

/// Default batch size for PredictBatch (the `--predict-batch` CLI flag and
/// RunnerConfig::predict_batch override it). Large enough that the GEMM
/// path amortises weight streaming across the batch, small enough that the
/// per-thread scratch stays L2-resident for the paper's model shapes.
inline constexpr size_t kDefaultPredictBatch = 32;

/// Runs inference over every record through the batched GEMM path: records
/// are chunked into batches of `batch_size` and scored with
/// EventHitModel::PredictBatched, parallelized across chunks when `ctx` is
/// pooled (one Workspace per worker chunk). Results land in input order and
/// are bit-identical to the per-record serial loop at any batch size and
/// thread count (summation-order contract, nn/matrix.h). Instrumented with
/// the `predict.batch_size` histogram and one `nn.gemm` span per batch.
std::vector<EventScores> PredictBatch(const EventHitModel& model,
                                      const std::vector<data::Record>& records,
                                      const ExecutionContext& ctx = ExecutionContext(),
                                      size_t batch_size = kDefaultPredictBatch);

}  // namespace eventhit::core

#endif  // EVENTHIT_CORE_EVENTHIT_MODEL_H_
