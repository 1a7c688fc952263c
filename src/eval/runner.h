// Experiment orchestration shared by the benchmark harness, examples and
// integration tests: builds the synthetic environment for a task, trains
// EventHit, calibrates the conformal wrappers, and evaluates strategies.
#ifndef EVENTHIT_EVAL_RUNNER_H_
#define EVENTHIT_EVAL_RUNNER_H_

#include <memory>
#include <vector>

#include "common/flags.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "core/c_classify.h"
#include "core/c_regress.h"
#include "core/eventhit_model.h"
#include "core/prediction.h"
#include "core/strategies.h"
#include "data/record_extractor.h"
#include "data/tasks.h"
#include "eval/metrics.h"
#include "nn/backend.h"
#include "obs/audit.h"
#include "sched/collect_policy.h"
#include "sched/cost_model.h"
#include "sim/synthetic_video.h"

namespace eventhit::eval {

/// Experiment-level knobs. Model architecture/training settings come from
/// `model_template`; the runner fills in the problem shape (M, H, D, K).
struct RunnerConfig {
  size_t train_records = 1000;
  size_t calib_records = 800;
  size_t test_records = 600;
  /// Oversampling target for positives in the training set (training only;
  /// calibration/test stay uniform to preserve exchangeability).
  double train_positive_fraction = 0.5;
  /// Stream fraction used for training / calibration (rest = test).
  double train_frac = 0.55;
  double calib_frac = 0.15;
  /// Overrides of the dataset's default M / H; 0 keeps the default.
  int collection_window_override = 0;
  int horizon_override = 0;
  /// Override of the dataset's stream length; 0 keeps the default. Shrink
  /// for fast tests/benches (event counts scale down proportionally).
  int64_t stream_frames_override = 0;
  /// Architecture + optimisation template (shape fields are overwritten).
  core::EventHitConfig model_template;
  /// Records per batch for the batched GEMM inference path (test-score
  /// precomputation; `--predict-batch` in the CLI). Scores are
  /// bit-identical at any batch size — this only trades throughput against
  /// per-thread scratch size.
  size_t predict_batch = core::kDefaultPredictBatch;
  /// Inference kernel backend (nn/backend.h; `--nn-backend` in the CLI).
  /// TrainEventHit selects it on the model right after training. Every
  /// backend computes the same scores (docs/BACKENDS.md), so this changes
  /// speed only.
  nn::BackendKind nn_backend = nn::BackendKind::kBlocked;
  /// Collection scheduling policy (sched/collect_policy.h; the CLI's
  /// `--collect-policy`). kFull keeps the legacy every-boundary path
  /// byte-identical. Anything else makes TrainEventHit calibrate the
  /// conformal wrappers on the *scored subset* of a stream-cadence
  /// (stride = H) sweep of the calibration range walked under this same
  /// policy, so thresholds see the score distribution deployment sees.
  sched::CollectPolicySpec collect_policy;
  /// Master seed; vary per trial.
  uint64_t seed = 42;
};

/// Reads the runner knobs every training subcommand shares from `flags`:
/// --seed, --nn-backend and --collect-policy (the rest keep their
/// defaults). InvalidArgument on a malformed value.
Result<RunnerConfig> ParseRunnerFlags(const Flags& flags);

/// The generated world and record sets for one task.
class TaskEnvironment {
 public:
  /// Generates the stream and samples all three record sets.
  static TaskEnvironment Build(const data::Task& task,
                               const RunnerConfig& config);

  const data::Task& task() const { return task_; }
  const sim::SyntheticVideo& video() const { return *video_; }
  const data::ExtractorConfig& extractor() const { return extractor_; }
  int horizon() const { return extractor_.horizon; }
  int collection_window() const { return extractor_.collection_window; }
  const data::SplitRanges& splits() const { return splits_; }

  const std::vector<data::Record>& train_records() const { return train_; }
  const std::vector<data::Record>& calib_records() const { return calib_; }
  const std::vector<data::Record>& test_records() const { return test_; }

 private:
  data::Task task_;
  std::shared_ptr<const sim::SyntheticVideo> video_;
  data::ExtractorConfig extractor_;
  data::SplitRanges splits_;
  std::vector<data::Record> train_;
  std::vector<data::Record> calib_;
  std::vector<data::Record> test_;
};

/// A trained EventHit model with its conformal calibrators and the
/// precomputed raw scores of every test record (so knob sweeps pay one
/// forward pass per record total).
struct TrainedEventHit {
  std::unique_ptr<core::EventHitModel> model;
  std::unique_ptr<core::CClassify> cclassify;
  std::unique_ptr<core::CRegress> cregress;
  std::vector<core::EventScores> test_scores;
  std::vector<core::TrainEpochStats> history;
};

/// Trains + calibrates EventHit on the environment. `tau2` is the occupancy
/// threshold used for C-REGRESS calibration (the compared algorithms all
/// use 0.5). Training itself is serial (its SGD step order is part of the
/// model definition); conformal calibration and test-score precomputation
/// run across `ctx.threads()` workers with deterministic, order-preserving
/// reductions.
TrainedEventHit TrainEventHit(const TaskEnvironment& env,
                              const RunnerConfig& config, double tau2 = 0.5,
                              const ExecutionContext& ctx = ExecutionContext());

/// The EHCR strategy (both conformal wrappers) over `trained` at confidence
/// c and coverage alpha — the operating point evaluate and the fleet serve.
core::EventHitStrategy MakeEhcr(const TrainedEventHit& trained,
                                double confidence, double coverage);

/// Evaluates a strategy by calling Decide on every test record. Decisions
/// are computed across `ctx.threads()` workers into per-record slots, then
/// scored serially in record order — byte-identical to the serial path.
Metrics EvaluateStrategy(const core::MarshalStrategy& strategy,
                         const std::vector<data::Record>& test, int horizon,
                         const ExecutionContext& ctx = ExecutionContext());

/// Evaluates an EventHit strategy from precomputed scores.
Metrics EvaluateFromScores(const core::EventHitStrategy& strategy,
                           const std::vector<core::EventScores>& scores,
                           const std::vector<data::Record>& test,
                           int horizon, const ExecutionContext& ctx = ExecutionContext());

/// Collects the per-record decisions of an EventHit strategy (for cost /
/// timing accounting).
std::vector<core::MarshalDecision> DecisionsFromScores(
    const core::EventHitStrategy& strategy,
    const std::vector<core::EventScores>& scores,
    const ExecutionContext& ctx = ExecutionContext());

/// Local-compute accounting of one policy walk over a stream-cadence
/// record sequence — the record-clock mirror of MarshallerStats'
/// sched fields (same segment attribution: the first boundary covers M
/// frames, every later one H).
struct PolicyWalkStats {
  int64_t horizons_scored = 0;
  int64_t horizons_reused = 0;
  int64_t frames_scored = 0;    // Frames charged feature extraction.
  int64_t frames_skipped = 0;   // Frames whose extraction was saved.
  double local_mflops = 0.0;    // Estimated local compute spent.
  double saved_mflops = 0.0;    // Estimated local compute avoided.
};

/// Walks `scores` in sequence as consecutive prediction boundaries of one
/// stream under `spec`: scored boundaries take a fresh decision from the
/// strategy and feed the policy's observation loop; skipped boundaries
/// reuse the previous decision verbatim. `scores` must therefore come
/// from a stream-cadence sweep (data::StridedRecords with stride = H) —
/// uniformly sampled record sets have no temporal adjacency to reuse
/// across. kFull short-circuits to DecisionsFromScores (byte-identical
/// decisions, full-rate accounting). `stats` (optional) receives the
/// frames/FLOPs split under `cost`.
std::vector<core::MarshalDecision> DecisionsWithPolicy(
    const core::EventHitStrategy& strategy,
    const std::vector<core::EventScores>& scores,
    const sched::CollectPolicySpec& spec, int collection_window, int horizon,
    const sched::LocalCostModel& cost = sched::LocalCostModel(),
    PolicyWalkStats* stats = nullptr,
    const ExecutionContext& ctx = ExecutionContext());

/// Converts (record, decision) pairs into guarantee-audit outcomes on the
/// record clock (sim_time = record index): one outcome per (record,
/// event) pair, with the exact positive/hit semantics of ComputeMetrics —
/// feeding these into an obs::GuarantyAuditor reproduces the offline REC
/// accounting (auditor misses == positives - hits) on the same slice.
/// Endpoint coverage follows C-REGRESS: the start endpoint is covered
/// when interval.start <= label.start, the end endpoint when
/// interval.end >= label.end.
std::vector<obs::AuditOutcome> BuildAuditOutcomes(
    const std::vector<data::Record>& records,
    const std::vector<core::MarshalDecision>& decisions);

}  // namespace eventhit::eval

#endif  // EVENTHIT_EVAL_RUNNER_H_
