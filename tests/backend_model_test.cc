// Model-level contracts of the runtime-dispatched inference backends
// (core::EventHitModel x nn/backend.h): per-record vs batched parity under
// every backend, the cross-backend score bounds documented in
// docs/BACKENDS.md, the backend selection lifecycle, and — end to end —
// that a conformal pipeline calibrated on simd scores still meets its miss
// budget under the online guarantee auditor.
#include <cmath>
#include <cstddef>
#include <vector>

#include <gtest/gtest.h>

#include "core/eventhit_model.h"
#include "core/strategies.h"
#include "eval/runner.h"
#include "nn/backend.h"
#include "obs/audit.h"

namespace eventhit {
namespace {

eval::RunnerConfig SmallConfig(nn::BackendKind backend,
                               uint64_t seed = 2024) {
  eval::RunnerConfig config;
  config.stream_frames_override = 60000;
  config.train_records = 300;
  config.calib_records = 300;
  config.test_records = 220;
  config.model_template.epochs = 8;
  config.nn_backend = backend;
  config.seed = seed;
  return config;
}

double MaxScoreDiff(const std::vector<core::EventScores>& a,
                    const std::vector<core::EventScores>& b) {
  double diff = 0.0;
  EXPECT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    for (size_t k = 0; k < a[i].existence.size(); ++k) {
      diff = std::max(diff,
                      std::fabs(a[i].existence[k] - b[i].existence[k]));
      for (size_t v = 0; v < a[i].occupancy[k].size(); ++v) {
        diff = std::max(diff, static_cast<double>(std::fabs(
                                  a[i].occupancy[k][v] -
                                  b[i].occupancy[k][v])));
      }
    }
  }
  return diff;
}

bool ScoresBitIdentical(const std::vector<core::EventScores>& a,
                        const std::vector<core::EventScores>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].existence != b[i].existence) return false;
    if (a[i].occupancy != b[i].occupancy) return false;
  }
  return true;
}

// One trained environment shared across the parity tests (training is the
// expensive part; backend selection is a post-training toggle).
class BackendModelTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    task_ = new data::Task(data::FindTask("TA10").value());
    config_ = new eval::RunnerConfig(SmallConfig(nn::BackendKind::kBlocked));
    env_ = new eval::TaskEnvironment(
        eval::TaskEnvironment::Build(*task_, *config_));
    trained_ = new eval::TrainedEventHit(eval::TrainEventHit(*env_, *config_));
  }
  static void TearDownTestSuite() {
    delete trained_;
    delete env_;
    delete config_;
    delete task_;
    trained_ = nullptr;
    env_ = nullptr;
    config_ = nullptr;
    task_ = nullptr;
  }

  // Scores the test slice through `kind` at the given batch size.
  static std::vector<core::EventScores> Score(nn::BackendKind kind,
                                              size_t batch_size) {
    core::EventHitModel& model = *trained_->model;
    model.SetInferenceBackend(kind);
    auto scores = core::PredictBatch(model, env_->test_records(),
                                     ExecutionContext(), batch_size);
    model.SetInferenceBackend(nn::BackendKind::kBlocked);
    return scores;
  }

  static data::Task* task_;
  static eval::RunnerConfig* config_;
  static eval::TaskEnvironment* env_;
  static eval::TrainedEventHit* trained_;
};

data::Task* BackendModelTest::task_ = nullptr;
eval::RunnerConfig* BackendModelTest::config_ = nullptr;
eval::TaskEnvironment* BackendModelTest::env_ = nullptr;
eval::TrainedEventHit* BackendModelTest::trained_ = nullptr;

TEST_F(BackendModelTest, PredictMatchesBatchedUnderEveryBackend) {
  core::EventHitModel& model = *trained_->model;
  const auto& test = env_->test_records();
  const size_t probe = std::min<size_t>(test.size(), 64);
  for (const nn::BackendKind kind : nn::AllBackendKinds()) {
    model.SetInferenceBackend(kind);
    nn::Workspace ws;
    std::vector<core::EventScores> batched(probe);
    model.PredictBatched(test.data(), probe, batched.data(), ws);
    for (size_t i = 0; i < probe; ++i) {
      const core::EventScores solo = model.Predict(test[i]);
      ASSERT_EQ(solo.existence, batched[i].existence)
          << nn::BackendKindName(kind) << " record " << i;
      ASSERT_EQ(solo.occupancy, batched[i].occupancy)
          << nn::BackendKindName(kind) << " record " << i;
    }
  }
  model.SetInferenceBackend(nn::BackendKind::kBlocked);
}

TEST_F(BackendModelTest, ScalarMatchesBlockedBitExact) {
  EXPECT_TRUE(ScoresBitIdentical(Score(nn::BackendKind::kScalar, 32),
                                 Score(nn::BackendKind::kBlocked, 32)));
}

TEST_F(BackendModelTest, SimdWithinDocumentedScoreBound) {
  const double diff = MaxScoreDiff(Score(nn::BackendKind::kSimd, 32),
                                   Score(nn::BackendKind::kBlocked, 32));
  EXPECT_LE(diff, 1e-5);
  if (nn::SimdAvailable()) {
    // Guard against the dispatch silently handing back blocked. Note the
    // *scores* may legitimately match bit-for-bit when the blocked kernels
    // were themselves compiled with FMA contraction (-march=native builds),
    // so the check is on the dispatched table, not on nonzero drift.
    EXPECT_NE(nn::GetBackend(nn::BackendKind::kSimd).kernels,
              nn::GetBackend(nn::BackendKind::kBlocked).kernels);
  } else {
    EXPECT_EQ(diff, 0.0);  // fallback IS blocked
  }
}

TEST_F(BackendModelTest, EveryBackendIsBatchSizeInvariant) {
  for (const nn::BackendKind kind : nn::AllBackendKinds()) {
    const auto b1 = Score(kind, 1);
    const auto b7 = Score(kind, 7);
    const auto b32 = Score(kind, 32);
    EXPECT_TRUE(ScoresBitIdentical(b1, b7)) << nn::BackendKindName(kind);
    EXPECT_TRUE(ScoresBitIdentical(b1, b32)) << nn::BackendKindName(kind);
  }
}

TEST(BackendLifecycleTest,
     FreshModelDefaultsToBlockedAndTrainingKeepsSelection) {
  core::EventHitConfig config;
  config.collection_window = 10;
  config.horizon = 40;
  config.feature_dim = 6;
  config.num_events = 1;
  config.epochs = 1;
  core::EventHitModel model(config);
  EXPECT_EQ(model.inference_backend(), nn::BackendKind::kBlocked);

  std::vector<data::Record> records(8);
  Rng rng(5);
  for (auto& record : records) {
    record.covariates.resize(static_cast<size_t>(config.collection_window) *
                             config.feature_dim);
    for (auto& v : record.covariates) v = static_cast<float>(rng.Uniform());
    record.labels.resize(1);
  }
  // Training touches only the weights: the default backend survives it,
  // and so does an explicit selection.
  model.Train(records);
  EXPECT_EQ(model.inference_backend(), nn::BackendKind::kBlocked);
  model.SetInferenceBackend(nn::BackendKind::kSimd);
  model.Train(records);
  EXPECT_EQ(model.inference_backend(), nn::BackendKind::kSimd);
}

// End to end: train + calibrate with RunnerConfig::nn_backend = simd (so
// C-CLASSIFY/C-REGRESS thresholds are calibrated on simd scores), replay
// the test slice through the online guarantee auditor, and check the
// empirical miss rate sits within the conformal budget plus finite-sample
// slack. simd is the one non-default backend whose scores differ from
// blocked, so this is the acceptance check that "calibrate on the selected
// backend" preserves the paper's guarantee.
TEST(SimdGuaranteeTest, RecalibratedSimdMeetsAuditMissBudget) {
  const data::Task task = data::FindTask("TA10").value();
  const eval::RunnerConfig config = SmallConfig(nn::BackendKind::kSimd);
  const auto env = eval::TaskEnvironment::Build(task, config);
  const auto trained = eval::TrainEventHit(env, config);
  ASSERT_EQ(trained.model->inference_backend(), nn::BackendKind::kSimd);

  core::EventHitStrategyOptions options;
  options.use_cclassify = true;
  options.use_cregress = true;
  const core::EventHitStrategy strategy(trained.model.get(),
                                        trained.cclassify.get(),
                                        trained.cregress.get(), options);
  const auto decisions =
      eval::DecisionsFromScores(strategy, trained.test_scores);
  const auto outcomes =
      eval::BuildAuditOutcomes(env.test_records(), decisions);

  obs::AuditConfig audit_config;
  audit_config.confidence = options.confidence;
  audit_config.coverage = options.coverage;
  obs::MetricsRegistry metrics;
  obs::GuarantyAuditor auditor(audit_config, &metrics);
  for (const auto& outcome : outcomes) auditor.Observe(outcome);
  auditor.Finalize(static_cast<int64_t>(env.test_records().size()));

  const double budget = 1.0 - options.confidence;
  const int64_t positives = auditor.total_positives();
  ASSERT_GT(positives, 20) << "test slice too small to audit";
  // Marginal conformal validity bounds the miss *probability* by the
  // budget; the empirical rate over `positives` trials fluctuates, so
  // allow two binomial standard deviations on top.
  const double slack =
      2.0 * std::sqrt(budget * (1.0 - budget) /
                      static_cast<double>(positives));
  const double miss_rate = static_cast<double>(auditor.total_misses()) /
                           static_cast<double>(positives);
  EXPECT_LE(miss_rate, budget + slack)
      << auditor.total_misses() << "/" << positives << " misses";
}

}  // namespace
}  // namespace eventhit
