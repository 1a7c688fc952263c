// Model-level contracts of the runtime-dispatched inference backends
// (core::EventHitModel x nn/backend.h): per-record vs batched parity under
// every backend, bit-identical scores across backends (docs/BACKENDS.md)
// and the backend selection lifecycle.
#include <cstddef>
#include <vector>

#include <gtest/gtest.h>

#include "core/eventhit_model.h"
#include "eval/runner.h"
#include "nn/backend.h"

namespace eventhit {
namespace {

eval::RunnerConfig SmallConfig() {
  eval::RunnerConfig config;
  config.stream_frames_override = 60000;
  config.train_records = 300;
  config.calib_records = 300;
  config.test_records = 220;
  config.model_template.epochs = 8;
  config.seed = 2024;
  return config;
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
    config_ = new eval::RunnerConfig(SmallConfig());
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

// Holds in every build: the nn target is compiled with -ffp-contract=off,
// so neither blocked body (AVX2 or portable) nor the scalar loops are fused
// into FMA even under -march=native.
TEST_F(BackendModelTest, ScalarMatchesBlockedBitExact) {
  EXPECT_TRUE(ScoresBitIdentical(Score(nn::BackendKind::kScalar, 32),
                                 Score(nn::BackendKind::kBlocked, 32)));
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
  model.SetInferenceBackend(nn::BackendKind::kScalar);
  model.Train(records);
  EXPECT_EQ(model.inference_backend(), nn::BackendKind::kScalar);
}

}  // namespace
}  // namespace eventhit
