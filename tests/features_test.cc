#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "features/feature_selection.h"
#include "features/standardizer.h"

namespace eventhit::features {
namespace {

constexpr size_t kDim = 4;
constexpr size_t kWindow = 5;

// Records where channel 0 predicts event 0 (strong correlation), channel 1
// is anti-correlated noise-free, channels 2/3 pure noise.
std::vector<data::Record> MakeRecords(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<data::Record> records;
  for (size_t i = 0; i < n; ++i) {
    data::Record record;
    const bool positive = rng.Bernoulli(0.5);
    record.covariates.resize(kWindow * kDim);
    for (size_t t = 0; t < kWindow; ++t) {
      float* row = record.covariates.data() + t * kDim;
      row[0] = positive ? static_cast<float>(0.8 + rng.Gaussian(0, 0.05))
                        : static_cast<float>(0.2 + rng.Gaussian(0, 0.05));
      row[1] = 1.0f - row[0];
      row[2] = static_cast<float>(rng.Uniform());
      row[3] = static_cast<float>(5.0 + rng.Gaussian(0, 2.0));
    }
    data::EventLabel label;
    label.present = positive;
    label.start = 1;
    label.end = 10;
    record.labels.push_back(label);
    records.push_back(std::move(record));
  }
  return records;
}

TEST(StandardizerTest, ProducesZeroMeanUnitVariance) {
  auto records = MakeRecords(200, 1);
  const Standardizer standardizer = Standardizer::Fit(records, kDim);
  standardizer.ApplyAll(records);
  // Recompute statistics per channel.
  for (size_t c = 0; c < kDim; ++c) {
    double sum = 0.0, sum_sq = 0.0;
    int64_t count = 0;
    for (const auto& record : records) {
      for (size_t t = 0; t < kWindow; ++t) {
        const double v = record.covariates[t * kDim + c];
        sum += v;
        sum_sq += v * v;
        ++count;
      }
    }
    const double mean = sum / count;
    const double variance = sum_sq / count - mean * mean;
    EXPECT_NEAR(mean, 0.0, 1e-5) << "channel " << c;
    EXPECT_NEAR(variance, 1.0, 1e-3) << "channel " << c;
  }
}

TEST(StandardizerTest, ConstantChannelDoesNotDivideByZero) {
  std::vector<data::Record> records(3);
  for (auto& record : records) {
    record.covariates.assign(kDim, 7.0f);  // Single frame, constant.
    record.labels.resize(1);
  }
  const Standardizer standardizer = Standardizer::Fit(records, kDim);
  auto copy = records;
  standardizer.ApplyAll(copy);
  for (float v : copy[0].covariates) EXPECT_TRUE(std::isfinite(v));
}

TEST(StandardizerTest, ExplicitStatsApplied) {
  const Standardizer standardizer({1.0, 2.0, 3.0, 4.0}, {2.0, 2.0, 2.0, 2.0});
  std::vector<float> covariates{3.0f, 4.0f, 5.0f, 6.0f};
  standardizer.Apply(covariates);
  EXPECT_FLOAT_EQ(covariates[0], 1.0f);
  EXPECT_FLOAT_EQ(covariates[1], 1.0f);
  EXPECT_FLOAT_EQ(covariates[2], 1.0f);
  EXPECT_FLOAT_EQ(covariates[3], 1.0f);
}

TEST(FeatureSelectionTest, ScoresIdentifyInformativeChannels) {
  const auto records = MakeRecords(400, 3);
  const auto scores = ScoreChannels(records, kDim);
  ASSERT_EQ(scores.size(), kDim);
  EXPECT_GT(scores[0].score, 0.9);  // Direct signal.
  EXPECT_GT(scores[1].score, 0.9);  // Anti-correlated (absolute value).
  EXPECT_LT(scores[2].score, 0.3);
  EXPECT_LT(scores[3].score, 0.3);
}

TEST(FeatureSelectionTest, ThresholdSelection) {
  const auto records = MakeRecords(400, 5);
  const auto kept = SelectChannels(records, kDim, 0.5);
  EXPECT_EQ(kept, (std::vector<size_t>{0, 1}));
}

TEST(FeatureSelectionTest, ImpossibleThresholdKeepsBestChannel) {
  const auto records = MakeRecords(200, 7);
  const auto kept = SelectChannels(records, kDim, 10.0);
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_LE(kept[0], 1u);  // One of the informative pair.
}

TEST(FeatureSelectionTest, TopKSelection) {
  const auto records = MakeRecords(400, 9);
  const auto top2 = SelectTopChannels(records, kDim, 2);
  EXPECT_EQ(top2, (std::vector<size_t>{0, 1}));
  const auto top10 = SelectTopChannels(records, kDim, 10);
  EXPECT_EQ(top10.size(), kDim);  // Clamped to D.
}

TEST(FeatureSelectionTest, ProjectionPreservesLayoutAndLabels) {
  const auto records = MakeRecords(5, 11);
  const data::Record projected =
      ProjectRecord(records[0], kDim, {0, 2});
  EXPECT_EQ(projected.covariates.size(), kWindow * 2);
  EXPECT_EQ(projected.labels.size(), records[0].labels.size());
  for (size_t t = 0; t < kWindow; ++t) {
    EXPECT_EQ(projected.covariates[t * 2],
              records[0].covariates[t * kDim]);
    EXPECT_EQ(projected.covariates[t * 2 + 1],
              records[0].covariates[t * kDim + 2]);
  }
}

TEST(FeatureSelectionTest, InvalidChannelDies) {
  const auto records = MakeRecords(2, 13);
  EXPECT_DEATH(ProjectRecord(records[0], kDim, {kDim}), "CHECK failed");
  EXPECT_DEATH(ProjectRecord(records[0], kDim, {}), "CHECK failed");
}

}  // namespace
}  // namespace eventhit::features
