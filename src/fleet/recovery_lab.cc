#include "fleet/recovery_lab.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <memory>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "data/record_extractor.h"
#include "data/tasks.h"
#include "eval/runner.h"
#include "fleet/stream_session.h"
#include "obs/audit.h"
#include "sim/drift_scenario.h"
#include "sim/synthetic_video.h"

namespace eventhit::adapt {
namespace {

// Seed-split salts of the session's cloud service and relay.
constexpr uint64_t kCloudSalt = 2;
constexpr uint64_t kRelaySalt = 3;

constexpr uint64_t kFnvOffset = 14695981039346656037ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

uint64_t FnvFold(uint64_t digest, uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    digest ^= (value >> (byte * 8)) & 0xffu;
    digest *= kFnvPrime;
  }
  return digest;
}

// The trained, calibrated half of the rig — shared by the recal=on run and
// its recal=off control so both stream the identical model.
struct Rig {
  sim::SyntheticVideo video;
  data::Task task;
  data::ExtractorConfig extractor;
  eval::TrainedEventHit trained;
};

Result<Rig> BuildRig(const RecoveryLabConfig& config) {
  EVENTHIT_CHECK_GT(config.train_end, 0);
  EVENTHIT_CHECK_LT(config.train_end, config.calib_end);
  EVENTHIT_CHECK_LT(config.calib_end, config.before_frames);
  auto scenario = sim::MakeDriftScenario(
      config.scenario, config.before_frames, config.after_frames);
  if (!scenario.ok()) return scenario.status();

  Rig rig;
  rig.video = sim::SyntheticVideo::GenerateWithShift(
      scenario.value().before, scenario.value().after, config.seed);
  rig.task = data::Task{"drift-lab", sim::DatasetId::kThumos, {0}, {7}};
  rig.extractor.collection_window =
      scenario.value().before.collection_window;
  rig.extractor.horizon = scenario.value().before.horizon;

  Rng rng(SplitSeed(config.seed, 17));
  const sim::Interval train_range{rig.extractor.collection_window,
                                  config.train_end};
  const sim::Interval calib_range{config.train_end + 1,
                                  config.calib_end - 1};
  const auto train = data::SampleBalancedRecords(
      rig.video, rig.task, rig.extractor, train_range,
      config.train_records, 0.5, rng);
  const auto calib = data::SampleUniformRecords(
      rig.video, rig.task, rig.extractor, calib_range,
      config.calib_records, rng);

  core::EventHitConfig model_config;
  model_config.collection_window = rig.extractor.collection_window;
  model_config.horizon = rig.extractor.horizon;
  model_config.feature_dim = rig.video.feature_dim();
  model_config.num_events = 1;
  model_config.epochs = config.epochs;
  eval::TrainedEventHit& trained = rig.trained;
  trained.model = std::make_unique<core::EventHitModel>(model_config);
  trained.model->Train(train);

  const ExecutionContext ctx(config.threads, config.seed);
  trained.cclassify =
      std::make_unique<core::CClassify>(*trained.model, calib, ctx);
  trained.cregress = std::make_unique<core::CRegress>(*trained.model, calib,
                                                      config.tau2, ctx);
  return rig;
}

// Rolling failure-indicator window for the restore check: the same
// fast-burn criterion the auditor trips on, evaluated over samples
// collected strictly after the last hot swap.
struct RestoreWindow {
  size_t capacity;
  std::deque<uint8_t> fails;

  void Add(bool fail) {
    fails.push_back(fail ? 1 : 0);
    if (fails.size() > capacity) fails.pop_front();
  }
  void Reset() { fails.clear(); }
  bool Full() const { return fails.size() >= capacity; }
  double Rate() const {
    if (fails.empty()) return 0.0;
    int64_t sum = 0;
    for (const uint8_t f : fails) sum += f;
    return static_cast<double>(sum) / fails.size();
  }
};

RecoveryReport StreamOnce(const Rig& rig, const RecoveryLabConfig& config,
                          bool recal_on) {
  RecoveryReport report;
  report.scenario = config.scenario;
  report.recal_enabled = recal_on;
  report.shift_frame = rig.video.shift_frame();
  report.stream_begin = config.calib_end;
  report.stream_end = rig.video.num_frames() - rig.extractor.horizon;
  report.decision_digest = kFnvOffset;

  // The drift video, streamed from the calibration end through the same
  // session wiring the fleet serves; telemetry goes to the process
  // globals so recal.* lands in --metrics-out.
  core::EventHitStrategy strategy =
      eval::MakeEhcr(rig.trained, config.confidence, config.coverage);
  strategy.set_tau2(config.tau2);
  fleet::SessionSpec spec;
  spec.task = &rig.task;
  spec.video = &rig.video;
  spec.first_frame = config.calib_end;
  spec.model = rig.trained.model.get();
  spec.strategy = &strategy;
  spec.audit.confidence = config.confidence;
  spec.audit.coverage = config.coverage;
  spec.audit.fast_window = config.audit_fast_window;
  spec.audit.slow_window = config.audit_slow_window;
  spec.audit.event_labels = {"E7"};
  spec.cloud_seed = SplitSeed(config.seed, kCloudSalt);
  spec.relay_seed = SplitSeed(config.seed, kRelaySalt);
  spec.recal = recal_on;
  spec.recal_breach_trigger = config.breach_trigger;
  spec.recal_config = config.recal_config;
  spec.recal_config.tau2 = config.tau2;

  // The fast-burn thresholds that define both breach and restore
  // (obs/audit.h): burn_factor x budget, capped at the midpoint to 1.
  const double miss_budget = 1.0 - config.confidence;
  const double miscover_budget = 1.0 - config.coverage;
  const double miss_burn = std::min(spec.audit.burn_factor * miss_budget,
                                    (1.0 + miss_budget) / 2.0);
  const double miscover_burn =
      std::min(spec.audit.burn_factor * miscover_budget,
               (1.0 + miscover_budget) / 2.0);
  RestoreWindow miss_window{static_cast<size_t>(config.restore_window), {}};
  RestoreWindow cover_window{static_cast<size_t>(config.restore_window),
                            {}};

  spec.observer = [&](const fleet::StreamSession& session, int64_t anchor,
                      const core::MarshalDecision& decision,
                      const data::Record* truth, bool swapped) {
    // Every lab anchor's horizon lies inside the video, so every boundary
    // is audited.
    EVENTHIT_CHECK(truth != nullptr);
    const obs::AuditOutcome outcome =
        core::AuditOutcomeOf(*truth, decision, 0, anchor);
    const bool present = outcome.truth_present;
    const bool predicted = outcome.predicted_present;
    const sim::Interval& interval = decision.intervals[0];
    if (report.breach_time < 0 && session.auditor().any_breach()) {
      report.breach_time = anchor;
    }

    RecoveryPhase* phase = &report.pre_shift;
    if (anchor >= report.shift_frame) {
      phase = report.first_swap_time >= 0 ? &report.post_swap
                                          : &report.post_shift;
    }
    ++phase->boundaries;
    if (predicted) phase->relayed_frames += interval.length();
    if (present) {
      ++phase->positives;
      if (!predicted) ++phase->misses;
    }
    if (present && predicted) {
      phase->endpoints += 2;
      phase->miscovered += core::MiscoveredEndpoints(outcome);
    }

    report.decision_digest =
        FnvFold(report.decision_digest, static_cast<uint64_t>(anchor));
    report.decision_digest =
        FnvFold(report.decision_digest, predicted ? 1 : 0);
    report.decision_digest = FnvFold(report.decision_digest,
                                     static_cast<uint64_t>(interval.start));
    report.decision_digest = FnvFold(report.decision_digest,
                                     static_cast<uint64_t>(interval.end));

    // Restore tracking: indicators accumulate only after a swap (and
    // restart at every subsequent swap).
    if (report.first_swap_time >= 0) {
      if (present) miss_window.Add(!predicted);
      if (present && predicted) {
        cover_window.Add(!outcome.start_covered);
        cover_window.Add(!outcome.end_covered);
      }
      if (report.restore_time < 0 && miss_window.Full() &&
          cover_window.Full() && miss_window.Rate() <= miss_burn &&
          cover_window.Rate() <= miscover_burn) {
        report.restore_time = anchor;
      }
    }

    if (swapped) {
      if (report.first_swap_time < 0) report.first_swap_time = anchor;
      miss_window.Reset();
      cover_window.Reset();
      report.restore_time = -1;
    }
  };

  fleet::StreamSession session(std::move(spec));
  session.RunSolo();
  report.end_breached = session.auditor().any_breach();
  if (session.recal() != nullptr) {
    report.recal = session.recal()->stats();
    report.alarm_time = report.recal.first_alarm_time;
    report.swap_count = report.recal.swaps;
  }

  int64_t trigger_time = -1;
  for (const int64_t t : {report.breach_time, report.alarm_time}) {
    if (t < 0) continue;
    trigger_time = trigger_time < 0 ? t : std::min(trigger_time, t);
  }
  if (report.restore_time >= 0 && trigger_time >= 0) {
    report.time_to_restore = report.restore_time - trigger_time;
  }
  const double pre_spill = report.pre_shift.SpillPerBoundary();
  const RecoveryPhase& after_phase =
      report.swap_count > 0 ? report.post_swap : report.post_shift;
  report.spill_overshoot =
      pre_spill > 0.0 ? after_phase.SpillPerBoundary() / pre_spill : 0.0;
  return report;
}

}  // namespace

RecalConfig DefaultLabRecalConfig() {
  RecalConfig config;
  // A window of one horizon-boundary record per 200 frames: 48 records
  // spans ~9.6k frames, so pre-shift records roll out within one cooldown
  // or two of the shift and rebuilds calibrate on the new regime rather
  // than a stale mix.
  config.window_capacity = 48;
  config.min_records = 48;
  config.min_positives = 10;
  config.cooldown_frames = 3000;
  // ~1e3 average run length: the lab streams tens of thousands of quiet
  // observations at most, not the 1e5 the deployment default assumes.
  config.drift.log_threshold = std::log(1e3);
  return config;
}

Result<RecoveryReport> RunRecovery(const RecoveryLabConfig& config) {
  auto rig = BuildRig(config);
  if (!rig.ok()) return rig.status();
  return StreamOnce(rig.value(), config, config.recal);
}

Result<RecoveryControl> RunRecoveryControl(const RecoveryLabConfig& config) {
  auto rig = BuildRig(config);
  if (!rig.ok()) return rig.status();
  RecoveryControl control;
  control.with_recal = StreamOnce(rig.value(), config, /*recal_on=*/true);
  control.without_recal =
      StreamOnce(rig.value(), config, /*recal_on=*/false);
  return control;
}

}  // namespace eventhit::adapt
