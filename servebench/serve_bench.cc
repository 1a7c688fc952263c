// Outside-in serving benchmark of the EventHit tenant fleet.
//
//   serve_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//               [--span-out <path>]
//
// One run:
//   1. trains the shared model (eval::TaskEnvironment::Build +
//      eval::TrainEventHit) several times and reports the median as set-up;
//   2. runs StreamFleet::Run, the product path, on the workload's fleet
//      config (synthesis inside its timer) and keeps its per-stream results
//      as the reference;
//   3. serves the same tenants wave by wave through the layers' public calls
//      only, with each wave's videos generated before its timer starts, and
//      repeats each wave until its share of --seconds is spent;
//   4. fails (exit 1, no result line) unless every stream of every serve pass
//      settles exactly like the reference (fleet::SameStreamResult).
// With --trace 1, traced passes alternate with untraced ones; they time
// every public call with the span log (span_log.h) and give the per-layer
// metrics. The last stdout line is the JSON result. Workload rationale and
// the layer -> end-to-end map are in NOTES.md.
//
// The per-stream wiring below mirrors StreamFleet's (InitStream,
// ApplyCompletion, OnCompletion, FinishStream); the identity check against
// StreamFleet::Run is what keeps the copy honest.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "adapt/recal_loop.h"
#include "bench_stats.h"
#include "cloud/cloud_service.h"
#include "cloud/relay.h"
#include "common/check.h"
#include "common/thread_pool.h"
#include "core/marshaller.h"
#include "core/strategies.h"
#include "data/record_extractor.h"
#include "data/tasks.h"
#include "eval/runner.h"
#include "fleet/dynamic_batcher.h"
#include "fleet/mpsc_queue.h"
#include "fleet/shard_arena.h"
#include "fleet/stream_fleet.h"
#include "nn/backend.h"
#include "nn/workspace.h"
#include "obs/audit.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/provenance.h"
#include "sched/collect_policy.h"
#include "sched/cost_model.h"
#include "sim/fault_injector.h"
#include "sim/synthetic_video.h"
#include "span_log.h"

namespace servebench {
namespace {

namespace adapt = ::eventhit::adapt;
namespace cloud = ::eventhit::cloud;
namespace core = ::eventhit::core;
namespace data = ::eventhit::data;
namespace eval = ::eventhit::eval;
namespace fleet = ::eventhit::fleet;
namespace nn = ::eventhit::nn;
namespace obs = ::eventhit::obs;
namespace sched = ::eventhit::sched;
namespace sim = ::eventhit::sim;
using ::eventhit::ExecutionContext;

// A tenant mix. Every workload runs its tenants in 256-stream waves with
// batch 64 and a 4-tick flush deadline, as `eventhit_cli fleet` does by
// default. Why each one exists is recorded in NOTES.md.
struct Workload {
  const char* name;
  const char* task;
  int streams;
  int64_t frames;       // Frames generated per tenant stream.
  int threads;          // Worker threads (at most 2 on a 4-core host).
  const char* policy;   // Collection policy (CLI syntax).
  const char* faults;   // Relay fault profile.
  bool recal;           // Arm the per-stream recalibration loop.
};

constexpr Workload kWorkloads[] = {
    {"thumos-fleet", "TA10", 2048, 2000, 1, "full", "none", false},
    {"virat-flaky", "TA9", 1024, 10000, 1, "duty:0.25", "flaky", true},
    {"breakfast-2t", "TA16", 1024, 3000, 2, "full", "none", false},
};

constexpr int kSetupReps = 3;   // Trainings per run; setup_s is the median.
// StreamFleet::Run repeats until both are met; fleet_fps is the median.
constexpr int kFleetMinReps = 3;
constexpr double kFleetMinSeconds = 4.0;
constexpr size_t kMaxSpansPerThread = size_t{1} << 18;

// Salt of the relay fault seed, so fault schedules vary with --seed too.
constexpr uint64_t kFaultSeedSalt = 0x5eedfa17;
// Training seed of the shared model (the CLI's default seed). --seed varies
// the tenant streams and fault schedules, not the model: a model trained
// on another seed relays a different share of frames, and that spread
// would swamp the load-driven one the benchmark exists to measure.
constexpr uint64_t kModelSeed = 42;

double Since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double Micros(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

fleet::FleetConfig MakeConfig(const Workload& w, uint64_t seed) {
  fleet::FleetConfig config;
  config.num_streams = w.streams;
  config.base_seed = seed;
  config.frames_per_stream = w.frames;
  config.threads = w.threads;
  config.fault_profile = w.faults;
  config.fault_seed = eventhit::SplitSeed(seed, kFaultSeedSalt);
  config.recal = w.recal;
  config.runner.seed = kModelSeed;
  auto policy = sched::ParseCollectPolicy(w.policy);
  EVENTHIT_CHECK_OK(policy.status());
  config.runner.collect_policy = policy.value();
  return config;
}

// ---- Settlement digests: the FNV-1a folds of StreamFleet. ----

constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

uint64_t FnvBytes(uint64_t h, const void* bytes, size_t n) {
  const auto* p = static_cast<const unsigned char*>(bytes);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}
uint64_t FnvI64(uint64_t h, int64_t v) { return FnvBytes(h, &v, sizeof(v)); }
uint64_t FnvF64(uint64_t h, double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return FnvBytes(h, &bits, sizeof(bits));
}

// Shared, read-only state of one run's serve passes.
struct ServeContext {
  const data::Task* task;
  const fleet::FleetConfig* config;
  const fleet::StreamFleet* product;  // Only DeriveStreamSettings is used.
  const eval::TrainedEventHit* trained;
  const ExecutionContext* exec;
  obs::MetricsRegistry* stream_metrics;
  obs::Logger* stream_log;
};

// One tenant's private components and settlement accumulators.
struct Tenant {
  fleet::StreamSettings settings;
  data::ExtractorConfig extractor;
  const sim::SyntheticVideo* video = nullptr;
  std::unique_ptr<cloud::CloudService> service;
  std::unique_ptr<sim::FaultInjector> faults;
  std::unique_ptr<cloud::CloudRelay> relay;
  std::unique_ptr<core::EventHitStrategy> strategy;
  std::unique_ptr<core::Marshaller> marshaller;
  std::unique_ptr<obs::GuarantyAuditor> auditor;
  std::unique_ptr<adapt::RecalLoop> recal;
  std::unique_ptr<obs::StreamProvenance> provenance;
  const core::EventScores* completing_scores = nullptr;

  int64_t next_frame = 0;
  int64_t next_boundary = 0;  // Next frame that is a prediction boundary.
  int64_t seq = 0;
  int64_t last_miss_decision = -1;
  int64_t last_miscover_decision = -1;
  uint64_t decision_digest = kFnvOffset;
  uint64_t delivery_digest = kFnvOffset;
  data::Record pending_record;
  bool has_request = false;

  // Push-call start of each scored boundary still awaiting completion.
  std::deque<Clock::time_point> opened;
  std::vector<double> decision_us;
  int64_t audit_outcomes = 0;
};

int64_t BoundaryIndex(const Tenant& t, int64_t anchor) {
  return (anchor - (t.extractor.collection_window - 1)) / t.extractor.horizon;
}

// Everything one serve pass over one wave produced.
struct PassOutput {
  std::vector<fleet::FleetStreamResult> streams;
  double wall_s = 0.0;
  double parallel_s = 0.0;  // Wall time inside parallel phases.
  int64_t frames = 0;
  int64_t batches = 0;
  int64_t flush_deadline = 0;
  int64_t batch_records = 0;
  int64_t audit_outcomes = 0;
  std::vector<double> decision_us;
  std::vector<double> wait_us;  // Enqueue -> flush (traced passes only).
};

core::EventHitStrategyOptions StrategyOptions(const fleet::FleetConfig& c) {
  core::EventHitStrategyOptions options;
  options.use_cclassify = true;
  options.use_cregress = true;
  options.confidence = c.confidence;
  options.coverage = c.coverage;
  return options;
}

void OnCompletion(const ServeContext& cx, Tenant& t, int64_t anchor,
                  const core::MarshalDecision& decision, SpanLog* log) {
  const int stream = t.settings.stream_index;
  const int64_t b = BoundaryIndex(t, anchor);
  {
    Span span(log, kCloudAdvance, stream, b);
    t.relay->AdvanceTo(anchor);
  }
  {
    Span span(log, kFleetSettle, stream, b);
    uint64_t h = t.decision_digest;
    h = FnvI64(h, anchor);
    for (size_t k = 0; k < decision.exists.size(); ++k) {
      h = FnvI64(h, decision.exists[k] ? 1 : 0);
      h = FnvI64(h, decision.intervals[k].start);
      h = FnvI64(h, decision.intervals[k].end);
    }
    t.decision_digest = h;
  }

  const int64_t window = t.extractor.collection_window;
  if (anchor < window - 1 ||
      anchor + t.extractor.horizon >= t.video->num_frames()) {
    return;
  }
  data::Record truth;
  {
    Span span(log, kDataTruth, stream, b);
    truth = data::BuildRecord(*t.video, *cx.task, t.extractor, anchor);
  }
  EVENTHIT_CHECK_EQ(decision.exists.size(), truth.labels.size());
  int64_t decision_id = -1;
  if (t.provenance != nullptr) {
    Span span(log, kObsProvenance, stream, b);
    decision_id = t.provenance->DecisionIdOfAnchor(anchor);
  }
  for (size_t k = 0; k < truth.labels.size(); ++k) {
    const data::EventLabel& label = truth.labels[k];
    obs::AuditOutcome outcome;
    outcome.sim_time = anchor;
    outcome.event = static_cast<int>(k);
    outcome.truth_present = label.present;
    outcome.predicted_present = decision.exists[k];
    outcome.decision_id = decision_id;
    if (label.present && decision.exists[k]) {
      const sim::Interval& interval = decision.intervals[k];
      outcome.start_covered = interval.start <= label.start;
      outcome.end_covered = interval.end >= label.end;
    }
    {
      Span span(log, kObsAudit, stream, b);
      t.auditor->Observe(outcome);
    }
    ++t.audit_outcomes;
    if (t.provenance != nullptr) {
      const bool missed = label.present && !decision.exists[k];
      const int miscovered = label.present && decision.exists[k]
                                 ? (outcome.start_covered ? 0 : 1) +
                                       (outcome.end_covered ? 0 : 1)
                                 : 0;
      {
        Span span(log, kObsProvenance, stream, b);
        t.provenance->StampVerdict(anchor, label.present, missed, miscovered);
      }
      if (missed) t.last_miss_decision = decision_id;
      if (miscovered > 0) t.last_miscover_decision = decision_id;
    }
  }
  if (t.recal != nullptr && t.completing_scores != nullptr) {
    Span span(log, kAdaptRecal, stream, b);
    t.recal->Observe(anchor, truth, *t.completing_scores);
  }
}

void InitTenant(const ServeContext& cx, Tenant& t, int stream_index,
                const sim::SyntheticVideo* video, SpanLog* log) {
  Span span(log, kFleetInit, stream_index);
  const fleet::FleetConfig& config = *cx.config;
  t.settings = cx.product->DeriveStreamSettings(stream_index);
  const fleet::StreamSettings& s = t.settings;
  EVENTHIT_CHECK_EQ(video->num_frames(), s.spec.num_frames);
  t.extractor.collection_window = s.spec.collection_window;
  t.extractor.horizon = s.spec.horizon;
  t.next_boundary = s.spec.collection_window - 1;
  t.video = video;

  if (config.provenance) {
    t.provenance = std::make_unique<obs::StreamProvenance>(
        stream_index, s.spec.collection_window, s.spec.horizon,
        config.provenance_ring);
  }
  t.service = std::make_unique<cloud::CloudService>(
      video, cloud::CloudConfig{}, s.cloud_seed, cx.stream_metrics);
  if (config.fault_profile != "none" && !config.fault_profile.empty()) {
    auto profile = sim::MakeFaultProfile(config.fault_profile, s.fault_seed);
    EVENTHIT_CHECK_OK(profile.status());
    t.faults = std::make_unique<sim::FaultInjector>(profile.value());
  }
  cloud::RelayConfig relay_config;
  relay_config.degraded_mode = config.degraded_mode;
  relay_config.replay_horizon_frames = s.spec.horizon;
  t.relay = std::make_unique<cloud::CloudRelay>(
      t.service.get(), relay_config, s.relay_seed, t.faults.get(),
      cx.stream_metrics, /*trace=*/nullptr, cx.stream_log);
  t.relay->set_delivery_callback(
      [&t, log](const cloud::RelayDelivery& delivery) {
        Span settle(log, kFleetSettle, t.settings.stream_index);
        uint64_t h = t.delivery_digest;
        h = FnvI64(h, delivery.request_id);
        h = FnvI64(h, static_cast<int64_t>(delivery.event));
        h = FnvI64(h, delivery.frames.start);
        h = FnvI64(h, delivery.frames.end);
        h = FnvI64(h, delivery.replayed ? 1 : 0);
        for (const bool hit : delivery.detections) {
          h = FnvI64(h, hit ? 1 : 0);
        }
        t.delivery_digest = h;
      });

  const eval::TrainedEventHit& trained = *cx.trained;
  t.strategy = std::make_unique<core::EventHitStrategy>(
      trained.model.get(), trained.cclassify.get(), trained.cregress.get(),
      StrategyOptions(config));
  t.marshaller = std::make_unique<core::Marshaller>(
      t.strategy.get(), s.spec.collection_window, s.spec.horizon,
      s.spec.FeatureDim(), cx.task->event_indices.size(), cx.stream_metrics);
  t.marshaller->set_provenance(t.provenance.get());
  t.marshaller->set_relay_callback([&t, log](const core::RelayOrder& order) {
    const int stream = t.settings.stream_index;
    const int64_t b = BoundaryIndex(t, order.anchor);
    cloud::RelayResult result;
    {
      Span submit(log, kCloudSubmit, stream, b);
      result = t.relay->Submit(order.event, order.frames, order.anchor);
    }
    if (t.provenance != nullptr) {
      Span stamp(log, kObsProvenance, stream, b);
      t.provenance->StampRelay(order.anchor, result.attempts,
                               static_cast<int8_t>(result.outcome),
                               static_cast<int8_t>(t.relay->breaker_state()));
    }
  });
  t.marshaller->set_decision_callback(
      [&cx, &t, log](int64_t anchor, const core::MarshalDecision& decision,
                     bool /*reused*/) {
        OnCompletion(cx, t, anchor, decision, log);
      });
  if (config.runner.collect_policy.kind != sched::CollectPolicyKind::kFull) {
    EVENTHIT_CHECK_LT(config.max_batch_delay_ticks,
                      static_cast<int64_t>(s.spec.horizon));
    t.marshaller->set_collect_policy(
        sched::MakeCollectPolicy(config.runner.collect_policy));
    sched::LocalCostModel cost;
    cost.forward_mflops_per_boundary = sched::EstimateForwardMflops(
        s.spec.collection_window, static_cast<int>(s.spec.FeatureDim()),
        config.runner.model_template.lstm_hidden,
        config.runner.model_template.shared_dim,
        config.runner.model_template.event_hidden,
        static_cast<int>(cx.task->event_indices.size()), s.spec.horizon);
    t.marshaller->set_cost_model(cost);
  }

  obs::AuditConfig audit_config;
  audit_config.confidence = config.confidence;
  audit_config.coverage = config.coverage;
  audit_config.sim_tid = stream_index;
  t.auditor = std::make_unique<obs::GuarantyAuditor>(
      audit_config, cx.stream_metrics, /*trace=*/nullptr, cx.stream_log);
  if (config.recal) {
    t.recal = std::make_unique<adapt::RecalLoop>(
        trained.model.get(), t.strategy.get(), t.auditor.get(),
        config.recal_config, cx.stream_metrics);
  }
}

void ApplyCompletion(const ServeContext& cx, Tenant& t, int64_t anchor,
                     const core::EventScores& scores, SpanLog* log) {
  const int stream = t.settings.stream_index;
  const int64_t b = BoundaryIndex(t, anchor);
  if (t.provenance != nullptr) {
    Span span(log, kObsProvenance, stream, b);
    t.provenance->StampInference(
        anchor,
        nn::BackendKindName(cx.trained->model->inference_backend()),
        t.strategy->calibrator_generation());
  }
  t.completing_scores = &scores;
  core::MarshalDecision decision;
  {
    Span span(log, kCoreDecide, stream, b);
    decision = t.strategy->DecideFromScores(scores);
  }
  {
    Span span(log, kCoreComplete, stream, b);
    t.marshaller->CompletePrediction(decision);
  }
  t.completing_scores = nullptr;
  EVENTHIT_CHECK(!t.opened.empty());
  t.decision_us.push_back(Micros(t.opened.front(), Clock::now()));
  t.opened.pop_front();
}

fleet::FleetStreamResult FinishTenant(const ServeContext& cx, Tenant& t,
                                      SpanLog* log) {
  const int stream = t.settings.stream_index;
  EVENTHIT_CHECK_EQ(t.marshaller->pending_predictions(), 0u);
  {
    Span span(log, kCloudFlush, stream);
    t.relay->Flush(t.settings.push_frames);
  }
  {
    Span span(log, kObsAudit, stream);
    t.auditor->Finalize(t.settings.push_frames);
  }
  Span span(log, kFleetSettle, stream);
  fleet::FleetStreamResult r;
  r.stream_index = stream;
  r.decision_digest = t.decision_digest;
  r.delivery_digest = t.delivery_digest;
  r.marshaller = t.marshaller->stats();
  r.relay = t.relay->stats();
  r.invoice = t.service->invoice();
  const size_t num_events = cx.task->event_indices.size();
  for (size_t k = 0; k < num_events; ++k) {
    const int event = static_cast<int>(k);
    r.audit_positives += t.auditor->positives(event);
    r.audit_misses += t.auditor->misses(event);
    r.audit_endpoints += t.auditor->endpoints(event);
    r.audit_miscovered += t.auditor->miscovered(event);
  }
  r.audit_breaches = t.auditor->breach_count();
  r.last_miss_decision = t.last_miss_decision;
  r.last_miscover_decision = t.last_miscover_decision;
  r.last_breach_decision = t.auditor->last_breach_decision_id();
  if (t.recal != nullptr) {
    const adapt::RecalStats& rs = t.recal->stats();
    r.recal_triggers_breach = rs.triggers_breach;
    r.recal_triggers_drift = rs.triggers_drift;
    r.recal_refusals_cooldown = rs.refusals_cooldown;
    r.recal_refusals_min_samples = rs.refusals_min_samples;
    r.recal_swaps = rs.swaps;
    r.recal_last_swap_frame = rs.last_swap_time;
  }
  if (t.provenance != nullptr) {
    r.provenance_digest = t.provenance->Digest();
    r.provenance_boundaries = t.provenance->boundaries();
    r.provenance_recorded = t.provenance->recorded();
    r.provenance_overflowed = t.provenance->overflowed();
    r.provenance_rollup = t.provenance->rollup();
  }

  uint64_t h = r.decision_digest;
  h = FnvI64(h, static_cast<int64_t>(r.delivery_digest));
  for (const int64_t v :
       {r.marshaller.frames_seen, r.marshaller.horizons_predicted,
        r.marshaller.frames_relayed, r.marshaller.relay_orders,
        r.marshaller.horizons_reused, r.marshaller.frames_scored,
        r.marshaller.frames_skipped, r.marshaller.local_mflops,
        r.marshaller.saved_mflops, r.relay.orders_submitted,
        r.relay.orders_delivered, r.relay.orders_replayed,
        r.relay.orders_dropped, r.relay.frames_submitted,
        r.relay.frames_delivered, r.relay.frames_dropped,
        r.relay.frames_pending, r.relay.frames_in_flight, r.relay.attempts,
        r.relay.retries, r.invoice.frames_processed, r.invoice.requests}) {
    h = FnvI64(h, v);
  }
  h = FnvF64(h, r.invoice.total_cost_usd);
  h = FnvF64(h, r.invoice.compute_seconds);
  for (const int64_t v :
       {r.audit_positives, r.audit_misses, r.audit_endpoints,
        r.audit_miscovered, r.audit_breaches, r.last_miss_decision,
        r.last_miscover_decision, r.last_breach_decision,
        r.recal_triggers_breach, r.recal_triggers_drift,
        r.recal_refusals_cooldown, r.recal_refusals_min_samples,
        r.recal_swaps, r.recal_last_swap_frame,
        static_cast<int64_t>(r.provenance_digest), r.provenance_boundaries,
        r.provenance_overflowed}) {
    h = FnvI64(h, v);
  }
  r.state_digest = h;
  return r;
}

// Runs body(begin, end) over the worker chunks of [0, n), the partition
// ExecutionContext::ParallelFor uses. Adds the wall time to `*parallel_s`
// when timing is on (traced passes).
void ParallelChunks(const ServeContext& cx, size_t n,
                    const std::function<void(size_t, size_t)>& body,
                    double* parallel_s) {
  const Clock::time_point start = Clock::now();
  if (eventhit::ThreadPool* pool = cx.exec->pool(); pool != nullptr) {
    pool->ParallelForChunked(
        n, [&body](int /*chunk*/, size_t begin, size_t end) {
          body(begin, end);
        });
  } else {
    body(0, n);
  }
  if (parallel_s != nullptr) *parallel_s += Since(start);
}

// Per-index form of ParallelChunks (ExecutionContext::ParallelFor).
void Parallel(const ServeContext& cx, size_t n,
              const std::function<void(size_t)>& body, double* parallel_s) {
  ParallelChunks(cx, n, [&body](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) body(i);
  }, parallel_s);
}

// Serves one wave of tenants once: wiring, the tick loop and settlement.
// Videos are generated by the caller, outside this timer.
PassOutput ServeWave(const ServeContext& cx, int wave_start,
                     const std::vector<sim::SyntheticVideo>& videos,
                     nn::Workspace& ws, SpanLog* log) {
  const fleet::FleetConfig& config = *cx.config;
  const size_t wave_n = videos.size();
  PassOutput out;
  out.streams.resize(wave_n);
  double* parallel_s = log != nullptr ? &out.parallel_s : nullptr;
  const Clock::time_point start = Clock::now();
  {
    fleet::ShardArena<Tenant> arena(wave_n);
    Parallel(cx, wave_n, [&](size_t i) {
      InitTenant(cx, arena[i], wave_start + static_cast<int>(i), &videos[i],
                 log);
    }, parallel_s);

    int64_t max_ticks = 0;
    for (size_t i = 0; i < wave_n; ++i) {
      const fleet::StreamSettings& s = arena[i].settings;
      max_ticks = std::max(max_ticks, s.phase + s.push_frames);
      out.frames += s.push_frames;
    }

    fleet::MpscQueue<fleet::InferenceRequest> queue(wave_n);
    fleet::DynamicBatcher batcher(config.batch_size,
                                  config.max_batch_delay_ticks);
    std::deque<Clock::time_point> enqueued;  // Mirrors the batcher's FIFO.
    std::vector<fleet::InferenceRequest> drained;
    drained.reserve(wave_n);
    std::vector<data::Record> records;
    std::vector<core::EventScores> scores;
    std::vector<std::pair<size_t, size_t>> groups;

    for (int64_t tick = 0; tick < max_ticks; ++tick) {
      // Push phase. Push is timed per worker chunk, not per frame: the
      // span covers the chunk's PushFrameDeferred calls and their feature
      // fetches, minus the enqueue and inline-completion spans inside it.
      ParallelChunks(cx, wave_n, [&](size_t begin, size_t end) {
        Span push(log, kCorePush, -1, -1, /*keep=*/false);
        for (size_t i = begin; i < end; ++i) {
          Tenant& t = arena[i];
          const int64_t frame = tick - t.settings.phase;
          if (frame < 0 || frame >= t.settings.push_frames) continue;
          EVENTHIT_CHECK_EQ(frame, t.next_frame);
          Clock::time_point opened;
          const bool boundary = frame == t.next_boundary;
          if (boundary) {
            opened = Clock::now();
            t.next_boundary += t.settings.spec.horizon;
          }
          const float* features = t.marshaller->NextFrameNeedsFeatures()
                                      ? t.video->FrameFeatures(frame)
                                      : nullptr;
          t.has_request =
              t.marshaller->PushFrameDeferred(features, &t.pending_record);
          ++t.next_frame;
          if (!t.has_request) continue;
          EVENTHIT_CHECK(boundary);
          t.opened.push_back(opened);
          fleet::InferenceRequest request;
          request.shard_slot = static_cast<int>(i);
          request.seq = t.seq++;
          request.anchor_frame = t.pending_record.frame;
          request.enqueue_tick = tick;
          request.record = std::move(t.pending_record);
          Span enqueue(log, kFleetBatch, t.settings.stream_index,
                       BoundaryIndex(t, request.anchor_frame),
                       /*keep=*/false);
          EVENTHIT_CHECK(queue.TryPush(std::move(request)));
        }
      }, parallel_s);

      const bool final_tick = tick == max_ticks - 1;
      std::vector<fleet::BatchFlush> flushes;
      {
        Span batch(log, kFleetBatch, -1, -1, /*keep=*/false);
        drained.clear();
        queue.DrainTo(&drained);
        std::sort(drained.begin(), drained.end(),
                  [](const fleet::InferenceRequest& a,
                     const fleet::InferenceRequest& b) {
                    return a.shard_slot < b.shard_slot;
                  });
        for (auto& request : drained) {
          if (log != nullptr) enqueued.push_back(Clock::now());
          batcher.Enqueue(std::move(request));
        }
        flushes = batcher.TakeReady(tick, final_tick);
      }
      for (fleet::BatchFlush& flush : flushes) {
        const size_t n = flush.requests.size();
        if (log != nullptr) {
          const Clock::time_point now = Clock::now();
          for (size_t j = 0; j < n; ++j) {
            out.wait_us.push_back(Micros(enqueued.front(), now));
            enqueued.pop_front();
          }
        }
        int8_t flush_code = obs::kProvFlushFull;
        if (flush.reason == fleet::FlushReason::kDeadline) {
          flush_code = obs::kProvFlushDeadline;
          ++out.flush_deadline;
        } else if (flush.reason == fleet::FlushReason::kFinal) {
          flush_code = obs::kProvFlushFinal;
        }
        const int64_t batch_id = out.batches++;
        out.batch_records += static_cast<int64_t>(n);
        records.clear();
        for (auto& request : flush.requests) {
          Tenant& owner = arena[static_cast<size_t>(request.shard_slot)];
          if (owner.provenance != nullptr) {
            Span stamp(log, kObsProvenance, owner.settings.stream_index,
                       BoundaryIndex(owner, request.anchor_frame));
            owner.provenance->StampBatch(request.anchor_frame, batch_id,
                                         flush_code,
                                         tick - request.enqueue_tick);
          }
          records.push_back(std::move(request.record));
        }
        scores.assign(n, core::EventScores());
        {
          Span predict(log, kNnPredict, -1);
          cx.trained->model->PredictBatched(records.data(), n, scores.data(),
                                            ws);
        }
        groups.clear();
        for (size_t j = 0; j < n;) {
          size_t end = j + 1;
          while (end < n && flush.requests[end].shard_slot ==
                                flush.requests[j].shard_slot) {
            ++end;
          }
          groups.emplace_back(j, end);
          j = end;
        }
        Parallel(cx, groups.size(), [&](size_t g) {
          for (size_t j = groups[g].first; j < groups[g].second; ++j) {
            Tenant& t =
                arena[static_cast<size_t>(flush.requests[j].shard_slot)];
            ApplyCompletion(cx, t, flush.requests[j].anchor_frame, scores[j],
                            log);
          }
        }, parallel_s);
      }
    }
    EVENTHIT_CHECK_EQ(batcher.pending(), 0u);
    Parallel(cx, wave_n, [&](size_t i) {
      out.streams[i] = FinishTenant(cx, arena[i], log);
    }, parallel_s);
    for (size_t i = 0; i < wave_n; ++i) {
      const Tenant& t = arena[i];
      out.decision_us.insert(out.decision_us.end(), t.decision_us.begin(),
                             t.decision_us.end());
      out.audit_outcomes += t.audit_outcomes;
    }
  }
  out.wall_s = Since(start);
  return out;
}

// ---- Command line, checks and the result line. ----

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string span_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (key == "--workload") {
        args->workload = value;
      } else if (key == "--seed") {
        args->seed = std::stoull(value);
      } else if (key == "--seconds") {
        args->seconds = std::stod(value);
      } else if (key == "--trace") {
        if (value != "0" && value != "1") return false;
        args->trace = value == "1";
      } else if (key == "--span-out") {
        args->span_out = value;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0.0;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

// The result line's metrics: {"name": {"value": v, "unit": u}, ...}.
class Metrics {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
             unit + "\"}";
  }
  const std::string& body() const { return body_; }

 private:
  std::string body_;
};

// Sums over traced passes.
struct PassTotals {
  int passes = 0;
  LayerTotals layers;
  int64_t batches = 0;
  int64_t flush_deadline = 0;
  int64_t batch_records = 0;
  int64_t audit_outcomes = 0;
};

int Run(const Args& args) {
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) workload = &w;
  }
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  const Workload& w = *workload;
  auto task = data::FindTask(w.task);
  EVENTHIT_CHECK_OK(task.status());
  const fleet::FleetConfig config = MakeConfig(w, args.seed);

  // 1. Set-up: environment build + training, repeated.
  std::vector<double> setup_s, env_s, train_s;
  std::unique_ptr<eval::TrainedEventHit> trained;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const Clock::time_point start = Clock::now();
    const eval::TaskEnvironment env =
        eval::TaskEnvironment::Build(task.value(), config.runner);
    env_s.push_back(Since(start));
    const Clock::time_point train_start = Clock::now();
    const ExecutionContext train_ctx(config.threads, config.runner.seed);
    trained = std::make_unique<eval::TrainedEventHit>(
        eval::TrainEventHit(env, config.runner, 0.5, train_ctx));
    train_s.push_back(Since(train_start));
    setup_s.push_back(Since(start));
  }

  // 2. The product path, as `eventhit_cli fleet` runs it.
  fleet::StreamFleet product(task.value(), config);
  std::vector<double> fleet_fps;
  fleet::FleetRunResult reference;
  double fleet_spent_s = 0.0;
  for (int rep = 0; rep < kFleetMinReps || fleet_spent_s < kFleetMinSeconds;
       ++rep) {
    fleet::FleetRunResult run = product.Run();
    fleet_spent_s += run.stats.elapsed_seconds;
    fleet_fps.push_back(run.stats.frames_per_sec);
    if (rep == 0) {
      reference = std::move(run);
      continue;
    }
    for (size_t i = 0; i < run.streams.size(); ++i) {
      if (!fleet::SameStreamResult(run.streams[i], reference.streams[i])) {
        std::fprintf(stderr, "StreamFleet::Run repeat %d differs on stream "
                     "%zu\n", rep, i);
        return 1;
      }
    }
  }

  // 3. The serving path, wave by wave.
  obs::MetricsRegistry stream_metrics;
  obs::Logger stream_log;
  stream_log.set_min_level(obs::LogLevel::kError);
  const ExecutionContext exec(config.threads, config.base_seed);
  const ServeContext cx{&task.value(), &config,        &product,
                        trained.get(), &exec,          &stream_metrics,
                        &stream_log};
  nn::Workspace ws;
  SpanLog span_log(kMaxSpansPerThread);

  const int waves = (config.num_streams + config.wave_size - 1) /
                    config.wave_size;
  const double wave_budget_s = args.seconds / waves;
  double generate_s = 0.0;
  std::vector<double> serve_fps, traced_fps;
  std::vector<double> decision_us, wait_us;
  int64_t boundaries_served = 0;
  PassTotals traced_sweep;  // Traced totals per sweep of all waves.
  double traced_covered = 0.0, traced_budget = 0.0;

  for (int wave = 0; wave < waves; ++wave) {
    const int wave_start = wave * config.wave_size;
    const int wave_n =
        std::min(config.wave_size, config.num_streams - wave_start);
    std::vector<sim::SyntheticVideo> videos;
    {
      const Clock::time_point start = Clock::now();
      std::vector<std::unique_ptr<sim::SyntheticVideo>> generated(
          static_cast<size_t>(wave_n));
      exec.ParallelFor(static_cast<size_t>(wave_n), [&](size_t i) {
        const fleet::StreamSettings s =
            product.DeriveStreamSettings(wave_start + static_cast<int>(i));
        generated[i] = std::make_unique<sim::SyntheticVideo>(
            sim::SyntheticVideo::Generate(s.spec, s.video_seed));
      });
      videos.reserve(static_cast<size_t>(wave_n));
      for (auto& video : generated) videos.push_back(std::move(*video));
      generate_s += Since(start);
    }

    PassTotals traced;  // This wave's traced passes.
    double spent_s = 0.0;
    for (int pass = 0; spent_s < wave_budget_s || pass < 2; ++pass) {
      // Traced runs alternate traced and untraced passes; untraced runs
      // never trace.
      const bool traced_pass = args.trace && pass % 2 == 1;
      SpanLog* log = traced_pass ? &span_log : nullptr;
      PassOutput out = ServeWave(cx, wave_start, videos, ws, log);
      spent_s += out.wall_s;
      for (size_t i = 0; i < out.streams.size(); ++i) {
        const size_t stream = static_cast<size_t>(wave_start) + i;
        if (!fleet::SameStreamResult(out.streams[i],
                                     reference.streams[stream])) {
          std::fprintf(stderr, "identity check failed: stream %zu, wave %d, "
                       "pass %d (%s) differs from StreamFleet::Run\n", stream,
                       wave, pass, traced_pass ? "traced" : "untraced");
          return 1;
        }
      }
      const double fps = static_cast<double>(out.frames) / out.wall_s;
      if (traced_pass) {
        ++traced.passes;
        traced.batches += out.batches;
        traced.flush_deadline += out.flush_deadline;
        traced.batch_records += out.batch_records;
        traced.audit_outcomes += out.audit_outcomes;
        traced_fps.push_back(fps);
        const LayerTotals layers = span_log.TakeTotals();
        const double budget =
            out.wall_s + (exec.threads() - 1) * out.parallel_s;
        if (layers.Covered() > budget) {
          std::fprintf(stderr, "span reconciliation failed: layer self time "
                       "%.6f s exceeds serve time %.6f s (wave %d, pass %d)\n",
                       layers.Covered(), budget, wave, pass);
          return 1;
        }
        traced.layers.Add(layers);
        traced_covered += layers.Covered();
        traced_budget += budget;
        wait_us.insert(wait_us.end(), out.wait_us.begin(), out.wait_us.end());
      } else {
        serve_fps.push_back(fps);
        decision_us.insert(decision_us.end(), out.decision_us.begin(),
                           out.decision_us.end());
        boundaries_served += static_cast<int64_t>(out.decision_us.size());
      }
    }
    // Fold this wave's traced passes into per-sweep figures (every pass
    // over a wave does the same work, so the counts divide exactly).
    if (traced.passes > 0) {
      const int p = traced.passes;
      for (int l = 0; l < kLayerCount; ++l) {
        traced_sweep.layers.self_s[l] += traced.layers.self_s[l] / p;
        traced_sweep.layers.calls[l] += traced.layers.calls[l] / p;
      }
      traced_sweep.batches += traced.batches / p;
      traced_sweep.flush_deadline += traced.flush_deadline / p;
      traced_sweep.batch_records += traced.batch_records / p;
      traced_sweep.audit_outcomes += traced.audit_outcomes / p;
    }
  }

  // 4. Settled outcome of the tenant set (identical on every path).
  int64_t positives = 0, misses = 0, frames_seen = 0, frames_relayed = 0;
  int64_t frames_skipped = 0, horizons_reused = 0, horizons_predicted = 0;
  cloud::RelayStats relay;
  int64_t recal_swaps = 0;
  for (const fleet::FleetStreamResult& r : reference.streams) {
    positives += r.audit_positives;
    misses += r.audit_misses;
    frames_seen += r.marshaller.frames_seen;
    frames_relayed += r.marshaller.frames_relayed;
    frames_skipped += r.marshaller.frames_skipped;
    horizons_reused += r.marshaller.horizons_reused;
    horizons_predicted += r.marshaller.horizons_predicted;
    relay.orders_submitted += r.relay.orders_submitted;
    relay.orders_delivered += r.relay.orders_delivered;
    relay.orders_dropped += r.relay.orders_dropped;
    relay.frames_submitted += r.relay.frames_submitted;
    relay.attempts += r.relay.attempts;
    relay.retries += r.relay.retries;
    recal_swaps += r.recal_swaps;
  }

  const int64_t samples = static_cast<int64_t>(decision_us.size());
  const double tail = HighestSupportedPercentile(samples);
  if (tail < 99.0) {
    std::fprintf(stderr, "only %lld decision samples: p99 unsupported\n",
                 static_cast<long long>(samples));
    return 1;
  }
  const auto fps_q = Quartiles(serve_fps);
  std::fprintf(stderr, "StreamFleet::Run fps:");
  for (const double fps : fleet_fps) std::fprintf(stderr, " %.0f", fps);
  std::fprintf(stderr, "\n");
  std::fprintf(stderr,
               "%s seed %llu: %d waves, %zu untraced passes (serve fps q1 %.0f"
               " median %.0f q3 %.0f), %lld decision samples (highest "
               "supported percentile p%g = %.2f us), rec %.6f, relayed_frac "
               "%.6f, failed_frac %.6f (%lld of %lld orders dropped)\n",
               w.name, static_cast<unsigned long long>(args.seed), waves,
               serve_fps.size(), fps_q[0], fps_q[1], fps_q[2],
               static_cast<long long>(samples), tail,
               Percentile(decision_us, tail), Rec(positives, misses),
               static_cast<double>(frames_relayed) /
                   static_cast<double>(frames_seen),
               FailedFrac(relay.orders_dropped, relay.orders_submitted),
               static_cast<long long>(relay.orders_dropped),
               static_cast<long long>(relay.orders_submitted));

  Metrics m;
  if (!args.trace) {
    m.Add("serve_fps", Median(serve_fps), "1/s");
    m.Add("decision_p50_us", Percentile(decision_us, 50.0), "us");
    m.Add("decision_p99_us", Percentile(decision_us, 99.0), "us");
    m.Add("fleet_fps", Median(fleet_fps), "1/s");
    m.Add("setup_s", Median(setup_s), "s");
    m.Add("peak_rss_mb", PeakRssMb(), "MB");
    m.Add("rec", Rec(positives, misses), "ratio");
    m.Add("relayed_frac",
          static_cast<double>(frames_relayed) /
              static_cast<double>(frames_seen),
          "ratio");
    m.Add("order_ok_frac",
          1.0 - FailedFrac(relay.orders_dropped, relay.orders_submitted),
          "ratio");
  } else {
    const LayerTotals& L = traced_sweep.layers;
    for (int l = 0; l < kLayerCount; ++l) {
      m.Add(std::string(kLayerNames[l]) + "_s", L.self_s[l], "s");
    }
    const auto calls = [&](Layer l) {
      return static_cast<double>(L.calls[l]);
    };
    m.Add("sim.generate_s", generate_s, "s");
    m.Add("core.push_frames", static_cast<double>(frames_seen), "count");
    m.Add("core.frames_skipped", static_cast<double>(frames_skipped),
          "count");
    m.Add("core.completions", calls(kCoreComplete), "count");
    m.Add("fleet.batches", static_cast<double>(traced_sweep.batches),
          "count");
    m.Add("fleet.batch_fill",
          static_cast<double>(traced_sweep.batch_records) /
              static_cast<double>(traced_sweep.batches) /
              static_cast<double>(config.batch_size),
          "ratio");
    m.Add("fleet.flush_deadline_frac",
          static_cast<double>(traced_sweep.flush_deadline) /
              static_cast<double>(traced_sweep.batches),
          "ratio");
    m.Add("fleet.wait_us_p50", Percentile(wait_us, 50.0), "us");
    m.Add("fleet.wait_us_p99", Percentile(wait_us, 99.0), "us");
    m.Add("nn.predict_calls", calls(kNnPredict), "count");
    m.Add("nn.predict_records", static_cast<double>(traced_sweep.batch_records),
          "count");
    m.Add("nn.predict_us_per_record",
          L.self_s[kNnPredict] * 1e6 /
              static_cast<double>(traced_sweep.batch_records),
          "us");
    m.Add("cloud.orders", static_cast<double>(relay.orders_submitted),
          "count");
    m.Add("cloud.frames_submitted", static_cast<double>(relay.frames_submitted),
          "count");
    m.Add("cloud.attempts", static_cast<double>(relay.attempts), "count");
    m.Add("cloud.retries", static_cast<double>(relay.retries), "count");
    m.Add("cloud.orders_dropped", static_cast<double>(relay.orders_dropped),
          "count");
    m.Add("cloud.delivered_frac",
          relay.attempts > 0 ? static_cast<double>(relay.orders_delivered) /
                                   static_cast<double>(relay.attempts)
                             : 1.0,
          "ratio");
    m.Add("cloud.failed_frac",
          FailedFrac(relay.orders_dropped, relay.orders_submitted), "ratio");
    m.Add("obs.audit_outcomes",
          static_cast<double>(traced_sweep.audit_outcomes), "count");
    m.Add("adapt.swaps", static_cast<double>(recal_swaps), "count");
    m.Add("sched.horizons_scored",
          static_cast<double>(horizons_predicted - horizons_reused), "count");
    m.Add("sched.horizons_reused", static_cast<double>(horizons_reused),
          "count");
    m.Add("eval.env_build_s", Median(env_s), "s");
    m.Add("eval.train_s", Median(train_s), "s");
    m.Add("bench.unattributed_share", 1.0 - traced_covered / traced_budget,
          "ratio");
    m.Add("bench.trace_overhead", 1.0 - Median(traced_fps) / Median(serve_fps),
          "ratio");
    m.Add("bench.decision_samples", static_cast<double>(samples), "count");
    m.Add("bench.spans_logged", static_cast<double>(span_log.logged()),
          "count");
    if (!args.span_out.empty() && !span_log.Write(args.span_out)) {
      std::fprintf(stderr, "cannot write %s\n", args.span_out.c_str());
      return 1;
    }
  }
  std::printf("{\"correct\": true, \"attempted\": %lld, \"failed\": 0, "
              "\"metrics\": {%s}}\n",
              static_cast<long long>(boundaries_served), m.body().c_str());
  return 0;
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) {
  servebench::Args args;
  if (!servebench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: serve_bench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--span-out <path>]\n");
    return 2;
  }
  return servebench::Run(args);
}
