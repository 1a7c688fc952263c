#include "fleet/stream_fleet.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <optional>
#include <type_traits>
#include <utility>

#include "common/check.h"
#include "common/rng.h"
#include "common/table_printer.h"
#include "common/thread_pool.h"
#include "fleet/dynamic_batcher.h"
#include "fleet/mpsc_queue.h"
#include "fleet/shard_arena.h"
#include "obs/schema.h"
#include "sched/collect_policy.h"
#include "sched/cost_model.h"
#include "sim/datasets.h"
#include "sim/fault_injector.h"
#include "sim/synthetic_video.h"

namespace eventhit::fleet {
namespace {

// Seed-split salts for the per-stream component streams.
constexpr uint64_t kVideoSalt = 1;
constexpr uint64_t kCloudSalt = 2;
constexpr uint64_t kRelaySalt = 3;
constexpr uint64_t kPhaseSalt = 5;
constexpr uint64_t kMixSalt = 6;

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const size_t rank = static_cast<size_t>(
      q * static_cast<double>(values.size() - 1) + 0.5);
  std::nth_element(values.begin(), values.begin() + rank, values.end());
  return values[rank];
}

}  // namespace

Result<FleetConfig> ParseFleetFlags(const Flags& flags) {
  FleetConfig config;
  auto runner = eval::ParseRunnerFlags(flags);
  if (!runner.ok()) return runner.status();
  config.runner = runner.value();
  config.base_seed = config.runner.seed;
  // Reads each flag with its FleetConfig default; the first malformed one
  // becomes the result.
  Status status = OkStatus();
  const auto read = [&](auto parsed, auto* field) {
    if (parsed.ok()) {
      *field = static_cast<std::remove_pointer_t<decltype(field)>>(
          parsed.value());
    } else if (status.ok()) {
      status = parsed.status();
    }
  };
  read(flags.GetInt("streams", config.num_streams), &config.num_streams);
  read(flags.GetInt("frames", config.frames_per_stream),
       &config.frames_per_stream);
  int64_t batch = static_cast<int64_t>(config.batch_size);
  read(flags.GetInt("batch", batch), &batch);
  read(flags.GetInt("max-delay", config.max_batch_delay_ticks),
       &config.max_batch_delay_ticks);
  read(flags.GetInt("wave", config.wave_size), &config.wave_size);
  read(flags.GetInt("threads", config.threads), &config.threads);
  read(flags.GetDouble("confidence", config.confidence), &config.confidence);
  read(flags.GetDouble("coverage", config.coverage), &config.coverage);
  read(flags.GetInt("fault-seed", static_cast<int64_t>(config.fault_seed)),
       &config.fault_seed);
  double budget_cap_usd = 0.0;
  read(flags.GetDouble("budget-cap-usd", 0.0), &budget_cap_usd);
  if (!status.ok()) return status;
  if (batch < 1 || config.threads < 0) {
    return InvalidArgumentError("--batch must be >= 1, --threads >= 0");
  }
  config.batch_size = static_cast<size_t>(batch);
  config.budget_cap_microusd = static_cast<int64_t>(budget_cap_usd * 1e6);
  config.fault_profile = flags.GetString("fault-profile", "none");
  const auto mode =
      cloud::ParseDegradedMode(flags.GetString("degraded-mode", "drop"));
  if (!mode.ok()) return mode.status();
  const std::string recal = flags.GetString("recal", "off");
  const std::string provenance = flags.GetString("provenance", "on");
  if (recal != "on" && recal != "off") {
    return InvalidArgumentError("--recal must be on or off");
  }
  if (provenance != "on" && provenance != "off") {
    return InvalidArgumentError("--provenance must be on or off");
  }
  config.degraded_mode = mode.value();
  config.recal = recal == "on";
  config.provenance = provenance == "on";
  return config;
}

Status ValidateFleetConfig(const data::Task& task, const FleetConfig& config) {
  if (config.num_streams < 1 || config.batch_size < 1 ||
      config.wave_size < 1) {
    return InvalidArgumentError(
        "fleet: --streams, --batch and --wave must be >= 1");
  }
  if (config.max_batch_delay_ticks < 0 || config.frames_per_stream < 0) {
    return InvalidArgumentError(
        "fleet: --max-delay and --frames must be >= 0");
  }
  const auto profile =
      sim::MakeFaultProfile(config.fault_profile, config.fault_seed);
  if (!profile.ok()) return profile.status();
  const sim::DatasetSpec spec = sim::MakeDatasetSpec(task.dataset);
  const int64_t frames = config.frames_per_stream > 0
                             ? config.frames_per_stream
                             : spec.num_frames;
  const int64_t margin = static_cast<int64_t>(spec.horizon) +
                         static_cast<int64_t>(spec.collection_window);
  if (frames <= margin) {
    return InvalidArgumentError(
        "fleet: --frames=" + std::to_string(frames) + " must exceed H + M = " +
        std::to_string(margin) + " on " + task.name +
        " so every stream reaches a prediction boundary");
  }
  if (config.runner.collect_policy.kind != sched::CollectPolicyKind::kFull &&
      config.max_batch_delay_ticks >= spec.horizon) {
    return InvalidArgumentError(
        "fleet: --collect-policy=" +
        sched::CollectPolicyName(config.runner.collect_policy) +
        " needs --max-delay < H = " + std::to_string(spec.horizon) +
        " (the policy schedules on completed scores)");
  }
  return OkStatus();
}

// Per-stream arena slot: the stream's session plus the fleet-side
// scheduling state. The arena keeps adjacent slots off each other's cache
// lines while parallel phases mutate them.
struct StreamFleet::Shard {
  std::unique_ptr<sim::SyntheticVideo> video;
  int64_t phase = 0;  // Fleet tick the stream starts pushing.
  std::optional<StreamSession> session;
  int64_t seq = 0;       // Requests issued.
  data::Record pending;  // Scratch between push and enqueue.
};

StreamFleet::StreamFleet(const data::Task& task, const FleetConfig& config,
                         obs::MetricsRegistry* metrics,
                         obs::TraceBuffer* trace)
    : task_(task),
      config_(config),
      metrics_(metrics != nullptr ? metrics
                                  : &obs::MetricsRegistry::Global()),
      trace_(trace) {
  EVENTHIT_CHECK_OK(ValidateFleetConfig(task_, config_));
  threads_ = config_.threads <= 0 ? ThreadPool::DefaultThreads()
                                  : config_.threads;

  stream_metrics_ = std::make_unique<obs::MetricsRegistry>();
  stream_log_ = std::make_unique<obs::Logger>();
  stream_log_->set_min_level(obs::LogLevel::kError);

  // One shared model for the whole fleet, trained on the task's canonical
  // environment (training is independent of the per-stream specs).
  env_ = std::make_unique<eval::TaskEnvironment>(
      eval::TaskEnvironment::Build(task_, config_.runner));
  const ExecutionContext train_ctx(threads_, config_.runner.seed);
  trained_ = std::make_unique<eval::TrainedEventHit>(
      eval::TrainEventHit(*env_, config_.runner, 0.5, train_ctx));

  strategy_ = std::make_unique<core::EventHitStrategy>(
      eval::MakeEhcr(*trained_, config_.confidence, config_.coverage));

  SessionSpec& spec = session_spec_;
  spec.task = &task_;
  spec.model = trained_->model.get();
  spec.strategy = strategy_.get();
  spec.audit.confidence = config_.confidence;
  spec.audit.coverage = config_.coverage;
  spec.fault_profile = config_.fault_profile;
  spec.degraded_mode = config_.degraded_mode;
  spec.collect_policy = config_.runner.collect_policy;
  spec.recal = config_.recal;
  spec.recal_config = config_.recal_config;
  spec.provenance = config_.provenance;
  spec.provenance_ring = config_.provenance_ring;
  spec.export_provenance_records = config_.collect_provenance_records;
  spec.metrics = stream_metrics_.get();
  spec.log = stream_log_.get();
  spec.spend_microusd = &budget_spend_microusd_;

  streams_completed_metric_ =
      metrics_->GetCounter(obs::names::kFleetStreamsCompleted);
  frames_pushed_metric_ =
      metrics_->GetCounter(obs::names::kFleetFramesPushed);
  requests_metric_ =
      metrics_->GetCounter(obs::names::kFleetRequestsSubmitted);
  batches_metric_ = metrics_->GetCounter(obs::names::kFleetBatchesFlushed);
  flush_full_metric_ =
      metrics_->GetCounter(obs::names::kFleetBatchesFlushFull);
  flush_deadline_metric_ =
      metrics_->GetCounter(obs::names::kFleetBatchesFlushDeadline);
  flush_final_metric_ =
      metrics_->GetCounter(obs::names::kFleetBatchesFlushFinal);
  budget_breaches_metric_ =
      metrics_->GetCounter(obs::names::kFleetBudgetBreaches);
  streams_active_metric_ =
      metrics_->GetGauge(obs::names::kFleetStreamsActive);
  budget_spend_metric_ =
      metrics_->GetGauge(obs::names::kFleetBudgetSpendUsd);
  batch_fill_metric_ = metrics_->GetHistogram(obs::names::kFleetBatchFill,
                                              obs::BatchSizeBounds());
  request_delay_metric_ = metrics_->GetHistogram(
      obs::names::kFleetRequestDelayTicks, obs::DelayTickBounds());
}

StreamFleet::~StreamFleet() = default;

StreamSettings StreamFleet::DeriveStreamSettings(int stream_index) const {
  EVENTHIT_CHECK_GE(stream_index, 0);
  EVENTHIT_CHECK_LT(stream_index, config_.num_streams);
  StreamSettings s;
  s.stream_index = stream_index;
  s.stream_seed =
      SplitSeed(config_.base_seed, static_cast<uint64_t>(stream_index) + 1);
  s.video_seed = SplitSeed(s.stream_seed, kVideoSalt);
  s.cloud_seed = SplitSeed(s.stream_seed, kCloudSalt);
  s.relay_seed = SplitSeed(s.stream_seed, kRelaySalt);
  s.fault_seed =
      SplitSeed(config_.fault_seed, static_cast<uint64_t>(stream_index));
  s.phase = config_.stagger_phases
                ? static_cast<int64_t>(SplitSeed(s.stream_seed, kPhaseSalt) %
                                       static_cast<uint64_t>(kStaggerWindow))
                : 0;
  static constexpr double kGapScales[] = {0.75, 1.0, 1.5};
  s.gap_scale = kGapScales[SplitSeed(s.stream_seed, kMixSalt) % 3];
  s.spec = sim::MakeDatasetSpec(task_.dataset);
  if (config_.frames_per_stream > 0) {
    s.spec.num_frames = config_.frames_per_stream;
  }
  for (auto& event : s.spec.events) {
    event.mean_gap *= s.gap_scale;
  }
  const int64_t margin = static_cast<int64_t>(s.spec.horizon) +
                         static_cast<int64_t>(s.spec.collection_window);
  EVENTHIT_CHECK_GT(s.spec.num_frames, margin);
  s.push_frames = s.spec.num_frames - s.spec.horizon;
  return s;
}

void StreamFleet::OpenShard(Shard& shard, int stream_index) {
  const StreamSettings s = DeriveStreamSettings(stream_index);
  if (config_.runner.collect_policy.kind != sched::CollectPolicyKind::kFull) {
    // The policy's schedule feeds on completed scores, so batching delay
    // must stay under one horizon (Marshaller::set_collect_policy).
    EVENTHIT_CHECK_LT(config_.max_batch_delay_ticks,
                      static_cast<int64_t>(s.spec.horizon));
  }
  // Per-tenant Perfetto track on the simulated timeline: tenant spans
  // (auditor breaches) carry tid = stream index, and the thread_name
  // metadata record labels that track in the exported trace.
  if (trace_ != nullptr) {
    trace_->SetThreadName(obs::kSimulatedPid, stream_index,
                          "tenant" + std::to_string(stream_index));
  }
  shard.video = std::make_unique<sim::SyntheticVideo>(
      sim::SyntheticVideo::Generate(s.spec, s.video_seed));
  shard.phase = s.phase;
  SessionSpec spec = session_spec_;
  spec.stream_index = stream_index;
  spec.video = shard.video.get();
  spec.cloud_seed = s.cloud_seed;
  spec.relay_seed = s.relay_seed;
  spec.fault_seed = s.fault_seed;
  shard.session.emplace(std::move(spec));
}

FleetRunResult StreamFleet::Run() {
  const auto run_start = std::chrono::steady_clock::now();
  const ExecutionContext ctx(threads_, config_.base_seed);
  // The accountant belongs to this run: earlier Run()/RunStreamSolo calls
  // on the same fleet must not carry their spend into it.
  budget_spend_microusd_.store(0, std::memory_order_relaxed);

  FleetRunResult run;
  run.streams.resize(static_cast<size_t>(config_.num_streams));
  FleetRunStats& stats = run.stats;
  stats.streams = config_.num_streams;

  std::vector<double> tick_us;
  std::vector<double> frame_us;
  int64_t batch_fill_sum = 0;

  for (int wave_start = 0; wave_start < config_.num_streams;
       wave_start += config_.wave_size) {
    const int wave_n =
        std::min(config_.wave_size, config_.num_streams - wave_start);
    ShardArena<Shard> arena(static_cast<size_t>(wave_n));
    ctx.ParallelFor(static_cast<size_t>(wave_n), [&](size_t i) {
      OpenShard(arena[i], wave_start + static_cast<int>(i));
    });

    // Tick bounds and per-tick active-stream counts (difference array).
    int64_t max_ticks = 0;
    for (int i = 0; i < wave_n; ++i) {
      const Shard& shard = arena[static_cast<size_t>(i)];
      max_ticks =
          std::max(max_ticks, shard.phase + shard.session->push_frames());
    }
    std::vector<int64_t> active_delta(static_cast<size_t>(max_ticks) + 1, 0);
    for (int i = 0; i < wave_n; ++i) {
      const Shard& shard = arena[static_cast<size_t>(i)];
      active_delta[static_cast<size_t>(shard.phase)] += 1;
      active_delta[static_cast<size_t>(shard.phase +
                                       shard.session->push_frames())] -= 1;
    }

    MpscQueue<InferenceRequest> queue(static_cast<size_t>(wave_n));
    DynamicBatcher batcher(config_.batch_size,
                           config_.max_batch_delay_ticks);
    std::vector<InferenceRequest> drained;
    drained.reserve(static_cast<size_t>(wave_n));

    int64_t active = 0;
    for (int64_t tick = 0; tick < max_ticks; ++tick) {
      const auto tick_start = std::chrono::steady_clock::now();
      active += active_delta[static_cast<size_t>(tick)];
      streams_active_metric_->Set(static_cast<double>(active));

      // Push phase: every resident stream advances one local frame; the
      // prediction boundaries fan into the MPSC queue.
      ctx.ParallelFor(static_cast<size_t>(wave_n), [&](size_t i) {
        Shard& shard = arena[i];
        const int64_t frame = tick - shard.phase;
        if (frame < 0 || frame >= shard.session->push_frames()) return;
        if (shard.session->Push(frame, &shard.pending)) {
          InferenceRequest request;
          request.shard_slot = static_cast<int>(i);
          request.seq = shard.seq++;
          request.anchor_frame = shard.pending.frame;
          request.enqueue_tick = tick;
          request.record = std::move(shard.pending);
          EVENTHIT_CHECK(queue.TryPush(std::move(request)));
        }
      });

      // Batching phase (serial): canonical order, then flush decisions.
      drained.clear();
      queue.DrainTo(&drained);
      std::sort(drained.begin(), drained.end(),
                [](const InferenceRequest& a, const InferenceRequest& b) {
                  return a.shard_slot < b.shard_slot;
                });
      requests_metric_->Add(static_cast<int64_t>(drained.size()));
      stats.requests += static_cast<int64_t>(drained.size());
      for (auto& request : drained) {
        batcher.Enqueue(std::move(request));
      }

      const bool final_tick = tick == max_ticks - 1;
      for (BatchFlush& flush : batcher.TakeReady(tick, final_tick)) {
        obs::TraceSpan span(trace_, obs::names::kSpanFleetBatch, "fleet");
        const size_t n = flush.requests.size();
        int8_t flush_code = obs::kProvFlushFinal;
        obs::Counter* flush_metric = flush_final_metric_;
        int64_t* flush_count = &stats.flush_final;
        if (flush.reason == FlushReason::kFull) {
          flush_code = obs::kProvFlushFull;
          flush_metric = flush_full_metric_;
          flush_count = &stats.flush_full;
        } else if (flush.reason == FlushReason::kDeadline) {
          flush_code = obs::kProvFlushDeadline;
          flush_metric = flush_deadline_metric_;
          flush_count = &stats.flush_deadline;
        }
        // Batch ordinal within this run — stamped onto every member's
        // provenance record (never the digest: batch placement is a fleet
        // scheduling artifact, not part of the clock-pure chain).
        const int64_t batch_id = stats.batches;
        std::vector<data::Record> records;
        records.reserve(n);
        for (auto& request : flush.requests) {
          request_delay_metric_->Observe(
              static_cast<double>(tick - request.enqueue_tick));
          records.push_back(std::move(request.record));
        }
        std::vector<core::EventScores> scores(n);
        trained_->model->PredictBatched(records.data(), n, scores.data(),
                                        ws_);
        // Group completions by shard (order within a shard is preserved),
        // then complete shard groups concurrently: different groups touch
        // disjoint sessions, and each session decides with its own
        // strategy, so no shared-strategy serial pass is needed.
        std::vector<std::pair<size_t, size_t>> groups;  // [begin, end)
        for (size_t j = 0; j < n;) {
          size_t end = j + 1;
          while (end < n && flush.requests[end].shard_slot ==
                                flush.requests[j].shard_slot) {
            ++end;
          }
          groups.emplace_back(j, end);
          j = end;
        }
        ctx.ParallelFor(groups.size(), [&](size_t g) {
          for (size_t j = groups[g].first; j < groups[g].second; ++j) {
            const InferenceRequest& request = flush.requests[j];
            arena[static_cast<size_t>(request.shard_slot)].session->Complete(
                scores[j], BatchStamp{batch_id, flush_code,
                                      tick - request.enqueue_tick});
          }
        });

        batches_metric_->Add(1);
        batch_fill_metric_->Observe(static_cast<double>(n));
        batch_fill_sum += static_cast<int64_t>(n);
        ++stats.batches;
        flush_metric->Add(1);
        ++*flush_count;
      }

      // Serial tick boundary: frame accounting and the budget accountant.
      frames_pushed_metric_->Add(active);
      stats.frames_pushed += active;
      const int64_t spend =
          budget_spend_microusd_.load(std::memory_order_relaxed);
      budget_spend_metric_->Set(static_cast<double>(spend) * 1e-6);
      if (config_.budget_cap_microusd > 0 &&
          spend >= config_.budget_cap_microusd &&
          stats.budget_breach_tick < 0) {
        stats.budget_breach_tick = tick;
        budget_breaches_metric_->Add(1);
      }

      ++stats.ticks;
      const double us = std::chrono::duration<double, std::micro>(
                            std::chrono::steady_clock::now() - tick_start)
                            .count();
      tick_us.push_back(us);
      frame_us.push_back(us /
                         static_cast<double>(std::max<int64_t>(1, active)));
    }

    EVENTHIT_CHECK_EQ(batcher.pending(), 0u);
    ctx.ParallelFor(static_cast<size_t>(wave_n), [&](size_t i) {
      run.streams[static_cast<size_t>(wave_start) + i] =
          arena[i].session->Finish();
    });
    streams_completed_metric_->Add(wave_n);
    streams_active_metric_->Set(0.0);
  }

  // Fold the per-tenant audit totals into the exported registry, serially
  // in stream order so the snapshot (values AND exemplars — the last
  // offending stream's last offending decision id) is deterministic at any
  // thread count. The per-stream auditors themselves write to the private
  // stream registry; this is the fleet-wide aggregate a scrape sees.
  obs::Counter* misses = metrics_->GetCounter(obs::names::kAuditMisses);
  obs::Counter* miscovered =
      metrics_->GetCounter(obs::names::kAuditMiscovered);
  obs::Counter* breaches = metrics_->GetCounter(obs::names::kAuditBreaches);
  const auto fold = [](obs::Counter* counter, int64_t count,
                       int64_t exemplar) {
    if (count <= 0) return;
    if (exemplar >= 0) {
      counter->Add(count, exemplar);
    } else {
      counter->Add(count);
    }
  };
  for (const FleetStreamResult& result : run.streams) {
    stats.total_cost_usd += result.invoice.total_cost_usd;
    if (result.audit_breaches > 0) ++stats.streams_with_breaches;
    fold(misses, result.audit_misses, result.last_miss_decision);
    fold(miscovered, result.audit_miscovered, result.last_miscover_decision);
    fold(breaches, result.audit_breaches, result.last_breach_decision);
  }
  stats.budget_spend_microusd =
      budget_spend_microusd_.load(std::memory_order_relaxed);
  stats.batch_fill_mean =
      stats.batches > 0
          ? static_cast<double>(batch_fill_sum) /
                static_cast<double>(stats.batches)
          : 0.0;
  stats.elapsed_seconds = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - run_start)
                              .count();
  if (stats.elapsed_seconds > 0.0) {
    stats.streams_per_sec =
        static_cast<double>(stats.streams) / stats.elapsed_seconds;
    stats.frames_per_sec =
        static_cast<double>(stats.frames_pushed) / stats.elapsed_seconds;
  }
  stats.p50_tick_us = Percentile(tick_us, 0.50);
  stats.p99_tick_us = Percentile(tick_us, 0.99);
  stats.p50_frame_us = Percentile(frame_us, 0.50);
  stats.p99_frame_us = Percentile(frame_us, 0.99);
  return run;
}

FleetStreamResult StreamFleet::RunStreamSolo(int stream_index) {
  Shard shard;
  OpenShard(shard, stream_index);
  return shard.session->RunSolo();
}

FleetHealthReport BuildHealthReport(const FleetRunResult& run) {
  FleetHealthReport report;
  report.streams_total = static_cast<int64_t>(run.streams.size());
  report.streams.reserve(run.streams.size());
  for (const FleetStreamResult& result : run.streams) {
    StreamHealth h;
    h.stream_index = result.stream_index;
    h.boundaries = result.provenance_boundaries;
    const int64_t scored = result.marshaller.horizons_predicted;
    const int64_t total = scored + result.marshaller.horizons_reused;
    h.duty_cycle = total > 0
                       ? static_cast<double>(scored) /
                             static_cast<double>(total)
                       : 1.0;
    h.miss_rate = result.audit_positives > 0
                      ? static_cast<double>(result.audit_misses) /
                            static_cast<double>(result.audit_positives)
                      : 0.0;
    h.miscover_rate =
        result.audit_endpoints > 0
            ? static_cast<double>(result.audit_miscovered) /
                  static_cast<double>(result.audit_endpoints)
            : 0.0;
    h.breaches = result.audit_breaches;
    h.recal_swaps = result.recal_swaps;
    h.relay_dropped_orders = result.relay.orders_dropped;
    h.relay_drop_rate =
        result.relay.orders_submitted > 0
            ? static_cast<double>(result.relay.orders_dropped) /
                  static_cast<double>(result.relay.orders_submitted)
            : 0.0;
    h.breaker_state = result.provenance_rollup.last_breaker_state;
    h.residency_p50 = result.provenance_rollup.ResidencyPercentile(0.50);
    h.residency_p99 = result.provenance_rollup.ResidencyPercentile(0.99);
    h.spend_usd = result.invoice.total_cost_usd;
    // Triage score: a latched breach outranks everything, a non-closed
    // breaker outranks rate pressure, and the continuous terms order the
    // remainder. Every input is deterministic, so the sort is too.
    h.badness = 1e6 * static_cast<double>(h.breaches) +
                1e5 * (h.breaker_state != 0 ? 1.0 : 0.0) +
                1e4 * h.miss_rate + 1e4 * h.miscover_rate +
                1e3 * h.relay_drop_rate + h.residency_p99;

    report.streams_with_breaches += h.breaches > 0 ? 1 : 0;
    report.streams_breaker_open += h.breaker_state != 0 ? 1 : 0;
    report.total_breaches += h.breaches;
    report.total_relay_dropped += h.relay_dropped_orders;
    report.total_recal_swaps += h.recal_swaps;
    report.total_spend_usd += h.spend_usd;
    report.mean_duty_cycle += h.duty_cycle;
    report.worst_miss_rate = std::max(report.worst_miss_rate, h.miss_rate);
    report.worst_miscover_rate =
        std::max(report.worst_miscover_rate, h.miscover_rate);
    report.streams.push_back(h);
  }
  if (report.streams_total > 0) {
    report.mean_duty_cycle /= static_cast<double>(report.streams_total);
  }
  std::sort(report.streams.begin(), report.streams.end(),
            [](const StreamHealth& a, const StreamHealth& b) {
              if (a.badness != b.badness) return a.badness > b.badness;
              return a.stream_index < b.stream_index;
            });
  return report;
}

std::string HealthReportText(const FleetHealthReport& report, int top_n) {
  std::string out;
  out += "fleet health: " + std::to_string(report.streams_total) +
         " streams, " + std::to_string(report.streams_with_breaches) +
         " with breaches, " + std::to_string(report.streams_breaker_open) +
         " with breaker not closed\n";
  out += "  total breaches " + std::to_string(report.total_breaches) +
         ", relay orders dropped " +
         std::to_string(report.total_relay_dropped) + ", recal swaps " +
         std::to_string(report.total_recal_swaps) + "\n";
  out += "  mean duty cycle " + Fmt(report.mean_duty_cycle, 3) +
         ", worst miss rate " + Fmt(report.worst_miss_rate, 3) +
         ", worst miscoverage " + Fmt(report.worst_miscover_rate, 3) +
         ", spend $" + Fmt(report.total_spend_usd, 4) + "\n";
  const size_t rows = std::min<size_t>(
      report.streams.size(),
      static_cast<size_t>(std::max(0, top_n)));
  if (rows == 0) return out;
  out += "  worst " + std::to_string(rows) + " streams:\n";
  out += "    stream  breach  brk        duty   miss   miscov  drop   "
         "res_p99  swaps\n";
  for (size_t i = 0; i < rows; ++i) {
    const StreamHealth& h = report.streams[i];
    char line[160];
    std::snprintf(line, sizeof(line),
                  "    %-7d %-7lld %-10s %-6.3f %-6.3f %-7.3f %-6.3f "
                  "%-8.1f %lld\n",
                  h.stream_index, static_cast<long long>(h.breaches),
                  obs::ProvenanceBreakerName(h.breaker_state), h.duty_cycle,
                  h.miss_rate, h.miscover_rate, h.relay_drop_rate,
                  h.residency_p99, static_cast<long long>(h.recal_swaps));
    out += line;
  }
  return out;
}

std::string StreamHealthJson(const StreamHealth& h) {
  std::string out = "{";
  auto field = [&out](const char* key, const std::string& value) {
    if (out.size() > 1) out += ',';
    out += '"';
    out += key;
    out += "\":";
    out += value;
  };
  field("stream", std::to_string(h.stream_index));
  field("boundaries", std::to_string(h.boundaries));
  field("duty_cycle", Fmt(h.duty_cycle, 6));
  field("miss_rate", Fmt(h.miss_rate, 6));
  field("miscover_rate", Fmt(h.miscover_rate, 6));
  field("breaches", std::to_string(h.breaches));
  field("recal_swaps", std::to_string(h.recal_swaps));
  field("relay_dropped_orders", std::to_string(h.relay_dropped_orders));
  field("relay_drop_rate", Fmt(h.relay_drop_rate, 6));
  field("breaker_state",
        "\"" + std::string(obs::ProvenanceBreakerName(h.breaker_state)) +
            "\"");
  field("residency_p50", Fmt(h.residency_p50, 1));
  field("residency_p99", Fmt(h.residency_p99, 1));
  field("spend_usd", Fmt(h.spend_usd, 6));
  field("badness", Fmt(h.badness, 3));
  out += '}';
  return out;
}

}  // namespace eventhit::fleet
