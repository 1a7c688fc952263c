// The stream fleet's determinism contract (DESIGN.md §5g): every stream's
// marshalled intervals, relay accounting, invoice and audit state must be
// byte-identical between the cross-stream batched fleet run and the same
// stream run solo with the same seed — at any thread count, batch size,
// wave size or flush timing. Plus unit coverage of the batcher's flush
// rules and the shard arena's alignment guarantee.
#include "fleet/stream_fleet.h"

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/flags.h"
#include "common/status.h"
#include "data/tasks.h"
#include "fleet/dynamic_batcher.h"
#include "fleet/shard_arena.h"
#include "obs/schema.h"
#include "obs/trace.h"
#include "sched/collect_policy.h"

namespace eventhit::fleet {
namespace {

// Cheap shared-model training + short streams: the contract is structural,
// so small numbers exercise it as well as big ones.
FleetConfig TestConfig() {
  FleetConfig config;
  config.num_streams = 6;
  config.base_seed = 77;
  config.frames_per_stream = 700;  // push 500 frames -> 3 horizons (H=200).
  config.batch_size = 4;
  config.max_batch_delay_ticks = 3;
  config.wave_size = 4;  // Forces a partial second wave.
  config.runner.stream_frames_override = 30000;
  config.runner.train_records = 80;
  config.runner.calib_records = 120;
  config.runner.test_records = 60;
  config.runner.model_template.epochs = 4;
  config.runner.seed = 77;
  return config;
}

TEST(StreamFleetTest, FleetRunIsBitIdenticalToSoloStreams) {
  const data::Task task = data::FindTask("TA10").value();
  StreamFleet fleet(task, TestConfig());
  const FleetRunResult run = fleet.Run();
  ASSERT_EQ(run.streams.size(), 6u);
  for (int s = 0; s < 6; ++s) {
    const FleetStreamResult solo = fleet.RunStreamSolo(s);
    EXPECT_TRUE(SameStreamResult(run.streams[static_cast<size_t>(s)], solo))
        << "stream " << s;
  }
  // Distinct streams genuinely differ (seeds decorrelate the tenants).
  // Decision digests may coincide when the tiny model predicts "no event"
  // at every anchor, so compare the state digest: it folds the audit
  // against each stream's own ground truth, which the video seeds vary.
  EXPECT_NE(run.streams[0].state_digest, run.streams[1].state_digest);
}

// The solo/fleet contract must survive per-stream recalibration loops
// (DESIGN.md §5j): loop state is private to each stream, so hot swaps on
// one tenant cannot leak into another, and a swap-bearing fleet run is
// still bit-identical to the solo replays at any thread count. The loop
// knobs are cranked (floor guards, hair-trigger martingale) so swaps
// actually happen at this tiny scale.
TEST(StreamFleetTest, RecalArmedFleetStaysBitIdenticalToSolo) {
  const data::Task task = data::FindTask("TA10").value();
  FleetConfig config = TestConfig();
  config.frames_per_stream = 10200;  // 50 boundaries per stream (H=200).
  config.recal = true;
  config.recal_config.window_capacity = 32;
  config.recal_config.min_records = 1;
  config.recal_config.min_positives = 1;
  config.recal_config.cooldown_frames = 400;
  // Hair trigger: with epsilon=0.5 any positive record whose p-value under
  // the live calibration dips below 0.25 yields a positive martingale
  // increment, and a single increment crosses the threshold.
  config.recal_config.drift.epsilon = 0.5;
  config.recal_config.drift.log_threshold = 0.01;
  StreamFleet fleet(task, config);
  const FleetRunResult run = fleet.Run();
  ASSERT_EQ(run.streams.size(), 6u);

  int64_t total_swaps = 0;
  for (int s = 0; s < 6; ++s) {
    const auto& stream = run.streams[static_cast<size_t>(s)];
    total_swaps += stream.recal_swaps;
    const FleetStreamResult solo = fleet.RunStreamSolo(s);
    EXPECT_TRUE(SameStreamResult(stream, solo)) << "stream " << s;
  }
  // The parity must be exercised through real swaps, not vacuously.
  EXPECT_GE(total_swaps, 1);

  // And the batched schedule still must not matter with loops armed.
  FleetConfig threaded = config;
  threaded.threads = 4;
  threaded.batch_size = 16;
  threaded.max_batch_delay_ticks = 9;
  StreamFleet threaded_fleet(task, threaded);
  const FleetRunResult threaded_run = threaded_fleet.Run();
  for (size_t s = 0; s < run.streams.size(); ++s) {
    EXPECT_TRUE(SameStreamResult(run.streams[s], threaded_run.streams[s]))
        << "stream " << s;
  }
}

TEST(StreamFleetTest, ResultsInvariantToThreadsBatchWaveAndDelay) {
  const data::Task task = data::FindTask("TA10").value();
  const FleetConfig base = TestConfig();
  StreamFleet reference(task, base);
  const FleetRunResult expected = reference.Run();

  // Each variation re-batches and re-schedules everything the contract
  // says must not matter; the per-stream results must not move by a bit.
  std::vector<FleetConfig> variants;
  {
    FleetConfig c = base;
    c.threads = 4;
    variants.push_back(c);
  }
  {
    FleetConfig c = base;
    c.batch_size = 16;
    c.max_batch_delay_ticks = 9;
    variants.push_back(c);
  }
  {
    FleetConfig c = base;
    c.wave_size = 6;  // Single wave.
    c.batch_size = 1;  // Every request flushes alone.
    variants.push_back(c);
  }
  {
    FleetConfig c = base;
    c.threads = 4;
    c.wave_size = 2;
    c.stagger_phases = false;  // All tenants aligned: max flush pressure.
    variants.push_back(c);
  }
  for (size_t v = 0; v < variants.size(); ++v) {
    StreamFleet fleet(task, variants[v]);
    const FleetRunResult run = fleet.Run();
    ASSERT_EQ(run.streams.size(), expected.streams.size());
    for (size_t s = 0; s < run.streams.size(); ++s) {
      // Phase staggering only shifts fleet ticks, never local stream
      // clocks, so even variant 3 must reproduce every stream.
      EXPECT_TRUE(SameStreamResult(run.streams[s], expected.streams[s]))
          << "variant " << v << " stream " << s;
    }
  }
}

TEST(StreamFleetTest, DeriveStreamSettingsIsPureAndDecorrelated) {
  const data::Task task = data::FindTask("TA10").value();
  StreamFleet fleet(task, TestConfig());
  const StreamSettings a = fleet.DeriveStreamSettings(3);
  const StreamSettings b = fleet.DeriveStreamSettings(3);
  EXPECT_EQ(a.stream_seed, b.stream_seed);
  EXPECT_EQ(a.video_seed, b.video_seed);
  EXPECT_EQ(a.phase, b.phase);
  EXPECT_EQ(a.gap_scale, b.gap_scale);
  const StreamSettings other = fleet.DeriveStreamSettings(4);
  EXPECT_NE(a.stream_seed, other.stream_seed);
  EXPECT_NE(a.video_seed, other.video_seed);
  // Per-stream sub-seeds are themselves decorrelated.
  EXPECT_NE(a.video_seed, a.cloud_seed);
  EXPECT_NE(a.cloud_seed, a.relay_seed);
}

TEST(StreamFleetTest, FleetMetricsUpholdFlushAndFrameInvariants) {
  const data::Task task = data::FindTask("TA10").value();
  obs::MetricsRegistry metrics;
  obs::TraceBuffer trace(4096);
  StreamFleet fleet(task, TestConfig(), &metrics, &trace);
  const FleetRunResult run = fleet.Run();

  const auto counter = [&](const char* name) {
    return metrics.GetCounter(name)->Value();
  };
  EXPECT_EQ(counter(obs::names::kFleetStreamsCompleted), 6);
  EXPECT_EQ(counter(obs::names::kFleetFramesPushed),
            run.stats.frames_pushed);
  EXPECT_EQ(counter(obs::names::kFleetRequestsSubmitted),
            run.stats.requests);
  // Flush-reason counters partition the batch counter.
  EXPECT_EQ(counter(obs::names::kFleetBatchesFlushed),
            counter(obs::names::kFleetBatchesFlushFull) +
                counter(obs::names::kFleetBatchesFlushDeadline) +
                counter(obs::names::kFleetBatchesFlushFinal));
  EXPECT_EQ(counter(obs::names::kFleetBatchesFlushed), run.stats.batches);
  // Every request flushed in exactly one batch.
  int64_t batched = 0;
  for (const auto& h : metrics.Snapshot().histograms) {
    if (h.name == obs::names::kFleetBatchFill) batched += h.count;
  }
  EXPECT_EQ(batched, run.stats.batches);
  // One fleet.batch span per flush.
  int64_t spans = 0;
  for (const auto& event : trace.Events()) {
    if (event.name == obs::names::kSpanFleetBatch) ++spans;
  }
  EXPECT_EQ(spans, run.stats.batches);
}

TEST(StreamFleetTest, BudgetAccountantLatchesBreachWithoutFeedback) {
  const data::Task task = data::FindTask("TA10").value();
  FleetConfig capped = TestConfig();
  capped.budget_cap_microusd = 1;  // Crossed by the first billed frame.
  StreamFleet capped_fleet(task, capped);
  const FleetRunResult capped_run = capped_fleet.Run();

  FleetConfig uncapped = TestConfig();
  StreamFleet uncapped_fleet(task, uncapped);
  const FleetRunResult uncapped_run = uncapped_fleet.Run();

  // The cap is observational: it latches a breach tick but per-stream
  // results are untouched (enforcement would break solo determinism).
  if (capped_run.stats.budget_spend_microusd > 0) {
    EXPECT_GE(capped_run.stats.budget_breach_tick, 0);
  }
  EXPECT_EQ(uncapped_run.stats.budget_breach_tick, -1);
  EXPECT_EQ(capped_run.stats.budget_spend_microusd,
            uncapped_run.stats.budget_spend_microusd);
  ASSERT_EQ(capped_run.streams.size(), uncapped_run.streams.size());
  for (size_t s = 0; s < capped_run.streams.size(); ++s) {
    EXPECT_TRUE(
        SameStreamResult(capped_run.streams[s], uncapped_run.streams[s]))
        << "stream " << s;
  }
}

// Bad knobs fail validation — the check StreamFleet's constructor and the
// CLI run before any model is trained — with InvalidArgument, one case per
// input that used to train first and then abort inside a stream.
void ExpectInvalid(const FleetConfig& config, const std::string& needle) {
  const Status status =
      ValidateFleetConfig(data::FindTask("TA10").value(), config);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find(needle), std::string::npos)
      << status.message();
}

TEST(FleetConfigTest, UnknownFaultProfileIsRejected) {
  FleetConfig config = TestConfig();
  config.fault_profile = "flakey";
  ExpectInvalid(config, "unknown fault profile");
  config.fault_profile = "flaky";
  EXPECT_TRUE(ValidateFleetConfig(data::FindTask("TA10").value(), config)
                  .ok());
}

TEST(FleetConfigTest, StreamsWithoutAPredictionBoundaryAreRejected) {
  // TA10 streams THUMOS: H + M = 200 + 10 frames.
  FleetConfig config = TestConfig();
  config.frames_per_stream = 150;
  ExpectInvalid(config, "--frames=150");
  config.frames_per_stream = 210;
  ExpectInvalid(config, "H + M = 210");
  config.frames_per_stream = 211;
  EXPECT_TRUE(ValidateFleetConfig(data::FindTask("TA10").value(), config)
                  .ok());
}

TEST(FleetConfigTest, PolicyDelayReachingAHorizonIsRejected) {
  FleetConfig config = TestConfig();
  config.runner.collect_policy =
      sched::ParseCollectPolicy("duty:0.25").value();
  config.max_batch_delay_ticks = 300;
  ExpectInvalid(config, "--max-delay < H = 200");
  config.max_batch_delay_ticks = 199;
  EXPECT_TRUE(ValidateFleetConfig(data::FindTask("TA10").value(), config)
                  .ok());
  // The full policy never waits on completed scores: any delay is fine.
  config.runner.collect_policy = sched::CollectPolicySpec{};
  config.max_batch_delay_ticks = 300;
  EXPECT_TRUE(ValidateFleetConfig(data::FindTask("TA10").value(), config)
                  .ok());
}

TEST(FleetConfigTest, ParseFleetFlagsReadsEveryKnob) {
  const char* argv[] = {"--streams=3",
                        "--seed=9",
                        "--frames=900",
                        "--batch=8",
                        "--max-delay=2",
                        "--wave=2",
                        "--threads=2",
                        "--fault-profile=blackout",
                        "--fault-seed=5",
                        "--degraded-mode=buffer",
                        "--recal=on",
                        "--provenance=off",
                        "--budget-cap-usd=1.5",
                        "--collect-policy=adaptive"};
  const auto flags = Flags::Parse(14, argv);
  ASSERT_TRUE(flags.ok());
  const auto parsed = ParseFleetFlags(flags.value());
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  const FleetConfig& config = parsed.value();
  EXPECT_EQ(config.num_streams, 3);
  EXPECT_EQ(config.base_seed, 9u);
  EXPECT_EQ(config.runner.seed, 9u);
  EXPECT_EQ(config.frames_per_stream, 900);
  EXPECT_EQ(config.batch_size, 8u);
  EXPECT_EQ(config.max_batch_delay_ticks, 2);
  EXPECT_EQ(config.wave_size, 2);
  EXPECT_EQ(config.threads, 2);
  EXPECT_EQ(config.fault_profile, "blackout");
  EXPECT_EQ(config.fault_seed, 5u);
  EXPECT_EQ(config.degraded_mode, cloud::DegradedMode::kBufferAndReplay);
  EXPECT_TRUE(config.recal);
  EXPECT_FALSE(config.provenance);
  EXPECT_EQ(config.budget_cap_microusd, 1500000);
  EXPECT_EQ(config.runner.collect_policy.kind,
            sched::CollectPolicyKind::kAdaptive);

  const char* bad[] = {"--degraded-mode=retry"};
  EXPECT_FALSE(ParseFleetFlags(Flags::Parse(1, bad).value()).ok());
}

TEST(DynamicBatcherTest, FullBatchesFlushImmediately) {
  DynamicBatcher batcher(3, 10);
  for (int i = 0; i < 7; ++i) {
    InferenceRequest request;
    request.seq = i;
    request.enqueue_tick = 0;
    batcher.Enqueue(std::move(request));
  }
  const auto flushes = batcher.TakeReady(0, false);
  ASSERT_EQ(flushes.size(), 2u);
  EXPECT_EQ(flushes[0].reason, FlushReason::kFull);
  EXPECT_EQ(flushes[0].requests.size(), 3u);
  EXPECT_EQ(flushes[0].requests[0].seq, 0);  // Strict enqueue order.
  EXPECT_EQ(flushes[1].requests[0].seq, 3);
  EXPECT_EQ(batcher.pending(), 1u);
}

TEST(DynamicBatcherTest, DeadlineFlushesUnderfullBatches) {
  DynamicBatcher batcher(8, 4);
  InferenceRequest request;
  request.enqueue_tick = 10;
  batcher.Enqueue(std::move(request));
  EXPECT_TRUE(batcher.TakeReady(13, false).empty());  // Age 3 < 4.
  const auto flushes = batcher.TakeReady(14, false);  // Age 4 == deadline.
  ASSERT_EQ(flushes.size(), 1u);
  EXPECT_EQ(flushes[0].reason, FlushReason::kDeadline);
  EXPECT_EQ(flushes[0].requests.size(), 1u);
  EXPECT_EQ(batcher.pending(), 0u);
}

TEST(DynamicBatcherTest, DeadlineSweepPadsWithYoungerRequests) {
  DynamicBatcher batcher(4, 5);
  for (int64_t tick : {0, 0, 4}) {
    InferenceRequest request;
    request.enqueue_tick = tick;
    batcher.Enqueue(std::move(request));
  }
  // At tick 5 the two tick-0 requests are due; the flush also carries the
  // young tick-4 request (one underfull deadline flush, not per-request
  // flushes), keeping batch composition a pure function of the clock.
  const auto flushes = batcher.TakeReady(5, false);
  ASSERT_EQ(flushes.size(), 1u);
  EXPECT_EQ(flushes[0].reason, FlushReason::kDeadline);
  EXPECT_EQ(flushes[0].requests.size(), 3u);
  EXPECT_EQ(batcher.pending(), 0u);
}

TEST(DynamicBatcherTest, FinalDrainsEverything) {
  DynamicBatcher batcher(4, 100);
  for (int i = 0; i < 6; ++i) {
    InferenceRequest request;
    request.enqueue_tick = 0;
    batcher.Enqueue(std::move(request));
  }
  const auto flushes = batcher.TakeReady(0, true);
  ASSERT_EQ(flushes.size(), 2u);
  EXPECT_EQ(flushes[0].reason, FlushReason::kFull);
  EXPECT_EQ(flushes[1].reason, FlushReason::kFinal);
  EXPECT_EQ(flushes[1].requests.size(), 2u);
  EXPECT_EQ(batcher.pending(), 0u);
}

TEST(ShardArenaTest, EveryShardStartsOnItsOwnCacheLine) {
  struct Small {
    int64_t x = 3;
  };
  ShardArena<Small> arena(9);
  EXPECT_EQ(arena.size(), 9u);
  EXPECT_EQ(arena.stride() % kCacheLineBytes, 0u);
  EXPECT_GE(arena.stride(), sizeof(Small));
  for (size_t i = 0; i < arena.size(); ++i) {
    EXPECT_EQ(reinterpret_cast<uintptr_t>(&arena[i]) % kCacheLineBytes, 0u)
        << i;
    EXPECT_EQ(arena[i].x, 3);  // Default-constructed.
    arena[i].x = static_cast<int64_t>(i);
  }
  for (size_t i = 0; i < arena.size(); ++i) {
    EXPECT_EQ(arena[i].x, static_cast<int64_t>(i));  // No overlap.
  }
}

TEST(ShardArenaTest, DestructorRunsForEverySlot) {
  static int live = 0;
  struct Counted {
    Counted() { ++live; }
    ~Counted() { --live; }
  };
  {
    ShardArena<Counted> arena(5);
    EXPECT_EQ(live, 5);
  }
  EXPECT_EQ(live, 0);
}

}  // namespace
}  // namespace eventhit::fleet
