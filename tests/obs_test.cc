#include <atomic>
#include <cmath>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cloud/cost_model.h"
#include "common/thread_pool.h"
#include "obs/export.h"
#include "obs/json_util.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/schema.h"
#include "obs/timeseries.h"
#include "obs/trace.h"

namespace eventhit::obs {
namespace {

TEST(CounterTest, StartsAtZeroAndAccumulates) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("test.counter");
  EXPECT_EQ(counter->Value(), 0);
  counter->Add();
  counter->Add(41);
  EXPECT_EQ(counter->Value(), 42);
}

TEST(CounterTest, GetReturnsSameInstance) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("test.counter");
  Counter* b = registry.GetCounter("test.counter");
  EXPECT_EQ(a, b);
  a->Add(7);
  EXPECT_EQ(b->Value(), 7);
}

TEST(CounterTest, KindMismatchDies) {
  MetricsRegistry registry;
  registry.GetCounter("test.metric");
  EXPECT_DEATH(registry.GetGauge("test.metric"), "kind");
}

TEST(GaugeTest, SetAddValue) {
  MetricsRegistry registry;
  Gauge* gauge = registry.GetGauge("test.gauge");
  EXPECT_DOUBLE_EQ(gauge->Value(), 0.0);
  gauge->Set(2.5);
  EXPECT_DOUBLE_EQ(gauge->Value(), 2.5);
  gauge->Add(-1.0);
  EXPECT_DOUBLE_EQ(gauge->Value(), 1.5);
  gauge->Set(10.0);  // Last write wins over accumulated state.
  EXPECT_DOUBLE_EQ(gauge->Value(), 10.0);
}

TEST(HistogramTest, BucketsAreInclusiveUpperBounds) {
  MetricsRegistry registry;
  Histogram* histogram =
      registry.GetHistogram("test.histogram", {1.0, 10.0, 100.0});
  histogram->Observe(0.5);    // Bucket 0 (<= 1).
  histogram->Observe(1.0);    // Bucket 0: bounds are inclusive.
  histogram->Observe(10.0);   // Bucket 1.
  histogram->Observe(10.01);  // Bucket 2.
  histogram->Observe(1000.0); // Overflow bucket.
  const MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.histograms.size(), 1u);
  const HistogramSnapshot& h = snapshot.histograms[0];
  EXPECT_EQ(h.bucket_counts, (std::vector<int64_t>{2, 1, 1, 1}));
  EXPECT_EQ(h.count, 5);
  EXPECT_DOUBLE_EQ(h.sum, 1021.51);
  EXPECT_DOUBLE_EQ(h.min, 0.5);
  EXPECT_DOUBLE_EQ(h.max, 1000.0);
  EXPECT_DOUBLE_EQ(h.Mean(), 1021.51 / 5);
}

TEST(HistogramTest, MinMaxCorrectForNegativeObservations) {
  MetricsRegistry registry;
  Histogram* histogram = registry.GetHistogram("test.histogram", {0.0});
  histogram->Observe(-3.0);
  histogram->Observe(-1.0);
  const MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_DOUBLE_EQ(snapshot.histograms[0].min, -3.0);
  EXPECT_DOUBLE_EQ(snapshot.histograms[0].max, -1.0);
}

TEST(HistogramTest, EmptyHistogramSnapshotsToZeros) {
  MetricsRegistry registry;
  registry.GetHistogram("test.histogram", {1.0});
  const MetricsSnapshot snapshot = registry.Snapshot();
  const HistogramSnapshot& h = snapshot.histograms[0];
  EXPECT_EQ(h.count, 0);
  EXPECT_DOUBLE_EQ(h.min, 0.0);
  EXPECT_DOUBLE_EQ(h.max, 0.0);
  EXPECT_DOUBLE_EQ(h.Mean(), 0.0);
}

TEST(RegistryTest, SnapshotSortedByNameAndReset) {
  MetricsRegistry registry;
  registry.GetCounter("zebra")->Add(1);
  registry.GetCounter("alpha")->Add(2);
  registry.GetGauge("gauge")->Set(3.0);
  MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.counters.size(), 2u);
  EXPECT_EQ(snapshot.counters[0].name, "alpha");
  EXPECT_EQ(snapshot.counters[1].name, "zebra");
  EXPECT_EQ(registry.Names(),
            (std::vector<std::string>{"alpha", "gauge", "zebra"}));

  registry.Reset();
  snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.counters[0].value, 0);
  EXPECT_EQ(snapshot.counters[1].value, 0);
  EXPECT_DOUBLE_EQ(snapshot.gauges[0].value, 0.0);
  // Cached pointers stay valid after Reset.
  registry.GetCounter("alpha")->Add(5);
  EXPECT_EQ(registry.GetCounter("alpha")->Value(), 5);
}

// The lock-free fast path must not lose increments under real thread-pool
// concurrency: N threads x M adds folds to exactly N*M.
TEST(RegistryTest, ConcurrentIncrementsFoldExactly) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("test.concurrent");
  Histogram* histogram =
      registry.GetHistogram("test.concurrent_hist", {100.0, 1000.0});
  ThreadPool pool(4);
  constexpr int kItems = 10000;
  pool.ParallelFor(kItems, [&](size_t i) {
    counter->Add(1);
    histogram->Observe(static_cast<double>(i % 7));
  });
  EXPECT_EQ(counter->Value(), kItems);
  const MetricsSnapshot snapshot = registry.Snapshot();
  for (const HistogramSnapshot& h : snapshot.histograms) {
    if (h.name != "test.concurrent_hist") continue;
    EXPECT_EQ(h.count, kItems);
    EXPECT_DOUBLE_EQ(h.min, 0.0);
    EXPECT_DOUBLE_EQ(h.max, 6.0);
  }
}

TEST(TraceBufferTest, RecordsSpansOldestFirst) {
  TraceBuffer buffer(8);
  {
    TraceSpan first(&buffer, "first");
    TraceSpan second(&buffer, "second");
  }  // `second` destructs (ends) before `first`.
  const std::vector<TraceEvent> events = buffer.Events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].name, "second");
  EXPECT_EQ(events[1].name, "first");
  EXPECT_GE(events[0].duration_us, 0);
  EXPECT_EQ(events[0].pid, kWallPid);
}

TEST(TraceBufferTest, EndIsIdempotent) {
  TraceBuffer buffer(8);
  TraceSpan span(&buffer, "once");
  span.End();
  span.End();
  EXPECT_EQ(buffer.Events().size(), 1u);
}

TEST(TraceBufferTest, RingOverwritesOldestAndCountsDrops) {
  TraceBuffer buffer(3);
  for (int i = 0; i < 5; ++i) {
    TraceSpan span(&buffer, "span" + std::to_string(i));
  }
  EXPECT_EQ(buffer.size(), 3u);
  EXPECT_EQ(buffer.dropped(), 2);
  const std::vector<TraceEvent> events = buffer.Events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].name, "span2");
  EXPECT_EQ(events[2].name, "span4");
  buffer.Clear();
  EXPECT_EQ(buffer.size(), 0u);
  EXPECT_EQ(buffer.dropped(), 0);
}

TEST(TraceBufferTest, AggregateByNameFiltersCategory) {
  TraceBuffer buffer(16);
  RecordSimulatedSpan(&buffer, "stage.a", "simulated", 0, 100);
  RecordSimulatedSpan(&buffer, "stage.a", "simulated", 100, 50);
  RecordSimulatedSpan(&buffer, "stage.b", "simulated", 150, 25);
  { TraceSpan wall(&buffer, "wall.only"); }
  const auto simulated = buffer.AggregateByName("simulated");
  ASSERT_EQ(simulated.size(), 2u);
  EXPECT_EQ(simulated[0].name, "stage.a");
  EXPECT_EQ(simulated[0].count, 2);
  EXPECT_EQ(simulated[0].total_us, 150);
  EXPECT_EQ(simulated[1].name, "stage.b");
  EXPECT_EQ(simulated[1].total_us, 25);
  EXPECT_EQ(buffer.AggregateByName().size(), 3u);
}

TEST(TraceBufferTest, NullBufferDisablesSpan) {
  TraceSpan span(nullptr, "nowhere");
  span.End();  // Must not crash.
}

// Minimal structural validation of the Chrome trace JSON without a JSON
// parser: balanced braces/brackets and the required keys and phases.
TEST(TraceBufferTest, ChromeJsonIsWellFormed) {
  TraceBuffer buffer(16);
  { TraceSpan span(&buffer, "quoted\"name\\"); }
  RecordSimulatedSpan(&buffer, "stage.ci", "simulated", 0, 42);
  const std::string json = buffer.ToChromeJson();
  int braces = 0;
  int brackets = 0;
  bool in_string = false;
  for (size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (in_string) {
      if (c == '\\') {
        ++i;  // Skip the escaped character.
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{') ++braces;
    if (c == '}') --braces;
    if (c == '[') ++brackets;
    if (c == ']') --brackets;
    EXPECT_GE(braces, 0);
    EXPECT_GE(brackets, 0);
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
  EXPECT_FALSE(in_string);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
  EXPECT_NE(json.find("quoted\\\"name\\\\"), std::string::npos);
}

TEST(TraceBufferTest, ProcessAndThreadMetadataAreEmittedSorted) {
  TraceBuffer buffer(16);
  // The two timelines are pre-registered so every export groups spans
  // under named tracks even when nobody calls SetProcessName.
  std::string json = buffer.ToChromeJson();
  EXPECT_NE(json.find("\"name\":\"process_name\",\"args\":{\"name\":"
                      "\"wall\"}"),
            std::string::npos);
  EXPECT_NE(json.find("\"name\":\"process_name\",\"args\":{\"name\":"
                      "\"simulated\"}"),
            std::string::npos);

  // Fleet per-tenant tracks: thread_name metadata keyed (pid, tid),
  // sorted, escaped, and re-registration overwrites.
  buffer.SetThreadName(kSimulatedPid, 7, "tenant7");
  buffer.SetThreadName(kSimulatedPid, 3, "old");
  buffer.SetThreadName(kSimulatedPid, 3, "tenant\"3");
  buffer.SetProcessName(9, "replica");
  json = buffer.ToChromeJson();
  const size_t tid3 = json.find(
      "{\"ph\":\"M\",\"pid\":" + std::to_string(kSimulatedPid) +
      ",\"tid\":3,\"name\":\"thread_name\",\"args\":{\"name\":"
      "\"tenant\\\"3\"}}");
  const size_t tid7 = json.find(
      "{\"ph\":\"M\",\"pid\":" + std::to_string(kSimulatedPid) +
      ",\"tid\":7,\"name\":\"thread_name\",\"args\":{\"name\":"
      "\"tenant7\"}}");
  ASSERT_NE(tid3, std::string::npos);
  ASSERT_NE(tid7, std::string::npos);
  EXPECT_LT(tid3, tid7);  // (pid, tid) sort order.
  EXPECT_EQ(json.find("\"old\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"process_name\",\"args\":{\"name\":"
                      "\"replica\"}"),
            std::string::npos);
  // All metadata precedes the first duration event.
  const size_t first_span = json.find("\"ph\":\"X\"");
  const size_t dropped_meta = json.find("trace_events_dropped");
  ASSERT_NE(dropped_meta, std::string::npos);
  EXPECT_LT(tid7, dropped_meta);
  if (first_span != std::string::npos) {
    EXPECT_LT(dropped_meta, first_span);
  }
}

TEST(TraceBufferTest, EmitHorizonSpansAreBackToBackInOrder) {
  TraceBuffer buffer(16);
  cloud::StageBreakdown breakdown;
  breakdown.feature_extraction_seconds = 0.5;
  breakdown.predictor_seconds = 0.001;
  breakdown.ci_seconds = 2.0;
  const int64_t end =
      cloud::EmitHorizonSpans(&buffer, breakdown, /*start_us=*/1000);
  EXPECT_EQ(end, 1000 + 500000 + 1000 + 2000000);
  const std::vector<TraceEvent> events = buffer.Events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].name, names::kSpanStageFeatureExtraction);
  EXPECT_EQ(events[1].name, names::kSpanStagePredictor);
  EXPECT_EQ(events[2].name, names::kSpanStageCi);
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_EQ(events[i].start_us,
              events[i - 1].start_us + events[i - 1].duration_us);
    EXPECT_EQ(events[i].pid, kSimulatedPid);
  }
}

TEST(TraceBufferTest, EmitHorizonSpansSkipsZeroStages) {
  TraceBuffer buffer(16);
  cloud::StageBreakdown breakdown;
  breakdown.ci_seconds = 1.0;  // Oracle-style pipeline: CI only.
  cloud::EmitHorizonSpans(&buffer, breakdown, 0);
  const std::vector<TraceEvent> events = buffer.Events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, names::kSpanStageCi);
}

TEST(ExportTest, MetricsJsonRoundTripsStructure) {
  MetricsRegistry registry;
  registry.GetCounter("c.one")->Add(3);
  registry.GetGauge("g.one")->Set(1.5);
  registry.GetHistogram("h.one", {1.0, 2.0})->Observe(1.5);
  const std::string json = MetricsToJson(registry.Snapshot());
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"c.one\":3"), std::string::npos);
  EXPECT_NE(json.find("\"g.one\":1.5"), std::string::npos);
  EXPECT_NE(json.find("\"bucket_counts\":[0,1,0]"), std::string::npos);
}

TEST(LabeledMetricsTest, LabeledNameIsCanonicalSortedAndEscaped) {
  EXPECT_EQ(LabeledName("m", {{"b", "2"}, {"a", "1"}}),
            "m{a=\"1\",b=\"2\"}");
  EXPECT_EQ(LabeledName("m", {}), "m");
  EXPECT_EQ(LabeledName("m", {{"k", "a\"b\\c"}}), "m{k=\"a\\\"b\\\\c\"}");
  EXPECT_EQ(MetricBaseName("m{a=\"1\"}"), "m");
  EXPECT_EQ(MetricBaseName("plain"), "plain");
}

TEST(LabeledMetricsTest, SameLabelsReturnSameInstance) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("test.labeled", {{"x", "1"}, {"y", "2"}});
  Counter* b = registry.GetCounter("test.labeled", {{"y", "2"}, {"x", "1"}});
  Counter* unlabeled = registry.GetCounter("test.labeled");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, unlabeled);
  a->Add(3);
  const MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.counters.size(), 2u);
  EXPECT_EQ(snapshot.counters[0].name, "test.labeled");
  EXPECT_EQ(snapshot.counters[1].name, "test.labeled{x=\"1\",y=\"2\"}");
  EXPECT_EQ(snapshot.counters[1].value, 3);
}

TEST(LabeledMetricsTest, CardinalityOverflowFoldsToOverflowSeries) {
  MetricsRegistry registry;
  for (int i = 0; i < kMaxLabelSetsPerMetric + 10; ++i) {
    registry.GetCounter("test.wide", {{"id", std::to_string(i)}})->Add(1);
  }
  Counter* overflow =
      registry.GetCounter("test.wide", {{"overflow", "true"}});
  // The first kMaxLabelSetsPerMetric distinct label sets got their own
  // series; the rest folded into {overflow="true"} — coarsened, not lost.
  EXPECT_EQ(overflow->Value(), 10);
  int64_t total = 0;
  for (const auto& counter : registry.Snapshot().counters) {
    total += counter.value;
  }
  EXPECT_EQ(total, kMaxLabelSetsPerMetric + 10);
}

TEST(LabeledMetricsTest, LabeledHistogramAndGaugeWork) {
  MetricsRegistry registry;
  registry.GetGauge("test.g", {{"k", "v"}})->Set(4.5);
  registry.GetHistogram("test.h", {1.0}, {{"k", "v"}})->Observe(0.5);
  const MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.gauges.size(), 1u);
  EXPECT_EQ(snapshot.gauges[0].name, "test.g{k=\"v\"}");
  ASSERT_EQ(snapshot.histograms.size(), 1u);
  EXPECT_EQ(snapshot.histograms[0].count, 1);
}

TEST(ApproxQuantileTest, InterpolatesWithinBucket) {
  MetricsRegistry registry;
  Histogram* histogram = registry.GetHistogram("test.q", {10.0, 20.0});
  // 10 observations in (10, 20]: quantiles interpolate linearly across
  // the clamped bucket [min, max] = [11, 20].
  for (int i = 1; i <= 10; ++i) histogram->Observe(10.0 + i);
  const HistogramSnapshot h = registry.Snapshot().histograms[0];
  EXPECT_DOUBLE_EQ(h.ApproxQuantile(1.0), 20.0);
  // q=0 clamps the rank to the first observation: frac 1/10 of [11, 20].
  EXPECT_DOUBLE_EQ(h.ApproxQuantile(0.0), 11.0 + 0.1 * 9.0);
  EXPECT_DOUBLE_EQ(h.ApproxQuantile(0.5), 11.0 + 0.5 * 9.0);
}

TEST(ApproxQuantileTest, OverflowBucketClampsToObservedMax) {
  MetricsRegistry registry;
  Histogram* histogram = registry.GetHistogram("test.q", {1.0});
  histogram->Observe(0.5);
  histogram->Observe(100.0);  // Overflow bucket.
  const HistogramSnapshot h = registry.Snapshot().histograms[0];
  // The overflow bucket has no finite upper bound; quantiles inside it
  // interpolate from the last finite bound toward the observed max,
  // never past it and never to infinity.
  EXPECT_DOUBLE_EQ(h.ApproxQuantile(1.0), 100.0);
  EXPECT_GE(h.ApproxQuantile(0.99), 1.0);
  EXPECT_LE(h.ApproxQuantile(0.99), 100.0);
}

TEST(ApproxQuantileTest, EmptyAndSingleObservation) {
  MetricsRegistry registry;
  Histogram* histogram = registry.GetHistogram("test.q", {1.0});
  HistogramSnapshot h = registry.Snapshot().histograms[0];
  EXPECT_DOUBLE_EQ(h.ApproxQuantile(0.5), 0.0);
  histogram->Observe(7.0);
  h = registry.Snapshot().histograms[0];
  EXPECT_DOUBLE_EQ(h.ApproxQuantile(0.5), 7.0);
  EXPECT_DOUBLE_EQ(h.ApproxQuantile(0.99), 7.0);
}

TEST(ApproxQuantileTest, EmptySnapshotNeverReadsBuckets) {
  // A default-constructed (hand-assembled) snapshot has neither bounds
  // nor bucket counts. count == 0 must short-circuit to the sentinel 0.0
  // before any bucket indexing.
  HistogramSnapshot h;
  EXPECT_DOUBLE_EQ(h.ApproxQuantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(h.ApproxQuantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(h.ApproxQuantile(1.0), 0.0);
}

TEST(ApproxQuantileTest, CountWithoutBucketsReturnsObservedMax) {
  // CLI summaries build snapshots carrying only count/sum/min/max. The
  // bucket walk must not run off the empty vector; the observed max is
  // the only defined answer.
  HistogramSnapshot h;
  h.count = 10;
  h.sum = 50.0;
  h.min = 1.0;
  h.max = 9.0;
  EXPECT_DOUBLE_EQ(h.ApproxQuantile(0.5), 9.0);
  EXPECT_DOUBLE_EQ(h.ApproxQuantile(0.99), 9.0);
}

TEST(ApproxQuantileTest, RegisteredButUnobservedHistogramIsZero) {
  MetricsRegistry registry;
  registry.GetHistogram("test.unobserved", {1.0, 2.0});
  const HistogramSnapshot h = registry.Snapshot().histograms[0];
  EXPECT_EQ(h.count, 0);
  EXPECT_DOUBLE_EQ(h.ApproxQuantile(0.5), 0.0);
}

TEST(JsonNumberTest, NonFiniteRendersAsNull) {
  EXPECT_EQ(JsonNumber(std::numeric_limits<double>::quiet_NaN()), "null");
  EXPECT_EQ(JsonNumber(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(JsonNumber(-std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(JsonNumber(1.5), "1.5");
  EXPECT_EQ(JsonNumber(3.0), "3");
}

TEST(JsonNumberTest, NonFiniteGaugeRoundTripsAsNullInMetricsJson) {
  MetricsRegistry registry;
  registry.GetGauge("g.nan")->Set(std::numeric_limits<double>::quiet_NaN());
  registry.GetGauge("g.ok")->Set(2.0);
  const std::string json = MetricsToJson(registry.Snapshot());
  EXPECT_NE(json.find("\"g.nan\":null"), std::string::npos);
  EXPECT_NE(json.find("\"g.ok\":2"), std::string::npos);
  EXPECT_EQ(json.find(":nan"), std::string::npos);  // No bare nan token.
}

TEST(TraceBufferTest, DroppedCounterMirrorsIntoRegistry) {
  MetricsRegistry registry;
  TraceBuffer buffer(2, &registry);
  for (int i = 0; i < 5; ++i) {
    TraceSpan span(&buffer, "s" + std::to_string(i));
  }
  EXPECT_EQ(buffer.dropped(), 3);
  EXPECT_EQ(registry.GetCounter(names::kTraceEventsDropped)->Value(), 3);
  const std::string json = buffer.ToChromeJson();
  EXPECT_NE(json.find("\"trace_events_dropped\""), std::string::npos);
  EXPECT_NE(json.find("\"dropped\":3"), std::string::npos);
}

TEST(LoggerTest, SortsBySimTimeThenSeqAndRendersJsonl) {
  Logger logger;
  logger.Log(LogLevel::kInfo, "comp", "late", 20, {LogInt("x", 1)});
  logger.Log(LogLevel::kWarn, "comp", "early", 10,
             {LogStr("why", "a\"b"), LogBool("flag", true)});
  const std::vector<LogRecord> records = logger.Records();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].event, "early");
  EXPECT_EQ(records[1].event, "late");
  const std::string jsonl = logger.ToJsonl();
  EXPECT_NE(jsonl.find("{\"t\":10,\"seq\":1,\"level\":\"warn\","
                       "\"component\":\"comp\",\"event\":\"early\","
                       "\"why\":\"a\\\"b\",\"flag\":true}\n"),
            std::string::npos);
  EXPECT_NE(jsonl.find("\"t\":20"), std::string::npos);
}

TEST(LoggerTest, MinLevelFiltersBelow) {
  Logger logger;
  logger.set_min_level(LogLevel::kWarn);
  logger.Log(LogLevel::kInfo, "comp", "quiet", 0);
  logger.Log(LogLevel::kError, "comp", "loud", 0);
  ASSERT_EQ(logger.Records().size(), 1u);
  EXPECT_EQ(logger.Records()[0].event, "loud");
}

TEST(LoggerTest, RateLimitIsDeterministicPerKey) {
  Logger logger;
  logger.set_rate_limit(2);
  for (int i = 0; i < 5; ++i) {
    logger.Log(LogLevel::kInfo, "comp", "spam", i);
  }
  logger.Log(LogLevel::kInfo, "comp", "other", 9);
  EXPECT_EQ(logger.emitted(), 3);
  EXPECT_EQ(logger.suppressed(), 3);
  // The kept records are the FIRST two per key — deterministic, not a
  // wall-clock token bucket.
  const std::vector<LogRecord> records = logger.Records();
  EXPECT_EQ(records[0].sim_time, 0);
  EXPECT_EQ(records[1].sim_time, 1);
}

TEST(LoggerTest, SuppressionSurfacesAsLabeledCounterPerComponent) {
  MetricsRegistry registry;
  Logger logger;
  logger.set_rate_limit(1);
  logger.set_metrics(&registry);
  for (int i = 0; i < 4; ++i) {
    logger.Log(LogLevel::kInfo, "relay", "spam", i);
  }
  logger.Log(LogLevel::kInfo, "audit", "spam", 9);
  logger.Log(LogLevel::kInfo, "audit", "spam", 10);
  EXPECT_EQ(logger.suppressed(), 4);
  EXPECT_EQ(
      registry.GetCounter(names::kLogSuppressed, {{"component", "relay"}})
          ->Value(),
      3);
  EXPECT_EQ(
      registry.GetCounter(names::kLogSuppressed, {{"component", "audit"}})
          ->Value(),
      1);
  // Level-filtered records never count as suppression.
  logger.set_min_level(LogLevel::kWarn);
  logger.Log(LogLevel::kInfo, "relay", "spam", 11);
  EXPECT_EQ(
      registry.GetCounter(names::kLogSuppressed, {{"component", "relay"}})
          ->Value(),
      3);
}

TEST(LoggerTest, ParseLogLevelAcceptsAliases) {
  LogLevel level = LogLevel::kDebug;
  EXPECT_TRUE(ParseLogLevel("warn", &level));
  EXPECT_EQ(level, LogLevel::kWarn);
  EXPECT_TRUE(ParseLogLevel("warning", &level));
  EXPECT_EQ(level, LogLevel::kWarn);
  EXPECT_FALSE(ParseLogLevel("blah", &level));
  EXPECT_EQ(level, LogLevel::kWarn);  // Untouched on failure.
}

TEST(MetricsDeltaWriterTest, EmitsOnlyChangedSeries) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("c.hot");
  registry.GetCounter("c.cold");
  Gauge* gauge = registry.GetGauge("g.v");
  std::ostringstream out;
  MetricsDeltaWriter writer(&out);
  counter->Add(2);
  gauge->Set(1.5);
  writer.Emit(registry.Snapshot(), 0);
  counter->Add(3);
  writer.Emit(registry.Snapshot(), 1);
  writer.Emit(registry.Snapshot(), 2);  // Nothing changed.
  const std::string jsonl = out.str();
  EXPECT_NE(jsonl.find("{\"t\":0,\"counters\":{\"c.hot\":2}"),
            std::string::npos);
  EXPECT_NE(jsonl.find("{\"t\":1,\"counters\":{\"c.hot\":3}"),
            std::string::npos);
  EXPECT_NE(jsonl.find("\"g.v\":1.5"), std::string::npos);
  EXPECT_EQ(jsonl.find("c.cold"), std::string::npos);
  // The no-change line still marks the tick, with empty sections.
  EXPECT_NE(jsonl.find("{\"t\":2,\"counters\":{},\"gauges\":{},"
                       "\"histograms\":{}}"),
            std::string::npos);
}

TEST(MetricsDeltaWriterTest, ExcludesConfiguredPrefixes) {
  MetricsRegistry registry;
  registry.GetCounter("threadpool.tasks")->Add(5);
  registry.GetCounter("kept.tasks")->Add(5);
  std::ostringstream out;
  MetricsDeltaWriter writer(&out);
  writer.Emit(registry.Snapshot(), 0);
  EXPECT_EQ(out.str().find("threadpool."), std::string::npos);
  EXPECT_NE(out.str().find("kept.tasks"), std::string::npos);
}

TEST(SchemaTest, NameListsAreSortedAndUnique) {
  for (const auto& list : {AllMetricNames(), AllSpanNames()}) {
    ASSERT_FALSE(list.empty());
    for (size_t i = 1; i < list.size(); ++i) {
      EXPECT_LT(list[i - 1], list[i]);
    }
  }
}

}  // namespace
}  // namespace eventhit::obs
