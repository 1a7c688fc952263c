// The decision provenance ledger's contracts: decision-id arithmetic,
// ring-eviction accounting (recorded + overflowed == boundaries, and the
// digest/rollup are capacity-invariant), the enum mirrors pinned against
// their cloud/fleet sources, and — through the stream fleet — the
// clock-purity contract: the provenance digest is byte-identical between
// a solo replay and any batched fleet run, at every thread count and
// batch size, and the health rollup agrees with the audit accounting.
#include "obs/provenance.h"

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cloud/circuit_breaker.h"
#include "cloud/relay.h"
#include "data/tasks.h"
#include "fleet/dynamic_batcher.h"
#include "fleet/stream_fleet.h"
#include "obs/metrics.h"
#include "obs/schema.h"

namespace eventhit::obs {
namespace {

namespace cloud = ::eventhit::cloud;
namespace data = ::eventhit::data;
namespace fleet = ::eventhit::fleet;

TEST(ProvenanceIdTest, DecisionIdRoundTrips) {
  for (const int64_t stream : {0ll, 1ll, 77ll, 9999ll}) {
    for (const int64_t boundary : {0ll, 1ll, 42ll, 1000000ll}) {
      const int64_t id = StreamProvenance::MakeDecisionId(stream, boundary);
      EXPECT_EQ(StreamProvenance::StreamOfId(id), stream);
      EXPECT_EQ(StreamProvenance::BoundaryOfId(id), boundary);
    }
  }
  // Stream 0 boundary 0 is id 0; ids are monotone in (stream, boundary).
  EXPECT_EQ(StreamProvenance::MakeDecisionId(0, 0), 0);
  EXPECT_LT(StreamProvenance::MakeDecisionId(1, 5),
            StreamProvenance::MakeDecisionId(2, 0));
}

TEST(ProvenanceIdTest, BoundaryGridMatchesMarshallerAnchors) {
  // M = 10, H = 200: anchors at 9, 209, 409, ...
  StreamProvenance prov(3, /*collection_window=*/10, /*horizon=*/200,
                        /*ring_capacity=*/4);
  EXPECT_EQ(prov.BoundaryIndexOfAnchor(9), 0);
  EXPECT_EQ(prov.BoundaryIndexOfAnchor(209), 1);
  EXPECT_EQ(prov.BoundaryIndexOfAnchor(409), 2);
  EXPECT_EQ(prov.AnchorOfBoundary(0), 9);
  EXPECT_EQ(prov.AnchorOfBoundary(2), 409);
  EXPECT_EQ(prov.DecisionIdOfAnchor(209),
            StreamProvenance::MakeDecisionId(3, 1));
  // Frames inside a boundary's horizon map back to it; the window fill
  // (frames before the first anchor) maps to boundary 0.
  EXPECT_EQ(prov.BoundaryForFrame(0), 0);
  EXPECT_EQ(prov.BoundaryForFrame(9), 0);
  EXPECT_EQ(prov.BoundaryForFrame(208), 0);
  EXPECT_EQ(prov.BoundaryForFrame(209), 1);
  EXPECT_EQ(prov.BoundaryForFrame(408), 1);
  EXPECT_EQ(prov.BoundaryForFrame(409), 2);
}

// The obs layer mirrors the cloud/fleet enums by value so it stays
// dependency-free; these pins fail if either side is reordered.
TEST(ProvenanceEnumTest, RelayOutcomeCodesMirrorCloud) {
  EXPECT_STREQ(ProvenanceRelayOutcomeName(static_cast<int8_t>(
                   cloud::RelayOutcome::kDelivered)),
               "delivered");
  EXPECT_STREQ(ProvenanceRelayOutcomeName(static_cast<int8_t>(
                   cloud::RelayOutcome::kBuffered)),
               "buffered");
  EXPECT_STREQ(ProvenanceRelayOutcomeName(static_cast<int8_t>(
                   cloud::RelayOutcome::kDroppedQueueFull)),
               "dropped_queue_full");
  EXPECT_STREQ(ProvenanceRelayOutcomeName(static_cast<int8_t>(
                   cloud::RelayOutcome::kDroppedDeadline)),
               "dropped_deadline");
  EXPECT_STREQ(ProvenanceRelayOutcomeName(static_cast<int8_t>(
                   cloud::RelayOutcome::kDroppedBreakerOpen)),
               "dropped_breaker_open");
  EXPECT_STREQ(ProvenanceRelayOutcomeName(-1), "none");
}

TEST(ProvenanceEnumTest, BreakerCodesMirrorCloud) {
  for (const cloud::BreakerState state :
       {cloud::BreakerState::kClosed, cloud::BreakerState::kOpen,
        cloud::BreakerState::kHalfOpen}) {
    EXPECT_STREQ(ProvenanceBreakerName(static_cast<int8_t>(state)),
                 cloud::BreakerStateName(state));
  }
  EXPECT_STREQ(ProvenanceBreakerName(-1), "none");
}

TEST(ProvenanceEnumTest, FlushCodesMirrorFleet) {
  EXPECT_EQ(static_cast<int>(kProvFlushFull),
            static_cast<int>(fleet::FlushReason::kFull));
  EXPECT_EQ(static_cast<int>(kProvFlushDeadline),
            static_cast<int>(fleet::FlushReason::kDeadline));
  EXPECT_EQ(static_cast<int>(kProvFlushFinal),
            static_cast<int>(fleet::FlushReason::kFinal));
  EXPECT_STREQ(ProvenanceFlushName(kProvFlushFull), "full");
  EXPECT_STREQ(ProvenanceFlushName(kProvFlushSolo), "solo");
  EXPECT_STREQ(ProvenanceFlushName(kProvFlushNone), "none");
}

// Replays the same stamp sequence into a ledger of the given capacity.
void StampBoundaries(StreamProvenance* prov, int64_t boundaries) {
  for (int64_t b = 0; b < boundaries; ++b) {
    const int64_t anchor = prov->AnchorOfBoundary(b);
    const bool reused = b % 3 == 2;
    prov->OpenBoundary(anchor, reused, reused ? "duty:0.50" : "full");
    prov->StampBatch(anchor, b / 4, kProvFlushFull, b % 5);
    if (!reused) {
      prov->StampInference(anchor, "blocked", b / 7);
    }
    prov->StampRelay(anchor, /*attempts=*/1 + static_cast<int>(b % 2),
                     /*outcome=*/static_cast<int8_t>(b % 5),
                     /*breaker_state=*/static_cast<int8_t>(b % 3));
    prov->StampDecision(anchor, reused, reused ? "duty:0.50" : "full",
                        /*exists_mask=*/static_cast<uint32_t>(b & 7),
                        /*events_present=*/static_cast<int>(b % 3),
                        /*relay_orders=*/1, /*frames_billed=*/10,
                        /*max_existence=*/0.25 * static_cast<double>(b % 4));
    prov->StampVerdict(anchor, /*truth_present=*/b % 2 == 0,
                       /*missed=*/b % 4 == 0, /*miscovered_endpoints=*/
                       static_cast<int>(b % 2));
  }
}

TEST(ProvenanceRingTest, OverflowAccountingIdentityHolds) {
  StreamProvenance prov(0, 10, 200, /*ring_capacity=*/3);
  StampBoundaries(&prov, 11);
  EXPECT_EQ(prov.boundaries(), 11);
  EXPECT_EQ(prov.recorded() + prov.overflowed(), prov.boundaries());
  EXPECT_EQ(prov.recorded(),
            static_cast<int64_t>(prov.ExportResident().size()));
  // The resident set is exactly the newest `recorded()` boundaries.
  const std::vector<ProvenanceRecord> resident = prov.ExportResident();
  for (const ProvenanceRecord& record : resident) {
    EXPECT_GE(record.boundary_index, 11 - prov.recorded());
    EXPECT_EQ(prov.Find(record.decision_id), prov.FindByAnchor(record.anchor));
    EXPECT_NE(prov.Find(record.decision_id), nullptr);
  }
  // Evicted boundaries are unfindable but still counted.
  EXPECT_EQ(prov.Find(StreamProvenance::MakeDecisionId(0, 0)), nullptr);
}

TEST(ProvenanceRingTest, DigestAndRollupAreCapacityInvariant) {
  StreamProvenance small(5, 10, 200, 2);
  StreamProvenance large(5, 10, 200, 64);
  StampBoundaries(&small, 23);
  StampBoundaries(&large, 23);
  EXPECT_EQ(small.Digest(), large.Digest());
  EXPECT_EQ(small.boundaries(), large.boundaries());
  EXPECT_GT(small.overflowed(), 0);
  EXPECT_EQ(large.overflowed(), 0);
  const ProvenanceRollup& a = small.rollup();
  const ProvenanceRollup& b = large.rollup();
  EXPECT_EQ(a.scored, b.scored);
  EXPECT_EQ(a.reused, b.reused);
  EXPECT_EQ(a.relay_attempts, b.relay_attempts);
  EXPECT_EQ(a.relay_delivered, b.relay_delivered);
  EXPECT_EQ(a.relay_dropped, b.relay_dropped);
  EXPECT_EQ(a.frames_billed, b.frames_billed);
  EXPECT_EQ(a.misses, b.misses);
  EXPECT_EQ(a.miscovered, b.miscovered);
  EXPECT_EQ(a.residency_sum, b.residency_sum);
}

TEST(ProvenanceRingTest, StampsJoinOnTheResidentRecord) {
  StreamProvenance prov(2, 10, 200, 8);
  prov.OpenBoundary(9, false, "full");
  prov.StampBatch(9, 7, kProvFlushDeadline, 3);
  prov.StampInference(9, "simd", 4);
  prov.StampRelay(9, 2, /*outcome=*/0,
                  static_cast<int8_t>(cloud::BreakerState::kClosed));
  prov.StampRelay(9, 3, /*outcome=*/4,
                  static_cast<int8_t>(cloud::BreakerState::kOpen));
  prov.StampDecision(9, false, "full", 0x5, 2, 2, 37, 0.75);
  prov.StampVerdict(9, true, false, 1);
  prov.StampVerdict(9, false, false, 0);

  const ProvenanceRecord* record =
      prov.Find(StreamProvenance::MakeDecisionId(2, 0));
  ASSERT_NE(record, nullptr);
  EXPECT_EQ(record->anchor, 9);
  EXPECT_EQ(record->batch_id, 7);
  EXPECT_EQ(record->flush_reason, kProvFlushDeadline);
  EXPECT_EQ(record->residency_ticks, 3);
  EXPECT_STREQ(record->backend, "simd");
  EXPECT_EQ(record->calibrator_generation, 4);
  EXPECT_EQ(record->exists_mask, 0x5u);
  EXPECT_EQ(record->events_present, 2);
  EXPECT_EQ(record->relay_orders, 2);
  EXPECT_EQ(record->frames_billed, 37);
  EXPECT_DOUBLE_EQ(record->max_existence, 0.75);
  EXPECT_EQ(record->relay_attempts, 5);  // 2 + 3 accumulate.
  EXPECT_EQ(record->relay_delivered, 1);
  EXPECT_EQ(record->relay_dropped, 1);
  EXPECT_EQ(record->last_outcome, 4);
  EXPECT_EQ(record->breaker_state,
            static_cast<int8_t>(cloud::BreakerState::kOpen));
  EXPECT_TRUE(record->verdict_known);
  EXPECT_EQ(record->audited, 2);
  EXPECT_EQ(record->truth_present, 1);
  EXPECT_EQ(record->misses, 0);
  EXPECT_EQ(record->miscovered, 1);

  // Renderings carry the decision id and the joined chain.
  const std::string text = ProvenanceRecordText(*record);
  EXPECT_NE(text.find("decision " +
                      std::to_string(record->decision_id)),
            std::string::npos);
  EXPECT_NE(text.find("simd"), std::string::npos);
  EXPECT_NE(text.find("dropped_breaker_open"), std::string::npos);
  const std::string json = ProvenanceRecordJson(*record);
  EXPECT_NE(json.find("\"backend\":\"simd\""), std::string::npos);
  EXPECT_NE(json.find("\"flush_reason\":\"deadline\""), std::string::npos);
}

// --- Fleet-level clock-purity contract -------------------------------

fleet::FleetConfig SmallFleetConfig() {
  fleet::FleetConfig config;
  config.num_streams = 6;
  config.base_seed = 77;
  config.frames_per_stream = 700;  // push 500 frames -> 3 boundaries.
  config.batch_size = 4;
  config.max_batch_delay_ticks = 3;
  config.wave_size = 4;
  config.runner.stream_frames_override = 30000;
  config.runner.train_records = 80;
  config.runner.calib_records = 120;
  config.runner.test_records = 60;
  config.runner.model_template.epochs = 4;
  config.runner.seed = 77;
  return config;
}

TEST(ProvenanceFleetTest, DigestIsIdenticalSoloAndFleetAcrossThreadsAndBatch) {
  const data::Task task = data::FindTask("TA10").value();
  const fleet::FleetConfig base = SmallFleetConfig();

  // Solo reference digests from a single-threaded fleet.
  fleet::StreamFleet reference(task, base);
  std::vector<fleet::FleetStreamResult> solo;
  for (int s = 0; s < base.num_streams; ++s) {
    solo.push_back(reference.RunStreamSolo(s));
    EXPECT_GT(solo.back().provenance_boundaries, 0) << "stream " << s;
    EXPECT_NE(solo.back().provenance_digest, 0u) << "stream " << s;
  }

  std::vector<fleet::FleetConfig> variants;
  for (const int threads : {1, 4}) {
    for (const size_t batch : {size_t{2}, size_t{16}}) {
      fleet::FleetConfig c = base;
      c.threads = threads;
      c.batch_size = batch;
      variants.push_back(c);
    }
  }
  for (const fleet::FleetConfig& config : variants) {
    fleet::StreamFleet fleet_run(task, config);
    const fleet::FleetRunResult run = fleet_run.Run();
    for (int s = 0; s < config.num_streams; ++s) {
      const fleet::FleetStreamResult& batched =
          run.streams[static_cast<size_t>(s)];
      EXPECT_EQ(batched.provenance_digest,
                solo[static_cast<size_t>(s)].provenance_digest)
          << "stream " << s << " threads " << config.threads << " batch "
          << config.batch_size;
      EXPECT_EQ(batched.provenance_boundaries,
                solo[static_cast<size_t>(s)].provenance_boundaries);
    }
  }
}

TEST(ProvenanceFleetTest, RollupAgreesWithAuditAndRingIdentityHolds) {
  const data::Task task = data::FindTask("TA10").value();
  fleet::FleetConfig config = SmallFleetConfig();
  config.provenance_ring = 2;  // Force eviction: 3 boundaries per stream.
  fleet::StreamFleet fleet_run(task, config);
  const fleet::FleetRunResult run = fleet_run.Run();
  for (const fleet::FleetStreamResult& stream : run.streams) {
    EXPECT_EQ(stream.provenance_recorded + stream.provenance_overflowed,
              stream.provenance_boundaries)
        << "stream " << stream.stream_index;
    EXPECT_LE(stream.provenance_recorded, 2);
    const ProvenanceRollup& rollup = stream.provenance_rollup;
    EXPECT_EQ(rollup.boundaries, stream.provenance_boundaries);
    // The verdict stamps mirror the auditor's accounting exactly.
    EXPECT_EQ(rollup.truth_present, stream.audit_positives);
    EXPECT_EQ(rollup.misses, stream.audit_misses);
    EXPECT_EQ(rollup.miscovered, stream.audit_miscovered);
    // Every scored boundary got exactly one batch stamp.
    EXPECT_EQ(rollup.residency_count, rollup.scored);
    EXPECT_EQ(rollup.scored + rollup.reused, rollup.boundaries);
  }
}

TEST(ProvenanceFleetTest, DisabledLedgerYieldsZeroDigestsAndStillMatches) {
  const data::Task task = data::FindTask("TA10").value();
  fleet::FleetConfig config = SmallFleetConfig();
  config.num_streams = 2;
  config.provenance = false;
  fleet::StreamFleet fleet_run(task, config);
  const fleet::FleetRunResult run = fleet_run.Run();
  for (int s = 0; s < config.num_streams; ++s) {
    const fleet::FleetStreamResult& stream =
        run.streams[static_cast<size_t>(s)];
    EXPECT_EQ(stream.provenance_digest, 0u);
    EXPECT_EQ(stream.provenance_boundaries, 0);
    const fleet::FleetStreamResult solo = fleet_run.RunStreamSolo(s);
    EXPECT_TRUE(fleet::SameStreamResult(stream, solo)) << "stream " << s;
  }
}

TEST(ProvenanceFleetTest, AuditFoldIntoRegistryIsDeterministicWithExemplars) {
  const data::Task task = data::FindTask("TA10").value();
  // The default (full) runner config with a 20-tenant fleet: wide enough
  // that at least one tenant actually miscovers, so the exemplar path is
  // exercised rather than vacuously satisfied.
  fleet::FleetConfig config;
  config.num_streams = 20;
  config.frames_per_stream = 700;
  config.batch_size = 4;
  config.max_batch_delay_ticks = 3;
  config.wave_size = 4;

  // Two runs at different thread counts must export identical audit
  // totals AND identical exemplars (the fold is serial in stream order).
  int64_t misses[2], miscovered[2];
  int64_t miss_ex[2], miscover_ex[2];
  for (const int threads : {1, 4}) {
    fleet::FleetConfig c = config;
    c.threads = threads;
    obs::MetricsRegistry registry;
    fleet::StreamFleet fleet_run(task, c, &registry, nullptr);
    const fleet::FleetRunResult run = fleet_run.Run();
    const int slot = threads == 1 ? 0 : 1;
    obs::Counter* miss_counter =
        registry.GetCounter(obs::names::kAuditMisses);
    obs::Counter* miscover_counter =
        registry.GetCounter(obs::names::kAuditMiscovered);
    misses[slot] = miss_counter->Value();
    miscovered[slot] = miscover_counter->Value();
    miss_ex[slot] = miss_counter->exemplar();
    miscover_ex[slot] = miscover_counter->exemplar();
    // The exported totals are the sum of the per-stream audit results.
    int64_t want_misses = 0;
    int64_t want_miscovered = 0;
    int64_t want_miss_ex = kNoExemplar;
    int64_t want_miscover_ex = kNoExemplar;
    for (const fleet::FleetStreamResult& stream : run.streams) {
      want_misses += stream.audit_misses;
      want_miscovered += stream.audit_miscovered;
      if (stream.audit_misses > 0 && stream.last_miss_decision >= 0) {
        want_miss_ex = stream.last_miss_decision;
      }
      if (stream.audit_miscovered > 0 &&
          stream.last_miscover_decision >= 0) {
        want_miscover_ex = stream.last_miscover_decision;
      }
      // An offending id names this very stream's boundary grid.
      if (stream.last_miss_decision >= 0) {
        EXPECT_EQ(obs::StreamProvenance::StreamOfId(
                      stream.last_miss_decision),
                  stream.stream_index);
      }
    }
    EXPECT_EQ(misses[slot], want_misses);
    EXPECT_EQ(miscovered[slot], want_miscovered);
    EXPECT_EQ(miss_ex[slot], want_miss_ex);
    EXPECT_EQ(miscover_ex[slot], want_miscover_ex);
  }
  EXPECT_EQ(misses[0], misses[1]);
  EXPECT_EQ(miscovered[0], miscovered[1]);
  EXPECT_EQ(miss_ex[0], miss_ex[1]);
  EXPECT_EQ(miscover_ex[0], miscover_ex[1]);
  // The flaky fleet config actually exercises the exemplar path.
  EXPECT_GT(miscovered[0], 0);
  EXPECT_NE(miscover_ex[0], obs::kNoExemplar);
}

TEST(ProvenanceFleetTest, HealthReportIsConsistentAndWorstFirst) {
  const data::Task task = data::FindTask("TA10").value();
  fleet::FleetConfig config = SmallFleetConfig();
  config.fault_profile = "flaky";  // Exercise relay drops/breaker states.
  fleet::StreamFleet fleet_run(task, config);
  const fleet::FleetRunResult run = fleet_run.Run();
  const fleet::FleetHealthReport report = fleet::BuildHealthReport(run);
  ASSERT_EQ(report.streams_total, config.num_streams);
  ASSERT_EQ(report.streams.size(), run.streams.size());
  for (size_t i = 1; i < report.streams.size(); ++i) {
    const fleet::StreamHealth& prev = report.streams[i - 1];
    const fleet::StreamHealth& cur = report.streams[i];
    EXPECT_TRUE(prev.badness > cur.badness ||
                (prev.badness == cur.badness &&
                 prev.stream_index < cur.stream_index))
        << "health rows not sorted worst-first at row " << i;
  }
  int64_t breaches = 0;
  for (const fleet::StreamHealth& health : report.streams) {
    breaches += health.breaches;
    EXPECT_GE(health.duty_cycle, 0.0);
    EXPECT_LE(health.duty_cycle, 1.0);
    const fleet::FleetStreamResult& source =
        run.streams[static_cast<size_t>(health.stream_index)];
    EXPECT_EQ(health.breaches, source.audit_breaches);
    EXPECT_EQ(health.relay_dropped_orders, source.relay.orders_dropped);
    // JSON row carries the stream index and parses as one object.
    const std::string json = fleet::StreamHealthJson(health);
    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json.back(), '}');
    EXPECT_NE(json.find("\"stream\":" +
                        std::to_string(health.stream_index)),
              std::string::npos);
  }
  EXPECT_EQ(breaches, report.total_breaches);
  const std::string text = fleet::HealthReportText(report, 3);
  EXPECT_NE(text.find("fleet health: 6 streams"), std::string::npos);
  EXPECT_NE(text.find("worst 3 streams"), std::string::npos);
}

}  // namespace
}  // namespace eventhit::obs
