// One stream's serving pipeline — collect window → predict → conformal
// decision → relay → guarantee audit — wired in one place. A session owns
// a private copy of the shared strategy, its marshaller, cloud service,
// relay and auditor, the optional recalibration loop and provenance
// ledger, and the digests of what it decided and delivered. Its driver
// scores: Push() yields a boundary's record, the driver runs the shared
// model on it (PredictBatched is bit-identical alone or in any batch) and
// hands the scores to Complete() in FIFO order. The drivers are
// StreamFleet::Run (cross-stream batches), RunSolo (batch size 1: solo
// replay) and the drift-recovery lab (fleet/recovery_lab.h).
#ifndef EVENTHIT_FLEET_STREAM_SESSION_H_
#define EVENTHIT_FLEET_STREAM_SESSION_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "adapt/recal_loop.h"
#include "cloud/cloud_service.h"
#include "cloud/relay.h"
#include "common/check.h"
#include "core/marshaller.h"
#include "core/strategies.h"
#include "data/record.h"
#include "data/record_extractor.h"
#include "data/tasks.h"
#include "obs/audit.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/provenance.h"
#include "sched/collect_policy.h"
#include "sim/fault_injector.h"
#include "sim/synthetic_video.h"

namespace eventhit::fleet {

/// Settled per-stream outcome. The digests are FNV-1a folds of the full
/// decision/delivery/accounting byte streams; `state_digest` additionally
/// folds the marshaller stats, relay stats, invoice and audit counts, so
/// digest equality is byte-identity of everything observable.
struct FleetStreamResult {
  int stream_index = -1;
  uint64_t decision_digest = 0;
  uint64_t delivery_digest = 0;
  uint64_t state_digest = 0;
  core::MarshallerStats marshaller;
  cloud::RelayStats relay;
  cloud::Invoice invoice;
  int64_t audit_positives = 0;
  int64_t audit_misses = 0;
  int64_t audit_endpoints = 0;
  int64_t audit_miscovered = 0;
  int64_t audit_breaches = 0;
  // Most recent offending decision ids on this stream's clock (-1 when
  // clean or when the ledger is off) — folded into the exported audit
  // counters as OpenMetrics exemplars at end of run.
  int64_t last_miss_decision = -1;
  int64_t last_miscover_decision = -1;
  int64_t last_breach_decision = -1;
  // Recalibration-loop outcome (all zero / -1 when the loop is off).
  // Folded into state_digest like the audit counts.
  int64_t recal_triggers_breach = 0;
  int64_t recal_triggers_drift = 0;
  int64_t recal_refusals_cooldown = 0;
  int64_t recal_refusals_min_samples = 0;
  int64_t recal_swaps = 0;
  int64_t recal_last_swap_frame = -1;
  // Provenance ledger outcome (all zero when the ledger is off). The
  // digest folds only clock-pure stamps, so it participates in the
  // solo/fleet bit-exactness contract; the rollup carries batch residency
  // and therefore legitimately differs between solo and fleet.
  uint64_t provenance_digest = 0;
  int64_t provenance_boundaries = 0;
  int64_t provenance_recorded = 0;
  int64_t provenance_overflowed = 0;
  obs::ProvenanceRollup provenance_rollup;
  /// Resident records (SessionSpec::export_provenance_records only).
  std::vector<obs::ProvenanceRecord> provenance_records;
};

/// True when every field (doubles compared by bit pattern) matches — the
/// bit-exactness predicate of the fleet tests.
bool SameStreamResult(const FleetStreamResult& a, const FleetStreamResult& b);

/// Where a scored boundary sat in its driver's batch schedule. Stamped on
/// the provenance record only — batch placement never enters a digest.
struct BatchStamp {
  int64_t batch_id = 0;
  int8_t flush_code = obs::kProvFlushSolo;
  int64_t residency_ticks = 0;
};

class StreamSession;

/// Called at the end of every completed boundary, after the session's own
/// accounting: `anchor` is the absolute video frame, `truth` the boundary's
/// ground-truth record (nullptr when its horizon runs past the video) and
/// `swapped` whether the recalibration loop hot-swapped on this boundary.
using CompletionObserver = std::function<void(
    const StreamSession& session, int64_t anchor,
    const core::MarshalDecision& decision, const data::Record* truth,
    bool swapped)>;

/// Everything a session is built from. Pointers are non-owning and must
/// outlive the session.
struct SessionSpec {
  int stream_index = 0;
  const data::Task* task = nullptr;
  const sim::SyntheticVideo* video = nullptr;
  /// Video frame of the session's local frame 0 (0 in the fleet, the
  /// calibration end in the recovery lab). Added to every anchor and relay
  /// interval before it reaches the video, relay, auditor or loop. The
  /// session pushes local frames [0, video frames - H - first_frame), so
  /// every anchor's horizon lies inside the video.
  int64_t first_frame = 0;

  /// The shared trained model and a template strategy over it. The session
  /// decides with a private copy of the template, so a recalibration swap
  /// stays within the stream.
  const core::EventHitModel* model = nullptr;
  const core::EventHitStrategy* strategy = nullptr;
  /// Auditor knobs (sim_tid is set to stream_index).
  obs::AuditConfig audit;

  uint64_t cloud_seed = 0;
  uint64_t relay_seed = 0;
  /// Named relay fault profile ("none" disables) and its schedule seed.
  std::string fault_profile = "none";
  uint64_t fault_seed = 0;
  cloud::DegradedMode degraded_mode =
      cloud::DegradedMode::kDropWithAccounting;

  /// Collection policy (kFull installs none).
  sched::CollectPolicySpec collect_policy;

  /// Arms a recalibration loop over the private strategy; with
  /// `recal_breach_trigger` off the loop runs on drift alarms alone.
  bool recal = false;
  bool recal_breach_trigger = true;
  adapt::RecalConfig recal_config;

  /// Decision provenance ledger with `provenance_ring` resident records;
  /// Finish() copies them out when `export_provenance_records` is set.
  bool provenance = false;
  size_t provenance_ring = 4;
  bool export_provenance_records = false;

  /// Telemetry sinks of every component (nullptr = the process globals).
  obs::MetricsRegistry* metrics = nullptr;
  obs::Logger* log = nullptr;
  /// Shared spend accountant the session adds its invoice deltas to, in
  /// integer micro-USD (nullptr = none).
  std::atomic<int64_t>* spend_microusd = nullptr;
  /// Optional per-completion observer (the recovery lab's accounting).
  CompletionObserver observer;
};

class StreamSession {
 public:
  explicit StreamSession(SessionSpec spec);
  ~StreamSession();

  StreamSession(const StreamSession&) = delete;
  StreamSession& operator=(const StreamSession&) = delete;

  /// Local frames the session pushes.
  int64_t push_frames() const { return push_frames_; }

  /// Pushes local frame `frame` (strictly in order). Returns true when the
  /// frame is a scored prediction boundary, with `*pending` holding the
  /// record to score; its scores go to Complete() in FIFO order.
  bool Push(int64_t frame, data::Record* pending) {
    EVENTHIT_CHECK_EQ(frame, next_frame_);
    ++next_frame_;
    // Skip feature extraction on frames the policy schedule proves no
    // scored window will read (always needed without a policy).
    const float* features =
        marshaller_->NextFrameNeedsFeatures()
            ? video_->FrameFeatures(first_frame_ + frame)
            : nullptr;
    return marshaller_->PushFrameDeferred(features, pending);
  }

  /// Completes the oldest pending boundary: decides from `scores` with the
  /// stream's own strategy, relays, audits and folds the digests.
  void Complete(const core::EventScores& scores, const BatchStamp& stamp);

  /// Flushes the relay, finalizes the auditor and settles the result once
  /// every pushed boundary is completed.
  FleetStreamResult Finish();

  /// Drives the whole stream alone, scoring each boundary at batch size 1
  /// as it is pushed, then Finish().
  FleetStreamResult RunSolo();

  const obs::GuarantyAuditor& auditor() const { return *auditor_; }
  /// nullptr when SessionSpec::recal is off.
  const adapt::RecalLoop* recal() const { return recal_.get(); }

 private:
  /// Post-decision accounting for scored and policy-reused boundaries
  /// alike, in stream order (the marshaller's decision callback).
  void OnDecision(int64_t local_anchor, const core::MarshalDecision& decision);

  // Per-frame state first, so the fleet's push phase reads one cache line
  // of the session.
  const sim::SyntheticVideo* video_;
  std::unique_ptr<core::Marshaller> marshaller_;
  int64_t first_frame_;  // SessionSpec::first_frame.
  int64_t next_frame_ = 0;
  int64_t push_frames_;

  SessionSpec spec_;
  data::ExtractorConfig extractor_;  // The video's M and H.
  std::unique_ptr<cloud::CloudService> service_;
  std::unique_ptr<sim::FaultInjector> faults_;
  std::unique_ptr<cloud::CloudRelay> relay_;
  std::unique_ptr<core::EventHitStrategy> strategy_;
  std::unique_ptr<obs::GuarantyAuditor> auditor_;
  std::unique_ptr<adapt::RecalLoop> recal_;
  // Single-writer: only the thread driving this session touches it.
  std::unique_ptr<obs::StreamProvenance> provenance_;
  // Scores of the boundary currently completing (Complete scope); nullptr
  // during policy-reused completions, which carry no fresh scores.
  const core::EventScores* completing_scores_ = nullptr;

  int64_t billed_microusd_ = 0;  // Invoice already added to the accountant.
  int64_t last_miss_decision_ = -1;
  int64_t last_miscover_decision_ = -1;
  uint64_t decision_digest_;
  uint64_t delivery_digest_;
};

}  // namespace eventhit::fleet

#endif  // EVENTHIT_FLEET_STREAM_SESSION_H_
