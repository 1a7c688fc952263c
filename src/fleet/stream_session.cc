#include "fleet/stream_session.h"

#include <cmath>
#include <cstring>
#include <utility>

#include "common/check.h"
#include "nn/backend.h"
#include "sched/cost_model.h"
#include "nn/workspace.h"

namespace eventhit::fleet {
namespace {

// FNV-1a 64-bit.
constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

uint64_t FnvBytes(uint64_t h, const void* data, size_t n) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= bytes[i];
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

}  // namespace

bool SameStreamResult(const FleetStreamResult& a, const FleetStreamResult& b) {
  auto bits = [](double v) {
    uint64_t u = 0;
    std::memcpy(&u, &v, sizeof(u));
    return u;
  };
  return a.stream_index == b.stream_index &&
         a.decision_digest == b.decision_digest &&
         a.delivery_digest == b.delivery_digest &&
         a.state_digest == b.state_digest &&
         std::memcmp(&a.marshaller, &b.marshaller, sizeof(a.marshaller)) ==
             0 &&
         std::memcmp(&a.relay, &b.relay, sizeof(a.relay)) == 0 &&
         a.invoice.frames_processed == b.invoice.frames_processed &&
         a.invoice.requests == b.invoice.requests &&
         bits(a.invoice.total_cost_usd) == bits(b.invoice.total_cost_usd) &&
         bits(a.invoice.compute_seconds) == bits(b.invoice.compute_seconds) &&
         a.audit_positives == b.audit_positives &&
         a.audit_misses == b.audit_misses &&
         a.audit_endpoints == b.audit_endpoints &&
         a.audit_miscovered == b.audit_miscovered &&
         a.audit_breaches == b.audit_breaches &&
         a.last_miss_decision == b.last_miss_decision &&
         a.last_miscover_decision == b.last_miscover_decision &&
         a.last_breach_decision == b.last_breach_decision &&
         a.recal_triggers_breach == b.recal_triggers_breach &&
         a.recal_triggers_drift == b.recal_triggers_drift &&
         a.recal_refusals_cooldown == b.recal_refusals_cooldown &&
         a.recal_refusals_min_samples == b.recal_refusals_min_samples &&
         a.recal_swaps == b.recal_swaps &&
         a.recal_last_swap_frame == b.recal_last_swap_frame &&
         // The provenance digest folds only clock-pure stamps, so it must
         // be bit-identical between a solo replay and any fleet run. The
         // rollup is deliberately excluded: its batch-residency fields
         // differ between solo and fleet by design.
         a.provenance_digest == b.provenance_digest &&
         a.provenance_boundaries == b.provenance_boundaries &&
         a.provenance_recorded == b.provenance_recorded &&
         a.provenance_overflowed == b.provenance_overflowed;
}

StreamSession::StreamSession(SessionSpec spec)
    : video_(spec.video),
      first_frame_(spec.first_frame),
      spec_(std::move(spec)),
      decision_digest_(kFnvOffset),
      delivery_digest_(kFnvOffset) {
  EVENTHIT_CHECK(video_ != nullptr);
  EVENTHIT_CHECK(spec_.task != nullptr);
  EVENTHIT_CHECK(spec_.model != nullptr);
  EVENTHIT_CHECK(spec_.strategy != nullptr);
  extractor_.collection_window = video_->spec().collection_window;
  extractor_.horizon = video_->spec().horizon;
  push_frames_ =
      video_->num_frames() - extractor_.horizon - first_frame_;
  EVENTHIT_CHECK_GT(push_frames_, 0);
  const size_t num_events = spec_.task->event_indices.size();

  if (spec_.provenance) {
    provenance_ = std::make_unique<obs::StreamProvenance>(
        spec_.stream_index, extractor_.collection_window, extractor_.horizon,
        spec_.provenance_ring);
  }

  service_ = std::make_unique<cloud::CloudService>(
      video_, cloud::CloudConfig{}, spec_.cloud_seed, spec_.metrics);
  if (spec_.fault_profile != "none" && !spec_.fault_profile.empty()) {
    auto profile =
        sim::MakeFaultProfile(spec_.fault_profile, spec_.fault_seed);
    EVENTHIT_CHECK_OK(profile.status());
    faults_ = std::make_unique<sim::FaultInjector>(profile.value());
  }
  cloud::RelayConfig relay_config;
  relay_config.degraded_mode = spec_.degraded_mode;
  relay_config.replay_horizon_frames = extractor_.horizon;
  relay_ = std::make_unique<cloud::CloudRelay>(
      service_.get(), relay_config, spec_.relay_seed, faults_.get(),
      spec_.metrics, /*trace=*/nullptr, spec_.log);
  relay_->set_delivery_callback([this](const cloud::RelayDelivery& delivery) {
    uint64_t h = delivery_digest_;
    h = FnvI64(h, delivery.request_id);
    h = FnvI64(h, static_cast<int64_t>(delivery.event));
    h = FnvI64(h, delivery.frames.start);
    h = FnvI64(h, delivery.frames.end);
    h = FnvI64(h, delivery.replayed ? 1 : 0);
    for (const bool hit : delivery.detections) {
      h = FnvI64(h, hit ? 1 : 0);
    }
    delivery_digest_ = h;
  });

  strategy_ = std::make_unique<core::EventHitStrategy>(*spec_.strategy);
  marshaller_ = std::make_unique<core::Marshaller>(
      strategy_.get(), extractor_.collection_window, extractor_.horizon,
      video_->feature_dim(), num_events, spec_.metrics);
  marshaller_->set_provenance(provenance_.get());
  // The order carries its own anchor: reused (policy-skipped) completions
  // fire inside Push, where no "current anchor" of a completion exists.
  // Known defect, kept byte-for-byte (DESIGN.md §5g): `order.event` is the
  // task-local event index, while CloudService::Detect reads the video
  // timeline by dataset event index.
  marshaller_->set_relay_callback([this](const core::RelayOrder& order) {
    const cloud::RelayResult result = relay_->Submit(
        order.event,
        sim::Interval{order.frames.start + first_frame_,
                      order.frames.end + first_frame_},
        order.anchor + first_frame_);
    if (provenance_ != nullptr) {
      provenance_->StampRelay(order.anchor, result.attempts,
                              static_cast<int8_t>(result.outcome),
                              static_cast<int8_t>(relay_->breaker_state()));
    }
  });
  marshaller_->set_decision_callback(
      [this](int64_t anchor, const core::MarshalDecision& decision,
             bool /*reused*/) { OnDecision(anchor, decision); });
  if (spec_.collect_policy.kind != sched::CollectPolicyKind::kFull) {
    marshaller_->set_collect_policy(
        sched::MakeCollectPolicy(spec_.collect_policy));
    // Prices the sched.* accounting: one forward pass of the model.
    const core::EventHitConfig& model = spec_.model->config();
    sched::LocalCostModel cost;
    cost.forward_mflops_per_boundary = sched::EstimateForwardMflops(
        extractor_.collection_window, static_cast<int>(video_->feature_dim()),
        model.lstm_hidden, model.shared_dim, model.event_hidden,
        static_cast<int>(num_events), extractor_.horizon);
    marshaller_->set_cost_model(cost);
  }

  obs::AuditConfig audit_config = spec_.audit;
  audit_config.sim_tid = spec_.stream_index;
  auditor_ = std::make_unique<obs::GuarantyAuditor>(
      audit_config, spec_.metrics, /*trace=*/nullptr, spec_.log);

  if (spec_.recal) {
    recal_ = std::make_unique<adapt::RecalLoop>(
        spec_.model, strategy_.get(),
        spec_.recal_breach_trigger ? auditor_.get() : nullptr,
        spec_.recal_config, spec_.metrics);
  }
}

// The marshaller calls into the strategy, relay and ledger declared after
// it, so it goes first.
StreamSession::~StreamSession() { marshaller_.reset(); }

void StreamSession::Complete(const core::EventScores& scores,
                             const BatchStamp& stamp) {
  // The backend and conformal generation are stamped at scoring time: a
  // recal swap between this boundary's scoring and a later one must show
  // the generation this decision actually used.
  if (provenance_ != nullptr) {
    const int64_t anchor = marshaller_->oldest_pending_anchor();
    provenance_->StampBatch(anchor, stamp.batch_id, stamp.flush_code,
                            stamp.residency_ticks);
    provenance_->StampInference(
        anchor, nn::BackendKindName(spec_.model->inference_backend()),
        strategy_->calibrator_generation());
  }
  // Deciding with the stream's own strategy keeps a recal swap on one
  // stream invisible to every other stream in the same batch.
  completing_scores_ = &scores;
  marshaller_->CompletePrediction(strategy_->DecideFromScores(scores));
  completing_scores_ = nullptr;
}

void StreamSession::OnDecision(int64_t local_anchor,
                               const core::MarshalDecision& decision) {
  const int64_t anchor = first_frame_ + local_anchor;
  // The relay clock runs on the completion's own anchor frame — batching
  // delay must never shift simulated time (determinism contract).
  relay_->AdvanceTo(anchor);

  uint64_t h = decision_digest_;
  h = FnvI64(h, anchor);
  for (size_t k = 0; k < decision.exists.size(); ++k) {
    h = FnvI64(h, decision.exists[k] ? 1 : 0);
    h = FnvI64(h, decision.intervals[k].start);
    h = FnvI64(h, decision.intervals[k].end);
  }
  decision_digest_ = h;

  data::Record truth;
  bool audited = false;
  bool swapped = false;
  if (anchor >= extractor_.collection_window - 1 &&
      anchor + extractor_.horizon < video_->num_frames()) {
    truth = data::BuildRecord(*video_, *spec_.task, extractor_, anchor);
    EVENTHIT_CHECK_EQ(decision.exists.size(), truth.labels.size());
    audited = true;
    const int64_t decision_id =
        provenance_ != nullptr
            ? provenance_->DecisionIdOfAnchor(local_anchor)
            : -1;
    for (size_t k = 0; k < truth.labels.size(); ++k) {
      const obs::AuditOutcome outcome =
          core::AuditOutcomeOf(truth, decision, k, anchor, decision_id);
      auditor_->Observe(outcome);
      if (provenance_ != nullptr) {
        const bool missed =
            outcome.truth_present && !outcome.predicted_present;
        const int miscovered = core::MiscoveredEndpoints(outcome);
        provenance_->StampVerdict(local_anchor, outcome.truth_present,
                                  missed, miscovered);
        if (missed) last_miss_decision_ = decision_id;
        if (miscovered > 0) last_miscover_decision_ = decision_id;
      }
    }
    // Feed the recalibration loop after the auditor so a breach latched by
    // this very boundary can trigger on it. Policy-reused completions carry
    // no fresh scores and are skipped — identical in fleet and solo runs.
    if (recal_ != nullptr && completing_scores_ != nullptr) {
      swapped = recal_->Observe(anchor, truth, *completing_scores_);
    }
  }

  // Report the invoice delta to the shared accountant in integer micro-USD:
  // integer adds commute, so the aggregate at a tick boundary is
  // independent of completion interleaving.
  if (spec_.spend_microusd != nullptr) {
    const int64_t total_microusd = static_cast<int64_t>(
        std::llround(service_->invoice().total_cost_usd * 1e6));
    spec_.spend_microusd->fetch_add(total_microusd - billed_microusd_,
                                    std::memory_order_relaxed);
    billed_microusd_ = total_microusd;
  }

  if (spec_.observer) {
    spec_.observer(*this, anchor, decision, audited ? &truth : nullptr,
                   swapped);
  }
}

FleetStreamResult StreamSession::Finish() {
  EVENTHIT_CHECK_EQ(marshaller_->pending_predictions(), 0u);
  const int64_t end = first_frame_ + push_frames_;
  relay_->Flush(end);
  auditor_->Finalize(end);

  // Deliveries can still arrive from the final replay pass inside Flush —
  // the digest callback has already folded them in.
  FleetStreamResult result;
  result.stream_index = spec_.stream_index;
  result.decision_digest = decision_digest_;
  result.delivery_digest = delivery_digest_;
  result.marshaller = marshaller_->stats();
  result.relay = relay_->stats();
  result.invoice = service_->invoice();
  const int num_events = static_cast<int>(spec_.task->event_indices.size());
  for (int k = 0; k < num_events; ++k) {
    result.audit_positives += auditor_->positives(k);
    result.audit_misses += auditor_->misses(k);
    result.audit_endpoints += auditor_->endpoints(k);
    result.audit_miscovered += auditor_->miscovered(k);
  }
  result.audit_breaches = auditor_->breach_count();
  result.last_miss_decision = last_miss_decision_;
  result.last_miscover_decision = last_miscover_decision_;
  result.last_breach_decision = auditor_->last_breach_decision_id();
  if (recal_ != nullptr) {
    const adapt::RecalStats& rs = recal_->stats();
    result.recal_triggers_breach = rs.triggers_breach;
    result.recal_triggers_drift = rs.triggers_drift;
    result.recal_refusals_cooldown = rs.refusals_cooldown;
    result.recal_refusals_min_samples = rs.refusals_min_samples;
    result.recal_swaps = rs.swaps;
    result.recal_last_swap_frame = rs.last_swap_time;
  }
  if (provenance_ != nullptr) {
    result.provenance_digest = provenance_->Digest();
    result.provenance_boundaries = provenance_->boundaries();
    result.provenance_recorded = provenance_->recorded();
    result.provenance_overflowed = provenance_->overflowed();
    result.provenance_rollup = provenance_->rollup();
    if (spec_.export_provenance_records) {
      result.provenance_records = provenance_->ExportResident();
    }
  }

  uint64_t h = result.decision_digest;
  h = FnvI64(h, static_cast<int64_t>(result.delivery_digest));
  for (const int64_t v :
       {result.marshaller.frames_seen, result.marshaller.horizons_predicted,
        result.marshaller.frames_relayed, result.marshaller.relay_orders,
        result.marshaller.horizons_reused, result.marshaller.frames_scored,
        result.marshaller.frames_skipped, result.marshaller.local_mflops,
        result.marshaller.saved_mflops, result.relay.orders_submitted,
        result.relay.orders_delivered, result.relay.orders_replayed,
        result.relay.orders_dropped, result.relay.frames_submitted,
        result.relay.frames_delivered, result.relay.frames_dropped,
        result.relay.frames_pending, result.relay.frames_in_flight,
        result.relay.attempts, result.relay.retries,
        result.invoice.frames_processed, result.invoice.requests}) {
    h = FnvI64(h, v);
  }
  h = FnvF64(h, result.invoice.total_cost_usd);
  h = FnvF64(h, result.invoice.compute_seconds);
  // The provenance digest is itself clock-pure, so folding it here makes
  // state_digest equality cover the full causal chain too.
  for (const int64_t v :
       {result.audit_positives, result.audit_misses, result.audit_endpoints,
        result.audit_miscovered, result.audit_breaches,
        result.last_miss_decision, result.last_miscover_decision,
        result.last_breach_decision, result.recal_triggers_breach,
        result.recal_triggers_drift, result.recal_refusals_cooldown,
        result.recal_refusals_min_samples, result.recal_swaps,
        result.recal_last_swap_frame,
        static_cast<int64_t>(result.provenance_digest),
        result.provenance_boundaries, result.provenance_overflowed}) {
    h = FnvI64(h, v);
  }
  result.state_digest = h;
  return result;
}

FleetStreamResult StreamSession::RunSolo() {
  nn::Workspace ws;
  data::Record record;
  int64_t batches = 0;
  for (int64_t frame = 0; frame < push_frames_; ++frame) {
    if (!Push(frame, &record)) continue;
    // Same scoring path as the fleet: PredictBatched at batch size 1 is
    // bit-identical to any other composition. The batch stamp records zero
    // residency and the solo flush reason (never part of a digest).
    core::EventScores scores;
    spec_.model->PredictBatched(&record, 1, &scores, ws);
    Complete(scores, BatchStamp{batches++, obs::kProvFlushSolo, 0});
  }
  return Finish();
}

}  // namespace eventhit::fleet
