// Shared output types of EventHit and all compared marshalling strategies.
#ifndef EVENTHIT_CORE_PREDICTION_H_
#define EVENTHIT_CORE_PREDICTION_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "data/record.h"
#include "obs/audit.h"
#include "sim/interval.h"

namespace eventhit::core {

/// Raw EventHit outputs for one record: per event type, the existence score
/// b_k and the per-frame occurrence scores theta_{k,1..H} (probabilities,
/// i.e. after the sigmoid).
struct EventScores {
  /// b_k per event (size K).
  std::vector<double> existence;
  /// theta_{k,v} per event (K x H); theta[k][v-1] scores horizon offset v.
  std::vector<std::vector<float>> occupancy;
};

/// The decision a marshalling strategy makes for one record: which events it
/// believes will occur in the horizon, and for those, which frame-offset
/// interval to relay to the cloud service. Offsets are 1-based in [1, H];
/// intervals of absent events must be empty.
struct MarshalDecision {
  std::vector<bool> exists;
  std::vector<sim::Interval> intervals;
  /// max_k of the raw existence scores b_k behind this decision; 0 for
  /// strategies that do not expose scores. Feedback signal for adaptive
  /// collection scheduling (sched/collect_policy.h) — never part of the
  /// relay/billing output, so strategies that leave it 0 are unaffected.
  double max_existence = 0.0;
};

/// The auditor's view of event `k` of `decision` against its label in
/// `truth`: presence (the C-CLASSIFY track) and, when truth and decision
/// both say present, endpoint coverage (the C-REGRESS track). The one
/// place outcomes are built — the offline replay (eval::BuildAuditOutcomes)
/// and the live pipeline (fleet::StreamSession) both call it.
inline obs::AuditOutcome AuditOutcomeOf(const data::Record& truth,
                                        const MarshalDecision& decision,
                                        size_t k, int64_t sim_time,
                                        int64_t decision_id = -1) {
  const data::EventLabel& label = truth.labels[k];
  obs::AuditOutcome outcome;
  outcome.sim_time = sim_time;
  outcome.event = static_cast<int>(k);
  outcome.truth_present = label.present;
  outcome.predicted_present = decision.exists[k];
  outcome.decision_id = decision_id;
  if (label.present && decision.exists[k]) {
    outcome.start_covered = decision.intervals[k].start <= label.start;
    outcome.end_covered = decision.intervals[k].end >= label.end;
  }
  return outcome;
}

/// Endpoints `outcome` failed to cover (0 unless truth and decision both
/// said present).
inline int MiscoveredEndpoints(const obs::AuditOutcome& outcome) {
  if (!outcome.truth_present || !outcome.predicted_present) return 0;
  return (outcome.start_covered ? 0 : 1) + (outcome.end_covered ? 0 : 1);
}

/// Interface implemented by every algorithm of §VI.B (EHO/EHC/EHR/EHCR,
/// OPT, BF, COX, VQS, APP-VAE). A strategy observes only the record (its
/// covariates and anchor frame); implementations that model per-frame
/// filters (VQS) additionally consult the stream they were constructed on,
/// mirroring the frames those systems would actually process.
class MarshalStrategy {
 public:
  virtual ~MarshalStrategy() = default;

  /// Display name ("EHCR", "COX", ...).
  virtual std::string name() const = 0;

  /// Decision for one record.
  virtual MarshalDecision Decide(const data::Record& record) const = 0;
};

}  // namespace eventhit::core

#endif  // EVENTHIT_CORE_PREDICTION_H_
