// Resilient cloud relay: wraps CloudService behind a bounded submission
// queue with per-request deadlines, capped exponential backoff with seeded
// jitter, and a circuit breaker that trips on consecutive failures and
// half-opens on a probe schedule. On sustained outage the relay degrades
// to a configurable policy — buffer-and-replay within the horizon, or
// drop-with-accounting — so the marshaller's spillage/recall bookkeeping
// stays exact under failure.
//
// Everything runs on the simulated stream clock (frame index / stream
// FPS): no wall time, no hidden state. Fault draws, jitter and breaker
// timing are pure functions of the seeds, so a chaos replay with the same
// seed is byte-identical (DESIGN.md §5f). With no active fault injector
// the relay is a zero-overhead pass-through: Submit issues exactly the
// CloudService::Detect call sequence the pre-relay pipeline issued.
#ifndef EVENTHIT_CLOUD_RELAY_H_
#define EVENTHIT_CLOUD_RELAY_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "cloud/circuit_breaker.h"
#include "cloud/cloud_service.h"
#include "cloud/retry_policy.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/fault_injector.h"
#include "sim/interval.h"

namespace eventhit::cloud {

/// What the relay does with a request that exhausted its retry budget (or
/// met an open breaker).
enum class DegradedMode {
  /// Count the frames as dropped; recall bookkeeping charges the loss.
  kDropWithAccounting,
  /// Park the order in the bounded queue and replay it when the breaker
  /// re-closes, as long as the order is still within `replay_horizon_
  /// frames` of its submission (stale detections are useless past the
  /// horizon). Queue overflow and expiry fall back to dropping.
  kBufferAndReplay,
};

/// Parses the `--degraded-mode` value: "drop" or "buffer". Anything else
/// is an InvalidArgumentError naming the choices.
Result<DegradedMode> ParseDegradedMode(const std::string& name);

struct RelayConfig {
  RetryPolicyConfig retry;
  CircuitBreakerConfig breaker;
  DegradedMode degraded_mode = DegradedMode::kDropWithAccounting;
  /// Bounded submission queue (buffer-and-replay only).
  size_t max_queue_depth = 64;
  /// Total simulated budget per request: attempt latencies + backoffs.
  double request_deadline_seconds = 30.0;
  /// Per-attempt cancellation timeout; an attempt whose (possibly spiked)
  /// latency exceeds it is cancelled and retried. 0 = bounded only by the
  /// request deadline.
  double attempt_timeout_seconds = 0.0;
  /// Buffered orders expire this many frames after submission (H).
  int64_t replay_horizon_frames = 0;
  /// Stream rate converting frame indices to simulated seconds.
  double stream_fps = 30.0;
};

/// How one submission ended (buffered orders may still be delivered or
/// dropped later, from AdvanceTo/Flush).
enum class RelayOutcome {
  kDelivered,
  kBuffered,
  kDroppedQueueFull,
  kDroppedDeadline,
  kDroppedBreakerOpen,
};

struct RelayResult {
  RelayOutcome outcome = RelayOutcome::kDelivered;
  /// Per-frame detections when delivered (empty otherwise).
  std::vector<bool> detections;
  /// Attempts consumed by this submission (0 when the breaker rejected
  /// the request outright).
  int attempts = 0;
};

/// One delivery, synchronous or replayed, for the delivery callback.
struct RelayDelivery {
  int64_t request_id = 0;
  size_t event = 0;
  sim::Interval frames;
  bool replayed = false;
  std::vector<bool> detections;
};

/// Aggregate accounting. Invariant (checked by relay_chaos_test at every
/// breaker transition):
///   frames_delivered + frames_dropped + frames_pending + frames_in_flight
///     == frames_submitted
/// Between top-level calls (and after Flush) frames_in_flight is 0, so the
/// settled identity is delivered + dropped + pending == submitted.
struct RelayStats {
  int64_t orders_submitted = 0;
  int64_t orders_delivered = 0;  // Includes replayed deliveries.
  int64_t orders_replayed = 0;
  int64_t orders_dropped = 0;
  int64_t frames_submitted = 0;
  int64_t frames_delivered = 0;
  int64_t frames_dropped = 0;
  int64_t frames_pending = 0;    // Sitting in the replay queue.
  int64_t frames_in_flight = 0;  // Mid-retry-loop inside Submit/AdvanceTo.
  int64_t attempts = 0;
  int64_t retries = 0;
  int64_t failed_attempts = 0;
  int64_t injected_errors = 0;
  int64_t injected_latency_spikes = 0;
};

/// The relay. Not thread-safe: like the Marshaller it lives on the single
/// streaming thread; determinism comes from seed-split draws, not locks.
class CloudRelay {
 public:
  using DeliveryCallback = std::function<void(const RelayDelivery&)>;
  using BreakerTransitionCallback =
      std::function<void(BreakerState from, BreakerState to,
                         double now_seconds)>;

  /// `service` must outlive the relay; `faults` may be nullptr (or an
  /// inactive profile) for pass-through. Telemetry goes to `metrics`
  /// (docs/TELEMETRY.md, relay.* / breaker.* names; nullptr selects the
  /// global registry) and outage spans to `trace` (nullptr disables
  /// them). Breaker transitions and drops also emit structured-log
  /// records to `log` (nullptr selects obs::Logger::Global()).
  CloudRelay(CloudService* service, const RelayConfig& config, uint64_t seed,
             const sim::FaultInjector* faults = nullptr,
             obs::MetricsRegistry* metrics = nullptr,
             obs::TraceBuffer* trace = nullptr, obs::Logger* log = nullptr);

  /// Sink for deliveries (required to observe replayed detections; the
  /// synchronous result also comes back from Submit).
  void set_delivery_callback(DeliveryCallback callback);

  /// Observer of breaker state changes (chaos tests assert the frame
  /// accounting identity here).
  void set_breaker_transition_callback(BreakerTransitionCallback callback);

  /// Relays `frames` (absolute, non-empty) of `event_index` at stream
  /// frame `now_frame`. `now_frame` must be non-decreasing across calls.
  RelayResult Submit(size_t event_index, const sim::Interval& frames,
                     int64_t now_frame);

  /// Advances the simulated clock: expires stale buffered orders and
  /// replays the rest when the breaker allows.
  void AdvanceTo(int64_t now_frame);

  /// End of stream: one last replay pass at `final_frame`, then drops
  /// whatever is still pending so delivered + dropped == submitted.
  void Flush(int64_t final_frame);

  const RelayStats& stats() const { return stats_; }
  BreakerState breaker_state() const { return breaker_.state(); }
  const CircuitBreaker& breaker() const { return breaker_; }
  size_t queue_depth() const { return queue_.size(); }
  const RelayConfig& config() const { return config_; }

 private:
  struct PendingOrder {
    int64_t request_id = 0;
    size_t event = 0;
    sim::Interval frames;
    int64_t submit_frame = 0;
    int64_t expiry_frame = 0;
  };

  double FrameSeconds(int64_t frame) const;
  /// Runs the retry loop for `order` at `now_frame`. Returns true when
  /// delivered (detections in `*result` when non-null).
  bool ProcessOrder(const PendingOrder& order, int64_t now_frame,
                    bool replay, RelayResult* result);
  void Deliver(const PendingOrder& order, bool replay,
               std::vector<bool> detections, RelayResult* result);
  void DropFrames(const PendingOrder& order);
  RelayOutcome Degrade(const PendingOrder& order, RelayOutcome failure);
  /// Mirrors breaker state into metrics / outage spans / the transition
  /// callback; call after every breaker interaction.
  void SyncBreaker(double now_seconds);

  CloudService* service_;
  RelayConfig config_;
  RetryPolicy retry_;
  CircuitBreaker breaker_;
  const sim::FaultInjector* faults_;
  bool pass_through_;
  obs::TraceBuffer* trace_;
  obs::Logger* log_;

  DeliveryCallback delivery_callback_;
  BreakerTransitionCallback transition_callback_;

  std::deque<PendingOrder> queue_;
  RelayStats stats_;
  int64_t next_request_id_ = 0;
  int64_t attempt_counter_ = 0;  // Global fault-draw index.
  BreakerState observed_state_ = BreakerState::kClosed;
  double outage_start_seconds_ = 0.0;
  bool outage_open_ = false;

  // Cached telemetry handles (valid for the registry's lifetime).
  obs::Counter* orders_submitted_metric_;
  obs::Counter* orders_delivered_metric_;
  obs::Counter* orders_dropped_metric_;
  obs::Counter* orders_replayed_metric_;
  obs::Counter* frames_submitted_metric_;
  obs::Counter* frames_delivered_metric_;
  obs::Counter* frames_dropped_metric_;
  obs::Counter* frames_buffered_metric_;
  obs::Counter* attempts_metric_;
  obs::Counter* retries_metric_;
  obs::Counter* fault_errors_metric_;
  obs::Counter* fault_spikes_metric_;
  obs::Counter* breaker_transitions_metric_;
  obs::Counter* breaker_opens_metric_;
  obs::Gauge* breaker_state_metric_;
  obs::Gauge* queue_depth_metric_;
  obs::Histogram* request_attempts_metric_;
  obs::Histogram* backoff_seconds_metric_;
};

}  // namespace eventhit::cloud

#endif  // EVENTHIT_CLOUD_RELAY_H_
