// Wall-clock span log of the serving benchmark's traced passes.
//
// Each span names the layer whose public call it wraps, the span that
// encloses it on the same thread (its parent), and the tenant stream and
// boundary index it serves (together the boundary's decision id), so a
// layer's self time is its duration minus the part its child spans cover.
// Per-frame and per-tick calls (push, batching) are accumulated as time +
// count only; every other span is also kept in memory, up to a cap, and
// written out when the benchmark ends.
#ifndef SERVEBENCH_SPAN_LOG_H_
#define SERVEBENCH_SPAN_LOG_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace servebench {

using Clock = std::chrono::steady_clock;

enum Layer : int {
  kCorePush,        // Marshaller::PushFrameDeferred (+ feature fetch).
  kCoreDecide,      // EventHitStrategy::DecideFromScores.
  kCoreComplete,    // Marshaller::CompletePrediction.
  kFleetInit,       // Per-tenant wiring of the stream's components.
  kFleetBatch,      // MpscQueue + DynamicBatcher::Enqueue / TakeReady.
  kFleetSettle,     // Per-stream settlement: digests and result fold.
  kNnPredict,       // EventHitModel::PredictBatched.
  kCloudSubmit,     // CloudRelay::Submit.
  kCloudAdvance,    // CloudRelay::AdvanceTo.
  kCloudFlush,      // CloudRelay::Flush.
  kDataTruth,       // data::BuildRecord (audit ground truth).
  kObsAudit,        // GuarantyAuditor::Observe / Finalize.
  kObsProvenance,   // StreamProvenance::Stamp*.
  kAdaptRecal,      // RecalLoop::Observe.
  kLayerCount,
};

/// Metric name prefix of each layer ("<name>_s" is its self time).
inline constexpr std::array<const char*, kLayerCount> kLayerNames = {
    "core.push",    "core.decide",   "core.complete", "fleet.init",
    "fleet.batch",  "fleet.settle",  "nn.predict",    "cloud.submit",
    "cloud.advance", "cloud.flush",  "data.truth",    "obs.audit",
    "obs.provenance", "adapt.recal"};

struct SpanRecord {
  int64_t id = 0;
  int64_t parent = -1;      // -1 at the root of a thread's stack.
  int32_t layer = 0;
  int32_t parent_layer = -1;
  int32_t stream = -1;
  int64_t boundary = -1;    // Boundary index; -1 for stream-level spans.
  int64_t start_ns = 0;     // Since the span log's epoch.
  int64_t end_ns = 0;
};

/// Per-layer totals accumulated over a stretch of traced serving.
struct LayerTotals {
  std::array<double, kLayerCount> self_s{};
  std::array<int64_t, kLayerCount> calls{};

  void Add(const LayerTotals& other) {
    for (int i = 0; i < kLayerCount; ++i) {
      self_s[i] += other.self_s[i];
      calls[i] += other.calls[i];
    }
  }
  double Covered() const {
    double sum = 0.0;
    for (const double s : self_s) sum += s;
    return sum;
  }
};

class SpanLog {
 public:
  explicit SpanLog(size_t max_records)
      : max_records_(max_records), serial_(NextSerial()) {}
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  /// The calling thread's recorder; created on first use.
  class Thread;
  Thread& Local();

  /// Sums every thread's totals and clears them (call between passes,
  /// while no worker is inside a span).
  LayerTotals TakeTotals();

  int64_t logged() const;

  /// Writes the kept spans as tab-separated lines. Returns false on error.
  bool Write(const std::string& path) const;

 private:
  friend class Span;
  static uint64_t NextSerial() {
    static std::atomic<uint64_t> next{1};
    return next.fetch_add(1, std::memory_order_relaxed);
  }
  const size_t max_records_;
  const uint64_t serial_;  // Keys the per-thread recorder cache.
  const Clock::time_point epoch_ = Clock::now();
  mutable std::mutex mu_;  // Guards threads_ (registration and sweeps).
  std::vector<std::unique_ptr<Thread>> threads_;
};

class SpanLog::Thread {
 public:
  explicit Thread(SpanLog* log) : log_(log) {}

 private:
  friend class SpanLog;
  friend class Span;
  struct Open {
    int layer;
    int64_t id;
    Clock::time_point start;
    double child_s;
  };
  SpanLog* log_;
  std::vector<Open> stack_;
  LayerTotals totals_;
  std::vector<SpanRecord> records_;
  int64_t next_id_ = 0;
};

/// Times one call into a layer. A null log makes it a no-op, so untraced
/// passes run the same code with one pointer test per call site.
class Span {
 public:
  Span(SpanLog* log, Layer layer, int stream, int64_t boundary = -1,
       bool keep = true)
      : thread_(log != nullptr ? &log->Local() : nullptr),
        stream_(stream),
        boundary_(boundary),
        keep_(keep) {
    if (thread_ == nullptr) return;
    auto& stack = thread_->stack_;
    stack.push_back({layer, thread_->next_id_++, Clock::now(), 0.0});
  }
  ~Span() {
    if (thread_ == nullptr) return;
    const Clock::time_point end = Clock::now();
    auto& stack = thread_->stack_;
    const SpanLog::Thread::Open open = stack.back();
    stack.pop_back();
    const double dur = std::chrono::duration<double>(end - open.start).count();
    thread_->totals_.self_s[open.layer] += dur - open.child_s;
    thread_->totals_.calls[open.layer] += 1;
    if (!stack.empty()) stack.back().child_s += dur;
    if (!keep_) return;
    if (thread_->records_.size() >= thread_->log_->max_records_) return;
    SpanRecord record;
    record.id = open.id;
    record.layer = open.layer;
    if (!stack.empty()) {
      record.parent = stack.back().id;
      record.parent_layer = stack.back().layer;
    }
    record.stream = stream_;
    record.boundary = boundary_;
    const Clock::time_point epoch = thread_->log_->epoch_;
    record.start_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(open.start - epoch)
            .count();
    record.end_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(end - epoch)
            .count();
    thread_->records_.push_back(record);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanLog::Thread* thread_;
  int stream_;
  int64_t boundary_;
  bool keep_;
};

inline SpanLog::Thread& SpanLog::Local() {
  // One recorder per (thread, log); the cache is re-keyed when a thread
  // meets a different log.
  thread_local uint64_t cached_serial = 0;
  thread_local Thread* cached = nullptr;
  if (cached_serial != serial_) {
    std::lock_guard<std::mutex> lock(mu_);
    threads_.push_back(std::make_unique<Thread>(this));
    cached = threads_.back().get();
    cached_serial = serial_;
  }
  return *cached;
}

inline LayerTotals SpanLog::TakeTotals() {
  std::lock_guard<std::mutex> lock(mu_);
  LayerTotals sum;
  for (auto& thread : threads_) {
    sum.Add(thread->totals_);
    thread->totals_ = LayerTotals();
  }
  return sum;
}

inline int64_t SpanLog::logged() const {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t n = 0;
  for (const auto& thread : threads_) {
    n += static_cast<int64_t>(thread->records_.size());
  }
  return n;
}

inline bool SpanLog::Write(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "thread\tid\tparent\tlayer\tparent_layer\tstream\t"
                    "boundary\tstart_ns\tend_ns\n");
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t t = 0; t < threads_.size(); ++t) {
    for (const SpanRecord& r : threads_[t]->records_) {
      std::fprintf(out, "%zu\t%lld\t%lld\t%s\t%s\t%d\t%lld\t%lld\t%lld\n",
                   t, static_cast<long long>(r.id),
                   static_cast<long long>(r.parent), kLayerNames[r.layer],
                   r.parent_layer >= 0 ? kLayerNames[r.parent_layer] : "-",
                   r.stream, static_cast<long long>(r.boundary),
                   static_cast<long long>(r.start_ns),
                   static_cast<long long>(r.end_ns));
    }
  }
  return std::fclose(out) == 0;
}

}  // namespace servebench

#endif  // SERVEBENCH_SPAN_LOG_H_
