#include "core/eventhit_model.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>

#include "common/check.h"
#include "nn/activations.h"
#include "nn/loss.h"
#include "nn/serialize.h"
#include "obs/metrics.h"
#include "obs/schema.h"
#include "obs/trace.h"

namespace eventhit::core {
namespace {

double WeightFor(const std::vector<double>& weights, size_t k) {
  if (weights.empty()) return 1.0;
  EVENTHIT_CHECK_LT(k, weights.size());
  return weights[k];
}

}  // namespace

EventHitModel::EventHitModel(const EventHitConfig& config)
    : config_(config), dropout_(config.dropout), rng_(config.seed) {
  EVENTHIT_CHECK_GT(config_.feature_dim, 0u);
  EVENTHIT_CHECK_GT(config_.num_events, 0u);
  EVENTHIT_CHECK_GT(config_.collection_window, 0);
  EVENTHIT_CHECK_GT(config_.horizon, 0);

  Rng init_rng(rng_.Fork(1));
  lstm_ = nn::Lstm("lstm", config_.feature_dim, config_.lstm_hidden, init_rng);
  shared_fc_ =
      nn::Dense("shared", config_.lstm_hidden, config_.shared_dim, init_rng);
  const size_t u_dim = config_.shared_dim + config_.feature_dim;
  const size_t out_dim = 1 + static_cast<size_t>(config_.horizon);
  event_nets_.reserve(config_.num_events);
  for (size_t k = 0; k < config_.num_events; ++k) {
    event_nets_.emplace_back("event" + std::to_string(k),
                             std::vector<size_t>{u_dim, config_.event_hidden,
                                                 out_dim},
                             init_rng);
  }
}

nn::ParameterRefs EventHitModel::Parameters() {
  nn::ParameterRefs params;
  lstm_.CollectParameters(params);
  shared_fc_.CollectParameters(params);
  for (nn::Mlp& net : event_nets_) net.CollectParameters(params);
  return params;
}

nn::ConstParameterRefs EventHitModel::Parameters() const {
  nn::ConstParameterRefs params;
  lstm_.CollectParameters(params);
  shared_fc_.CollectParameters(params);
  for (const nn::Mlp& net : event_nets_) net.CollectParameters(params);
  return params;
}

size_t EventHitModel::ParameterCount() const {
  return nn::ParameterCount(Parameters());
}

void EventHitModel::TrunkForward(const float* covariates, nn::Vec& z,
                                 nn::Vec& u) const {
  const auto steps = static_cast<size_t>(config_.collection_window);
  const nn::Vec h = lstm_.Forward(covariates, steps);
  shared_fc_.Forward(h.data(), z);
  nn::TanhInPlace(z.data(), z.size());
  // u = z ++ x_last (the final feature vector of the window, as in Fig. 3).
  u.resize(z.size() + config_.feature_dim);
  std::copy(z.begin(), z.end(), u.begin());
  const float* x_last = covariates + (steps - 1) * config_.feature_dim;
  std::copy(x_last, x_last + config_.feature_dim, u.begin() + z.size());
}

EventScores EventHitModel::PredictCovariates(const float* covariates) const {
  nn::Vec z, u;
  TrunkForward(covariates, z, u);
  EventScores scores;
  scores.existence.resize(config_.num_events);
  scores.occupancy.resize(config_.num_events);
  nn::Vec logits;
  const auto h = static_cast<size_t>(config_.horizon);
  for (size_t k = 0; k < config_.num_events; ++k) {
    event_nets_[k].Forward(u.data(), logits);
    EVENTHIT_CHECK_EQ(logits.size(), 1 + h);
    scores.existence[k] = nn::SigmoidScalar(logits[0]);
    auto& theta = scores.occupancy[k];
    theta.resize(h);
    for (size_t v = 0; v < h; ++v) theta[v] = nn::SigmoidScalar(logits[1 + v]);
  }
  return scores;
}

EventScores EventHitModel::Predict(const data::Record& record) const {
  EVENTHIT_CHECK_EQ(record.covariates.size(),
                    static_cast<size_t>(config_.collection_window) *
                        config_.feature_dim);
  // The per-record MatVec path is bit-identical to every backend
  // (summation-order contract, nn/matrix.h; docs/BACKENDS.md).
  return PredictCovariates(record.covariates.data());
}

void EventHitModel::SetInferenceBackend(nn::BackendKind kind) {
  backend_kind_ = kind;
}

void EventHitModel::PredictBatched(const data::Record* records, size_t count,
                                   EventScores* out,
                                   nn::Workspace& ws) const {
  EVENTHIT_CHECK_GT(count, 0u);
  const auto steps = static_cast<size_t>(config_.collection_window);
  const size_t d = config_.feature_dim;
  for (size_t b = 0; b < count; ++b) {
    EVENTHIT_CHECK_EQ(records[b].covariates.size(), steps * d);
  }
  ws.Reset();
  // Kernel dispatch (nn/backend.h): every backend computes the same bits
  // as the per-record path, so the choice changes speed only.
  const nn::Backend& backend = nn::GetBackend(backend_kind_);

  // Gather covariates batch-minor: element (t, feature j, record b) at
  // x[(t*d + j)*count + b], so every downstream op streams unit-stride
  // over the batch.
  float* x = ws.Alloc(steps * d * count);
  for (size_t b = 0; b < count; ++b) {
    const float* cov = records[b].covariates.data();
    for (size_t td = 0; td < steps * d; ++td) x[td * count + b] = cov[td];
  }

  const size_t hd = lstm_.hidden_dim();
  float* h = ws.Alloc(hd * count);
  lstm_.ForwardBatch(x, steps, count, h, ws, backend);

  const size_t z_rows = shared_fc_.out_dim();
  float* z = ws.Alloc(z_rows * count);
  shared_fc_.ForwardBatch(h, count, z, backend);
  backend.kernels->tanh_inplace(z, z_rows * count);

  // u = z ++ x_last per record (Fig. 3), still batch-minor.
  const size_t u_rows = z_rows + d;
  float* u = ws.Alloc(u_rows * count);
  std::memcpy(u, z, z_rows * count * sizeof(float));
  const size_t last_offset = (steps - 1) * d;
  for (size_t j = 0; j < d; ++j) {
    float* row = u + (z_rows + j) * count;
    for (size_t b = 0; b < count; ++b) {
      row[b] = records[b].covariates[last_offset + j];
    }
  }

  const auto horizon = static_cast<size_t>(config_.horizon);
  const size_t out_dim = 1 + horizon;
  float* logits = ws.Alloc(out_dim * count);
  for (size_t b = 0; b < count; ++b) {
    out[b].existence.resize(config_.num_events);
    out[b].occupancy.resize(config_.num_events);
  }
  for (size_t k = 0; k < config_.num_events; ++k) {
    event_nets_[k].ForwardBatch(u, count, logits, ws, backend);
    // One vectorized sigmoid pass over the whole [out_dim x count] block
    // (same per-element function as the scalar path), then a plain scatter.
    backend.kernels->sigmoid_inplace(logits, out_dim * count);
    for (size_t b = 0; b < count; ++b) {
      out[b].existence[k] = logits[b];
      auto& theta = out[b].occupancy[k];
      theta.resize(horizon);
      for (size_t v = 0; v < horizon; ++v) {
        theta[v] = logits[(1 + v) * count + b];
      }
    }
  }
}

std::pair<double, double> EventHitModel::TrainStep(const data::Record& record,
                                                   Rng& rng) {
  const auto steps = static_cast<size_t>(config_.collection_window);
  EVENTHIT_CHECK_EQ(record.labels.size(), config_.num_events);
  EVENTHIT_CHECK_EQ(record.covariates.size(), steps * config_.feature_dim);
  const float* covariates = record.covariates.data();

  // --- Forward (training mode) ---
  const nn::Vec h = lstm_.ForwardCached(covariates, steps);
  nn::Vec z;
  shared_fc_.Forward(h.data(), z);
  nn::TanhInPlace(z.data(), z.size());
  nn::Vec zd;
  dropout_.ForwardTrain(z.data(), z.size(), rng, zd);

  nn::Vec u(zd.size() + config_.feature_dim);
  std::copy(zd.begin(), zd.end(), u.begin());
  const float* x_last = covariates + (steps - 1) * config_.feature_dim;
  std::copy(x_last, x_last + config_.feature_dim, u.begin() + zd.size());

  const auto horizon = static_cast<size_t>(config_.horizon);
  const size_t out_dim = 1 + horizon;
  nn::Vec logits;
  nn::Vec dlogits(out_dim);
  nn::Vec targets(out_dim);
  nn::Vec weights(out_dim);
  nn::Vec du(u.size(), 0.0f);

  double loss_existence = 0.0;
  double loss_occupancy = 0.0;

  for (size_t k = 0; k < config_.num_events; ++k) {
    const data::EventLabel& label = record.labels[k];
    event_nets_[k].ForwardCached(u.data(), logits);

    // L1: existence BCE on b_k (logit index 0).
    targets[0] = label.present ? 1.0f : 0.0f;
    weights[0] = static_cast<float>(WeightFor(config_.beta, k));

    // L2: per-frame BCE on theta (logit indices 1..H), positive records
    // only, with the paper's inside/outside normalisation.
    if (label.present) {
      EVENTHIT_CHECK_GE(label.start, 1);
      EVENTHIT_CHECK_LE(label.start, label.end);
      EVENTHIT_CHECK_LE(label.end, config_.horizon);
      const double gamma = WeightFor(config_.gamma, k);
      const auto inside = static_cast<double>(label.end - label.start + 1);
      const double outside = static_cast<double>(horizon) - inside;
      const auto w_in = static_cast<float>(gamma / inside);
      const auto w_out =
          outside > 0.0 ? static_cast<float>(gamma / outside) : 0.0f;
      for (size_t v = 1; v <= horizon; ++v) {
        const bool occupied = static_cast<int>(v) >= label.start &&
                              static_cast<int>(v) <= label.end;
        targets[v] = occupied ? 1.0f : 0.0f;
        weights[v] = occupied ? w_in : w_out;
      }
    } else {
      // Absent events contribute no L2 terms (1[E_k in L_n] gate).
      std::fill(targets.begin() + 1, targets.end(), 0.0f);
      std::fill(weights.begin() + 1, weights.end(), 0.0f);
    }

    loss_existence += nn::BceWithLogits(logits[0], targets[0], weights[0],
                                        &dlogits[0]);
    loss_occupancy +=
        nn::BceWithLogitsVector(logits.data() + 1, targets.data() + 1,
                                weights.data() + 1, horizon, dlogits.data() + 1);

    event_nets_[k].Backward(u.data(), dlogits.data(), du.data());
  }

  // --- Backward through the shared trunk ---
  // du splits into the z part (through dropout and tanh) and x_last (input
  // data; no gradient needed).
  nn::Vec dz(zd.size());
  dropout_.Backward(du.data(), dz.data());
  nn::Vec dz_pre(z.size());
  nn::TanhBackward(z.data(), dz.data(), dz_pre.data(), z.size());
  nn::Vec dh(h.size(), 0.0f);
  shared_fc_.Backward(h.data(), dz_pre.data(), dh.data());
  lstm_.Backward(dh.data());

  return {loss_existence, loss_occupancy};
}

std::vector<TrainEpochStats> EventHitModel::Train(
    const std::vector<data::Record>& records) {
  EVENTHIT_CHECK(!records.empty());
  nn::AdamOptions adam_options;
  adam_options.learning_rate = config_.learning_rate;
  adam_options.clip_norm = config_.grad_clip_norm;
  nn::AdamOptimizer optimizer(Parameters(), adam_options);

  Rng train_rng(rng_.Fork(2));
  std::vector<size_t> order(records.size());
  std::iota(order.begin(), order.end(), 0);

  std::vector<TrainEpochStats> history;
  const auto batch = static_cast<size_t>(std::max(config_.batch_size, 1));
  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    train_rng.Shuffle(order);
    TrainEpochStats stats;
    size_t steps = 0;
    for (size_t begin = 0; begin < order.size(); begin += batch) {
      const size_t end = std::min(begin + batch, order.size());
      for (size_t i = begin; i < end; ++i) {
        const auto [l1, l2] = TrainStep(records[order[i]], train_rng);
        stats.existence_loss += l1;
        stats.occupancy_loss += l2;
      }
      nn::ScaleGradients(Parameters(), 1.0f / static_cast<float>(end - begin));
      stats.grad_norm += optimizer.Step();
      ++steps;
    }
    const auto n = static_cast<double>(records.size());
    stats.existence_loss /= n;
    stats.occupancy_loss /= n;
    stats.total_loss = stats.existence_loss + stats.occupancy_loss;
    stats.grad_norm /= static_cast<double>(std::max<size_t>(steps, 1));
    history.push_back(stats);
  }
  return history;
}

Status EventHitModel::Save(const std::string& path) const {
  return nn::SaveParameters(Parameters(), path);
}

Status EventHitModel::Load(const std::string& path) {
  return nn::LoadParameters(Parameters(), path);
}

std::vector<EventScores> PredictBatch(const EventHitModel& model,
                                      const std::vector<data::Record>& records,
                                      const ExecutionContext& ctx,
                                      size_t batch_size) {
  EVENTHIT_CHECK_GT(batch_size, 0u);
  std::vector<EventScores> scores(records.size());
  if (records.empty()) return scores;
  // Registration is mutex-guarded setup; the hot loop reuses the pointer.
  static obs::Histogram* batch_hist =
      obs::MetricsRegistry::Global().GetHistogram(
          obs::names::kPredictBatchSize, obs::BatchSizeBounds());
  const size_t num_batches = (records.size() + batch_size - 1) / batch_size;
  // Each batch writes its own slot range, so chunking over batches keeps
  // results in input order and byte-identical to the serial loop.
  auto run_batches = [&](size_t first_batch, size_t end_batch,
                         nn::Workspace& ws) {
    for (size_t bi = first_batch; bi < end_batch; ++bi) {
      const size_t begin = bi * batch_size;
      const size_t count = std::min(batch_size, records.size() - begin);
      obs::TraceSpan span(obs::names::kSpanNnGemm);
      model.PredictBatched(records.data() + begin, count,
                           scores.data() + begin, ws);
      batch_hist->Observe(static_cast<double>(count));
    }
  };
  if (ctx.pool() != nullptr) {
    ctx.pool()->ParallelForChunked(
        num_batches, [&](int, size_t chunk_begin, size_t chunk_end) {
          // One arena per worker chunk: warm after its first batch, never
          // shared across threads (Workspace ownership, DESIGN.md §5e).
          nn::Workspace ws;
          run_batches(chunk_begin, chunk_end, ws);
        });
  } else {
    nn::Workspace ws;
    run_batches(0, num_batches, ws);
  }
  return scores;
}

}  // namespace eventhit::core
