#include "core/causal_tad.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "nn/checkpoint.h"
#include "nn/modules.h"
#include "nn/ops.h"
#include "nn/optim.h"
#include "util/logging.h"
#include "util/stopwatch.h"

namespace causaltad {
namespace core {

const char* ScoreVariantName(ScoreVariant variant) {
  switch (variant) {
    case ScoreVariant::kFull:
      return "CausalTAD";
    case ScoreVariant::kLikelihoodOnly:
      return "TG-VAE";
    case ScoreVariant::kScalingOnly:
      return "RP-VAE";
  }
  return "unknown";
}

/// Wrapper module so one checkpoint carries both VAEs.
struct CausalTad::Net : nn::Module {
  Net(const roadnet::RoadNetwork* network, const CausalTadConfig& cfg,
      util::Rng* rng)
      : nn::Module("causaltad"), tg(network, cfg.tg, rng), rp(cfg.rp, rng) {
    RegisterSubmodule(&tg);
    RegisterSubmodule(&rp);
  }
  TgVae tg;
  RpVae rp;
};

CausalTad::CausalTad(const roadnet::RoadNetwork* network,
                     const CausalTadConfig& config)
    : network_(network), config_(config) {
  CAUSALTAD_CHECK(network != nullptr);
  config_.tg.vocab = network->num_segments();
  config_.rp.vocab = network->num_segments();
  config_.rp.num_time_slots =
      config_.time_aware_scaling ? config_.num_time_slots : 0;
  util::Rng rng(0xCA05A1);
  net_ = std::make_unique<Net>(network, config_, &rng);
  tg_ = &net_->tg;
  rp_ = &net_->rp;
  RebuildServingCache();
}

CausalTad::~CausalTad() = default;

void CausalTad::Fit(const std::vector<traj::Trip>& trips,
                    const models::FitOptions& options) {
  CAUSALTAD_CHECK(!trips.empty());
  util::Rng rng(options.seed);
  std::vector<nn::Var> params = net_->Parameters();
  nn::Adam opt(params, {.lr = options.lr});

  // Length-sorted [B, hidden] minibatches through one tape per optimizer
  // step.
  std::vector<const traj::Trip*> batch;
  std::vector<roadnet::SegmentId> rp_segments;
  std::vector<int32_t> rp_slots;
  for (int epoch = 0; epoch < options.epochs; ++epoch) {
    util::Stopwatch watch;
    double epoch_loss = 0.0;
    for (const std::vector<int64_t>& indices :
         models::LengthSortedBatches(trips, options.batch_size, &rng)) {
      batch.clear();
      rp_segments.clear();
      rp_slots.clear();
      for (const int64_t i : indices) {
        const traj::Trip& trip = trips[i];
        batch.push_back(&trip);
        rp_segments.insert(rp_segments.end(), trip.route.segments.begin(),
                           trip.route.segments.end());
        if (rp_->time_conditioned()) {
          rp_slots.insert(rp_slots.end(), trip.route.size(),
                          static_cast<int32_t>(trip.time_slot));
        }
      }
      opt.ZeroGrad();
      // Joint objective of Eq. (9) summed over the minibatch:
      // Σ L1(c,t) + Σ L2(t), both sides on the same tape.
      const nn::Var loss = nn::Add(tg_->LossBatch(batch, &rng),
                                   rp_->LossBatch(rp_segments, rp_slots, &rng));
      epoch_loss += loss.value().Item();
      nn::Backward(loss);
      nn::ClipGradNorm(params, options.grad_clip);
      opt.Step();
    }
    if (options.verbose) {
      const double secs = watch.ElapsedSeconds();
      std::fprintf(stderr,
                   "[CausalTAD] epoch %d loss %.3f (%.2fs, %.0f trips/s)\n",
                   epoch, epoch_loss / trips.size(), secs,
                   trips.size() / std::max(secs, 1e-9));
    }
  }
  RebuildScalingTable();
}

void CausalTad::RebuildScalingTable() {
  scaling_table_ = ScalingTable::Build(*rp_, config_.rp.vocab,
                                       config_.scaling_samples,
                                       config_.scaling_seed);
  if (config_.center_scaling) scaling_table_.CenterInPlace();
  // Fit/Load changed the TG-VAE weights too; re-derive the serving cache.
  RebuildServingCache();
}

void CausalTad::RebuildServingCache() {
  tg_tables_ = std::make_shared<const TgVae::ServingTables>(
      tg_->BuildServingTables());
}

double CausalTad::RpOnlyScore(const traj::Trip& trip,
                              int64_t prefix_len) const {
  const int slot = rp_->time_conditioned() ? trip.time_slot : 0;
  double total = 0.0;
  for (int64_t i = 0; i < prefix_len; ++i) {
    total += rp_->SegmentNll(trip.route.segments[i], slot);
  }
  return total;
}

double CausalTad::ScoreVariantLambda(const traj::Trip& trip,
                                     int64_t prefix_len, ScoreVariant variant,
                                     double lambda) const {
  const int64_t n = trip.route.size();
  if (prefix_len <= 0 || prefix_len > n) prefix_len = n;
  if (variant == ScoreVariant::kScalingOnly) {
    return RpOnlyScore(trip, prefix_len);
  }
  const TgVae::ScoreParts parts = tg_->Score(trip);
  double score = parts.PrefixScore(prefix_len);
  if (variant == ScoreVariant::kFull) {
    CAUSALTAD_CHECK(!scaling_table_.empty()) << "call Fit() or Load() first";
    const int slot = scaling_table_.num_slots() > 1 ? trip.time_slot : 0;
    for (int64_t i = 0; i < prefix_len; ++i) {
      score -=
          lambda * scaling_table_.log_scaling(trip.route.segments[i], slot);
    }
  }
  return score;
}

double CausalTad::Score(const traj::Trip& trip, int64_t prefix_len) const {
  return ScoreVariantLambda(trip, prefix_len, ScoreVariant::kFull,
                            config_.lambda);
}

std::vector<double> CausalTad::ScoreBatchVariantLambda(
    std::span<const traj::Trip> trips, std::span<const int64_t> prefix_lens,
    ScoreVariant variant, double lambda) const {
  std::vector<std::vector<int64_t>> checkpoints(trips.size());
  for (size_t i = 0; i < trips.size(); ++i) {
    checkpoints[i] = {i < prefix_lens.size() ? prefix_lens[i] : 0};
  }
  const std::vector<std::vector<double>> swept =
      ScoreCheckpointsVariantLambda(trips, checkpoints, variant, lambda);
  std::vector<double> scores(trips.size());
  for (size_t i = 0; i < trips.size(); ++i) scores[i] = swept[i][0];
  return scores;
}

std::vector<double> CausalTad::ScoreBatch(
    std::span<const traj::Trip> trips,
    std::span<const int64_t> prefix_lens) const {
  return ScoreBatchVariantLambda(trips, prefix_lens, ScoreVariant::kFull,
                                 config_.lambda);
}

std::vector<std::vector<double>> CausalTad::ScoreCheckpointsVariantLambda(
    std::span<const traj::Trip> trips,
    std::span<const std::vector<int64_t>> checkpoints, ScoreVariant variant,
    double lambda) const {
  const size_t batch = trips.size();
  std::vector<std::vector<double>> out(batch);
  if (batch == 0) return out;

  // Clamp every checkpoint like Score does and find each trip's largest
  // prefix — the only length anything below has to be rolled to.
  std::vector<std::vector<int64_t>> ks(batch);
  std::vector<int64_t> max_k(batch, 0);
  for (size_t i = 0; i < batch; ++i) {
    const int64_t n = trips[i].route.size();
    const auto& raw = i < checkpoints.size() ? checkpoints[i]
                                             : std::vector<int64_t>{};
    ks[i].reserve(raw.size());
    for (int64_t k : raw) {
      if (k <= 0 || k > n) k = n;
      ks[i].push_back(k);
      max_k[i] = std::max(max_k[i], k);
    }
    // A trip with no checkpoints still occupies a ScoreBatch row; prefix 1
    // keeps its roll at zero decode steps (prefix 0 would mean full route).
    max_k[i] = std::max<int64_t>(max_k[i], 1);
    out[i].resize(ks[i].size());
  }

  if (variant == ScoreVariant::kScalingOnly) {
    // Per-position segment NLLs, one RP-VAE batch per departure slot (the
    // slot is irrelevant without time conditioning); every checkpoint is
    // then a running prefix sum.
    std::map<int, std::vector<size_t>> slot_trips;
    for (size_t i = 0; i < batch; ++i) {
      slot_trips[rp_->time_conditioned() ? trips[i].time_slot : 0].push_back(
          i);
    }
    for (const auto& [slot, members] : slot_trips) {
      std::vector<roadnet::SegmentId> segments;
      for (const size_t i : members) {
        const auto& segs = trips[i].route.segments;
        segments.insert(segments.end(), segs.begin(), segs.begin() + max_k[i]);
      }
      const std::vector<double> nll = rp_->SegmentNllBatch(segments, slot);
      size_t pos = 0;
      for (const size_t i : members) {
        std::vector<double> prefix(max_k[i] + 1, 0.0);
        for (int64_t p = 0; p < max_k[i]; ++p) {
          prefix[p + 1] = prefix[p] + nll[pos++];
        }
        for (size_t j = 0; j < ks[i].size(); ++j) out[i][j] = prefix[ks[i][j]];
      }
    }
    return out;
  }

  // One [B, hidden] TG-VAE roll to each trip's largest checkpoint; every
  // checkpoint is then a PrefixScore read plus (for the full model) a
  // scaling prefix sum.
  const std::vector<TgVae::ScoreParts> parts =
      tg_->ScoreBatch(trips, max_k, tg_tables_.get());
  const bool full = variant == ScoreVariant::kFull;
  if (full) {
    CAUSALTAD_CHECK(!scaling_table_.empty()) << "call Fit() or Load() first";
  }
  for (size_t i = 0; i < batch; ++i) {
    std::vector<double> scaling_prefix;
    if (full) {
      const int slot = scaling_table_.num_slots() > 1 ? trips[i].time_slot : 0;
      scaling_prefix.assign(max_k[i] + 1, 0.0);
      for (int64_t p = 0; p < max_k[i]; ++p) {
        scaling_prefix[p + 1] =
            scaling_prefix[p] +
            scaling_table_.log_scaling(trips[i].route.segments[p], slot);
      }
    }
    for (size_t j = 0; j < ks[i].size(); ++j) {
      double score = parts[i].PrefixScore(ks[i][j]);
      if (full) score -= lambda * scaling_prefix[ks[i][j]];
      out[i][j] = score;
    }
  }
  return out;
}

std::vector<std::vector<double>> CausalTad::ScoreCheckpoints(
    std::span<const traj::Trip> trips,
    std::span<const std::vector<int64_t>> checkpoints) const {
  return ScoreCheckpointsVariantLambda(trips, checkpoints,
                                       ScoreVariant::kFull, config_.lambda);
}

CausalTad::SegmentDecomposition CausalTad::Decompose(
    const traj::Trip& trip) const {
  SegmentDecomposition out;
  const TgVae::ScoreParts parts = tg_->Score(trip);
  out.sd_nll = parts.sd_nll;
  out.kl = parts.kl;
  out.step_nll = parts.step_nll;
  const int slot = scaling_table_.num_slots() > 1 ? trip.time_slot : 0;
  const std::vector<double> centered = scaling_table_.Centered(slot);
  out.log_scaling.reserve(trip.route.size());
  out.centered_scaling.reserve(trip.route.size());
  for (const roadnet::SegmentId s : trip.route.segments) {
    out.log_scaling.push_back(scaling_table_.log_scaling(s, slot));
    out.centered_scaling.push_back(centered[s]);
  }
  return out;
}

namespace {

/// O(1)-per-segment online session (paper §V-D): per update, one
/// single-row TgVae::StepNllRows over the carried [1, hidden] state and one
/// scaling-table lookup. With a null `table` (or λ = 0) this is the
/// TG-VAE-only session. The running sums accumulate in ScoreCheckpoints'
/// order, so a trip scored alone reads the same bits both ways.
class CausalTadOnlineSession : public models::OnlineScorer {
 public:
  CausalTadOnlineSession(const TgVae* tg,
                         std::shared_ptr<const TgVae::ServingTables> tables,
                         const ScalingTable* table, double lambda,
                         roadnet::SegmentId source,
                         roadnet::SegmentId destination, int slot)
      : tg_(tg),
        tables_(std::move(tables)),
        table_(table),
        lambda_(lambda),
        slot_(slot) {
    TgVae::SdContext ctx = tg->EncodeSdBatch(
        std::span<const roadnet::SegmentId>(&source, 1),
        std::span<const roadnet::SegmentId>(&destination, 1));
    nll_ = ctx.sd_nll[0] + ctx.kl[0];
    hidden_ = std::move(ctx.h0);
  }

  double Update(roadnet::SegmentId segment) override {
    if (last_ != roadnet::kInvalidSegment) {
      const int64_t row = 0;
      double nll = 0.0;
      tg_->StepNllRows(*tables_,
                       std::span<const roadnet::SegmentId>(&last_, 1),
                       std::span<const roadnet::SegmentId>(&segment, 1),
                       std::span<const int64_t>(&row, 1), hidden_.data(),
                       &nll);
      nll_ += nll;
    }
    if (table_ != nullptr) scaling_ += table_->log_scaling(segment, slot_);
    last_ = segment;
    return nll_ - lambda_ * scaling_;
  }

 private:
  const TgVae* tg_;
  // Shared with CausalTad's serving cache; keeps the tables alive even if
  // the model is re-fitted while this session streams.
  std::shared_ptr<const TgVae::ServingTables> tables_;
  const ScalingTable* table_;
  double lambda_;
  int slot_ = 0;
  double nll_ = 0.0;   // sd_nll + kl + Σ step NLLs so far
  nn::Tensor hidden_;  // [1, hidden], advanced in place
  roadnet::SegmentId last_ = roadnet::kInvalidSegment;
  double scaling_ = 0.0;
};

/// Incremental RP-VAE-only session: one per-segment ELBO per update, on the
/// no-grad batched path (batch of one).
class RpOnlineSession : public models::OnlineScorer {
 public:
  RpOnlineSession(const RpVae* rp, int slot) : rp_(rp), slot_(slot) {}

  double Update(roadnet::SegmentId segment) override {
    total_ += rp_->SegmentNllBatch(
        std::span<const roadnet::SegmentId>(&segment, 1), slot_)[0];
    return total_;
  }

 private:
  const RpVae* rp_;
  int slot_ = 0;
  double total_ = 0.0;
};

}  // namespace

std::unique_ptr<models::OnlineScorer> CausalTad::BeginTripVariant(
    const traj::Trip& trip, ScoreVariant variant, double lambda) const {
  CAUSALTAD_CHECK(!trip.route.empty());
  const int rp_slot = rp_->time_conditioned() ? trip.time_slot : 0;
  switch (variant) {
    case ScoreVariant::kScalingOnly:
      return std::make_unique<RpOnlineSession>(rp_, rp_slot);
    case ScoreVariant::kLikelihoodOnly:
      return std::make_unique<CausalTadOnlineSession>(
          tg_, tg_tables_, nullptr, 0.0, trip.route.segments.front(),
          trip.route.segments.back(), 0);
    case ScoreVariant::kFull:
      break;
  }
  CAUSALTAD_CHECK(!scaling_table_.empty()) << "call Fit() or Load() first";
  const int slot = scaling_table_.num_slots() > 1 ? trip.time_slot : 0;
  return std::make_unique<CausalTadOnlineSession>(
      tg_, tg_tables_, &scaling_table_, lambda,
      trip.route.segments.front(), trip.route.segments.back(), slot);
}

std::unique_ptr<models::OnlineScorer> CausalTad::BeginTrip(
    const traj::Trip& trip) const {
  return BeginTripVariant(trip, ScoreVariant::kFull, config_.lambda);
}

util::Status CausalTad::Save(const std::string& path) const {
  return nn::SaveCheckpoint(path, *net_);
}

util::Status CausalTad::Load(const std::string& path) {
  CAUSALTAD_RETURN_IF_ERROR(nn::LoadCheckpoint(path, net_.get()));
  // The scaling table is derived state; rebuild it from the restored RP-VAE.
  RebuildScalingTable();
  return util::Status::Ok();
}

}  // namespace core
}  // namespace causaltad
