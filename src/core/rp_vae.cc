#include "core/rp_vae.h"

#include <algorithm>
#include <cmath>

#include "nn/init.h"
#include "nn/kernels/kernels.h"
#include "nn/ops.h"
#include "util/logging.h"
#include "util/parallel.h"

namespace causaltad {
namespace core {

RpVae::RpVae(const RpVaeConfig& config, util::Rng* rng)
    : nn::Module("rpvae"),
      config_(config),
      emb_("emb", config.vocab, config.emb_dim, rng),
      enc_fc_("enc_fc",
              config.emb_dim +
                  (config.num_time_slots > 0 ? config.slot_emb_dim : 0),
              config.hidden_dim, rng),
      mu_head_("mu_head", config.hidden_dim, config.latent_dim, rng),
      lv_head_("lv_head", config.hidden_dim, config.latent_dim, rng),
      dec_("dec", config.latent_dim, config.vocab, rng) {
  CAUSALTAD_CHECK_GT(config.vocab, 0);
  RegisterSubmodule(&emb_);
  RegisterSubmodule(&enc_fc_);
  RegisterSubmodule(&mu_head_);
  RegisterSubmodule(&lv_head_);
  RegisterSubmodule(&dec_);
  if (config.num_time_slots > 0) {
    slot_emb_ = std::make_unique<nn::Embedding>(
        "slot_emb", config.num_time_slots, config.slot_emb_dim, rng);
    RegisterSubmodule(slot_emb_.get());
  }
}

RpVae::Posterior RpVae::EncodeRows(std::span<const int32_t> ids,
                                   std::span<const int32_t> slots) const {
  nn::Var x = emb_.Forward(ids);  // [n, emb]
  if (time_conditioned()) {
    if (slots.empty()) {
      const std::vector<int32_t> zero(ids.size(), 0);
      x = nn::ConcatCols({x, slot_emb_->Forward(zero)});
    } else {
      CAUSALTAD_DCHECK_EQ(slots.size(), ids.size());
      x = nn::ConcatCols({x, slot_emb_->Forward(slots)});
    }
  }
  const nn::Var hidden = nn::Tanh(enc_fc_.Forward(x));
  Posterior p;
  p.mu = mu_head_.Forward(hidden);
  p.logvar = lv_head_.Forward(hidden);
  return p;
}

RpVae::Posterior RpVae::Encode(std::span<const int32_t> ids,
                               int time_slot) const {
  if (!time_conditioned() || time_slot == 0) return EncodeRows(ids, {});
  const std::vector<int32_t> slots(ids.size(),
                                   static_cast<int32_t>(time_slot));
  return EncodeRows(ids, slots);
}

nn::Var RpVae::LossBatch(std::span<const roadnet::SegmentId> segments,
                         std::span<const int32_t> slots,
                         util::Rng* rng) const {
  CAUSALTAD_CHECK(!segments.empty());
  // Deduplicate (segment, slot) rows with occurrence counts: popular
  // segments recur constantly across a minibatch of overlapping routes, and
  // a count-weighted row has exactly the summed gradient of its repeats
  // (under sampling, one shared latent draw per unique row — still an
  // unbiased estimator of the same expected loss). The [U, vocab] decoder
  // pass, the dominant cost of the joint objective, then scales with unique
  // rows U instead of total route length.
  const int num_slots = std::max(config_.num_time_slots, 1);
  std::vector<int32_t> first_of(config_.vocab * num_slots, -1);
  std::vector<int32_t> ids;
  std::vector<int32_t> unique_slots;
  std::vector<float> counts;
  ids.reserve(segments.size());
  for (size_t i = 0; i < segments.size(); ++i) {
    const int32_t slot =
        !time_conditioned() || slots.empty() ? 0 : slots[i];
    const int64_t key = slot * config_.vocab + segments[i];
    if (first_of[key] < 0) {
      first_of[key] = static_cast<int32_t>(ids.size());
      ids.push_back(segments[i]);
      unique_slots.push_back(slot);
      counts.push_back(0.0f);
    }
    counts[first_of[key]] += 1.0f;
  }
  const bool weighted = ids.size() < segments.size();
  const std::span<const float> weights =
      weighted ? std::span<const float>(counts) : std::span<const float>{};
  const Posterior post =
      EncodeRows(ids, time_conditioned() ? std::span<const int32_t>(
                                               unique_slots)
                                         : std::span<const int32_t>{});
  const nn::Var z =
      rng != nullptr ? nn::Reparameterize(post.mu, post.logvar, rng) : post.mu;
  const nn::Var logits = dec_.Forward(z);  // [U, vocab]
  return nn::Add(nn::SoftmaxCrossEntropy(logits, ids, weights),
                 nn::KlStandardNormal(post.mu, post.logvar, weights));
}

nn::Var RpVae::Loss(std::span<const roadnet::SegmentId> segments,
                    util::Rng* rng, int time_slot) const {
  CAUSALTAD_CHECK(!segments.empty());
  if (!time_conditioned() || time_slot == 0) {
    return LossBatch(segments, {}, rng);
  }
  const std::vector<int32_t> slots(segments.size(),
                                   static_cast<int32_t>(time_slot));
  return LossBatch(segments, slots, rng);
}

double RpVae::SegmentNll(roadnet::SegmentId segment, int time_slot) const {
  const std::vector<roadnet::SegmentId> one = {segment};
  return Loss(one, /*rng=*/nullptr, time_slot).value().Item();
}

std::vector<double> RpVae::SegmentNllBatch(
    std::span<const roadnet::SegmentId> segments, int time_slot) const {
  std::vector<double> out(segments.size());
  const int64_t latent = config_.latent_dim;
  // Rows are independent, so shard across the worker pool (each worker
  // thread scopes its own no-grad guard and arena); within a shard, chunk
  // so the [chunk, vocab] decoder logits stay bounded no matter how many
  // segments the caller batches (the eval harness passes whole test sets
  // at once).
  constexpr size_t kChunk = 2048;
  const int64_t shards = std::min<int64_t>(
      util::ParallelThreads(),
      static_cast<int64_t>(segments.size() / (kChunk / 4)));
  util::ParallelFor(
      static_cast<int64_t>(segments.size()),
      shards > 1 ? static_cast<int>(shards) : 1,
      [&](int64_t shard_begin, int64_t shard_end) {
        const nn::InferenceGuard no_grad;
        const nn::kernels::Kernels& kern = nn::kernels::Active();
        for (size_t begin = static_cast<size_t>(shard_begin);
             begin < static_cast<size_t>(shard_end); begin += kChunk) {
          const size_t count =
              std::min(kChunk, static_cast<size_t>(shard_end) - begin);
          const std::vector<int32_t> ids(segments.begin() + begin,
                                         segments.begin() + begin + count);
          const Posterior post = Encode(ids, time_slot);
          const nn::Var logits = dec_.Forward(post.mu);  // [count, vocab]
          for (size_t i = 0; i < count; ++i) {
            out[begin + i] =
                static_cast<double>(kern.softmax_nll_row(
                    logits.value().data() + i * config_.vocab, config_.vocab,
                    ids[i])) +
                static_cast<double>(kern.kl_standard_normal_row(
                    post.mu.value().data() + i * latent,
                    post.logvar.value().data() + i * latent, latent));
          }
        }
      });
  return out;
}

double RpVae::LogScalingFactor(roadnet::SegmentId segment, int num_samples,
                               util::Rng* rng, int time_slot) const {
  CAUSALTAD_CHECK_GT(num_samples, 0);
  const std::vector<int32_t> id = {segment};
  const Posterior post = Encode(id, time_slot);
  const float* mu = post.mu.value().data();
  const float* lv = post.logvar.value().data();
  const int64_t latent = config_.latent_dim;

  // Draw all samples as one [S, latent] batch and decode together.
  nn::Tensor z({num_samples, latent});
  for (int s = 0; s < num_samples; ++s) {
    for (int64_t i = 0; i < latent; ++i) {
      z.At(s, i) = mu[i] + std::exp(0.5f * lv[i]) *
                               static_cast<float>(rng->Gaussian());
    }
  }
  const nn::Var logits = dec_.Forward(nn::Constant(std::move(z)));

  // log E[1/p] = logsumexp_s( -log p_s ) - log S, with
  // log p_s = logit[s, segment] - logsumexp_j logit[s, j].
  const nn::Tensor& lg = logits.value();
  std::vector<double> neg_log_p(num_samples);
  for (int s = 0; s < num_samples; ++s) {
    const float* row = lg.data() + s * config_.vocab;
    double max_v = row[0];
    for (int64_t j = 1; j < config_.vocab; ++j) {
      max_v = std::max<double>(max_v, row[j]);
    }
    double total = 0.0;
    for (int64_t j = 0; j < config_.vocab; ++j) {
      total += std::exp(row[j] - max_v);
    }
    const double log_p = row[segment] - max_v - std::log(total);
    neg_log_p[s] = -log_p;
  }
  double max_nlp = neg_log_p[0];
  for (double v : neg_log_p) max_nlp = std::max(max_nlp, v);
  double acc = 0.0;
  for (double v : neg_log_p) acc += std::exp(v - max_nlp);
  return max_nlp + std::log(acc) - std::log(num_samples);
}

ScalingTable ScalingTable::Build(const RpVae& rp_vae, int64_t vocab,
                                 int num_samples, uint64_t seed) {
  ScalingTable table;
  table.vocab_ = vocab;
  table.num_slots_ =
      rp_vae.time_conditioned() ? rp_vae.config().num_time_slots : 1;
  table.values_.resize(vocab * table.num_slots_);
  util::Rng rng(seed);
  for (int slot = 0; slot < table.num_slots_; ++slot) {
    for (int64_t s = 0; s < vocab; ++s) {
      table.values_[slot * vocab + s] = rp_vae.LogScalingFactor(
          static_cast<roadnet::SegmentId>(s), num_samples, &rng,
          rp_vae.time_conditioned() ? slot : 0);
    }
  }
  return table;
}

void ScalingTable::CenterInPlace() {
  for (int slot = 0; slot < num_slots_; ++slot) {
    double* begin = values_.data() + slot * vocab_;
    double mean = 0.0;
    for (int64_t i = 0; i < vocab_; ++i) mean += begin[i];
    mean /= static_cast<double>(vocab_);
    for (int64_t i = 0; i < vocab_; ++i) begin[i] -= mean;
  }
}

std::vector<double> ScalingTable::Centered(int slot) const {
  CAUSALTAD_CHECK(slot >= 0 && slot < num_slots_);
  const double* begin = values_.data() + slot * vocab_;
  double mean = 0.0;
  for (int64_t i = 0; i < vocab_; ++i) mean += begin[i];
  mean /= static_cast<double>(vocab_);
  std::vector<double> out(vocab_);
  for (int64_t i = 0; i < vocab_; ++i) out[i] = begin[i] - mean;
  return out;
}

}  // namespace core
}  // namespace causaltad
