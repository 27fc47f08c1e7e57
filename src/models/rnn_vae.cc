#include "models/rnn_vae.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "nn/fastmath.h"
#include "nn/init.h"
#include "nn/kernels/kernels.h"
#include "nn/ops.h"
#include "util/logging.h"
#include "util/parallel.h"
#include "util/stopwatch.h"

namespace causaltad {
namespace models {
namespace {
constexpr float kLog2Pi = 1.8378770664093453f;
}

/// All trainable components. The TC discriminator is a submodule (so it is
/// checkpointed) but is optimized separately from the generative parameters.
struct RnnVae::Net : nn::Module {
  Net(const std::string& name, const RnnVaeConfig& cfg, util::Rng* rng)
      : nn::Module(name),
        emb("emb", cfg.vocab, cfg.emb_dim, rng),
        enc_gru("enc_gru",
                cfg.emb_dim + (cfg.time_conditioned ? cfg.slot_emb_dim : 0),
                cfg.hidden_dim, rng),
        dec_gru("dec_gru", cfg.emb_dim, cfg.hidden_dim, rng),
        out("out", cfg.hidden_dim, cfg.vocab, rng) {
    RegisterSubmodule(&emb);
    RegisterSubmodule(&enc_gru);
    RegisterSubmodule(&dec_gru);
    RegisterSubmodule(&out);
    bos = RegisterParameter("bos", nn::GaussianInit({1, cfg.emb_dim}, 0.1, rng));

    const int64_t z_dim = cfg.variational ? cfg.latent_dim : cfg.hidden_dim;
    const int64_t dec_in_dim =
        z_dim + (cfg.time_conditioned ? cfg.slot_emb_dim : 0);
    dec_in = std::make_unique<nn::Linear>("dec_in", dec_in_dim,
                                          cfg.hidden_dim, rng);
    RegisterSubmodule(dec_in.get());

    if (cfg.time_conditioned) {
      slot_emb = std::make_unique<nn::Embedding>(
          "slot_emb", cfg.num_time_slots, cfg.slot_emb_dim, rng);
      RegisterSubmodule(slot_emb.get());
    }
    if (cfg.variational) {
      mu_head = std::make_unique<nn::Linear>("mu_head", cfg.hidden_dim,
                                             cfg.latent_dim, rng);
      lv_head = std::make_unique<nn::Linear>("lv_head", cfg.hidden_dim,
                                             cfg.latent_dim, rng);
      RegisterSubmodule(mu_head.get());
      RegisterSubmodule(lv_head.get());
    }
    if (cfg.mixture_k > 0) {
      mix_means = RegisterParameter(
          "mix_means",
          nn::GaussianInit({cfg.mixture_k, cfg.latent_dim}, 0.5, rng));
    }
    if (cfg.factor_tc) {
      disc = std::make_unique<nn::Mlp>(
          "tc_disc", std::vector<int64_t>{cfg.latent_dim, 32, 2}, rng);
      RegisterSubmodule(disc.get());
    }
  }

  /// Generative parameters only (excludes the TC discriminator, which has
  /// its own optimizer and an adversarial objective).
  std::vector<nn::Var> GenerativeParameters() const {
    std::vector<nn::Var> all = Parameters();
    if (!disc) return all;
    std::unordered_set<const nn::Node*> disc_nodes;
    for (const nn::Var& d : disc->Parameters()) {
      disc_nodes.insert(d.node().get());
    }
    std::vector<nn::Var> keep;
    keep.reserve(all.size());
    for (const nn::Var& p : all) {
      if (!disc_nodes.contains(p.node().get())) keep.push_back(p);
    }
    return keep;
  }

  nn::Embedding emb;
  nn::GruCell enc_gru;
  nn::GruCell dec_gru;
  nn::Linear out;
  nn::Var bos;
  std::unique_ptr<nn::Linear> dec_in;
  std::unique_ptr<nn::Embedding> slot_emb;
  std::unique_ptr<nn::Linear> mu_head;
  std::unique_ptr<nn::Linear> lv_head;
  nn::Var mix_means;
  std::unique_ptr<nn::Mlp> disc;
};

RnnVae::RnnVae(std::string name, const RnnVaeConfig& config)
    : name_(std::move(name)), config_(config) {
  CAUSALTAD_CHECK_GT(config_.vocab, 0);
  util::Rng rng(0xBEEF ^ std::hash<std::string>{}(name_));
  net_ = std::make_unique<Net>(name_, config_, &rng);
}

RnnVae::~RnnVae() = default;

std::vector<nn::Var> RnnVae::GenerativeParameters() const {
  return net_->GenerativeParameters();
}

nn::Var RnnVae::EncodePrefix(const traj::Trip& trip,
                             int64_t prefix_len) const {
  std::vector<int32_t> ids(trip.route.segments.begin(),
                           trip.route.segments.begin() + prefix_len);
  const nn::Var inputs = net_->emb.Forward(ids);  // [n, emb]
  nn::Var slot_vec;
  if (config_.time_conditioned) {
    const std::vector<int32_t> slot_id = {
        static_cast<int32_t>(trip.time_slot)};
    slot_vec = net_->slot_emb->Forward(slot_id);  // [1, slot_emb]
  }
  nn::Var h = nn::Constant(nn::Tensor::Zeros({1, config_.hidden_dim}));
  for (int64_t j = 0; j < prefix_len; ++j) {
    std::vector<int32_t> row = {static_cast<int32_t>(j)};
    nn::Var x = nn::GatherRows(inputs, row);  // [1, emb]
    if (config_.time_conditioned) x = nn::ConcatCols({x, slot_vec});
    h = net_->enc_gru.Step(x, h);
  }
  return h;
}

nn::Var RnnVae::DecodeNll(const traj::Trip& trip, int64_t prefix_len,
                          const nn::Var& h0) const {
  // Teacher forcing: input j is the embedding of t_{j-1} (BOS for j=0),
  // the state after input j predicts t_j.
  std::vector<int32_t> targets(trip.route.segments.begin(),
                               trip.route.segments.begin() + prefix_len);
  std::vector<int32_t> prev_ids(targets.begin(), targets.end() - 1);
  nn::Var prev_emb;
  if (!prev_ids.empty()) prev_emb = net_->emb.Forward(prev_ids);

  nn::Var h = h0;
  std::vector<nn::Var> states;
  states.reserve(prefix_len);
  for (int64_t j = 0; j < prefix_len; ++j) {
    nn::Var x;
    if (j == 0) {
      x = net_->bos;
    } else {
      std::vector<int32_t> row = {static_cast<int32_t>(j - 1)};
      x = nn::GatherRows(prev_emb, row);
    }
    h = net_->dec_gru.Step(x, h);
    states.push_back(h);
  }
  const nn::Var all_states = nn::ConcatRows(states);        // [n, hidden]
  const nn::Var logits = net_->out.Forward(all_states);     // [n, vocab]
  return nn::SoftmaxCrossEntropy(logits, targets);
}

nn::Var RnnVae::GaussianLogPdf(const nn::Var& z, const nn::Var& mu,
                               const nn::Var& logvar) const {
  const nn::Var diff = nn::Sub(z, mu);
  const nn::Var quad = nn::Mul(nn::Mul(diff, diff), nn::Exp(nn::Neg(logvar)));
  const nn::Var inner = nn::Add(quad, logvar);
  return nn::ScalarMul(
      nn::ScalarAdd(nn::Sum(inner),
                    kLog2Pi * static_cast<float>(config_.latent_dim)),
      -0.5f);
}

nn::Var RnnVae::MixturePriorLogPdf(const nn::Var& z) const {
  const int k = config_.mixture_k;
  std::vector<nn::Var> comp_logits;
  comp_logits.reserve(k);
  for (int c = 0; c < k; ++c) {
    std::vector<int32_t> row = {c};
    const nn::Var mean = nn::GatherRows(net_->mix_means, row);  // [1, latent]
    const nn::Var diff = nn::Sub(z, mean);
    const nn::Var logit = nn::ScalarAdd(
        nn::ScalarMul(
            nn::ScalarAdd(nn::Sum(nn::Mul(diff, diff)),
                          kLog2Pi * static_cast<float>(config_.latent_dim)),
            -0.5f),
        -std::log(static_cast<float>(k)));
    comp_logits.push_back(logit);
  }
  return nn::LogSumExpRow(nn::ConcatCols(comp_logits));
}

nn::Var RnnVae::Loss(const traj::Trip& trip, int64_t prefix_len,
                     util::Rng* rng) const {
  const int64_t n = trip.route.size();
  if (prefix_len <= 0 || prefix_len > n) prefix_len = n;
  CAUSALTAD_CHECK_GT(prefix_len, 0);

  const nn::Var enc_h = EncodePrefix(trip, prefix_len);

  nn::Var h0_input;
  nn::Var kl;
  if (config_.variational) {
    const nn::Var mu = net_->mu_head->Forward(enc_h);
    const nn::Var logvar = net_->lv_head->Forward(enc_h);
    const nn::Var z =
        rng != nullptr ? nn::Reparameterize(mu, logvar, rng) : mu;
    if (config_.mixture_k > 0) {
      // MC estimate of KL(q || p_mix): log q(z|x) - log p_mix(z).
      kl = nn::Sub(GaussianLogPdf(z, mu, logvar), MixturePriorLogPdf(z));
    } else {
      kl = nn::KlStandardNormal(mu, logvar);
    }
    h0_input = z;
  } else {
    h0_input = enc_h;
  }
  if (config_.time_conditioned) {
    const std::vector<int32_t> slot_id = {
        static_cast<int32_t>(trip.time_slot)};
    h0_input = nn::ConcatCols({h0_input, net_->slot_emb->Forward(slot_id)});
  }
  const nn::Var h0 = nn::Tanh(net_->dec_in->Forward(h0_input));
  const nn::Var recon = DecodeNll(trip, prefix_len, h0);

  if (!kl.defined()) return recon;
  return nn::Add(recon, nn::ScalarMul(kl, config_.beta));
}

nn::Var RnnVae::LossBatch(std::span<const traj::Trip* const> trips,
                          util::Rng* rng, nn::Var* mu_out) const {
  const int64_t batch = static_cast<int64_t>(trips.size());
  CAUSALTAD_CHECK_GT(batch, 0);
  std::vector<int64_t> lens(batch);
  int64_t max_len = 0;
  for (int64_t i = 0; i < batch; ++i) {
    lens[i] = trips[i]->route.size();
    CAUSALTAD_CHECK_GT(lens[i], 0);
    max_len = std::max(max_len, lens[i]);
  }

  nn::Var slot_vecs;  // [B, slot_emb] (time-conditioned models only)
  if (config_.time_conditioned) {
    std::vector<int32_t> slot_ids(batch);
    for (int64_t i = 0; i < batch; ++i) {
      slot_ids[i] = static_cast<int32_t>(trips[i]->time_slot);
    }
    slot_vecs = net_->slot_emb->Forward(slot_ids);
  }

  // Encoder: one masked [B, hidden] roll. A row's state freezes the step
  // its own route ends (finished-row masking), so after max_len steps each
  // row holds exactly EncodePrefix(trip, len) for its trip. Finished rows
  // feed a placeholder id whose gathered embedding receives zero gradient.
  std::vector<int32_t> step_ids(batch);
  std::vector<uint8_t> finished(batch);
  nn::Var h = nn::Constant(nn::Tensor::Zeros({batch, config_.hidden_dim}));
  for (int64_t j = 0; j < max_len; ++j) {
    for (int64_t i = 0; i < batch; ++i) {
      const bool live = j < lens[i];
      finished[i] = live ? 0 : 1;
      step_ids[i] =
          live ? static_cast<int32_t>(trips[i]->route.segments[j]) : 0;
    }
    nn::Var x = net_->emb.Forward(step_ids);  // [B, emb]
    if (config_.time_conditioned) x = nn::ConcatCols({x, slot_vecs});
    h = net_->enc_gru.StepBatched(x, h, finished);
  }

  // Latent bottleneck and batched KL (every row is a real trip, so the KL
  // reductions sum over the full batch; only decode steps need masks).
  nn::Var h0_input;
  nn::Var kl;
  if (config_.variational) {
    const nn::Var mu = net_->mu_head->Forward(h);      // [B, latent]
    const nn::Var logvar = net_->lv_head->Forward(h);  // [B, latent]
    const nn::Var z =
        rng != nullptr ? nn::Reparameterize(mu, logvar, rng) : mu;
    if (config_.mixture_k > 0) {
      // Per-row MC estimate of KL(q || p_mix): log q(z|x) - log p_mix(z),
      // reduced with row-wise sums/logsumexp instead of B separate graphs.
      const float dim_const =
          kLog2Pi * static_cast<float>(config_.latent_dim);
      const nn::Var diff = nn::Sub(z, mu);
      const nn::Var quad =
          nn::Mul(nn::Mul(diff, diff), nn::Exp(nn::Neg(logvar)));
      const nn::Var log_q = nn::ScalarMul(
          nn::ScalarAdd(nn::SumRows(nn::Add(quad, logvar)), dim_const),
          -0.5f);  // [B,1]
      std::vector<nn::Var> comp_logits;
      comp_logits.reserve(config_.mixture_k);
      for (int c = 0; c < config_.mixture_k; ++c) {
        const std::vector<int32_t> row = {c};
        const nn::Var mean = nn::GatherRows(net_->mix_means, row);
        const nn::Var dc = nn::Sub(z, mean);  // [1,latent] broadcast
        comp_logits.push_back(nn::ScalarAdd(
            nn::ScalarMul(
                nn::ScalarAdd(nn::SumRows(nn::Mul(dc, dc)), dim_const),
                -0.5f),
            -std::log(static_cast<float>(config_.mixture_k))));  // [B,1]
      }
      const nn::Var log_p = nn::LogSumExpRows(nn::ConcatCols(comp_logits));
      kl = nn::Sum(nn::Sub(log_q, log_p));
    } else {
      kl = nn::KlStandardNormal(mu, logvar);
    }
    h0_input = z;
    if (mu_out != nullptr) *mu_out = mu;
  } else {
    h0_input = h;
    if (mu_out != nullptr) *mu_out = h;
  }
  if (config_.time_conditioned) {
    h0_input = nn::ConcatCols({h0_input, slot_vecs});
  }

  // Decoder: teacher-forced masked roll. Each step gathers the rows still
  // inside their route into a list; one softmax-CE over the concatenation
  // replaces B·L tiny per-step losses with a single [Σlive, vocab] matmul.
  nn::Var dh = nn::Tanh(net_->dec_in->Forward(h0_input));
  std::vector<nn::Var> live_states;
  live_states.reserve(max_len);
  std::vector<int32_t> targets;
  std::vector<int32_t> live_rows;
  int64_t total_steps = 0;
  for (int64_t i = 0; i < batch; ++i) total_steps += lens[i];
  targets.reserve(total_steps);
  for (int64_t j = 0; j < max_len; ++j) {
    for (int64_t i = 0; i < batch; ++i) {
      const bool live = j < lens[i];
      finished[i] = live ? 0 : 1;
      step_ids[i] =
          live && j > 0 ? static_cast<int32_t>(trips[i]->route.segments[j - 1])
                        : 0;
    }
    nn::Var x;
    if (j == 0) {
      // BOS broadcast: gathering row 0 of the [1, emb] parameter B times
      // scatter-adds the per-row gradients back into it.
      x = nn::GatherRows(net_->bos, std::vector<int32_t>(batch, 0));
    } else {
      x = net_->emb.Forward(step_ids);
    }
    dh = net_->dec_gru.StepBatched(x, dh, finished);
    live_rows.clear();
    for (int64_t i = 0; i < batch; ++i) {
      if (j < lens[i]) {
        live_rows.push_back(static_cast<int32_t>(i));
        targets.push_back(static_cast<int32_t>(trips[i]->route.segments[j]));
      }
    }
    if (static_cast<int64_t>(live_rows.size()) == batch) {
      live_states.push_back(dh);
    } else {
      live_states.push_back(nn::GatherRows(dh, live_rows));
    }
  }
  const nn::Var all_states = live_states.size() == 1
                                 ? live_states[0]
                                 : nn::ConcatRows(live_states);
  const nn::Var logits = net_->out.Forward(all_states);  // [Σlive, vocab]
  const nn::Var recon = nn::SoftmaxCrossEntropy(logits, targets);

  if (!kl.defined()) return recon;
  return nn::Add(recon, nn::ScalarMul(kl, config_.beta));
}

void RnnVae::TrainDiscriminatorBatch(const nn::Tensor& mu,
                                     nn::Adam* disc_opt, util::Rng* rng) {
  const int64_t rows = mu.rows();
  const int64_t latent = mu.cols();
  for (int64_t i = 0; i < rows; ++i) {
    z_buffer_.emplace_back(mu.data() + i * latent,
                           mu.data() + (i + 1) * latent);
    if (z_buffer_.size() > 256) z_buffer_.pop_front();
  }
  if (z_buffer_.size() < 8) return;
  // Real rows vs dimension-wise permuted rows (each dimension drawn from an
  // independent past latent), one adversarial step per minibatch.
  std::vector<float> fake(rows * latent);
  for (int64_t i = 0; i < rows * latent; ++i) {
    const auto& donor =
        z_buffer_[rng->UniformInt(static_cast<int64_t>(z_buffer_.size()))];
    fake[i] = donor[i % latent];
  }
  disc_opt->ZeroGrad();
  const nn::Var real = nn::Constant(mu);
  const nn::Var perm =
      nn::Constant(nn::Tensor::FromVector({rows, latent}, std::move(fake)));
  const std::vector<int32_t> label_real(rows, 0);
  const std::vector<int32_t> label_fake(rows, 1);
  const nn::Var loss =
      nn::Add(nn::SoftmaxCrossEntropy(net_->disc->Forward(real), label_real),
              nn::SoftmaxCrossEntropy(net_->disc->Forward(perm), label_fake));
  nn::Backward(loss);
  disc_opt->Step();
}

void RnnVae::Fit(const std::vector<traj::Trip>& trips,
                 const FitOptions& options) {
  CAUSALTAD_CHECK(!trips.empty());
  util::Rng rng(options.seed);
  std::vector<nn::Var> params = net_->GenerativeParameters();
  nn::Adam opt(params, {.lr = options.lr});
  std::unique_ptr<nn::Adam> disc_opt;
  if (config_.factor_tc) {
    disc_opt = std::make_unique<nn::Adam>(net_->disc->Parameters(),
                                          nn::AdamConfig{.lr = options.lr});
  }

  for (int epoch = 0; epoch < options.epochs; ++epoch) {
    util::Stopwatch watch;
    double epoch_loss = 0.0;
    for (const std::vector<int64_t>& indices :
         LengthSortedBatches(trips, options.batch_size, &rng)) {
      std::vector<const traj::Trip*> batch;
      batch.reserve(indices.size());
      for (const int64_t i : indices) batch.push_back(&trips[i]);

      opt.ZeroGrad();
      nn::Var mu;
      nn::Var loss =
          LossBatch(batch, &rng, config_.factor_tc ? &mu : nullptr);
      if (config_.factor_tc) {
        // TC estimate over the whole minibatch: Σ_rows logit(real) -
        // logit(permuted), encouraged downward. Reusing the in-loss mu is
        // gradient-identical to a second encoder pass.
        const nn::Var logits = net_->disc->Forward(mu);  // [B,2]
        std::vector<float> signs(logits.value().numel());
        for (size_t i = 0; i < signs.size(); ++i) {
          signs[i] = i % 2 == 0 ? 1.0f : -1.0f;
        }
        const nn::Var tc = nn::Sum(nn::Mul(
            logits, nn::Constant(nn::Tensor::FromVector(
                        {logits.value().dim(0), 2}, std::move(signs)))));
        loss = nn::Add(loss, nn::ScalarMul(tc, config_.tc_gamma));
      }
      epoch_loss += loss.value().Item();
      nn::Backward(loss);
      nn::ClipGradNorm(params, options.grad_clip);
      opt.Step();
      if (config_.factor_tc) {
        TrainDiscriminatorBatch(mu.value(), disc_opt.get(), &rng);
      }
    }
    if (options.verbose) {
      const double secs = watch.ElapsedSeconds();
      std::fprintf(stderr,
                   "[%s] epoch %d loss %.3f (%.2fs, %.0f trips/s)\n",
                   name_.c_str(), epoch, epoch_loss / trips.size(), secs,
                   trips.size() / std::max(secs, 1e-9));
    }
  }
}

double RnnVae::Score(const traj::Trip& trip, int64_t prefix_len) const {
  return Loss(trip, prefix_len, /*rng=*/nullptr).value().Item();
}

double RnnVae::PosteriorKlRow(const float* mu_row, const float* lv_row) const {
  const int64_t latent = config_.latent_dim;
  if (config_.mixture_k > 0) {
    // MC estimate with z = mu: log q(z|x) - log p_mix(z). The quadratic
    // term of log q vanishes because z is exactly the posterior mean.
    float sum_lv = 0.0f;
    for (int64_t d = 0; d < latent; ++d) sum_lv += lv_row[d];
    const float log_q =
        -0.5f * (sum_lv + kLog2Pi * static_cast<float>(latent));
    nn::internal::ArenaScope scope;
    float* comp = nn::internal::ArenaAlloc(config_.mixture_k);
    for (int c = 0; c < config_.mixture_k; ++c) {
      const float* mean = net_->mix_means.value().data() + c * latent;
      float ss = 0.0f;
      for (int64_t d = 0; d < latent; ++d) {
        const float diff = mu_row[d] - mean[d];
        ss += diff * diff;
      }
      comp[c] = -0.5f * (ss + kLog2Pi * static_cast<float>(latent)) -
                std::log(static_cast<float>(config_.mixture_k));
    }
    float max_v = comp[0];
    for (int c = 1; c < config_.mixture_k; ++c) {
      max_v = std::max(max_v, comp[c]);
    }
    float total = 0.0f;
    for (int c = 0; c < config_.mixture_k; ++c) {
      total += nn::fastmath::Exp(comp[c] - max_v);
    }
    return log_q - (max_v + std::log(total));
  }
  return nn::kernels::Active().kl_standard_normal_row(mu_row, lv_row, latent);
}

/// Carried state of one incremental session: the encoder's [1, hidden] GRU
/// row, the observed prefix, and the cached decoder input projections
/// (each observed segment's [3*hidden] gate projection is computed once, on
/// arrival, and reused by every subsequent re-roll).
struct RnnVae::OnlineState {
  nn::Tensor enc_h;
  nn::Tensor slot_vec;  // [1, slot_emb]; time-conditioned models only
  std::vector<int32_t> segments;
  std::vector<float> bos_xw;
  std::vector<float> dec_xw;
};

std::unique_ptr<RnnVae::OnlineState> RnnVae::BeginOnline(
    const traj::Trip& trip) const {
  const nn::InferenceGuard no_grad;
  auto state = std::make_unique<OnlineState>();
  state->enc_h = nn::Tensor::Zeros({1, config_.hidden_dim});
  if (config_.time_conditioned) {
    const std::vector<int32_t> slot_id = {
        static_cast<int32_t>(trip.time_slot)};
    state->slot_vec = net_->slot_emb->Forward(slot_id).value();
  }
  const nn::Tensor bos_xw = net_->dec_gru.ProjectInputs(net_->bos.value());
  state->bos_xw.assign(bos_xw.data(), bos_xw.data() + bos_xw.numel());
  state->segments.reserve(trip.route.segments.size());
  state->dec_xw.reserve(trip.route.segments.size() * 3 * config_.hidden_dim);
  return state;
}

double RnnVae::OnlineUpdate(OnlineState* state,
                            roadnet::SegmentId segment) const {
  const nn::InferenceGuard no_grad;
  const int64_t hd = config_.hidden_dim;
  const std::vector<int32_t> id = {static_cast<int32_t>(segment)};

  // One fused encoder step carries the [1, hidden] state forward — the
  // O(1) half of the update.
  {
    nn::Var x = net_->emb.Forward(id);
    if (config_.time_conditioned) {
      x = nn::ConcatCols({x, nn::Constant(state->slot_vec)});
    }
    state->enc_h =
        net_->enc_gru.StepFused(x, nn::Constant(state->enc_h)).value();
  }
  // Cache the new segment's decoder input projection (it is the
  // teacher-forcing input of every future re-roll; BOS covers step 0).
  const nn::Tensor xw = net_->dec_gru.ProjectInputs(
      nn::GatherRows(net_->emb.table(), id).value());
  state->dec_xw.insert(state->dec_xw.end(), xw.data(), xw.data() + 3 * hd);
  state->segments.push_back(static_cast<int32_t>(segment));

  // Posterior mean, KL, and the decoder's initial state for the new prefix.
  const nn::Var enc = nn::Constant(state->enc_h);
  nn::Var h0_input;
  float kl = 0.0f;
  if (config_.variational) {
    const nn::Var mu = net_->mu_head->Forward(enc);
    const nn::Var logvar = net_->lv_head->Forward(enc);
    kl = static_cast<float>(
        PosteriorKlRow(mu.value().data(), logvar.value().data()));
    h0_input = mu;
  } else {
    h0_input = enc;
  }
  if (config_.time_conditioned) {
    h0_input = nn::ConcatCols({h0_input, nn::Constant(state->slot_vec)});
  }
  nn::Var dh = nn::Tanh(net_->dec_in->Forward(h0_input));

  // Teacher-forced decoder re-roll over the observed prefix (the ELBO's
  // decode conditions on the posterior of the whole prefix, so it cannot be
  // carried): fused steps over the cached projections, full-vocabulary
  // softmax per step. No tape, no per-step heap traffic beyond the logits.
  float recon = 0.0f;
  const int64_t k = static_cast<int64_t>(state->segments.size());
  for (int64_t j = 0; j < k; ++j) {
    const float* step_xw = j == 0
                               ? state->bos_xw.data()
                               : state->dec_xw.data() + (j - 1) * 3 * hd;
    dh = net_->dec_gru.StepFusedProjected(step_xw, 1, dh);
    const nn::Var logits = net_->out.Forward(dh);  // [1, vocab]
    recon += nn::kernels::Active().softmax_nll_row(logits.value().data(),
                                                   config_.vocab,
                                                   state->segments[j]);
  }
  return config_.variational ? static_cast<double>(recon + config_.beta * kl)
                             : static_cast<double>(recon);
}

/// OnlineScorer adapter over BeginOnline/OnlineUpdate.
class RnnVae::OnlineSession : public OnlineScorer {
 public:
  OnlineSession(const RnnVae* model, std::unique_ptr<OnlineState> state)
      : model_(model), state_(std::move(state)) {}

  double Update(roadnet::SegmentId segment) override {
    return model_->OnlineUpdate(state_.get(), segment);
  }

 private:
  const RnnVae* model_;
  std::unique_ptr<OnlineState> state_;
};

std::unique_ptr<OnlineScorer> RnnVae::BeginTrip(const traj::Trip& trip) const {
  return std::make_unique<OnlineSession>(this, BeginOnline(trip));
}

std::vector<double> RnnVae::ScoreBatch(
    std::span<const traj::Trip> trips,
    std::span<const int64_t> prefix_lens) const {
  // Shard rows across the worker pool: scores are per-row independent, and
  // the no-grad guard plus scratch arena are thread-local, so each chunk
  // runs the single-threaded batch roll unchanged on its own thread.
  // Shards are length-bucketed by (clamped) prefix length, so each worker's
  // [B, hidden] roll sees near-uniform lengths and near-equal total work.
  const int64_t n = static_cast<int64_t>(trips.size());
  std::vector<double> scores(n, 0.0);
  if (n == 0) return scores;
  std::vector<int64_t> prefixes(n);
  for (int64_t i = 0; i < n; ++i) {
    const int64_t len = trips[i].route.size();
    int64_t p =
        i < static_cast<int64_t>(prefix_lens.size()) ? prefix_lens[i] : len;
    if (p <= 0 || p > len) p = len;
    CAUSALTAD_CHECK_GT(p, 0);
    prefixes[i] = p;
  }
  const std::vector<std::vector<int64_t>> shards =
      util::RowShards(prefixes, 8);
  util::ParallelFor(
      static_cast<int64_t>(shards.size()), static_cast<int>(shards.size()),
      [&](int64_t begin, int64_t end) {
        for (int64_t s = begin; s < end; ++s) {
          ScoreBatchChunk(trips, prefixes, shards[s], scores.data());
        }
      });
  return scores;
}

void RnnVae::ScoreBatchChunk(std::span<const traj::Trip> all_trips,
                             std::span<const int64_t> all_prefixes,
                             std::span<const int64_t> rows,
                             double* out) const {
  const int64_t batch = static_cast<int64_t>(rows.size());
  if (batch == 0) return;
  const nn::InferenceGuard no_grad;

  // Local views of this shard's rows, so the roll below reads like the
  // contiguous-chunk original.
  std::vector<const traj::Trip*> trips(batch);
  std::vector<int64_t> prefixes(batch);
  int64_t max_prefix = 0;
  for (int64_t a = 0; a < batch; ++a) {
    trips[a] = &all_trips[rows[a]];
    prefixes[a] = all_prefixes[rows[a]];
    max_prefix = std::max(max_prefix, prefixes[a]);
  }

  const int64_t hd = config_.hidden_dim;
  nn::Var slot_vecs;  // [B, slot_emb] (time-conditioned models only)
  if (config_.time_conditioned) {
    std::vector<int32_t> slot_ids(batch);
    for (int64_t i = 0; i < batch; ++i) {
      slot_ids[i] = static_cast<int32_t>(trips[i]->time_slot);
    }
    slot_vecs = net_->slot_emb->Forward(slot_ids);
  }

  // Compacts `h` down to the rows of `active` whose prefix outlives step j,
  // shrinking `active` in place. Shared by the encoder and decoder rolls so
  // mixed-length batches stop paying max-length gate flops for dead rows.
  std::vector<int64_t> active(batch);
  const auto compact_to_live_rows = [&](nn::Var* h, int64_t j) {
    size_t keep = 0;
    for (size_t a = 0; a < active.size(); ++a) {
      if (prefixes[active[a]] > j) ++keep;
    }
    if (keep == active.size()) return;
    nn::Tensor compact({static_cast<int64_t>(keep), hd});
    size_t pos = 0, write = 0;
    for (size_t a = 0; a < active.size(); ++a) {
      if (prefixes[active[a]] > j) {
        std::copy(h->value().data() + a * hd,
                  h->value().data() + (a + 1) * hd,
                  compact.data() + pos * hd);
        ++pos;
        active[write++] = active[a];
      }
    }
    active.resize(keep);
    *h = nn::Constant(std::move(compact));
  };
  const auto gather_slot_vecs = [&]() {
    std::vector<int32_t> slot_ids(active.size());
    for (size_t a = 0; a < active.size(); ++a) {
      slot_ids[a] = static_cast<int32_t>(trips[active[a]]->time_slot);
    }
    return net_->slot_emb->Forward(slot_ids);
  };

  // Project every unique input segment through each GRU's gate input
  // weights once; the rolls below gather [3*hidden] rows per step instead
  // of re-running the input matmuls. (The time-conditioned encoder
  // concatenates a slot embedding onto its input, so it keeps the general
  // fused step; the decoder input is always a bare embedding row.)
  std::vector<int32_t> dense_of(config_.vocab, -1);
  std::vector<int32_t> unique_segs;
  for (int64_t i = 0; i < batch; ++i) {
    const auto& segs = trips[i]->route.segments;
    for (int64_t j = 0; j < prefixes[i]; ++j) {
      if (dense_of[segs[j]] < 0) {
        dense_of[segs[j]] = static_cast<int32_t>(unique_segs.size());
        unique_segs.push_back(segs[j]);
      }
    }
  }
  const nn::Var emb_rows = nn::GatherRows(net_->emb.table(), unique_segs);
  nn::Tensor enc_xw_table;
  if (!config_.time_conditioned) {
    enc_xw_table = net_->enc_gru.ProjectInputs(emb_rows.value());
  }
  const nn::Tensor dec_xw_table =
      net_->dec_gru.ProjectInputs(emb_rows.value());
  const nn::Tensor bos_xw = net_->dec_gru.ProjectInputs(net_->bos.value());

  // Gathers the pre-projected input rows for the current active set into
  // arena scratch (valid until the enclosing scope ends).
  const auto gather_xw = [&](const nn::Tensor& table, int64_t j) {
    const int64_t width = table.cols();
    float* xw = nn::internal::ArenaAlloc(
        static_cast<int64_t>(active.size()) * width);
    for (size_t a = 0; a < active.size(); ++a) {
      const int32_t dense = dense_of[trips[active[a]]->route.segments[j]];
      std::copy(table.data() + dense * width,
                table.data() + (dense + 1) * width, xw + a * width);
    }
    return xw;
  };

  // Encoder: roll every trip through one [B, hidden] state, freezing each
  // row's result the step its own prefix ends.
  std::vector<int32_t> step_ids;
  nn::Tensor enc_h_rows({batch * hd});  // flat row-capture buffer
  nn::Var h = nn::Constant(nn::Tensor::Zeros({batch, hd}));
  active.resize(batch);
  for (int64_t i = 0; i < batch; ++i) active[i] = i;
  for (int64_t j = 0; j < max_prefix; ++j) {
    compact_to_live_rows(&h, j);
    if (config_.time_conditioned) {
      step_ids.resize(active.size());
      for (size_t a = 0; a < active.size(); ++a) {
        step_ids[a] = trips[active[a]]->route.segments[j];
      }
      nn::Var x =
          nn::ConcatCols({net_->emb.Forward(step_ids), gather_slot_vecs()});
      h = net_->enc_gru.StepFused(x, h);
    } else {
      nn::internal::ArenaScope step_scope;
      h = net_->enc_gru.StepFusedProjected(
          gather_xw(enc_xw_table, j), static_cast<int64_t>(active.size()), h);
    }
    for (size_t a = 0; a < active.size(); ++a) {
      const int64_t i = active[a];
      if (prefixes[i] == j + 1) {
        std::copy(h.value().data() + a * hd, h.value().data() + (a + 1) * hd,
                  enc_h_rows.data() + i * hd);
      }
    }
  }
  const nn::Var enc_h =
      nn::Constant(std::move(enc_h_rows.Reshape({batch, hd})));

  // Latent bottleneck (posterior mean at inference) and per-row KL.
  const int64_t latent = config_.latent_dim;
  nn::Var h0_input;
  std::vector<float> kl(batch, 0.0f);
  if (config_.variational) {
    const nn::Var mu = net_->mu_head->Forward(enc_h);
    const nn::Var logvar = net_->lv_head->Forward(enc_h);
    for (int64_t i = 0; i < batch; ++i) {
      kl[i] = static_cast<float>(
          PosteriorKlRow(mu.value().data() + i * latent,
                         logvar.value().data() + i * latent));
    }
    h0_input = mu;
  } else {
    h0_input = enc_h;
  }
  if (config_.time_conditioned) {
    h0_input = nn::ConcatCols({h0_input, slot_vecs});
  }

  // Decoder: teacher-forced batch roll with a full-vocabulary softmax per
  // step, accumulating each row's NLL while its prefix is live and
  // compacting finished rows out of the batch.
  nn::Var dh = nn::Tanh(net_->dec_in->Forward(h0_input));
  std::vector<float> recon(batch, 0.0f);
  active.resize(batch);
  for (int64_t i = 0; i < batch; ++i) active[i] = i;
  for (int64_t j = 0; j < max_prefix; ++j) {
    compact_to_live_rows(&dh, j);
    nn::internal::ArenaScope step_scope;
    float* xw;
    if (j == 0) {
      const int64_t width = 3 * hd;
      xw = nn::internal::ArenaAlloc(
          static_cast<int64_t>(active.size()) * width);
      for (size_t a = 0; a < active.size(); ++a) {
        std::copy(bos_xw.data(), bos_xw.data() + width, xw + a * width);
      }
    } else {
      xw = gather_xw(dec_xw_table, j - 1);
    }
    dh = net_->dec_gru.StepFusedProjected(
        xw, static_cast<int64_t>(active.size()), dh);
    const nn::Var logits = net_->out.Forward(dh);  // [A, vocab]
    for (size_t a = 0; a < active.size(); ++a) {
      const int64_t i = active[a];
      recon[i] += nn::kernels::Active().softmax_nll_row(
          logits.value().data() + a * config_.vocab, config_.vocab,
          trips[i]->route.segments[j]);
    }
  }

  for (int64_t i = 0; i < batch; ++i) {
    out[rows[i]] = config_.variational
                       ? static_cast<double>(recon[i] + config_.beta * kl[i])
                       : static_cast<double>(recon[i]);
  }
}

util::Status RnnVae::Save(const std::string& path) const {
  return nn::SaveCheckpoint(path, *net_);
}

util::Status RnnVae::Load(const std::string& path) {
  return nn::LoadCheckpoint(path, net_.get());
}

namespace {
std::unique_ptr<TrajectoryScorer> Make(std::string name, RnnVaeConfig cfg) {
  return std::make_unique<RnnVae>(std::move(name), cfg);
}
}  // namespace

std::unique_ptr<TrajectoryScorer> MakeSae(RnnVaeConfig base) {
  base.variational = false;
  base.mixture_k = 0;
  base.time_conditioned = false;
  base.factor_tc = false;
  return Make("SAE", base);
}

std::unique_ptr<TrajectoryScorer> MakeVsae(RnnVaeConfig base) {
  base.variational = true;
  base.beta = 1.0f;
  base.mixture_k = 0;
  base.time_conditioned = false;
  base.factor_tc = false;
  return Make("VSAE", base);
}

std::unique_ptr<TrajectoryScorer> MakeBetaVae(RnnVaeConfig base) {
  base.variational = true;
  base.beta = 4.0f;
  base.mixture_k = 0;
  base.time_conditioned = false;
  base.factor_tc = false;
  return Make("BetaVAE", base);
}

std::unique_ptr<TrajectoryScorer> MakeFactorVae(RnnVaeConfig base) {
  base.variational = true;
  base.beta = 1.0f;
  base.factor_tc = true;
  base.mixture_k = 0;
  base.time_conditioned = false;
  return Make("FactorVAE", base);
}

std::unique_ptr<TrajectoryScorer> MakeGmVsae(RnnVaeConfig base) {
  base.variational = true;
  base.beta = 1.0f;
  base.mixture_k = 5;
  base.time_conditioned = false;
  base.factor_tc = false;
  return Make("GM-VSAE", base);
}

std::unique_ptr<TrajectoryScorer> MakeDeepTea(RnnVaeConfig base) {
  base.variational = true;
  base.beta = 1.0f;
  base.time_conditioned = true;
  base.mixture_k = 0;
  base.factor_tc = false;
  return Make("DeepTEA", base);
}

}  // namespace models
}  // namespace causaltad
