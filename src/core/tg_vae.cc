#include "core/tg_vae.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <unordered_map>

#include "nn/init.h"
#include "nn/kernels/kernels.h"
#include "nn/ops.h"
#include "util/logging.h"
#include "util/parallel.h"

namespace causaltad {
namespace core {

TgVae::TgVae(const roadnet::RoadNetwork* network, const TgVaeConfig& config,
             util::Rng* rng)
    : nn::Module("tgvae"),
      network_(network),
      config_(config),
      sd_emb_("sd_emb", config.vocab, config.emb_dim, rng),
      route_emb_("route_emb", config.vocab, config.emb_dim, rng),
      enc_fc_("enc_fc", 2 * config.emb_dim, config.hidden_dim, rng),
      mu_head_("mu_head", config.hidden_dim, config.latent_dim, rng),
      lv_head_("lv_head", config.hidden_dim, config.latent_dim, rng),
      dec_fc_("dec_fc", config.latent_dim, config.hidden_dim, rng),
      head_s_("head_s", config.hidden_dim, config.vocab, rng),
      head_d_("head_d", config.hidden_dim, config.vocab, rng),
      h0_proj_("h0_proj", config.latent_dim, config.hidden_dim, rng),
      gru_("gru", config.emb_dim, config.hidden_dim, rng),
      out_("out", config.hidden_dim, config.vocab, rng) {
  CAUSALTAD_CHECK(network != nullptr);
  CAUSALTAD_CHECK_EQ(config.vocab, network->num_segments());
  RegisterSubmodule(&sd_emb_);
  RegisterSubmodule(&route_emb_);
  RegisterSubmodule(&enc_fc_);
  RegisterSubmodule(&mu_head_);
  RegisterSubmodule(&lv_head_);
  RegisterSubmodule(&dec_fc_);
  RegisterSubmodule(&head_s_);
  RegisterSubmodule(&head_d_);
  RegisterSubmodule(&h0_proj_);
  RegisterSubmodule(&gru_);
  RegisterSubmodule(&out_);
}

TgVae::Forwarded TgVae::EncodeSd(roadnet::SegmentId s, roadnet::SegmentId d,
                                 util::Rng* rng) const {
  const std::vector<int32_t> s_id = {s};
  const std::vector<int32_t> d_id = {d};
  const nn::Var joint = nn::ConcatCols(
      {sd_emb_.Forward(s_id), sd_emb_.Forward(d_id)});  // [1, 2*emb]
  const nn::Var hidden = nn::Tanh(enc_fc_.Forward(joint));
  Forwarded f;
  f.mu = mu_head_.Forward(hidden);
  f.logvar = lv_head_.Forward(hidden);
  f.r = rng != nullptr ? nn::Reparameterize(f.mu, f.logvar, rng) : f.mu;
  return f;
}

nn::Var TgVae::SdDecoderNll(const nn::Var& r, roadnet::SegmentId s,
                            roadnet::SegmentId d) const {
  const nn::Var hidden = nn::Tanh(dec_fc_.Forward(r));
  const std::vector<int32_t> st = {s};
  const std::vector<int32_t> dt = {d};
  return nn::Add(nn::SoftmaxCrossEntropy(head_s_.Forward(hidden), st),
                 nn::SoftmaxCrossEntropy(head_d_.Forward(hidden), dt));
}

nn::Var TgVae::StepCe(const nn::Var& hidden, roadnet::SegmentId current,
                      roadnet::SegmentId next) const {
  if (config_.road_constrained) {
    const auto successors = network_->Successors(current);
    std::vector<int32_t> ids(successors.begin(), successors.end());
    int32_t target_pos = -1;
    for (size_t i = 0; i < ids.size(); ++i) {
      if (ids[i] == next) target_pos = static_cast<int32_t>(i);
    }
    CAUSALTAD_CHECK_GE(target_pos, 0) << "route is not network-valid";
    const nn::Var logits =
        nn::GatherColsDot(hidden, out_.w(), out_.b(), ids);
    const std::vector<int32_t> target = {target_pos};
    return nn::SoftmaxCrossEntropy(logits, target);
  }
  const std::vector<int32_t> target = {next};
  return nn::SoftmaxCrossEntropy(out_.Forward(hidden), target);
}

nn::Var TgVae::Loss(const traj::Trip& trip, util::Rng* rng) const {
  const auto& segs = trip.route.segments;
  CAUSALTAD_CHECK_GE(segs.size(), 2u);
  const roadnet::SegmentId s = segs.front();
  const roadnet::SegmentId d = segs.back();

  const Forwarded f = EncodeSd(s, d, rng);
  nn::Var loss = nn::KlStandardNormal(f.mu, f.logvar);
  if (config_.use_sd_decoder) {
    loss = nn::Add(loss, SdDecoderNll(f.r, s, d));
  }

  nn::Var h = nn::Tanh(h0_proj_.Forward(f.r));
  const std::vector<int32_t> ids(segs.begin(), segs.end() - 1);
  const nn::Var inputs = route_emb_.Forward(ids);  // [n-1, emb]
  for (size_t j = 0; j + 1 < segs.size(); ++j) {
    const std::vector<int32_t> row = {static_cast<int32_t>(j)};
    h = gru_.Step(nn::GatherRows(inputs, row), h);
    loss = nn::Add(loss, StepCe(h, segs[j], segs[j + 1]));
  }
  return loss;
}

nn::Var TgVae::LossBatch(std::span<const traj::Trip* const> trips,
                         util::Rng* rng) const {
  const int64_t batch = static_cast<int64_t>(trips.size());
  CAUSALTAD_CHECK_GT(batch, 0);
  std::vector<int64_t> steps(batch);  // decode steps per trip: |route| - 1
  std::vector<int32_t> s_ids(batch), d_ids(batch);
  int64_t max_steps = 0;
  int64_t total_steps = 0;
  for (int64_t i = 0; i < batch; ++i) {
    const auto& segs = trips[i]->route.segments;
    CAUSALTAD_CHECK_GE(segs.size(), 2u);
    steps[i] = static_cast<int64_t>(segs.size()) - 1;
    s_ids[i] = segs.front();
    d_ids[i] = segs.back();
    max_steps = std::max(max_steps, steps[i]);
    total_steps += steps[i];
  }

  // SD encoder + decoder as one batch (no SD-pair dedup here: each trip
  // draws its own latent sample, and the summed gradients already coincide
  // with per-trip accumulation).
  const nn::Var joint = nn::ConcatCols(
      {sd_emb_.Forward(s_ids), sd_emb_.Forward(d_ids)});  // [B, 2*emb]
  const nn::Var hidden = nn::Tanh(enc_fc_.Forward(joint));
  const nn::Var mu = mu_head_.Forward(hidden);
  const nn::Var logvar = lv_head_.Forward(hidden);
  const nn::Var r =
      rng != nullptr ? nn::Reparameterize(mu, logvar, rng) : mu;
  nn::Var loss = nn::KlStandardNormal(mu, logvar);
  if (config_.use_sd_decoder) {
    const nn::Var dec_hidden = nn::Tanh(dec_fc_.Forward(r));
    loss = nn::Add(
        loss,
        nn::Add(nn::SoftmaxCrossEntropy(head_s_.Forward(dec_hidden), s_ids),
                nn::SoftmaxCrossEntropy(head_d_.Forward(dec_hidden), d_ids)));
  }

  // Route decoder: masked [B, hidden] roll. Live rows of every step are
  // gathered into one [Σlive, hidden] block; the successor-masked CEs then
  // collapse into a single subset-softmax op (road-constrained) or one
  // full-vocabulary CE (ablation).
  nn::Var h = nn::Tanh(h0_proj_.Forward(r));  // [B, hidden]
  std::vector<nn::Var> live_states;
  live_states.reserve(max_steps);
  std::vector<int32_t> step_ids(batch);
  std::vector<uint8_t> finished(batch);
  std::vector<int32_t> live_rows;
  std::vector<int32_t> flat_ids, offsets, target_pos;  // road-constrained
  std::vector<int32_t> full_targets;                   // ablation
  if (config_.road_constrained) {
    offsets.reserve(total_steps + 1);
    target_pos.reserve(total_steps);
    offsets.push_back(0);
  } else {
    full_targets.reserve(total_steps);
  }
  for (int64_t j = 0; j < max_steps; ++j) {
    for (int64_t i = 0; i < batch; ++i) {
      const bool live = j < steps[i];
      finished[i] = live ? 0 : 1;
      step_ids[i] =
          live ? static_cast<int32_t>(trips[i]->route.segments[j]) : 0;
    }
    h = gru_.StepBatched(route_emb_.Forward(step_ids), h, finished);
    live_rows.clear();
    for (int64_t i = 0; i < batch; ++i) {
      if (j >= steps[i]) continue;
      live_rows.push_back(static_cast<int32_t>(i));
      const auto& segs = trips[i]->route.segments;
      if (config_.road_constrained) {
        const auto successors = network_->Successors(segs[j]);
        int32_t pos = -1;
        for (size_t c = 0; c < successors.size(); ++c) {
          flat_ids.push_back(successors[c]);
          if (successors[c] == segs[j + 1]) pos = static_cast<int32_t>(c);
        }
        CAUSALTAD_CHECK_GE(pos, 0) << "route is not network-valid";
        target_pos.push_back(pos);
        offsets.push_back(static_cast<int32_t>(flat_ids.size()));
      } else {
        full_targets.push_back(static_cast<int32_t>(segs[j + 1]));
      }
    }
    if (static_cast<int64_t>(live_rows.size()) == batch) {
      live_states.push_back(h);
    } else {
      live_states.push_back(nn::GatherRows(h, live_rows));
    }
  }
  const nn::Var all_states = live_states.size() == 1
                                 ? live_states[0]
                                 : nn::ConcatRows(live_states);
  if (config_.road_constrained) {
    loss = nn::Add(loss,
                   nn::SubsetSoftmaxCrossEntropy(all_states, out_.w(),
                                                 out_.b(), flat_ids, offsets,
                                                 target_pos));
  } else {
    loss = nn::Add(loss, nn::SoftmaxCrossEntropy(out_.Forward(all_states),
                                                 full_targets));
  }
  return loss;
}

double TgVae::ScoreParts::PrefixScore(int64_t prefix_len) const {
  double total = sd_nll + kl;
  const int64_t steps = std::min<int64_t>(
      prefix_len - 1, static_cast<int64_t>(step_nll.size()));
  for (int64_t j = 0; j < steps; ++j) total += step_nll[j];
  return total;
}

TgVae::ScoreParts TgVae::Score(const traj::Trip& trip) const {
  const auto& segs = trip.route.segments;
  CAUSALTAD_CHECK_GE(segs.size(), 1u);
  ScoreParts parts;
  const roadnet::SegmentId s = segs.front();
  const roadnet::SegmentId d = segs.back();

  const Forwarded f = EncodeSd(s, d, /*rng=*/nullptr);
  parts.kl = nn::KlStandardNormal(f.mu, f.logvar).value().Item();
  parts.sd_nll = config_.use_sd_decoder
                     ? SdDecoderNll(f.r, s, d).value().Item()
                     : 0.0;

  nn::Var h = nn::Tanh(h0_proj_.Forward(f.r));
  parts.step_nll.reserve(segs.size() - 1);
  for (size_t j = 0; j + 1 < segs.size(); ++j) {
    parts.step_nll.push_back(StepNll(segs[j], segs[j + 1], &h));
  }
  return parts;
}

std::vector<TgVae::ScoreParts> TgVae::ScoreBatch(
    std::span<const traj::Trip> trips, std::span<const int64_t> prefix_lens,
    const ServingTables* tables) const {
  // Shard rows across the worker pool (scores are per-row independent; the
  // no-grad guard and scratch arena are thread-local). Shards are
  // length-bucketed by decode-step count: each worker's [B, hidden] roll
  // sees near-uniform row lengths (few idle rows per step) and shards
  // carry near-equal total work, unlike equal-count splits.
  const int64_t n = static_cast<int64_t>(trips.size());
  std::vector<ScoreParts> parts(n);
  if (n == 0) return parts;
  ServingTables own;
  if (tables == nullptr) {
    own = BuildServingTables();
    tables = &own;
  }
  // steps[i] = number of step NLLs trip i needs (its prefix budget).
  std::vector<int64_t> steps(n), costs(n);
  for (int64_t i = 0; i < n; ++i) {
    CAUSALTAD_CHECK_GE(trips[i].route.size(), 1);
    steps[i] = trips[i].route.size() - 1;
    if (i < static_cast<int64_t>(prefix_lens.size()) && prefix_lens[i] > 0) {
      steps[i] = std::min(steps[i], prefix_lens[i] - 1);
    }
    costs[i] = steps[i] + 1;
  }
  const std::vector<std::vector<int64_t>> shards = util::RowShards(costs, 8);
  util::ParallelFor(
      static_cast<int64_t>(shards.size()), static_cast<int>(shards.size()),
      [&](int64_t begin, int64_t end) {
        for (int64_t s = begin; s < end; ++s) {
          ScoreBatchChunk(*tables, trips, steps, shards[s], parts.data());
        }
      });
  return parts;
}

void TgVae::ScoreBatchChunk(const ServingTables& tables,
                            std::span<const traj::Trip> trips,
                            std::span<const int64_t> steps,
                            std::span<const int64_t> rows,
                            ScoreParts* out) const {
  const int64_t batch = static_cast<int64_t>(rows.size());
  if (batch == 0) return;
  std::vector<roadnet::SegmentId> sources(batch), destinations(batch);
  int64_t max_steps = 0;
  for (int64_t i = 0; i < batch; ++i) {
    sources[i] = trips[rows[i]].route.segments.front();
    destinations[i] = trips[rows[i]].route.segments.back();
    max_steps = std::max(max_steps, steps[rows[i]]);
  }
  SdContext ctx = EncodeSdBatch(sources, destinations);
  for (int64_t i = 0; i < batch; ++i) {
    ScoreParts& part = out[rows[i]];
    part.sd_nll = ctx.sd_nll[i];
    part.kl = ctx.kl[i];
    part.step_nll.reserve(steps[rows[i]]);
  }

  // Masked time loop over the [B, hidden] states: step j advances every
  // row whose budget reaches it.
  std::vector<roadnet::SegmentId> current, next;
  std::vector<int64_t> live;
  std::vector<double> nll;
  for (int64_t j = 0; j < max_steps; ++j) {
    current.clear();
    next.clear();
    live.clear();
    for (int64_t i = 0; i < batch; ++i) {
      if (steps[rows[i]] <= j) continue;
      const auto& segs = trips[rows[i]].route.segments;
      current.push_back(segs[j]);
      next.push_back(segs[j + 1]);
      live.push_back(i);
    }
    nll.resize(live.size());
    StepNllRows(tables, current, next, live, ctx.h0.data(), nll.data());
    for (size_t k = 0; k < live.size(); ++k) {
      out[rows[live[k]]].step_nll.push_back(nll[k]);
    }
  }
}

TgVae::SdContext TgVae::EncodeSdBatch(
    std::span<const roadnet::SegmentId> sources,
    std::span<const roadnet::SegmentId> destinations) const {
  CAUSALTAD_CHECK_EQ(sources.size(), destinations.size());
  const nn::InferenceGuard no_grad;
  const nn::kernels::Kernels& kern = nn::kernels::Active();
  const int64_t batch = static_cast<int64_t>(sources.size());
  // Deduplicate: concurrent orders between the same endpoints (the paper's
  // ride-hailing workload) get one posterior, one SD-decoder CE and one h0.
  std::vector<int64_t> pair_of(batch);  // trip -> unique-pair index
  std::unordered_map<int64_t, int64_t> pair_index;
  std::vector<int32_t> u_s, u_d;  // unique pair endpoints
  for (int64_t i = 0; i < batch; ++i) {
    const int64_t key = (static_cast<int64_t>(sources[i]) << 32) |
                        static_cast<uint32_t>(destinations[i]);
    const auto [it, inserted] =
        pair_index.try_emplace(key, static_cast<int64_t>(u_s.size()));
    if (inserted) {
      u_s.push_back(sources[i]);
      u_d.push_back(destinations[i]);
    }
    pair_of[i] = it->second;
  }
  const int64_t unique = static_cast<int64_t>(u_s.size());
  const nn::Var joint = nn::ConcatCols(
      {sd_emb_.Forward(u_s), sd_emb_.Forward(u_d)});  // [U, 2*emb]
  const nn::Var hidden = nn::Tanh(enc_fc_.Forward(joint));
  const nn::Var mu = mu_head_.Forward(hidden);      // [U, latent]
  const nn::Var logvar = lv_head_.Forward(hidden);  // [U, latent]
  const int64_t latent = config_.latent_dim;
  std::vector<double> pair_kl(unique), pair_sd_nll(unique, 0.0);
  for (int64_t u = 0; u < unique; ++u) {
    pair_kl[u] = kern.kl_standard_normal_row(
        mu.value().data() + u * latent, logvar.value().data() + u * latent,
        latent);
  }
  if (config_.use_sd_decoder) {
    const nn::Var dec_hidden = nn::Tanh(dec_fc_.Forward(mu));
    const nn::Var logits_s = head_s_.Forward(dec_hidden);  // [U, vocab]
    const nn::Var logits_d = head_d_.Forward(dec_hidden);  // [U, vocab]
    for (int64_t u = 0; u < unique; ++u) {
      pair_sd_nll[u] =
          kern.softmax_nll_row(logits_s.value().data() + u * config_.vocab,
                               config_.vocab, u_s[u]) +
          kern.softmax_nll_row(logits_d.value().data() + u * config_.vocab,
                               config_.vocab, u_d[u]);
    }
  }
  const nn::Var pair_h0 = nn::Tanh(h0_proj_.Forward(mu));  // [U, hidden]
  const int64_t hd = config_.hidden_dim;
  SdContext ctx;
  ctx.h0 = nn::Tensor({batch, hd});
  ctx.sd_nll.resize(batch);
  ctx.kl.resize(batch);
  for (int64_t i = 0; i < batch; ++i) {
    const float* row = pair_h0.value().data() + pair_of[i] * hd;
    std::copy(row, row + hd, ctx.h0.data() + i * hd);
    ctx.sd_nll[i] = pair_sd_nll[pair_of[i]];
    ctx.kl[i] = pair_kl[pair_of[i]];
  }
  return ctx;
}

double TgVae::StepNll(roadnet::SegmentId current, roadnet::SegmentId next,
                      nn::Var* hidden) const {
  const std::vector<int32_t> id = {current};
  *hidden = gru_.Step(route_emb_.Forward(id), *hidden);
  return StepCe(*hidden, current, next).value().Item();
}

TgVae::ServingTables TgVae::BuildServingTables() const {
  const nn::InferenceGuard no_grad;
  const int64_t vocab = config_.vocab;
  ServingTables tables;
  tables.out_wt = nn::Tensor({vocab, config_.hidden_dim});
  nn::kernels::Active().pack_transpose(out_.w().value().data(),
                                       config_.hidden_dim, vocab,
                                       tables.out_wt.data());
  tables.gate_in = gru_.ProjectInputs(route_emb_.table().value());
  return tables;
}

void TgVae::StepNllRows(const ServingTables& tables,
                        std::span<const roadnet::SegmentId> current,
                        std::span<const roadnet::SegmentId> next,
                        std::span<const int64_t> rows, float* states,
                        double* nll) const {
  const int64_t n = static_cast<int64_t>(current.size());
  if (n == 0) return;
  const int64_t hd = config_.hidden_dim;
  const int64_t three_h = 3 * hd;
  const float* gate_in = tables.gate_in.data();
  const float* wt = tables.out_wt.data();
  // Entries are independent (distinct state rows), so shard them across the
  // worker pool; each worker scopes its own no-grad guard and arena and
  // advances its slice of the shared state matrix with one fused GRU step.
  const int64_t shards = std::min<int64_t>(util::ParallelThreads(), n / 16);
  util::ParallelFor(
      n, shards > 1 ? static_cast<int>(shards) : 1,
      [&](int64_t begin, int64_t end) {
        const nn::InferenceGuard no_grad;
        const nn::kernels::Kernels& kern = nn::kernels::Active();
        const int64_t count = end - begin;
        nn::internal::ArenaScope scope;
        float* xw = nn::internal::ArenaAlloc(count * three_h);
        nn::Tensor h({count, hd});
        for (int64_t k = 0; k < count; ++k) {
          const float* in = gate_in + current[begin + k] * three_h;
          std::copy(in, in + three_h, xw + k * three_h);
          const float* src = states + rows[begin + k] * hd;
          std::copy(src, src + hd, h.data() + k * hd);
        }
        const nn::Var hv =
            gru_.StepFusedProjected(xw, count, nn::Constant(std::move(h)));
        const float* hnew = hv.value().data();
        for (int64_t k = 0; k < count; ++k) {
          std::copy(hnew + k * hd, hnew + (k + 1) * hd,
                    states + rows[begin + k] * hd);
        }

        // Per-entry next-segment NLL: successor-masked contiguous dots
        // against the transposed output weights, or one packed full-vocab
        // matmul for the unconstrained ablation.
        const float* b = out_.b().value().data();
        if (config_.road_constrained) {
          for (int64_t k = 0; k < count; ++k) {
            const auto successors = network_->Successors(current[begin + k]);
            const int64_t deg = static_cast<int64_t>(successors.size());
            nn::internal::ArenaScope logits_scope;
            float* logits = nn::internal::ArenaAlloc(deg);
            int64_t target_pos = -1;
            const float* hrow = hnew + k * hd;
            for (int64_t c = 0; c < deg; ++c) {
              const int32_t col = successors[c];
              if (col == next[begin + k]) target_pos = c;
              logits[c] = b[col] + kern.dot(hrow, wt + col * hd, hd);
            }
            CAUSALTAD_CHECK_GE(target_pos, 0)
                << "transition is not network-valid";
            nll[begin + k] = kern.softmax_nll_row(logits, deg, target_pos);
          }
        } else {
          float* logits = nn::internal::ArenaAlloc(count * config_.vocab);
          kern.matmul_packed(hnew, out_.w().value().data(), logits, count, hd,
                             config_.vocab, /*accumulate=*/false,
                             /*b_pretransposed=*/false);
          for (int64_t k = 0; k < count; ++k) {
            float* row = logits + k * config_.vocab;
            for (int64_t c = 0; c < config_.vocab; ++c) row[c] += b[c];
            nll[begin + k] =
                kern.softmax_nll_row(row, config_.vocab, next[begin + k]);
          }
        }
      });
}

}  // namespace core
}  // namespace causaltad
