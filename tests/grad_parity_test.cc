// Gradient-parity suite for the batched training engine: the minibatched
// [B, hidden] tape (StepBatched, LossBatch) must reproduce the per-trip
// tape's gradients for every generative parameter, and the threaded
// ScoreBatch sharding must reproduce the single-threaded scores exactly.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/causal_tad.h"
#include "core/rp_vae.h"
#include "core/tg_vae.h"
#include "eval/datasets.h"
#include "models/rnn_vae.h"
#include "nn/modules.h"
#include "nn/ops.h"
#include "util/parallel.h"

namespace causaltad {
namespace {

constexpr double kGradTol = 1e-4;

const eval::ExperimentData& Data() {
  static const eval::ExperimentData* data = new eval::ExperimentData(
      eval::BuildExperiment(eval::XianConfig(eval::Scale::kSmoke)));
  return *data;
}

/// Synthetic variable-length trips over an arbitrary vocab (RnnVae does not
/// need network-valid routes).
std::vector<traj::Trip> SyntheticTrips(int64_t vocab, int count,
                                       uint64_t seed) {
  util::Rng rng(seed);
  std::vector<traj::Trip> trips(count);
  for (int i = 0; i < count; ++i) {
    const int64_t len = 3 + rng.UniformInt(6);  // 3..8
    trips[i].route.segments.resize(len);
    for (int64_t j = 0; j < len; ++j) {
      trips[i].route.segments[j] =
          static_cast<roadnet::SegmentId>(rng.UniformInt(vocab));
    }
    trips[i].time_slot = static_cast<int>(rng.UniformInt(8));
  }
  return trips;
}

std::vector<nn::Tensor> SnapshotGrads(const std::vector<nn::Var>& params) {
  std::vector<nn::Tensor> out;
  out.reserve(params.size());
  for (const nn::Var& p : params) out.push_back(p.grad());
  return out;
}

double MaxAbsGradDiff(const std::vector<nn::Var>& params,
                      const std::vector<nn::Tensor>& reference) {
  double max_diff = 0.0;
  for (size_t i = 0; i < params.size(); ++i) {
    const nn::Tensor& g = params[i].grad();
    for (int64_t j = 0; j < g.numel(); ++j) {
      max_diff = std::max(
          max_diff, std::abs(static_cast<double>(g[j] - reference[i][j])));
    }
  }
  return max_diff;
}

void ZeroGrads(const std::vector<nn::Var>& params) {
  for (const nn::Var& p : params) {
    nn::Var copy = p;
    copy.ZeroGrad();
  }
}

// ---------------------------------------------------------------------------
// Fused batched GRU step vs the op-composed reference.
// ---------------------------------------------------------------------------

TEST(GruStepBatchedTest, MatchesComposedStepForwardAndBackward) {
  util::Rng rng(11);
  const int64_t in = 10, hd = 14, batch = 6;
  nn::GruCell cell("cell", in, hd, &rng);
  const std::vector<nn::Var> params = cell.Parameters();

  nn::Tensor tx({batch, in}), th({batch, hd});
  for (int64_t i = 0; i < tx.numel(); ++i) {
    tx[i] = static_cast<float>(rng.Gaussian()) * 0.7f;
  }
  for (int64_t i = 0; i < th.numel(); ++i) {
    th[i] = static_cast<float>(rng.Gaussian()) * 0.5f;
  }
  // A fixed non-uniform weighting makes the scalar loss sensitive to every
  // output element with a distinct gradient.
  nn::Tensor weight({batch, hd});
  for (int64_t i = 0; i < weight.numel(); ++i) {
    weight[i] = 0.1f + 0.01f * static_cast<float>(i % 17);
  }

  nn::Var x_ref(tx, /*requires_grad=*/true);
  nn::Var h_ref(th, /*requires_grad=*/true);
  const nn::Var out_ref = cell.Step(x_ref, h_ref);
  nn::Backward(nn::Sum(nn::Mul(out_ref, nn::Constant(weight))));
  const std::vector<nn::Tensor> ref_grads = SnapshotGrads(params);
  const nn::Tensor ref_dx = x_ref.grad();
  const nn::Tensor ref_dh = h_ref.grad();
  ZeroGrads(params);

  nn::Var x(tx, /*requires_grad=*/true);
  nn::Var h(th, /*requires_grad=*/true);
  const nn::Var out = cell.StepBatched(x, h);
  for (int64_t i = 0; i < out.value().numel(); ++i) {
    EXPECT_NEAR(out.value()[i], out_ref.value()[i], 1e-5f);
  }
  nn::Backward(nn::Sum(nn::Mul(out, nn::Constant(weight))));
  EXPECT_LT(MaxAbsGradDiff(params, ref_grads), kGradTol);
  for (int64_t i = 0; i < ref_dx.numel(); ++i) {
    EXPECT_NEAR(x.grad()[i], ref_dx[i], kGradTol);
  }
  for (int64_t i = 0; i < ref_dh.numel(); ++i) {
    EXPECT_NEAR(h.grad()[i], ref_dh[i], kGradTol);
  }
}

TEST(GruStepBatchedTest, FinishedRowsPassThroughWithZeroGradient) {
  util::Rng rng(12);
  const int64_t in = 8, hd = 10, batch = 4;
  nn::GruCell cell("cell", in, hd, &rng);

  nn::Tensor tx({batch, in}), th({batch, hd});
  for (int64_t i = 0; i < tx.numel(); ++i) {
    tx[i] = static_cast<float>(rng.Gaussian());
  }
  for (int64_t i = 0; i < th.numel(); ++i) {
    th[i] = static_cast<float>(rng.Gaussian());
  }
  const std::vector<uint8_t> finished = {0, 1, 0, 1};

  nn::Var x(tx, /*requires_grad=*/true);
  nn::Var h(th, /*requires_grad=*/true);
  const nn::Var out = cell.StepBatched(x, h, finished);
  for (int64_t b = 0; b < batch; ++b) {
    if (!finished[b]) continue;
    for (int64_t j = 0; j < hd; ++j) {
      EXPECT_EQ(out.value().At(b, j), th.At(b, j));
    }
  }
  nn::Backward(nn::Sum(out));
  for (int64_t b = 0; b < batch; ++b) {
    for (int64_t j = 0; j < in; ++j) {
      if (finished[b]) EXPECT_EQ(x.grad().At(b, j), 0.0f);
    }
    for (int64_t j = 0; j < hd; ++j) {
      // A frozen row's state passes straight through: dL/dh row == dL/dout
      // row (here all ones).
      if (finished[b]) EXPECT_EQ(h.grad().At(b, j), 1.0f);
    }
  }
}

// ---------------------------------------------------------------------------
// RnnVae::LossBatch vs per-trip Loss, all model variants.
// ---------------------------------------------------------------------------

void ExpectRnnVaeParity(models::RnnVaeConfig cfg, const char* name) {
  SCOPED_TRACE(name);
  cfg.vocab = 40;
  cfg.emb_dim = 12;
  cfg.hidden_dim = 16;
  cfg.latent_dim = 8;
  models::RnnVae model(name, cfg);
  const std::vector<traj::Trip> trips = SyntheticTrips(cfg.vocab, 7, 99);
  const std::vector<nn::Var> params = model.GenerativeParameters();
  ASSERT_FALSE(params.empty());

  // Reference: one tape per trip, gradients accumulated across trips
  // (rng=nullptr makes the latent deterministic on both paths).
  double ref_loss = 0.0;
  for (const traj::Trip& trip : trips) {
    const nn::Var loss = model.Loss(trip, trip.route.size(), nullptr);
    ref_loss += loss.value().Item();
    nn::Backward(loss);
  }
  const std::vector<nn::Tensor> ref_grads = SnapshotGrads(params);
  ZeroGrads(params);

  std::vector<const traj::Trip*> ptrs;
  for (const traj::Trip& trip : trips) ptrs.push_back(&trip);
  const nn::Var batched = model.LossBatch(ptrs, nullptr);
  EXPECT_NEAR(batched.value().Item(), ref_loss,
              2e-4 * std::max(1.0, std::abs(ref_loss)));
  nn::Backward(batched);
  EXPECT_LT(MaxAbsGradDiff(params, ref_grads), kGradTol);
}

TEST(RnnVaeGradParityTest, Sae) {
  models::RnnVaeConfig cfg;
  cfg.variational = false;
  ExpectRnnVaeParity(cfg, "SAE");
}

TEST(RnnVaeGradParityTest, Vsae) {
  models::RnnVaeConfig cfg;
  ExpectRnnVaeParity(cfg, "VSAE");
}

TEST(RnnVaeGradParityTest, BetaVae) {
  models::RnnVaeConfig cfg;
  cfg.beta = 4.0f;
  ExpectRnnVaeParity(cfg, "BetaVAE");
}

TEST(RnnVaeGradParityTest, GmVsae) {
  models::RnnVaeConfig cfg;
  cfg.mixture_k = 5;
  ExpectRnnVaeParity(cfg, "GM-VSAE");
}

TEST(RnnVaeGradParityTest, DeepTea) {
  models::RnnVaeConfig cfg;
  cfg.time_conditioned = true;
  ExpectRnnVaeParity(cfg, "DeepTEA");
}

TEST(RnnVaeGradParityTest, FactorVaeGenerativePath) {
  // The TC term is added by Fit on both paths; LossBatch parity covers the
  // generative parameters the discriminator does not touch.
  models::RnnVaeConfig cfg;
  cfg.factor_tc = true;
  ExpectRnnVaeParity(cfg, "FactorVAE");
}

// ---------------------------------------------------------------------------
// TG-VAE / RP-VAE (CausalTAD's two halves) vs per-trip accumulation.
// ---------------------------------------------------------------------------

TEST(TgVaeGradParityTest, LossBatchMatchesPerTripGrads) {
  util::Rng rng(31);
  core::TgVaeConfig cfg;
  cfg.vocab = Data().vocab();
  cfg.emb_dim = 12;
  cfg.hidden_dim = 16;
  cfg.latent_dim = 8;
  core::TgVae tg(&Data().city.network, cfg, &rng);
  const std::vector<nn::Var> params = tg.Parameters();

  std::vector<const traj::Trip*> trips;
  for (int i = 0; i < 6; ++i) trips.push_back(&Data().train[i]);

  double ref_loss = 0.0;
  for (const traj::Trip* trip : trips) {
    const nn::Var loss = tg.Loss(*trip, nullptr);
    ref_loss += loss.value().Item();
    nn::Backward(loss);
  }
  const std::vector<nn::Tensor> ref_grads = SnapshotGrads(params);
  ZeroGrads(params);

  const nn::Var batched = tg.LossBatch(trips, nullptr);
  EXPECT_NEAR(batched.value().Item(), ref_loss,
              2e-4 * std::max(1.0, std::abs(ref_loss)));
  nn::Backward(batched);
  EXPECT_LT(MaxAbsGradDiff(params, ref_grads), kGradTol);
}

TEST(TgVaeGradParityTest, UnconstrainedAblationMatchesToo) {
  util::Rng rng(32);
  core::TgVaeConfig cfg;
  cfg.vocab = Data().vocab();
  cfg.emb_dim = 12;
  cfg.hidden_dim = 16;
  cfg.latent_dim = 8;
  cfg.road_constrained = false;
  cfg.use_sd_decoder = false;
  core::TgVae tg(&Data().city.network, cfg, &rng);
  const std::vector<nn::Var> params = tg.Parameters();

  std::vector<const traj::Trip*> trips;
  for (int i = 0; i < 5; ++i) trips.push_back(&Data().train[i]);

  double ref_loss = 0.0;
  for (const traj::Trip* trip : trips) {
    const nn::Var loss = tg.Loss(*trip, nullptr);
    ref_loss += loss.value().Item();
    nn::Backward(loss);
  }
  const std::vector<nn::Tensor> ref_grads = SnapshotGrads(params);
  ZeroGrads(params);

  const nn::Var batched = tg.LossBatch(trips, nullptr);
  EXPECT_NEAR(batched.value().Item(), ref_loss,
              2e-4 * std::max(1.0, std::abs(ref_loss)));
  nn::Backward(batched);
  EXPECT_LT(MaxAbsGradDiff(params, ref_grads), kGradTol);
}

TEST(RpVaeGradParityTest, LossBatchMatchesPerTripGrads) {
  util::Rng rng(33);
  core::RpVaeConfig cfg;
  cfg.vocab = Data().vocab();
  cfg.emb_dim = 10;
  cfg.hidden_dim = 16;
  cfg.latent_dim = 6;
  cfg.num_time_slots = 8;  // exercise the per-row slot conditioning
  core::RpVae rp(cfg, &rng);
  const std::vector<nn::Var> params = rp.Parameters();

  std::vector<const traj::Trip*> trips;
  for (int i = 0; i < 5; ++i) trips.push_back(&Data().train[i]);

  double ref_loss = 0.0;
  for (const traj::Trip* trip : trips) {
    const nn::Var loss =
        rp.Loss(trip->route.segments, nullptr, trip->time_slot);
    ref_loss += loss.value().Item();
    nn::Backward(loss);
  }
  const std::vector<nn::Tensor> ref_grads = SnapshotGrads(params);
  ZeroGrads(params);

  std::vector<roadnet::SegmentId> segments;
  std::vector<int32_t> slots;
  for (const traj::Trip* trip : trips) {
    segments.insert(segments.end(), trip->route.segments.begin(),
                    trip->route.segments.end());
    slots.insert(slots.end(), trip->route.size(),
                 static_cast<int32_t>(trip->time_slot));
  }
  const nn::Var batched = rp.LossBatch(segments, slots, nullptr);
  EXPECT_NEAR(batched.value().Item(), ref_loss,
              2e-4 * std::max(1.0, std::abs(ref_loss)));
  nn::Backward(batched);
  EXPECT_LT(MaxAbsGradDiff(params, ref_grads), kGradTol);
}

// ---------------------------------------------------------------------------
// Threaded ScoreBatch sharding: identical scores at any thread count.
// ---------------------------------------------------------------------------

TEST(ParallelScoreBatchTest, ShardedScoresMatchSingleThread) {
  models::RnnVaeConfig cfg;
  cfg.vocab = 40;
  cfg.emb_dim = 12;
  cfg.hidden_dim = 16;
  cfg.latent_dim = 8;
  models::RnnVae model("VSAE", cfg);
  const std::vector<traj::Trip> trips = SyntheticTrips(cfg.vocab, 48, 7);
  std::vector<int64_t> prefixes;
  for (const traj::Trip& trip : trips) prefixes.push_back(trip.route.size());

  util::SetParallelThreads(1);
  const std::vector<double> single = model.ScoreBatch(trips, prefixes);
  util::SetParallelThreads(4);
  const std::vector<double> sharded = model.ScoreBatch(trips, prefixes);
  util::SetParallelThreads(0);
  ASSERT_EQ(single.size(), sharded.size());
  for (size_t i = 0; i < single.size(); ++i) {
    EXPECT_EQ(single[i], sharded[i]) << "row " << i;
  }
  // And both match the per-trip tape path.
  for (size_t i = 0; i < trips.size(); ++i) {
    EXPECT_NEAR(sharded[i], model.Score(trips[i], prefixes[i]), 1e-4)
        << "row " << i;
  }
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  std::vector<int> hits(1000, 0);
  util::SetParallelThreads(3);
  util::ParallelFor(1000, 0, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) ++hits[i];
  });
  util::SetParallelThreads(0);
  EXPECT_TRUE(std::all_of(hits.begin(), hits.end(),
                          [](int h) { return h == 1; }));
}

// ---------------------------------------------------------------------------
// Batched Fit end to end (every variant trains and scores finitely).
// ---------------------------------------------------------------------------

TEST(BatchedFitTest, AllVariantsTrainAndScore) {
  const std::vector<traj::Trip> trips = SyntheticTrips(40, 40, 55);
  models::RnnVaeConfig base;
  base.vocab = 40;
  base.emb_dim = 12;
  base.hidden_dim = 16;
  base.latent_dim = 8;
  models::FitOptions options;
  options.epochs = 2;
  options.batch_size = 8;
  for (auto factory : {models::MakeSae, models::MakeVsae, models::MakeGmVsae,
                       models::MakeDeepTea, models::MakeFactorVae}) {
    auto scorer = factory(base);
    scorer->Fit(trips, options);
    const double score = scorer->ScoreFull(trips.front());
    EXPECT_TRUE(std::isfinite(score)) << scorer->Name();
  }
}

}  // namespace
}  // namespace causaltad
