// Tests for the rare-event acceleration stack: the weighted accumulator and
// probit primitives, the tilted RNG hooks, the tilted stochastic-LLG kernels
// (scalar vs batched bitwise parity, likelihood-ratio bookkeeping), the
// generic importance-sampling / subset-simulation drivers, and the workload
// wirings (WER, retention, RER, read disturb) -- including the acceptance
// contract: overlap-regime agreement with brute force and bit identity
// across thread counts and scalar/batched paths.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "device/mtj_device.h"
#include "disturb_oracle.h"
#include "dynamics/llg.h"
#include "dynamics/llg_batch.h"
#include "dynamics/switching_sim.h"
#include "engine/monte_carlo.h"
#include "engine/rare_event.h"
#include "obs/metrics.h"
#include "mram/retention.h"
#include "mram/wer.h"
#include "readout/read_error.h"
#include "readout/rer.h"
#include "subset_oracle.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/stats.h"

namespace mram {
namespace {

double normal_cdf(double x) { return 0.5 * std::erfc(-x / std::sqrt(2.0)); }

// --- util::WeightedStats ----------------------------------------------------

TEST(WeightedStats, MergeInChunkOrderMatchesSerial) {
  // Chunk accumulators merged in chunk order reproduce serial accumulation
  // (up to fp regrouping) for any chunking; counts are exact. Bitwise
  // thread-count invariance comes from the engine fixing the chunk
  // decomposition -- covered by the engine and workload determinism tests.
  util::Rng rng(7);
  std::vector<double> values(257), weights(257);
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = rng.uniform() < 0.3 ? 1.0 : 0.0;
    weights[i] = std::exp(rng.normal());
  }

  util::WeightedStats serial;
  for (std::size_t i = 0; i < values.size(); ++i) {
    serial.add(values[i], weights[i]);
  }

  for (std::size_t chunk : {std::size_t{1}, std::size_t{16}, std::size_t{100},
                            std::size_t{257}}) {
    util::WeightedStats merged;
    for (std::size_t start = 0; start < values.size(); start += chunk) {
      util::WeightedStats part;
      const std::size_t stop = std::min(start + chunk, values.size());
      for (std::size_t i = start; i < stop; ++i) {
        part.add(values[i], weights[i]);
      }
      merged.merge(part);
    }
    EXPECT_EQ(merged.count(), serial.count()) << "chunk " << chunk;
    EXPECT_NEAR(merged.mean(), serial.mean(), 1e-12) << "chunk " << chunk;
    EXPECT_NEAR(merged.variance(), serial.variance(), 1e-9)
        << "chunk " << chunk;
    EXPECT_NEAR(merged.sum_weight(), serial.sum_weight(), 1e-9)
        << "chunk " << chunk;
    EXPECT_NEAR(merged.effective_samples(), serial.effective_samples(), 1e-9)
        << "chunk " << chunk;
  }
}

TEST(WeightedStats, AllZeroWeightsHaveZeroEssAndInfiniteRelError) {
  util::WeightedStats ws;
  for (int i = 0; i < 10; ++i) ws.add(0.0, 0.0);
  EXPECT_EQ(ws.count(), 10u);
  EXPECT_EQ(ws.effective_samples(), 0.0);
  EXPECT_EQ(ws.mean(), 0.0);
  EXPECT_TRUE(std::isinf(ws.rel_error()));
}

TEST(WeightedStats, SingleTrialHasNoSpreadEstimate) {
  util::WeightedStats ws;
  ws.add(1.0, 2.0);
  EXPECT_EQ(ws.count(), 1u);
  EXPECT_EQ(ws.mean(), 2.0);
  EXPECT_EQ(ws.variance(), 0.0);
  EXPECT_EQ(ws.std_error(), 0.0);
  EXPECT_TRUE(std::isinf(ws.rel_error()));  // one sample: quality unknown
  EXPECT_EQ(ws.effective_samples(), 1.0);   // (sum w)^2 / sum w^2
}

TEST(WeightedStats, UnitWeightsReduceToBinomialCounting) {
  util::WeightedStats ws;
  for (int i = 0; i < 60; ++i) ws.add(i < 15 ? 1.0 : 0.0, i < 15 ? 1.0 : 0.0);
  EXPECT_DOUBLE_EQ(ws.mean(), 0.25);
  EXPECT_DOUBLE_EQ(ws.effective_samples(), 15.0);
}

// --- util::probit -----------------------------------------------------------

TEST(Probit, RoundTripsThroughTheNormalCdf) {
  for (double x : {-5.0, -2.0, -0.5, 0.0, 0.5, 2.0, 5.0}) {
    EXPECT_NEAR(util::probit(normal_cdf(x)), x, 1e-9) << x;
  }
  // Deep tails: the roundtrip degrades gracefully, not catastrophically.
  EXPECT_NEAR(util::probit(normal_cdf(-8.0)), -8.0, 1e-2);
  EXPECT_NEAR(util::probit(normal_cdf(8.0)), 8.0, 1e-2);
  EXPECT_EQ(util::probit(0.5), 0.0);
}

TEST(Probit, EndpointsAndMonotonicity) {
  EXPECT_TRUE(std::isinf(util::probit(0.0)));
  EXPECT_LT(util::probit(0.0), 0.0);
  EXPECT_TRUE(std::isinf(util::probit(1.0)));
  EXPECT_GT(util::probit(1.0), 0.0);
  double prev = -std::numeric_limits<double>::infinity();
  for (double p = 1e-12; p < 1.0; p *= 10.0) {
    const double b = util::probit(p);
    EXPECT_GT(b, prev);
    prev = b;
  }
}

// --- tilted RNG hooks -------------------------------------------------------

TEST(RngTilt, ZeroTiltReproducesNormalFillBitwise) {
  util::Rng a(99), b(99);
  double plain[31], tilted[31];
  const double zero[3] = {0.0, 0.0, 0.0};
  a.normal_fill(plain, 31);
  b.normal_fill_tilted(tilted, 31, zero, 3);
  for (std::size_t i = 0; i < 31; ++i) EXPECT_EQ(plain[i], tilted[i]) << i;
  // And the generators stay in lockstep afterwards.
  EXPECT_EQ(a(), b());
}

TEST(RngTilt, TiltAddsExactlyOntoTheSameRawDeviates) {
  util::Rng a(123), b(123);
  double plain[30], tilted[30];
  const double tilt[3] = {0.25, -1.5, 4.0};
  a.normal_fill(plain, 30);
  b.normal_fill_tilted(tilted, 30, tilt, 3);
  for (std::size_t i = 0; i < 30; ++i) {
    EXPECT_EQ(tilted[i], plain[i] + tilt[i % 3]) << i;  // exact fp add
  }
}

// --- tilted stochastic-LLG kernels ------------------------------------------

dyn::LlgParams disturb_llg() {
  // A thermally active device under a destabilizing read current: the
  // bridge used by measure_read_disturb, at parameters where trajectories
  // are cheap (few thousand Heun steps).
  auto params = dev::MtjParams::reference_device(35e-9);
  params.delta0 = 14.0;
  const dev::MtjDevice device(params);
  return dyn::llg_from_device(device, dev::SwitchDirection::kApToP, 0.35,
                              device.intra_stray_field(), 300.0);
}

TEST(TiltedLlg, ZeroTiltLeavesWeightZeroAndPathUnchanged) {
  const dyn::MacrospinSim sim(disturb_llg());
  const num::Vec3 m0 = num::normalized({0.05, 0.02, 1.0});
  util::Rng a(5), b(5);
  const auto plain = sim.run_until_switch(m0, 3e-9, 2e-12, a, 0.0);
  const auto tilted = sim.run_until_switch(m0, 3e-9, 2e-12, b, 0.0, {});
  EXPECT_EQ(plain.switched, tilted.switched);
  EXPECT_EQ(plain.time, tilted.time);
  EXPECT_EQ(tilted.log_weight, 0.0);  // exactly, by construction
}

TEST(TiltedLlg, BatchedMatchesScalarBitwiseUnderTilt) {
  const auto llg = disturb_llg();
  const dyn::MacrospinSim scalar(llg);
  dyn::BatchMacrospinSim batch(llg);
  // Stored AP sits at -z and the read current drives toward +z; the tilt
  // pushes the thermal field the same way, toward the mz = 0 crossing.
  const num::Vec3 tilt{0.0, 0.0, 3.0};

  // Odd lane count (remainder masking included); starting heights straddle
  // the barrier so the window produces both crossers and survivors.
  constexpr std::size_t kLanes = 5;
  const double heights[kLanes] = {-1.0, -0.15, -0.9, -0.1, -0.2};
  std::vector<num::Vec3> m0(kLanes);
  for (std::size_t l = 0; l < kLanes; ++l) {
    m0[l] = num::normalized({0.03 + 0.01 * static_cast<double>(l), -0.02,
                             heights[l]});
  }

  std::vector<dyn::SwitchResult> expected(kLanes);
  for (std::size_t l = 0; l < kLanes; ++l) {
    util::Rng rng = util::Rng::stream(77, l);
    expected[l] = scalar.run_until_switch(m0[l], 8e-10, 2e-12, rng, 0.0, tilt);
  }

  std::vector<util::Rng> rngs;
  for (std::size_t l = 0; l < kLanes; ++l) {
    rngs.push_back(util::Rng::stream(77, l));
  }
  std::vector<dyn::SwitchResult> got(kLanes);
  batch.run_until_switch(kLanes, m0.data(), rngs.data(), 8e-10, 2e-12,
                         got.data(), 0.0, tilt);

  bool any_switched = false, any_survived = false;
  for (std::size_t l = 0; l < kLanes; ++l) {
    EXPECT_EQ(got[l].switched, expected[l].switched) << "lane " << l;
    EXPECT_EQ(got[l].time, expected[l].time) << "lane " << l;
    EXPECT_EQ(got[l].log_weight, expected[l].log_weight) << "lane " << l;
    EXPECT_EQ(got[l].m_end.x, expected[l].m_end.x) << "lane " << l;
    EXPECT_EQ(got[l].m_end.y, expected[l].m_end.y) << "lane " << l;
    EXPECT_EQ(got[l].m_end.z, expected[l].m_end.z) << "lane " << l;
    EXPECT_NE(expected[l].log_weight, 0.0) << "lane " << l;  // tilt was paid
    any_switched |= got[l].switched;
    any_survived |= !got[l].switched;
  }
  // The window is chosen so the test exercises both outcomes.
  EXPECT_TRUE(any_switched);
  EXPECT_TRUE(any_survived);
}

TEST(TiltedLlg, PerLaneDurationsMatchScalarContinuations) {
  // The splitting driver restarts survivors mid-window: lane l resumes at
  // its own remaining budget. The per-lane-durations overload must replay
  // the scalar integrator for each lane's own window.
  const auto llg = disturb_llg();
  const dyn::MacrospinSim scalar(llg);
  dyn::BatchMacrospinSim batch(llg);

  constexpr std::size_t kLanes = 3;
  const num::Vec3 m0[kLanes] = {num::normalized({0.30, 0.10, 0.90}),
                                num::normalized({0.25, -0.20, 0.85}),
                                num::normalized({0.05, 0.02, 1.00})};
  const double durations[kLanes] = {2.5e-9, 1.0e-9, 4.0e-9};

  dyn::SwitchResult expected[kLanes];
  for (std::size_t l = 0; l < kLanes; ++l) {
    util::Rng rng = util::Rng::stream(31, l);
    expected[l] =
        scalar.run_until_switch(m0[l], durations[l], 2e-12, rng, 0.5);
  }

  util::Rng rngs[kLanes] = {util::Rng::stream(31, 0), util::Rng::stream(31, 1),
                            util::Rng::stream(31, 2)};
  dyn::SwitchResult got[kLanes];
  batch.run_until_switch(kLanes, m0, rngs, durations, 2e-12, got, 0.5);

  for (std::size_t l = 0; l < kLanes; ++l) {
    EXPECT_EQ(got[l].switched, expected[l].switched) << "lane " << l;
    EXPECT_EQ(got[l].time, expected[l].time) << "lane " << l;
    EXPECT_EQ(got[l].m_end.z, expected[l].m_end.z) << "lane " << l;
  }
}

// --- generic drivers --------------------------------------------------------

TEST(RareEvent, ConfigValidation) {
  eng::RareEventConfig cfg;
  cfg.level_p0 = 1.5;
  EXPECT_THROW(cfg.validate(), util::ConfigError);
  cfg = {};
  cfg.max_rounds = 0;
  EXPECT_THROW(cfg.validate(), util::ConfigError);
  cfg = {};
  cfg.target_rel_error = 0.0;
  EXPECT_THROW(cfg.validate(), util::ConfigError);
}

TEST(RareEvent, BruteEquivalentTrialsFormula) {
  // 1e-4 at 10% relative error needs ~(1-p)/(p re^2) ~ 1e6 brute trials.
  EXPECT_NEAR(eng::brute_equivalent_trials(1e-4, 0.1, 0.0), 0.9999e6, 1e2);
  // Degenerate inputs fall back.
  EXPECT_EQ(eng::brute_equivalent_trials(0.0, 0.1, 123.0), 123.0);
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(eng::brute_equivalent_trials(1e-4, inf, 5.0), 5.0);
}

TEST(RareEvent, ImportanceRoundsEstimatesATiltedGaussianTail) {
  // P(z > beta) with draws tilted to the boundary: the canonical analytic
  // check of the weighted estimator and its stopping rule.
  eng::MonteCarloRunner runner;
  const double beta = 4.0;
  const double p_true = normal_cdf(-beta);
  eng::RareEventConfig cfg;
  cfg.method = eng::RareEventMethod::kImportanceSampling;
  const double tilt[1] = {beta};
  const auto est = eng::importance_rounds(
      runner, 2000, 11, cfg, [&](std::uint64_t round_seed) {
        return runner.run<util::WeightedStats>(
            2000, round_seed,
            [&](util::Rng& rng, std::size_t, util::WeightedStats& ws) {
              double z[1];
              rng.normal_fill_tilted(z, 1, tilt, 1);
              if (z[0] > beta) {
                ws.add(1.0, std::exp(0.5 * beta * beta - beta * z[0]));
              } else {
                ws.add(0.0, 0.0);
              }
            });
      });
  EXPECT_LE(est.rel_error, cfg.target_rel_error);
  EXPECT_NEAR(est.probability, p_true, 3.0 * est.rel_error * p_true);
  EXPECT_GE(est.confidence.lo, 0.0);
  EXPECT_LE(est.confidence.lo, est.probability);
  EXPECT_GE(est.confidence.hi, est.probability);
  // ~1e8 brute trials of work from a few thousand simulated ones.
  EXPECT_GT(est.effective_trials, 100.0 * est.simulated_trials);
}

TEST(RareEvent, SubsetSimulationEstimatesAGaussianTail) {
  eng::MonteCarloRunner runner;
  const double beta = 4.5;
  const double p_true = normal_cdf(-beta);
  eng::RareEventConfig cfg;
  cfg.method = eng::RareEventMethod::kSplitting;
  const auto est = eng::subset_simulation(
      runner, 1, 1500, 13, cfg,
      [beta](std::size_t n, const double* z, std::size_t, double* out) {
        for (std::size_t l = 0; l < n; ++l) out[l] = z[l] - beta;
      });
  EXPECT_FALSE(est.level_probabilities.empty());
  EXPECT_GT(est.probability, 0.0);
  // Subset-simulation error bounds are approximate; a 3x bracket on a
  // 3.4e-6 tail is already far beyond brute-force reach at this cost.
  EXPECT_GT(est.probability, p_true / 3.0);
  EXPECT_LT(est.probability, p_true * 3.0);
}

TEST(RareEvent, DriversAreBitIdenticalAcrossThreadCounts) {
  const double beta = 3.8;
  auto run_both = [&](unsigned threads) {
    eng::RunnerConfig rc;
    rc.threads = threads;
    eng::MonteCarloRunner runner(rc);
    eng::RareEventConfig cfg;
    const double tilt[1] = {beta};
    const auto is = eng::importance_rounds(
        runner, 500, 21, cfg, [&](std::uint64_t round_seed) {
          return runner.run<util::WeightedStats>(
              500, round_seed,
              [&](util::Rng& rng, std::size_t, util::WeightedStats& ws) {
                double z[1];
                rng.normal_fill_tilted(z, 1, tilt, 1);
                if (z[0] > beta) {
                  ws.add(1.0, std::exp(0.5 * beta * beta - beta * z[0]));
                } else {
                  ws.add(0.0, 0.0);
                }
              });
        });
    const auto split = eng::subset_simulation(
        runner, 2, 400, 22, cfg,
        [beta](std::size_t n, const double* z, std::size_t ld, double* out) {
          for (std::size_t l = 0; l < n; ++l) {
            out[l] = 0.5 * (z[l] + z[ld + l]) * 1.41421356 - beta;
          }
        });
    return std::pair{is, split};
  };
  const auto [is1, split1] = run_both(1);
  const auto [is4, split4] = run_both(4);
  EXPECT_EQ(is1.probability, is4.probability);
  EXPECT_EQ(is1.rel_error, is4.rel_error);
  EXPECT_EQ(is1.simulated_trials, is4.simulated_trials);
  EXPECT_EQ(split1.probability, split4.probability);
  EXPECT_EQ(split1.level_probabilities, split4.level_probabilities);
}

// --- read-error model hook --------------------------------------------------

TEST(RareEvent, LaneSubsetSimulationMatchesScalarOracleBitwise) {
  // The lane driver against the one-chain-at-a-time oracle: dimensions
  // from 1 to 16, level sizes below, at and not divisible by the lane
  // width, both level schedules, 1 and 4 threads. Every estimate field
  // and both MCMC counters must agree exactly.
  const auto counter = [](const obs::Snapshot& snap, const char* name) {
    const auto it = snap.counters.find(name);
    return it == snap.counters.end() ? std::uint64_t{0} : it->second;
  };
  const auto same_bits = [](double a, double b) {
    return std::memcmp(&a, &b, sizeof a) == 0;
  };
  for (const std::size_t dim : {1u, 2u, 3u, 16u}) {
    // A tilted linear score plus a nonlinear term, so levels depend on
    // every coordinate; the tail sits ~1e-3 deep.
    const oracle::ScalarScore f = [dim](const double* z) {
      double lin = 0.0, norm = 0.0, worst = -1e300;
      for (std::size_t d = 0; d < dim; ++d) {
        const double w = 1.0 + 0.1 * static_cast<double>(d);
        lin += w * z[d];
        norm += w * w;
        worst = std::max(worst, z[d]);
      }
      const double score = lin / std::sqrt(norm) + 0.1 * worst - 3.0;
      // Two dimensions score on a grid of 1/8: proposals tie with the
      // level, so accepting on > instead of >= shows.
      return dim == 2 ? std::floor(8.0 * score) / 8.0 : score;
    };
    for (const std::size_t n : {4u, 7u, 9u, 400u, 1500u}) {
      for (const bool adaptive : {true, false}) {
        eng::RareEventConfig cfg;
        cfg.method = eng::RareEventMethod::kSplitting;
        if (!adaptive) cfg.levels = {-2.0, -1.0, -0.4};
        for (const unsigned threads : {1u, 4u}) {
          SCOPED_TRACE(::testing::Message()
                       << "dim " << dim << " n " << n << " adaptive "
                       << adaptive << " threads " << threads);
          eng::RunnerConfig rc;
          rc.threads = threads;
          eng::MonteCarloRunner runner(rc);
          const std::uint64_t seed = 1000 + dim * 31 + n;
          obs::Registry want_reg, got_reg;
          eng::RareEventEstimate want, got;
          {
            obs::ScopedRegistry guard(&want_reg);
            want = oracle::subset_simulation(runner, dim, n, seed, cfg, f);
          }
          {
            obs::ScopedRegistry guard(&got_reg);
            got = eng::subset_simulation(runner, dim, n, seed, cfg,
                                         oracle::lane_score(f, dim));
          }
          EXPECT_TRUE(same_bits(got.probability, want.probability));
          EXPECT_TRUE(same_bits(got.rel_error, want.rel_error));
          EXPECT_TRUE(same_bits(got.simulated_trials, want.simulated_trials));
          EXPECT_TRUE(same_bits(got.ess, want.ess));
          EXPECT_TRUE(same_bits(got.confidence.hi, want.confidence.hi));
          ASSERT_EQ(got.level_probabilities.size(),
                    want.level_probabilities.size());
          for (std::size_t k = 0; k < want.level_probabilities.size(); ++k) {
            EXPECT_TRUE(same_bits(got.level_probabilities[k],
                                  want.level_probabilities[k]))
                << "level " << k;
          }
          const auto ws = want_reg.snapshot();
          const auto gs = got_reg.snapshot();
          EXPECT_EQ(counter(gs, "rare.mcmc.proposals"),
                    counter(ws, "rare.mcmc.proposals"));
          EXPECT_EQ(counter(gs, "rare.mcmc.accepts"),
                    counter(ws, "rare.mcmc.accepts"));
          EXPECT_EQ(counter(gs, "rare.split.levels"),
                    counter(ws, "rare.split.levels"));
        }
      }
    }
  }
}

// --- read-error model hook --------------------------------------------------

TEST(NoiseMargin, AtZeroDeviatesEqualsTheNominalMargin) {
  const auto params = dev::MtjParams::reference_device(35e-9);
  rdo::ReadPathConfig path;
  path.bitline.rows = 16;
  const rdo::ReadErrorModel model(params, path);
  const std::vector<int> column(16, 0);
  const auto op = model.operating_point(15, column);
  const auto margin = [&](dev::MtjState stored, const double z[3]) {
    double out = 0.0;
    model.noise_margin(op, stored, 1, z, 1, &out);
    return out;
  };
  const double z0[3] = {0.0, 0.0, 0.0};
  EXPECT_DOUBLE_EQ(margin(dev::MtjState::kParallel, z0), op.margin);
  EXPECT_DOUBLE_EQ(margin(dev::MtjState::kAntiParallel, z0), op.margin);
  // Comparator offset moves the two stored states in opposite directions.
  const double zo[3] = {0.0, 1.0, 0.0};
  EXPECT_GT(margin(dev::MtjState::kParallel, zo), op.margin);
  EXPECT_LT(margin(dev::MtjState::kAntiParallel, zo), op.margin);
}

// --- workload wirings: overlap-regime agreement -----------------------------

mem::WerConfig overlap_wer_config() {
  mem::WerConfig cfg;
  cfg.array.device = dev::MtjParams::reference_device(35e-9);
  cfg.array.pitch = 1.5 * 35e-9;
  cfg.array.rows = cfg.array.cols = 5;
  cfg.pulse.voltage = 0.9;
  cfg.direction = dev::SwitchDirection::kApToP;
  cfg.trials = 2000;
  const dev::MtjDevice device(cfg.array.device);
  // ~1e-2 analytic WER: resolvable by brute force AND by both drivers.
  cfg.pulse.width = 1.8 * device.switching_time(dev::SwitchDirection::kApToP,
                                                0.9,
                                                device.intra_stray_field());
  return cfg;
}

/// |a - b| within z * sqrt(se_a^2 + se_b^2): the two estimates agree within
/// their combined reported uncertainty.
void expect_agree(double a, double se_a, double b, double se_b, double z) {
  EXPECT_LE(std::abs(a - b), z * std::hypot(se_a, se_b) + 1e-300)
      << a << " +- " << se_a << " vs " << b << " +- " << se_b;
}

TEST(RareEventOverlap, WerDriversAgreeWithBruteForce) {
  auto cfg = overlap_wer_config();
  eng::MonteCarloRunner runner;

  util::Rng rng_b(42);
  const auto brute = mem::measure_wer(cfg, rng_b, runner);
  ASSERT_GT(brute.errors, 10u);  // genuinely in the overlap regime

  cfg.rare.method = eng::RareEventMethod::kImportanceSampling;
  util::Rng rng_i(42);
  const auto is = mem::measure_wer(cfg, rng_i, runner);
  cfg.rare.method = eng::RareEventMethod::kSplitting;
  util::Rng rng_s(42);
  const auto split = mem::measure_wer(cfg, rng_s, runner);

  const double se_b = brute.wer * brute.rare.rel_error;
  expect_agree(is.wer, is.wer * is.rare.rel_error, brute.wer, se_b, 3.0);
  expect_agree(split.wer, split.wer * split.rare.rel_error, brute.wer, se_b,
               3.0);
  // Both accelerated runs actually report quality.
  EXPECT_LT(is.rare.rel_error, 0.5);
  EXPECT_LT(split.rare.rel_error, 0.5);
}

TEST(RareEventOverlap, RetentionDriversMatchTheClosedForm) {
  mem::RetentionEnsembleConfig cfg;
  cfg.array.device = dev::MtjParams::reference_device(35e-9);
  cfg.array.device.delta0 = 18.0;
  cfg.array.pitch = 1.5 * 35e-9;
  cfg.array.rows = cfg.array.cols = 4;
  cfg.array.temperature = 380.0;
  cfg.pattern = arr::PatternKind::kAllZero;
  cfg.hold = 1e-7;  // exact fault probability ~3e-2
  cfg.trials = 2000;
  eng::MonteCarloRunner runner;

  util::Rng rng_b(9);
  const auto brute = mem::measure_retention_faults(cfg, rng_b, runner);
  const double exact = brute.exact_fault_probability;
  ASSERT_GT(exact, 1e-3);
  ASSERT_LT(exact, 0.2);

  cfg.rare.method = eng::RareEventMethod::kImportanceSampling;
  util::Rng rng_i(9);
  const auto is = mem::measure_retention_faults(cfg, rng_i, runner);
  cfg.rare.method = eng::RareEventMethod::kSplitting;
  util::Rng rng_s(9);
  const auto split = mem::measure_retention_faults(cfg, rng_s, runner);

  EXPECT_EQ(is.exact_fault_probability, exact);
  expect_agree(brute.fault_probability, exact * brute.rare.rel_error, exact,
               0.0, 3.0);
  expect_agree(is.fault_probability,
               is.fault_probability * is.rare.rel_error, exact, 0.0, 3.0);
  expect_agree(split.fault_probability,
               split.fault_probability * split.rare.rel_error, exact, 0.0,
               3.5);
}

TEST(RareEventOverlap, RerDriversAgreeWithBruteForce) {
  rdo::RerConfig cfg;
  cfg.path.v_read = 0.05;  // starved margin: measurable error rate
  cfg.trials = 4000;
  cfg.hz_stray = dev::MtjDevice(cfg.device).intra_stray_field();
  eng::MonteCarloRunner runner;

  util::Rng rng_b(17);
  const auto brute = rdo::measure_rer(cfg, rng_b, runner);
  ASSERT_GT(brute.read_errors, 20u);

  cfg.rare.method = eng::RareEventMethod::kImportanceSampling;
  util::Rng rng_i(17);
  const auto is = rdo::measure_rer(cfg, rng_i, runner);
  cfg.rare.method = eng::RareEventMethod::kSplitting;
  util::Rng rng_s(17);
  const auto split = rdo::measure_rer(cfg, rng_s, runner);

  const double se_b = brute.rer * brute.rare.rel_error;
  expect_agree(is.rer, is.rer * is.rare.rel_error, brute.rer, se_b, 3.0);
  expect_agree(split.rer, split.rer * split.rare.rel_error, brute.rer, se_b,
               3.5);
}

// --- workload wirings: determinism contract ---------------------------------

template <class Config, class Result, class Measure>
void expect_thread_invariant(Config cfg, Measure measure,
                             double Result::*probability) {
  Result ref;
  for (unsigned threads : {1u, 4u}) {
    eng::RunnerConfig rc;
    rc.threads = threads;
    eng::MonteCarloRunner runner(rc);
    util::Rng rng(1234);
    const Result r = measure(cfg, rng, runner);
    if (threads == 1) {
      ref = r;
    } else {
      EXPECT_EQ(r.*probability, ref.*probability);  // bitwise
      EXPECT_EQ(r.rare.rel_error, ref.rare.rel_error);
      EXPECT_EQ(r.rare.simulated_trials, ref.rare.simulated_trials);
      EXPECT_EQ(r.rare.level_probabilities, ref.rare.level_probabilities);
    }
  }
}

TEST(RareEventDeterminism, WerDriversAreThreadCountInvariant) {
  auto cfg = overlap_wer_config();
  cfg.trials = 600;
  for (auto method : {eng::RareEventMethod::kImportanceSampling,
                      eng::RareEventMethod::kSplitting}) {
    cfg.rare.method = method;
    expect_thread_invariant<mem::WerConfig, mem::WerResult>(
        cfg,
        [](const mem::WerConfig& c, util::Rng& rng,
           eng::MonteCarloRunner& runner) {
          return mem::measure_wer(c, rng, runner);
        },
        &mem::WerResult::wer);
  }
}

TEST(RareEventDeterminism, RetentionDriversAreThreadCountInvariant) {
  mem::RetentionEnsembleConfig cfg;
  cfg.array.device = dev::MtjParams::reference_device(35e-9);
  cfg.array.device.delta0 = 32.0;
  cfg.array.pitch = 1.5 * 35e-9;
  cfg.array.rows = cfg.array.cols = 4;
  cfg.array.temperature = 380.0;
  cfg.hold = 1e-4;
  cfg.trials = 600;
  for (auto method : {eng::RareEventMethod::kImportanceSampling,
                      eng::RareEventMethod::kSplitting}) {
    cfg.rare.method = method;
    expect_thread_invariant<mem::RetentionEnsembleConfig,
                            mem::RetentionEnsembleResult>(
        cfg,
        [](const mem::RetentionEnsembleConfig& c, util::Rng& rng,
           eng::MonteCarloRunner& runner) {
          return mem::measure_retention_faults(c, rng, runner);
        },
        &mem::RetentionEnsembleResult::fault_probability);
  }
}

TEST(RareEventDeterminism, RerDriversAreThreadCountInvariant) {
  rdo::RerConfig cfg;
  cfg.path.v_read = 0.08;
  cfg.trials = 600;
  cfg.hz_stray = dev::MtjDevice(cfg.device).intra_stray_field();
  for (auto method : {eng::RareEventMethod::kImportanceSampling,
                      eng::RareEventMethod::kSplitting}) {
    cfg.rare.method = method;
    expect_thread_invariant<rdo::RerConfig, rdo::RerResult>(
        cfg,
        [](const rdo::RerConfig& c, util::Rng& rng,
           eng::MonteCarloRunner& runner) {
          return rdo::measure_rer(c, rng, runner);
        },
        &rdo::RerResult::rer);
  }
}

rdo::ReadDisturbConfig fast_disturb_config() {
  rdo::ReadDisturbConfig cfg;
  cfg.device.delta0 = 14.0;  // thermally active: cheap trajectories
  cfg.path.v_read = 0.14;
  cfg.path.bitline.rows = 16;
  cfg.duration = 3e-9;
  cfg.dt = 2e-12;
  cfg.trials = 48;
  cfg.hz_stray = dev::MtjDevice(cfg.device).intra_stray_field();
  return cfg;
}

TEST(RareEventDeterminism, ReadDisturbDriversAreThreadCountInvariant) {
  auto cfg = fast_disturb_config();
  for (auto method : {eng::RareEventMethod::kImportanceSampling,
                      eng::RareEventMethod::kSplitting}) {
    cfg.rare.method = method;
    expect_thread_invariant<rdo::ReadDisturbConfig, rdo::ReadDisturbResult>(
        cfg,
        [](const rdo::ReadDisturbConfig& c, util::Rng& rng,
           eng::MonteCarloRunner& runner) {
          return rdo::measure_read_disturb(c, rng, runner);
        },
        &rdo::ReadDisturbResult::rate);
  }
}

TEST(RareEventDeterminism, ReadDisturbImportanceMatchesScalarOracle) {
  // The tilted SoA kernel against the tilted scalar loop, end to end
  // through the importance-sampling driver: identical weights, identical
  // estimate.
  auto cfg = fast_disturb_config();
  cfg.rare.method = eng::RareEventMethod::kImportanceSampling;
  eng::MonteCarloRunner runner;

  util::Rng rng_s(55);
  const auto oracle = oracle::disturb_importance(cfg, rng_s, runner);
  util::Rng rng_b(55);
  const auto batched = rdo::measure_read_disturb(cfg, rng_b, runner);
  EXPECT_EQ(batched.rate, oracle.probability);
  EXPECT_EQ(batched.rare.rel_error, oracle.rel_error);
  // The tilt makes disturbs common enough to estimate from 48-trial rounds.
  EXPECT_GT(oracle.ess, 0.0);
}

TEST(RareEventDeterminism, ReadDisturbSplittingMatchesScalarOracle) {
  auto cfg = fast_disturb_config();
  cfg.rare.method = eng::RareEventMethod::kSplitting;
  eng::MonteCarloRunner runner;

  util::Rng rng_s(56);
  const auto oracle = oracle::disturb_splitting(cfg, rng_s, runner);
  util::Rng rng_b(56);
  const auto batched = rdo::measure_read_disturb(cfg, rng_b, runner);
  EXPECT_EQ(batched.rate, oracle.probability);
  EXPECT_EQ(batched.rare.level_probabilities, oracle.level_probabilities);
  EXPECT_FALSE(oracle.level_probabilities.empty());
}

TEST(RareEventDeterminism, AdaptiveDriversRefuseShardMode) {
  // Round and level counts follow merged results that one shard never
  // sees, so every adaptive driver must stop with a typed error in shard
  // mode, before it runs (and dumps) a single trial.
  eng::MonteCarloRunner runner;
  eng::ShardIo io;
  io.mode = eng::ShardMode::kShard;
  io.shard = eng::ShardSpec{0, 4};
  io.dir = "unused";
  runner.set_shard_io(io);
  const eng::RareEventConfig cfg;
  EXPECT_THROW(eng::importance_rounds(runner, 16, 1, cfg,
                                      [](std::uint64_t) {
                                        return util::WeightedStats{};
                                      }),
               util::ConfigError);
  EXPECT_THROW(eng::subset_simulation(
                   runner, 1, 16, 1, cfg,
                   [](std::size_t n, const double* z, std::size_t,
                      double* out) { std::copy_n(z, n, out); }),
               util::ConfigError);
  auto disturb = fast_disturb_config();
  disturb.rare.method = eng::RareEventMethod::kSplitting;
  util::Rng rng(57);
  EXPECT_THROW(rdo::measure_read_disturb(disturb, rng, runner),
               util::ConfigError);
  EXPECT_EQ(runner.shard_calls(), 0u);
}

}  // namespace
}  // namespace mram
