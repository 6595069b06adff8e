#include "engine/rare_event.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>

namespace mram::eng {

RareEventEstimate brute_force_estimate(std::size_t successes,
                                       std::size_t trials) {
  RareEventEstimate est;
  est.method = RareEventMethod::kBruteForce;
  const double n = static_cast<double>(trials);
  est.probability = trials > 0 ? static_cast<double>(successes) / n : 0.0;
  est.ess = static_cast<double>(successes);
  est.simulated_trials = n;
  est.effective_trials = n;
  if (trials > 0) {
    est.confidence = util::wilson_interval(successes, trials);
    if (successes > 0 && successes < trials) {
      est.rel_error =
          std::sqrt((1.0 - est.probability) / (n * est.probability));
    } else if (successes == trials && trials > 0) {
      est.rel_error = 0.0;
    }
  }
  return est;
}

RareEventEstimate importance_estimate(const util::WeightedStats& ws) {
  RareEventEstimate est;
  est.method = RareEventMethod::kImportanceSampling;
  est.simulated_trials = static_cast<double>(ws.count());
  est.ess = ws.effective_samples();
  if (ws.empty()) return est;
  est.probability = ws.mean();
  est.rel_error = ws.rel_error();
  const double half = 1.96 * ws.std_error();
  est.confidence = {std::max(0.0, est.probability - half),
                    est.probability + half};
  est.effective_trials = brute_equivalent_trials(
      est.probability, est.rel_error, est.simulated_trials);
  return est;
}

void reject_shard_mode(const MonteCarloRunner& runner, const char* driver) {
  if (runner.shard_io().mode == ShardMode::kShard) {
    throw util::ConfigError(
        std::string(driver) +
        " cannot run in shard mode: it adapts its runner calls to merged "
        "results that a shard never sees (run it unsharded or with "
        "--checkpoint)");
  }
}

namespace {

/// One generation of subset-simulation states: latent vectors (trial-major)
/// and their scores, concatenated in trial order by the chunk-ordered merge.
struct ScorePartial {
  std::vector<double> zs;
  std::vector<double> scores;
  void merge(const ScorePartial& other) {
    zs.insert(zs.end(), other.zs.begin(), other.zs.end());
    scores.insert(scores.end(), other.scores.begin(), other.scores.end());
  }
  template <class Ar>
  void serialize(Ar& ar) {
    ar(zs, scores);
  }
};

/// Appends lane l of the SoA block z (row stride kRareLanes) and its score
/// to a generation partial, trial-major like the merged generation.
void append_lane(ScorePartial& acc, const double* z, std::size_t dim,
                 std::size_t l, double score) {
  for (std::size_t d = 0; d < dim; ++d) {
    acc.zs.push_back(z[d * kRareLanes + l]);
  }
  acc.scores.push_back(score);
}

}  // namespace

RareEventEstimate subset_simulation(MonteCarloRunner& runner,
                                    std::size_t dim, std::size_t n_per_level,
                                    std::uint64_t seed,
                                    const RareEventConfig& cfg,
                                    const LaneScore& score) {
  cfg.validate();
  MRAM_EXPECTS(dim > 0, "subset simulation needs a positive dimension");
  MRAM_EXPECTS(n_per_level >= 4, "subset simulation needs >= 4 per level");
  reject_shard_mode(runner, "subset simulation");
  constexpr std::size_t W = kRareLanes;
  const std::size_t N = n_per_level;
  const double dN = static_cast<double>(N);

  RareEventEstimate est;
  est.method = RareEventMethod::kSplitting;

  // Level 0: fresh standard-normal latent vectors through the runner. The
  // context is a zeroed SoA block, so lanes a short block leaves unwritten
  // hold finite values.
  ScorePartial gen = runner.run_batched<ScorePartial>(
      N, derive_seed(seed, 0), W,
      [&] { return std::vector<double>(dim * W); },
      [&](std::vector<double>& z, util::Rng* rngs, std::size_t,
          std::size_t n, ScorePartial* const* acc) {
        obs::tag_kernel(obs::KernelTag::kRare);
        util::Rng::normal_fill_lanes(rngs, n, z.data(), W, dim);
        double s[W];
        score(n, z.data(), W, s);
        for (std::size_t l = 0; l < n; ++l) {
          append_lane(*acc[l], z.data(), dim, l, s[l]);
        }
      });

  double log_p = 0.0;
  double delta2 = 0.0;
  double evals = dN;
  bool dead = false;  // a level produced zero survivors / zero hits

  // Resamples the next generation from `parents` (indices into gen),
  // refreshing each trial with cfg.mcmc_steps pCN moves accepted inside
  // {score >= level}. Trial i of level tag k draws only from
  // Rng::stream(derive_seed(seed, k), i): its parent, then all its
  // proposals' noise (see the header).
  struct Chains {
    std::vector<double> cur, prop, noise;  // SoA blocks, row stride W
  };
  const auto resample = [&](const std::vector<std::size_t>& parents,
                            double level, std::uint64_t tag) {
    const double rho = cfg.mcmc_rho;
    const double beta = std::sqrt(1.0 - rho * rho);
    const std::size_t m = parents.size();
    const std::size_t steps = cfg.mcmc_steps;
    gen = runner.run_batched<ScorePartial>(
        N, derive_seed(seed, tag), W,
        [&] {
          return Chains{std::vector<double>(dim * W),
                        std::vector<double>(dim * W),
                        std::vector<double>(steps * dim * W)};
        },
        [&, m](Chains& c, util::Rng* rngs, std::size_t, std::size_t n,
               ScorePartial* const* acc) {
          obs::tag_kernel(obs::KernelTag::kRare);
          double* const cur = c.cur.data();
          double* const prop = c.prop.data();
          double cur_score[W], s[W];
          for (std::size_t l = 0; l < n; ++l) {
            const std::size_t j = parents[rngs[l].below(m)];
            for (std::size_t d = 0; d < dim; ++d) {
              cur[d * W + l] = gen.zs[j * dim + d];
            }
            cur_score[l] = gen.scores[j];
          }
          util::Rng::normal_fill_lanes(rngs, n, c.noise.data(), W,
                                       steps * dim);
          std::size_t accepts = 0;
          for (std::size_t step = 0; step < steps; ++step) {
            const double* const e = c.noise.data() + step * dim * W;
            for (std::size_t k = 0; k < dim * W; ++k) {
              prop[k] = rho * cur[k] + beta * e[k];
            }
            score(n, prop, W, s);
            for (std::size_t l = 0; l < n; ++l) {
              if (s[l] >= level) {
                ++accepts;
                for (std::size_t d = 0; d < dim; ++d) {
                  cur[d * W + l] = prop[d * W + l];
                }
                cur_score[l] = s[l];
              }
            }
          }
          obs::counter_add(obs::Counter::kRareMcmcProposals, n * steps);
          obs::counter_add(obs::Counter::kRareMcmcAccepts, accepts);
          for (std::size_t l = 0; l < n; ++l) {
            append_lane(*acc[l], cur, dim, l, cur_score[l]);
          }
        });
    evals += dN * static_cast<double>(steps);
  };

  const auto count_hits = [&] {
    return static_cast<std::size_t>(
        std::count_if(gen.scores.begin(), gen.scores.end(),
                      [](double s) { return s > 0.0; }));
  };
  // Per-level contribution to the squared relative error. Level 0 trials
  // are independent (g = 1); MCMC-level trials are correlated through
  // their parents, inflated by a conventional g = 3 (Au & Beck report
  // gamma in the 1..3 range for these acceptance rates) -- a documented
  // approximation, conservative for well-mixed chains.
  const auto record_level = [&](double phat, bool first) {
    log_p += std::log(phat);
    const double g = first ? 1.0 : 3.0;
    delta2 += g * (1.0 - phat) / (dN * phat);
    est.level_probabilities.push_back(phat);
    obs::counter_add(obs::Counter::kRareSplitLevels);
    obs::series_append("rare.split.level_p",
                       static_cast<double>(est.level_probabilities.size()),
                       phat);
  };

  if (cfg.levels.empty()) {
    // Adaptive quantile schedule: each level pins the top level_p0
    // fraction (deterministic (score desc, trial index asc) tie-break).
    const std::size_t m = std::max<std::size_t>(
        1, static_cast<std::size_t>(cfg.level_p0 * dN));
    double prev_level = -std::numeric_limits<double>::infinity();
    for (std::size_t k = 0;; ++k) {
      const std::size_t hits = count_hits();
      if (hits >= m) {
        record_level(static_cast<double>(hits) / dN, k == 0);
        est.ess = static_cast<double>(hits);
        break;
      }
      // The top m trials in (score desc, index asc) order. The comparator
      // is a strict total order, so nth_element puts the m-th trial at
      // m - 1 and the m - 1 ahead of it in some order; sorting those gives
      // exactly the first m of a full sort, without sorting all N.
      std::vector<std::size_t> order(N);
      std::iota(order.begin(), order.end(), std::size_t{0});
      const auto higher = [&](std::size_t a, std::size_t b) {
        if (gen.scores[a] != gen.scores[b]) {
          return gen.scores[a] > gen.scores[b];
        }
        return a < b;
      };
      const auto mth = order.begin() + static_cast<std::ptrdiff_t>(m - 1);
      std::nth_element(order.begin(), mth, order.end(), higher);
      std::sort(order.begin(), mth, higher);
      const double level = gen.scores[order[m - 1]];
      if (k >= cfg.max_levels || level <= prev_level) {
        // No further progress possible; settle for the direct estimate at
        // the current level (zero hits => probability zero).
        if (hits > 0) {
          record_level(static_cast<double>(hits) / dN, k == 0);
          est.ess = static_cast<double>(hits);
        } else {
          dead = true;
        }
        break;
      }
      prev_level = level;
      record_level(static_cast<double>(m) / dN, k == 0);
      order.resize(m);
      resample(order, level, k + 1);
    }
  } else {
    // Explicit ascending score-threshold schedule; the event itself
    // (score > 0) is the final level.
    bool first = true;
    std::size_t tag = 1;
    for (double level : cfg.levels) {
      std::vector<std::size_t> survivors;
      for (std::size_t i = 0; i < N; ++i) {
        if (gen.scores[i] >= level) survivors.push_back(i);
      }
      if (survivors.empty()) {
        dead = true;
        break;
      }
      record_level(static_cast<double>(survivors.size()) / dN, first);
      first = false;
      resample(survivors, level, tag++);
    }
    if (!dead) {
      const std::size_t hits = count_hits();
      if (hits == 0) {
        dead = true;
      } else {
        record_level(static_cast<double>(hits) / dN, first);
        est.ess = static_cast<double>(hits);
      }
    }
  }

  est.simulated_trials = evals;
  if (dead) {
    // Nothing reached the failure set: report zero with a rule-of-three
    // style upper bound conditional on the levels that did resolve.
    est.probability = 0.0;
    est.confidence = {0.0, std::exp(log_p) * 3.0 / dN};
    return est;
  }
  est.probability = std::exp(log_p);
  est.rel_error = std::sqrt(delta2);
  est.confidence = {
      std::max(0.0, est.probability * (1.0 - 1.96 * est.rel_error)),
      est.probability * (1.0 + 1.96 * est.rel_error)};
  est.effective_trials =
      brute_equivalent_trials(est.probability, est.rel_error, evals);
  return est;
}

}  // namespace mram::eng
