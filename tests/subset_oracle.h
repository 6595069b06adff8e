#pragma once

// Scalar reference for eng::subset_simulation, built from public API only:
// the same levels, draws and acceptance, one chain and one score call at a
// time through MonteCarloRunner::run, and a full std::sort for the adaptive
// level schedule. The library advances lane blocks of chains through
// run_batched with a lane score, so the tests compare library and oracle
// bit for bit (estimate and counters).

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <numeric>
#include <vector>

#include "engine/monte_carlo.h"
#include "engine/rare_event.h"
#include "obs/metrics.h"
#include "util/error.h"
#include "util/rng.h"

namespace mram::oracle {

/// One score per latent vector z[0, dim).
using ScalarScore = std::function<double(const double*)>;

/// A scalar score run lane by lane as an eng::LaneScore: lane l's vector is
/// gathered from its SoA column and scored alone.
inline eng::LaneScore lane_score(ScalarScore f, std::size_t dim) {
  return [f = std::move(f), dim](std::size_t n, const double* z,
                                 std::size_t ld, double* out) {
    std::vector<double> v(dim);
    for (std::size_t l = 0; l < n; ++l) {
      for (std::size_t d = 0; d < dim; ++d) v[d] = z[d * ld + l];
      out[l] = f(v.data());
    }
  };
}

/// One generation of states: latent vectors (trial-major) and their scores.
struct SubsetGeneration {
  std::vector<double> zs;
  std::vector<double> scores;
  void merge(const SubsetGeneration& other) {
    zs.insert(zs.end(), other.zs.begin(), other.zs.end());
    scores.insert(scores.end(), other.scores.begin(), other.scores.end());
  }
};

/// eng::subset_simulation, one chain at a time.
inline eng::RareEventEstimate subset_simulation(
    eng::MonteCarloRunner& runner, std::size_t dim, std::size_t n_per_level,
    std::uint64_t seed, const eng::RareEventConfig& cfg,
    const ScalarScore& score) {
  using namespace eng;
  cfg.validate();
  MRAM_EXPECTS(dim > 0, "subset simulation needs a positive dimension");
  MRAM_EXPECTS(n_per_level >= 4, "subset simulation needs >= 4 per level");
  reject_shard_mode(runner, "subset simulation");
  const std::size_t N = n_per_level;
  const double dN = static_cast<double>(N);

  RareEventEstimate est;
  est.method = RareEventMethod::kSplitting;

  // Level 0: fresh standard-normal latent vectors through the runner.
  SubsetGeneration gen = runner.run<SubsetGeneration>(
      N, derive_seed(seed, 0),
      [&] { return std::vector<double>(dim); },
      [&](std::vector<double>& z, util::Rng& rng, std::size_t,
          SubsetGeneration& acc) {
        obs::tag_kernel(obs::KernelTag::kRare);
        rng.normal_fill(z.data(), dim);
        acc.zs.insert(acc.zs.end(), z.begin(), z.end());
        acc.scores.push_back(score(z.data()));
      });

  double log_p = 0.0;
  double delta2 = 0.0;
  double evals = dN;
  bool dead = false;  // a level produced zero survivors / zero hits

  // Resamples the next generation from `parents` (indices into gen),
  // refreshing each trial with cfg.mcmc_steps pCN moves accepted inside
  // {score >= level}. Trial i of level tag k draws only from
  // Rng::stream(derive_seed(seed, k), i).
  const auto resample = [&](const std::vector<std::size_t>& parents,
                            double level, std::uint64_t tag) {
    const double rho = cfg.mcmc_rho;
    const double beta = std::sqrt(1.0 - rho * rho);
    const std::size_t m = parents.size();
    gen = runner.run<SubsetGeneration>(
        N, derive_seed(seed, tag),
        [&] { return std::vector<double>(2 * dim); },
        [&, m](std::vector<double>& buf, util::Rng& rng, std::size_t,
               SubsetGeneration& acc) {
          obs::tag_kernel(obs::KernelTag::kRare);
          double* cur = buf.data();
          double* prop = buf.data() + dim;
          const std::size_t j = parents[rng.below(m)];
          std::copy_n(gen.zs.data() + j * dim, dim, cur);
          double cur_score = gen.scores[j];
          for (std::size_t step = 0; step < cfg.mcmc_steps; ++step) {
            rng.normal_fill(prop, dim);
            for (std::size_t d = 0; d < dim; ++d) {
              prop[d] = rho * cur[d] + beta * prop[d];
            }
            const double s = score(prop);
            obs::counter_add(obs::Counter::kRareMcmcProposals);
            if (s >= level) {
              obs::counter_add(obs::Counter::kRareMcmcAccepts);
              std::copy_n(prop, dim, cur);
              cur_score = s;
            }
          }
          acc.zs.insert(acc.zs.end(), cur, cur + dim);
          acc.scores.push_back(cur_score);
        });
    evals += dN * static_cast<double>(cfg.mcmc_steps);
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
      std::vector<std::size_t> order(N);
      std::iota(order.begin(), order.end(), std::size_t{0});
      std::sort(order.begin(), order.end(),
                [&](std::size_t a, std::size_t b) {
                  if (gen.scores[a] != gen.scores[b]) {
                    return gen.scores[a] > gen.scores[b];
                  }
                  return a < b;
                });
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

}  // namespace mram::oracle
