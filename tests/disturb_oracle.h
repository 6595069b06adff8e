#pragma once

// Scalar references for the stochastic-LLG read-disturb drivers, built from
// public API only: the setup of rdo::measure_read_disturb (same draws from
// the caller's rng), then one dyn::MacrospinSim trajectory per trial where
// the library runs lane blocks of dyn::BatchMacrospinSim. The batched
// kernel executes the same stochastic Heun step per lane, so the parity
// tests compare library and oracle bit for bit.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "dynamics/llg.h"
#include "dynamics/switching_sim.h"
#include "engine/monte_carlo.h"
#include "engine/rare_event.h"
#include "readout/read_error.h"
#include "readout/rer.h"
#include "util/rng.h"
#include "util/stats.h"

namespace mram::oracle {

/// measure_read_disturb's trial-invariant setup.
struct DisturbSetup {
  dyn::LlgParams llg;
  double delta = 0.0;
  double mz0 = 0.0;
  double duration = 0.0;
  std::uint64_t seed = 0;
};

inline DisturbSetup disturb_setup(const rdo::ReadDisturbConfig& cfg,
                                  util::Rng& rng) {
  const std::size_t row = rdo::resolve_row(cfg.row, cfg.path.bitline);
  const rdo::ReadErrorModel model(cfg.device, cfg.path);
  const auto column =
      rdo::make_column_data(cfg.column_pattern, cfg.path.bitline.rows, rng);
  const auto op = model.operating_point(row, column);
  const double i_read =
      cfg.stored == dev::MtjState::kParallel ? op.i_p : op.i_ap;
  DisturbSetup s;
  s.llg = dyn::llg_from_device_current(model.device(), i_read, cfg.hz_stray,
                                       cfg.temperature);
  s.delta = model.device().delta(cfg.stored, cfg.hz_stray, cfg.temperature);
  s.mz0 = dev::state_direction(cfg.stored);
  s.duration = cfg.duration > 0.0 ? cfg.duration : cfg.path.t_read;
  s.seed = rng();
  return s;
}

struct DisturbCount {
  std::size_t disturbed = 0;
  util::RunningStats times;

  void merge(const DisturbCount& o) {
    disturbed += o.disturbed;
    times.merge(o.times);
  }
};

/// Brute force: thermal tilt, then one scalar trajectory per trial.
inline DisturbCount disturb_brute(const rdo::ReadDisturbConfig& cfg,
                                  util::Rng& rng,
                                  eng::MonteCarloRunner& runner) {
  const DisturbSetup s = disturb_setup(cfg, rng);
  return runner.run<DisturbCount>(
      cfg.trials, s.seed, [&] { return dyn::MacrospinSim(s.llg); },
      [&](dyn::MacrospinSim& sim, util::Rng& trial_rng, std::size_t,
          DisturbCount& acc) {
        const num::Vec3 m0 =
            dyn::thermal_initial_tilt(trial_rng, s.delta, s.mz0);
        const auto r = sim.run_until_switch(m0, s.duration, cfg.dt, trial_rng);
        if (r.switched) {
          ++acc.disturbed;
          acc.times.add(r.time);
        }
      });
}

/// Importance sampling: the library round loop over scalar tilted
/// trajectories.
inline eng::RareEventEstimate disturb_importance(
    const rdo::ReadDisturbConfig& cfg, util::Rng& rng,
    eng::MonteCarloRunner& runner) {
  const DisturbSetup s = disturb_setup(cfg, rng);
  const double theta = (cfg.rare.tilt != 0.0) ? cfg.rare.tilt : 1.0;
  const num::Vec3 tilt{0.0, 0.0, -theta * s.mz0};
  return eng::importance_rounds(
      runner, cfg.trials, s.seed, cfg.rare, [&](std::uint64_t round_seed) {
        return runner.run<util::WeightedStats>(
            cfg.trials, round_seed,
            [&](util::Rng& trial_rng, std::size_t, util::WeightedStats& ws) {
              const dyn::MacrospinSim sim(s.llg);
              const num::Vec3 m0 =
                  dyn::thermal_initial_tilt(trial_rng, s.delta, s.mz0);
              const auto r = sim.run_until_switch(m0, s.duration, cfg.dt,
                                                  trial_rng, 0.0, tilt);
              if (r.switched) {
                ws.add(1.0, std::exp(r.log_weight));
              } else {
                ws.add(0.0, 0.0);
              }
            });
      });
}

/// Multilevel splitting over descending |mz| levels (the auto schedule when
/// cfg.rare.levels is empty), one scalar trajectory per trial and stage.
/// Returns the estimate's probability and per-stage conditionals.
inline eng::RareEventEstimate disturb_splitting(
    const rdo::ReadDisturbConfig& cfg, util::Rng& rng,
    eng::MonteCarloRunner& runner) {
  const DisturbSetup s = disturb_setup(cfg, rng);
  const std::size_t N = cfg.trials;
  const double dN = static_cast<double>(N);

  std::vector<double> xs = cfg.rare.levels;
  if (xs.empty()) {
    const double lp = std::log(1.0 / cfg.rare.level_p0);
    std::size_t n = static_cast<std::size_t>(std::ceil(s.delta / lp));
    n = std::min(std::max<std::size_t>(n, 1), cfg.rare.max_levels);
    const double spacing =
        std::max(lp / s.delta, 1.0 / static_cast<double>(n));
    for (std::size_t j = 1; j <= n; ++j) {
      const double e = 1.0 - static_cast<double>(j) * spacing;
      xs.push_back(e > 0.0 ? std::sqrt(e) : 0.0);
    }
    xs.back() = 0.0;
  } else if (xs.back() != 0.0) {
    xs.push_back(0.0);
  }

  struct Stage {
    std::vector<dyn::SwitchResult> results;
    void merge(const Stage& o) {
      results.insert(results.end(), o.results.begin(), o.results.end());
    }
  };

  eng::RareEventEstimate est;
  std::vector<num::Vec3> pool_m;
  std::vector<double> pool_t;
  double log_p = 0.0;
  for (std::size_t k = 0; k < xs.size(); ++k) {
    const double thr = s.mz0 * xs[k];
    const std::size_t pool = pool_m.size();
    const Stage gen = runner.run<Stage>(
        N, eng::derive_seed(s.seed, k),
        [&] { return dyn::MacrospinSim(s.llg); },
        [&](dyn::MacrospinSim& sim, util::Rng& trial_rng, std::size_t,
            Stage& acc) {
          double t0 = 0.0;
          num::Vec3 start;
          if (k == 0) {
            start = dyn::thermal_initial_tilt(trial_rng, s.delta, s.mz0);
          } else {
            const std::size_t j = trial_rng.below(pool);
            start = pool_m[j];
            t0 = pool_t[j];
          }
          dyn::SwitchResult r{};
          if (s.duration - t0 > 0.0) {
            r = sim.run_until_switch(start, s.duration - t0, cfg.dt,
                                     trial_rng, thr);
            r.time += t0;
          } else {
            r.time = t0;
          }
          acc.results.push_back(r);
        });
    std::vector<num::Vec3> next_m;
    std::vector<double> next_t;
    for (const auto& r : gen.results) {
      if (r.switched) {
        next_m.push_back(r.m_end);
        next_t.push_back(r.time);
      }
    }
    if (next_m.empty()) return est;  // probability 0
    const double phat = static_cast<double>(next_m.size()) / dN;
    log_p += std::log(phat);
    est.level_probabilities.push_back(phat);
    pool_m = std::move(next_m);
    pool_t = std::move(next_t);
  }
  est.probability = std::exp(log_p);
  return est;
}

}  // namespace mram::oracle
