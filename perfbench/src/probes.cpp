// Layer probes: each public entry point timed from outside the program on
// the inputs the workloads actually send. Every probe warms its call while
// calibrating the batch size, then reports the median of several batches.

#include <cstddef>
#include <vector>

#include "array/intercell.h"
#include "bench.h"
#include "device/mtj_device.h"
#include "device/switching.h"
#include "dynamics/llg_batch.h"
#include "dynamics/switching_sim.h"
#include "engine/monte_carlo.h"
#include "obs/metrics.h"
#include "readout/read_error.h"
#include "readout/rer.h"
#include "sim/variation.h"
#include "sim/yield.h"
#include "util/rng.h"

namespace perfbench {

namespace {

using namespace mram;

/// Median seconds per call of `fn`. The call count of one batch doubles
/// until a batch takes at least batch_s (this also warms caches, branch
/// predictors and lazy state), then `batches` batches are timed.
template <class Fn>
double median_call_seconds(Fn&& fn, double batch_s = 0.01, int batches = 9) {
  std::size_t calls = 1;
  for (;;) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < calls; ++i) fn();
    if (seconds_since(t0) >= batch_s || calls >= (std::size_t{1} << 26)) {
      break;
    }
    calls *= 2;
  }
  std::vector<double> per_call;
  for (int b = 0; b < batches; ++b) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < calls; ++i) fn();
    per_call.push_back(seconds_since(t0) / static_cast<double>(calls));
  }
  return median(per_call);
}

/// Values in one thermal-noise block of the batched LLG kernel: 3 field
/// components x 64 steps per lane (llg_batch.cpp, kNoiseBlockSteps).
constexpr std::size_t kNoiseBlock = 3 * 64;

/// The read_disturb_vs_pulse drive: weakened device (delta0 = 14), AP state
/// read at the far row of an all-P column at V_read = 0.12 V.
struct DisturbDrive {
  dyn::LlgParams llg;
  double delta = 0.0;
  double mz0 = 0.0;
};

dev::MtjParams read_stress_device() {
  auto params = dev::MtjParams::reference_device(35e-9);
  params.delta0 = 14.0;
  return params;
}

DisturbDrive disturb_drive() {
  rdo::ReadPathConfig path;
  path.v_read = 0.12;
  const rdo::ReadErrorModel model(read_stress_device(), path);
  util::Rng column_rng(0);  // unused by the all-P pattern
  const auto column = rdo::make_column_data(arr::PatternKind::kAllZero,
                                            path.bitline.rows, column_rng);
  const auto op = model.operating_point(
      rdo::resolve_row(rdo::kFarRow, path.bitline), column);
  const double hz = model.device().intra_stray_field();
  DisturbDrive d;
  d.llg = dyn::llg_from_device_current(model.device(), op.i_ap, hz, 300.0);
  d.delta = model.device().delta(dev::MtjState::kAntiParallel, hz, 300.0);
  d.mz0 = dev::state_direction(dev::MtjState::kAntiParallel);
  return d;
}

void probe_rng(std::vector<ProbeResult>& out, std::uint64_t seed) {
  std::vector<double> a(kNoiseBlock), b(kNoiseBlock);
  util::Rng ra = util::Rng::stream(seed, 0);
  util::Rng rb = util::Rng::stream(seed, 1);
  const double block = static_cast<double>(kNoiseBlock);
  out.emplace_back("util.rng.normal_fill_ns",
                   1e9 / block * median_call_seconds([&] {
                     ra.normal_fill(a.data(), kNoiseBlock);
                     keep(a[0]);
                   }));
  out.emplace_back("util.rng.normal_fill_pair_ns",
                   1e9 / (2 * block) * median_call_seconds([&] {
                     util::Rng::normal_fill_pair(ra, rb, a.data(), b.data(),
                                                 kNoiseBlock);
                     keep(a[0]);
                     keep(b[0]);
                   }));
  // The read-disturb importance sampler's tilt: a unit mean shift against
  // the stored +z direction on the z component of every step.
  const double tilt[3] = {0.0, 0.0, -1.0};
  out.emplace_back("util.rng.normal_fill_tilted_ns",
                   1e9 / block * median_call_seconds([&] {
                     ra.normal_fill_tilted(a.data(), kNoiseBlock, tilt, 3);
                     keep(a[0]);
                   }));
}

/// One lane block of the read-disturb drive at a 20 ns strobe (the default
/// read pulse, mid-grid of the scenario's 5-80 ns sweep). Every call replays
/// the same per-lane streams, so every call does the same lane-steps; they
/// are counted once through a metrics registry, outside the timed calls.
double block_ns_per_lane_step(const DisturbDrive& drive, std::size_t lanes,
                              std::uint64_t seed) {
  dyn::BatchMacrospinSim sim(drive.llg);
  std::vector<util::Rng> rngs(lanes);
  std::vector<num::Vec3> m0(lanes);
  std::vector<dyn::SwitchResult> res(lanes);
  const auto block = [&] {
    for (std::size_t l = 0; l < lanes; ++l) {
      rngs[l] = util::Rng::stream(seed, l);
      m0[l] = dyn::thermal_initial_tilt(rngs[l], drive.delta, drive.mz0);
    }
    sim.run_until_switch(lanes, m0.data(), rngs.data(), 20e-9, 1e-12,
                         res.data());
    keep(res[0].time);
  };
  std::uint64_t lane_steps = 0;
  {
    obs::Registry registry;
    const obs::ScopedRegistry installed(&registry);
    block();
    lane_steps = registry.snapshot().counters["llg.lane_steps"];
  }
  const double secs = median_call_seconds(block, 0.02, 7);
  return lane_steps > 0 ? 1e9 * secs / static_cast<double>(lane_steps) : 0.0;
}

void probe_dynamics(std::vector<ProbeResult>& out, std::uint64_t seed) {
  const DisturbDrive drive = disturb_drive();
  out.emplace_back("dynamics.block_ns_per_lane_step.b4",
                   block_ns_per_lane_step(drive, 4, seed));
  out.emplace_back(
      "dynamics.block_ns_per_lane_step.bpref",
      block_ns_per_lane_step(
          drive, dyn::BatchMacrospinSim::preferred_lanes(), seed));
}

/// Empty-body runner call at the rare_readout chunk geometry: 1500 trials
/// (the per-point count of rer_vs_read_voltage and rer_vs_tmr) split into
/// 63 chunks of 24 trials. Only the engine's own work remains: chunk
/// scheduling, per-trial stream derivation and the ordered merge.
void probe_engine(std::vector<ProbeResult>& out, std::uint64_t seed) {
  struct Count {
    std::size_t n = 0;
    void merge(const Count& o) { n += o.n; }
  };
  for (const unsigned threads : {1u, 4u}) {
    eng::RunnerConfig cfg;
    cfg.threads = threads;
    eng::MonteCarloRunner runner(cfg);
    const double secs = median_call_seconds([&] {
      const Count c = runner.run<Count>(
          1500, seed, [](util::Rng&, std::size_t, Count& acc) { ++acc.n; });
      keep(c.n);
    });
    out.emplace_back("engine.call_overhead_us.t" + std::to_string(threads),
                     1e6 * secs);
  }
}

/// The yield_vs_pitch inputs: 35 nm reference device on the pitch grid
/// 1.5x-4x eCD.
void probe_device_array(std::vector<ProbeResult>& out, std::uint64_t seed) {
  const auto nominal = dev::MtjParams::reference_device(35e-9);
  const std::vector<double> mults{1.5, 1.75, 2.0, 2.5, 3.0, 4.0};
  out.emplace_back("device.construct_us", 1e6 * median_call_seconds([&] {
                     const dev::MtjDevice device(nominal);
                     keep(device);
                   }));
  out.emplace_back(
      "array.intercell_solver_us",
      1e6 / static_cast<double>(mults.size()) * median_call_seconds([&] {
        for (const double m : mults) {
          const arr::InterCellSolver solver(nominal.stack, m * 35e-9);
          keep(solver.fixed_field());
        }
      }));
  // A single-thread runner so the figure is work per sample, not pool
  // scaling; 50 samples per pitch point.
  constexpr std::size_t kSamples = 50;
  const sim::VariationModel variation;
  const sim::YieldSpec spec;
  eng::RunnerConfig cfg;
  cfg.threads = 1;
  eng::MonteCarloRunner runner(cfg);
  const double secs = median_call_seconds(
      [&] {
        for (const double m : mults) {
          util::Rng rng(seed);
          const auto r = sim::estimate_yield(nominal, variation, m * 35e-9,
                                             spec, kSamples, rng, runner);
          keep(r.pass_both);
        }
      },
      0.02, 5);
  out.emplace_back("sim.yield_us_per_sample",
                   1e6 * secs / static_cast<double>(kSamples * mults.size()));
}

/// The rer_vs_read_voltage inputs: weakened device, stored AP at the far
/// row of an all-P 64-row column, V_read = 0.06 V (mid-window).
void probe_readout(std::vector<ProbeResult>& out, std::uint64_t seed) {
  rdo::ReadPathConfig path;
  path.v_read = 0.06;
  const rdo::ReadErrorModel model(read_stress_device(), path);
  util::Rng column_rng(0);
  const auto column = rdo::make_column_data(arr::PatternKind::kAllZero,
                                            path.bitline.rows, column_rng);
  const std::size_t row = rdo::resolve_row(rdo::kFarRow, path.bitline);
  out.emplace_back("readout.ladder_solve_us", 1e6 * median_call_seconds([&] {
                     keep(model.bitline().port(row, path.v_read, column));
                   }));
  const auto op = model.operating_point(row, column);
  const double hz = model.device().intra_stray_field();
  util::Rng rng = util::Rng::stream(seed, 0);
  out.emplace_back("readout.sample_read_ns", 1e9 * median_call_seconds([&] {
                     keep(model.sample_read(op, dev::MtjState::kAntiParallel,
                                            hz, 300.0, rng));
                   }));
}

}  // namespace

std::vector<ProbeResult> run_probes(obs::TraceRecorder& trace,
                                    std::uint64_t seed) {
  std::vector<ProbeResult> out;
  const std::pair<const char*, void (*)(std::vector<ProbeResult>&,
                                        std::uint64_t)>
      probes[] = {{"util", probe_rng},
                  {"dynamics", probe_dynamics},
                  {"engine", probe_engine},
                  {"device+array+sim", probe_device_array},
                  {"readout", probe_readout}};
  for (const auto& [layer, probe] : probes) {
    ScopedSpan span(trace, "probe", std::string("probe ") + layer);
    probe(out, seed);
  }
  return out;
}

}  // namespace perfbench
