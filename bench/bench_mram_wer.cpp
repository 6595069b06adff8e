// Engine scaling and determinism check for the WER workload (the WER table
// itself is the "wer_pulse_width" scenario, see src/scenario/): measures
// the parallel speedup of the MonteCarloRunner on this machine and checks
// that the statistics are bit-identical across thread counts for a fixed
// seed. Exits nonzero on a determinism failure.

#include <iostream>

#include "mram/wer.h"
#include "obs/stopwatch.h"
#include "util/table.h"
#include "util/units.h"

namespace {

double seconds_for(const mram::mem::WerConfig& cfg, unsigned threads,
                   mram::mem::WerResult* out) {
  // Pool spawn and shared setup stay outside the timed window: the column
  // measures trial throughput, not thread creation.
  mram::eng::RunnerConfig runner_cfg = cfg.runner;
  runner_cfg.threads = threads;
  mram::eng::MonteCarloRunner runner(runner_cfg);
  mram::util::Rng rng(9001);  // same seed per thread count: results must match
  const mram::obs::Stopwatch watch;
  *out = mram::mem::measure_wer(cfg, rng, runner);
  return watch.seconds();
}

}  // namespace

int main() {
  using namespace mram;

  mem::WerConfig scale_cfg;
  scale_cfg.array.device = dev::MtjParams::reference_device(35e-9);
  scale_cfg.array.pitch = 1.5 * 35e-9;
  scale_cfg.array.rows = scale_cfg.array.cols = 5;
  scale_cfg.pulse.voltage = 0.9;
  scale_cfg.direction = dev::SwitchDirection::kApToP;
  const dev::MtjDevice device(scale_cfg.array.device);
  scale_cfg.pulse.width = device.switching_time(
      dev::SwitchDirection::kApToP, scale_cfg.pulse.voltage,
      device.intra_stray_field());
  scale_cfg.trials = 20000;

  util::Table scaling({"threads", "time (s)", "speedup", "WER"});
  mem::WerResult serial;
  const double t1 = seconds_for(scale_cfg, 1, &serial);
  scaling.add_row({"1", util::format_double(t1, 3), "1.00",
                   util::format_double(serial.wer, 6)});
  bool identical = true;
  for (unsigned threads : {2u, 4u, 8u}) {
    mem::WerResult r;
    const double tn = seconds_for(scale_cfg, threads, &r);
    identical = identical && r.wer == serial.wer &&
                r.errors == serial.errors &&
                r.mean_success_probability == serial.mean_success_probability;
    scaling.add_row({std::to_string(threads), util::format_double(tn, 3),
                     util::format_double(t1 / tn, 2),
                     util::format_double(r.wer, 6)});
  }
  scaling.print(std::cout, "MonteCarloRunner scaling, " +
                               std::to_string(scale_cfg.trials) +
                               " seeded trials");
  std::cout << "bit-identical statistics across thread counts: "
            << (identical ? "yes" : "NO -- DETERMINISM BUG") << "\n";
  return identical ? 0 : 1;
}
