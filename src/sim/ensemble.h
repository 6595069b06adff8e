#pragma once

#include <vector>

#include "engine/monte_carlo.h"
#include "sim/variation.h"
#include "util/stats.h"

// Device-ensemble measurement: the synthetic counterpart of the paper's
// wafer-level characterization (many devices per size, each measured once).
// Used by scenario fig2b_intra_vs_ecd to produce the "measured
// (+/- sigma)" series.

namespace mram::sim {

/// Summary of a measured quantity over an ensemble of varied devices.
struct EnsembleSummary {
  double ecd_nominal = 0.0;  ///< [m]
  util::Summary hs_intra;    ///< Hz_s_intra at the FL center [A/m]
  util::Summary ecd_measured;///< eCD recovered from R_P [m]
};

struct EnsembleConfig {
  VariationModel variation;
  std::size_t devices_per_size = 25;
  std::uint64_t seed = 42;
  eng::RunnerConfig runner;  ///< thread pool + chunking for the device loop
};

/// For each nominal eCD, samples `devices_per_size` varied devices and
/// records their model-truth intra-cell stray field and electrically
/// recovered eCD. (The full measurement emulation -- R-H loop + extraction
/// -- lives in scenario fig2b_intra_vs_ecd; this helper provides the fast
/// model-truth path used by tests.)
std::vector<EnsembleSummary> characterize_sizes(
    const dev::MtjParams& nominal, const std::vector<double>& ecds,
    const EnsembleConfig& config);

}  // namespace mram::sim
