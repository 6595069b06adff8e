#pragma once

#include <cstddef>
#include <vector>

#include "device/mtj_device.h"
#include "mram/cell_1t1r.h"
#include "readout/bitline.h"
#include "readout/sense_amp.h"
#include "util/rng.h"

// Read-error composition: the full read path of one access.
//
//   column driver --(BitlinePath IR drop + sneak network)--> selected cell
//   (access transistor + MTJ, with per-read TMR variation) --> SenseAmp
//   decision, while the read current exerts spin torque on the free layer
//   (read disturb).
//
// ReadErrorModel owns the electrical composition and exposes three error
// mechanisms per read:
//   * decision errors  -- the sense amp latches the wrong side (offset +
//     reference mismatch + TMR-variation-shrunken margin);
//   * blocked reads    -- the differential lands in the metastable band
//     (transient fault: no valid data, stored bit intact);
//   * read disturb     -- the read current thermally activates an unintended
//     switch of the stored bit during the read pulse (analytic model here;
//     rer.h's measure_read_disturb integrates the same drive on the
//     stochastic-LLG path, scalar and batched).
//
// Determinism contract (read side): sample_read consumes a fixed draw
// sequence from the caller's Rng -- one normal (TMR variation), two normals
// inside SenseAmp::sample, then exactly one uniform for the disturb
// bernoulli when its probability is in (0, 1) -- so scalar and batched
// Monte Carlo paths driven by the same util::Rng::stream agree bit for bit,
// mirroring the write-side contract of measure_wer. The AP cell's
// bias-dependent fixed point has one body, instantiated on one value for
// cell_read and on SIMD lanes for noise_margin: every lane runs the same
// IEEE operations in the same order as cell_read (the build pins
// -ffp-contract=off) and stops on its own convergence test, so a lane's
// margin is the same bits at every vector width and lane position.

namespace mram::rdo {

struct ReadPathConfig {
  mem::AccessTransistor transistor;  ///< r_read is the in-cell series term
  BitlineParams bitline;
  SenseAmpParams sense;
  double v_read = 0.25;        ///< column driver voltage during a read [V]
  double t_read = 20e-9;       ///< read pulse (strobe) duration [s]
  double tmr_sigma_rel = 0.03; ///< per-read-cell relative TMR0 variation

  void validate() const;
};

/// Outcome of one sampled read access.
struct ReadOutcome {
  int observed = 0;       ///< bit the sense amp reported (valid iff !blocked)
  bool blocked = false;   ///< metastable strobe: no valid decision
  bool decision_error = false;  ///< latched the complement of the stored bit
  bool disturbed = false; ///< the read pulse flipped the stored bit
  double i_cell = 0.0;    ///< this read's (TMR-varied) cell current [A]
  double margin = 0.0;    ///< signed correct-side margin vs the reference [A]
};

class ReadErrorModel {
 public:
  ReadErrorModel(const dev::MtjParams& device, const ReadPathConfig& path);

  const dev::MtjDevice& device() const { return device_; }
  const ReadPathConfig& path() const { return path_; }
  const SenseAmp& sense_amp() const { return sense_; }
  const BitlinePath& bitline() const { return bitline_; }

  /// Nominal electrical operating point of a read of `row` with
  /// `column_data` (bit 1 = AP) on the shared lines. The ladder solve
  /// lives here; everything downstream is O(1) per read, so Monte Carlo
  /// loops hoist the operating point where the device and column allow.
  struct OperatingPoint {
    std::size_t row = 0;
    ReadPort port;
    double v_p = 0.0, v_ap = 0.0;  ///< MTJ bias by stored state [V]
    double i_p = 0.0, i_ap = 0.0;  ///< nominal cell current by state [A]
    double i_ref = 0.0;            ///< midpoint reference current [A]
    double margin = 0.0;           ///< nominal sense margin (i_p - i_ap)/2 [A]
  };
  OperatingPoint operating_point(std::size_t row,
                                 const std::vector<int>& column_data) const;

  /// Bias and current of the selected cell closing the port, with the AP
  /// branch's TMR0 scaled by `tmr_mult` (1 = nominal). Solved by fixed-point
  /// iteration on the bias-dependent AP resistance, like Cell1T1R.
  struct CellRead {
    double v_mtj = 0.0;  ///< bias across the MTJ [V]
    double i_cell = 0.0; ///< current through the cell branch [A]
  };
  CellRead cell_read(const ReadPort& port, dev::MtjState state,
                     double tmr_mult = 1.0) const;

  /// Analytic read-disturb probability for `stored` carrying `i_cell` amps
  /// for `duration` seconds: thermally activated reversal with the barrier
  /// scaled by 1 -/+ I/Ic (the read polarity drives AP->P, destabilizing AP
  /// and stabilizing P) -- MtjDevice::read_disturb_probability evaluated at
  /// the *actual* post-IR-drop cell current instead of an ideal bias.
  double disturb_probability(dev::MtjState stored, double i_cell,
                             double duration, double hz_stray,
                             double t = 300.0) const;

  /// Analytic per-read error probabilities at the nominal operating point
  /// (no TMR variation): {decision error, blocked, disturb}.
  struct ErrorBudget {
    double decision = 0.0;
    double blocked = 0.0;
    double disturb = 0.0;
  };
  ErrorBudget error_budget(const OperatingPoint& op, dev::MtjState stored,
                           double hz_stray, double t = 300.0) const;

  /// One full sampled read of a cell storing `stored` at the hoisted
  /// operating point. Fixed draw sequence (see file header).
  ReadOutcome sample_read(const OperatingPoint& op, dev::MtjState stored,
                          double hz_stray, double t, util::Rng& rng) const;

  /// Deterministic mirror of sample_read's sense decision with the three
  /// standard-normal deviates made explicit, for n reads at once in
  /// structure-of-arrays layout: read l's deviates are z[l] (the TMR
  /// variation, clamped like sample_read), z[ld + l] (the comparator
  /// offset) and z[2 * ld + l] (the reference mismatch), and out[l]
  /// receives the signed correct-side differential its latch sees. A read
  /// fails (wrong decision or metastable strobe) iff its margin is below
  /// the sense amp's metastable band. At z = {0,0,0} the margin equals
  /// op.margin. For stored AP the cell's fixed point runs on SIMD lanes,
  /// each lane masked off once its own iterate converges, at the widest
  /// width this CPU has (detail::ladder_isa); every lane gets the bits the
  /// one-read arithmetic of sample_read would give. Reads only out[0, n)
  /// and z's first n lanes. The rare-event drivers tilt / split on this.
  void noise_margin(const OperatingPoint& op, dev::MtjState stored,
                    std::size_t n, const double* z, std::size_t ld,
                    double* out) const;

 private:
  dev::MtjDevice device_;
  ReadPathConfig path_;
  SenseAmp sense_;
  BitlinePath bitline_;
  double rp_ = 0.0;  ///< parallel resistance RA/A [Ohm]
};

}  // namespace mram::rdo
