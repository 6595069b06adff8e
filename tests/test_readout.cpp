// Tests for src/readout: the bitline IR-drop ladder (Thevenin reduction
// against closed-form limits), sense-amplifier statistics (sampled outcomes
// vs the analytic probabilities), the composed read-error model, the Monte
// Carlo drivers' bit identity against scalar oracles and across threads, the
// analytic read-disturb model validated against the stochastic-LLG
// ensemble, and the march read-path integration.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "disturb_oracle.h"
#include "engine/rare_event.h"
#include "mram/march.h"
#include "mram/mram_array.h"
#include "obs/metrics.h"
#include "readout/bitline.h"
#include "readout/ladder_isa.h"
#include "readout/march_read.h"
#include "readout/read_error.h"
#include "readout/rer.h"
#include "readout/sense_amp.h"
#include "util/error.h"
#include "util/stats.h"

namespace mram::rdo {
namespace {

using dev::MtjState;

dev::ElectricalModel nominal_cell() {
  const auto params = dev::MtjParams::reference_device(35e-9);
  return dev::ElectricalModel(params.electrical, params.stack.area());
}

// --- bitline ladder ---------------------------------------------------------

TEST(Bitline, ValidationRejectsBadConfigs) {
  BitlineParams params;
  params.rows = 0;
  EXPECT_THROW(BitlinePath(params, nominal_cell()), util::ConfigError);
  params = BitlineParams{};
  params.r_driver = 0.0;
  EXPECT_THROW(BitlinePath(params, nominal_cell()), util::ConfigError);
  params = BitlineParams{};
  params.r_leak = -1.0;
  EXPECT_THROW(BitlinePath(params, nominal_cell()), util::ConfigError);
}

TEST(Bitline, NoLeakLimitRecoversSeriesResistance) {
  // With the sneak paths effectively open, the port must reduce to the
  // ideal wire: v_th = v_read exactly (no current flows anywhere when the
  // port is open) and r_th = the series resistance of the row.
  BitlineParams params;
  params.rows = 16;
  params.r_leak = 1e15;
  const BitlinePath path(params, nominal_cell());
  const std::vector<int> column(16, 0);
  for (const std::size_t row : {std::size_t{0}, std::size_t{7},
                                std::size_t{15}}) {
    const ReadPort port = path.port(row, 0.2, column);
    EXPECT_NEAR(port.v_thevenin, 0.2, 0.2 * 1e-9);
    EXPECT_NEAR(port.r_thevenin, path.series_resistance(row),
                path.series_resistance(row) * 1e-6);
  }
}

TEST(Bitline, FarRowsSeeWeakerStifferPort) {
  const BitlinePath path(BitlineParams{}, nominal_cell());
  const std::vector<int> column(BitlineParams{}.rows, 0);
  double last_v = 1e9, last_r = 0.0;
  for (const std::size_t row : {std::size_t{0}, std::size_t{21},
                                std::size_t{42}, std::size_t{63}}) {
    const ReadPort port = path.port(row, 0.2, column);
    EXPECT_LT(port.v_thevenin, last_v);
    EXPECT_GT(port.r_thevenin, last_r);
    last_v = port.v_thevenin;
    last_r = port.r_thevenin;
  }
}

TEST(Bitline, ColumnDataModulatesSneakLoad) {
  // An all-P column leaks more (lower MTJ resistance in every sneak
  // branch), so the port sags slightly against an all-AP column.
  const BitlinePath path(BitlineParams{}, nominal_cell());
  const std::size_t rows = BitlineParams{}.rows;
  const ReadPort p = path.port(rows - 1, 0.2, std::vector<int>(rows, 0));
  const ReadPort ap = path.port(rows - 1, 0.2, std::vector<int>(rows, 1));
  EXPECT_LT(p.v_thevenin, ap.v_thevenin);
  EXPECT_GT(ap.v_thevenin / p.v_thevenin - 1.0, 0.0);
}

TEST(Bitline, PortArithmetic) {
  const ReadPort port{1.0, 1000.0};
  EXPECT_DOUBLE_EQ(port.current_into(1000.0), 0.5e-3);
  EXPECT_DOUBLE_EQ(port.voltage_across(1000.0), 0.5);
}

/// In-place Gaussian elimination without pivoting over the dense matrix,
/// every entry visited: the solve BitlinePath::port ran before it walked
/// only the ladder's fill pattern. `rhs` holds k right-hand sides
/// column-major and receives the solutions.
void solve_spd(std::vector<double>& a, std::vector<double>& rhs,
               std::size_t n, std::size_t k) {
  for (std::size_t col = 0; col < n; ++col) {
    const double pivot = a[col * n + col];
    ASSERT_GT(std::abs(pivot), 0.0);
    for (std::size_t r = col + 1; r < n; ++r) {
      const double f = a[r * n + col] / pivot;
      if (f == 0.0) continue;
      for (std::size_t c = col; c < n; ++c) a[r * n + c] -= f * a[col * n + c];
      for (std::size_t s = 0; s < k; ++s) {
        rhs[s * n + r] -= f * rhs[s * n + col];
      }
    }
  }
  for (std::size_t s = 0; s < k; ++s) {
    for (std::size_t ri = n; ri-- > 0;) {
      double x = rhs[s * n + ri];
      for (std::size_t c = ri + 1; c < n; ++c) {
        x -= a[ri * n + c] * rhs[s * n + c];
      }
      rhs[s * n + ri] = x / a[ri * n + ri];
    }
  }
}

/// Dense oracle of BitlinePath::port: stamps the 2N-node network (bitline
/// nodes 0..N-1, source-line nodes N..2N-1) from the public parameters in
/// the stamp order the library uses and solves it with solve_spd.
ReadPort dense_port(const BitlineParams& params,
                    const dev::ElectricalModel& cell, std::size_t row,
                    double v_read, const std::vector<int>& column_data) {
  const double r_leak_p =
      params.r_leak + cell.resistance(MtjState::kParallel, 0.0);
  const double r_leak_ap =
      params.r_leak + cell.resistance(MtjState::kAntiParallel, 0.0);
  const std::size_t n_rows = params.rows;
  const std::size_t n = 2 * n_rows;
  std::vector<double> g(n * n, 0.0);
  std::vector<double> rhs(2 * n, 0.0);
  auto stamp = [&](std::size_t i, std::size_t j, double conductance) {
    g[i * n + i] += conductance;
    g[j * n + j] += conductance;
    g[i * n + j] -= conductance;
    g[j * n + i] -= conductance;
  };
  const double g_driver = 1.0 / params.r_driver;
  g[0] += g_driver;
  rhs[0] = v_read * g_driver;
  g[n_rows * n + n_rows] += 1.0 / params.r_sink;
  const double g_bl =
      params.r_bl_segment > 0.0 ? 1.0 / params.r_bl_segment : 1e12;
  const double g_sl =
      params.r_sl_segment > 0.0 ? 1.0 / params.r_sl_segment : 1e12;
  for (std::size_t i = 0; i + 1 < n_rows; ++i) {
    stamp(i, i + 1, g_bl);
    stamp(n_rows + i, n_rows + i + 1, g_sl);
  }
  for (std::size_t i = 0; i < n_rows; ++i) {
    if (i == row) continue;
    stamp(i, n_rows + i, 1.0 / (column_data[i] ? r_leak_ap : r_leak_p));
  }
  rhs[n + row] = 1.0;
  rhs[n + n_rows + row] = -1.0;
  solve_spd(g, rhs, n, 2);
  return ReadPort{rhs[row] - rhs[n_rows + row],
                  rhs[n + row] - rhs[n + n_rows + row]};
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

TEST(Bitline, StructuredSolveMatchesDenseOracleBitwise) {
  // port() skips only structural zeros and entries below the diagonal, so
  // v_th and r_th must equal the dense elimination's to the bit, on every
  // SIMD version of the solve this CPU runs: on every selected row of short
  // columns (the first, last and interior rows of the fill pattern), on the
  // four column-data shapes, at the ideal-wire tie (1e12) and across seven
  // decades of leak resistance.
  util::Rng rng(16);
  const auto cell = nominal_cell();
  struct Variant {
    double r_seg;
    double r_leak;
  };
  const Variant variants[] = {
      {4.0, 250e3}, {0.0, 250e3}, {4.0, 1e2}, {4.0, 1e9}, {0.0, 1e2}};
  for (const std::size_t rows :
       {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{5},
        std::size_t{16}, std::size_t{64}, std::size_t{128}}) {
    std::vector<std::size_t> selected;
    if (rows <= 16) {
      for (std::size_t r = 0; r < rows; ++r) selected.push_back(r);
    } else {
      selected = {0, rows - 1};
      for (int i = 0; i < 8; ++i) {
        selected.push_back(
            static_cast<std::size_t>(rng.uniform() * static_cast<double>(rows)));
      }
    }
    std::vector<std::vector<int>> columns(4, std::vector<int>(rows));
    for (std::size_t r = 0; r < rows; ++r) {
      columns[0][r] = 0;                            // all P
      columns[1][r] = 1;                            // all AP
      columns[2][r] = static_cast<int>(r & 1);      // checkerboard
      columns[3][r] = rng.uniform() < 0.5 ? 1 : 0;        // random
    }
    for (const Variant& v : variants) {
      BitlineParams params;
      params.rows = rows;
      params.r_bl_segment = v.r_seg;
      params.r_sl_segment = v.r_seg;
      params.r_leak = v.r_leak;
      const BitlinePath path(params, cell);
      for (const auto& column : columns) {
        for (const std::size_t row : selected) {
          const double v_read = rng.uniform(0.01, 0.5);
          const ReadPort want = dense_port(params, cell, row, v_read, column);
          for (int isa = 0; isa <= static_cast<int>(detail::ladder_isa());
               ++isa) {
            const ReadPort got =
                detail::ladder_port(path, static_cast<detail::LadderIsa>(isa),
                                    row, v_read, column);
            ASSERT_TRUE(same_bits(got.v_thevenin, want.v_thevenin))
                << "isa " << isa << " rows " << rows << " row " << row
                << " r_seg " << v.r_seg << " r_leak " << v.r_leak << ": "
                << got.v_thevenin << " vs " << want.v_thevenin;
            ASSERT_TRUE(same_bits(got.r_thevenin, want.r_thevenin))
                << "isa " << isa << " rows " << rows << " row " << row
                << " r_seg " << v.r_seg << " r_leak " << v.r_leak << ": "
                << got.r_thevenin << " vs " << want.r_thevenin;
          }
          const ReadPort got = path.port(row, v_read, column);
          ASSERT_TRUE(same_bits(got.v_thevenin, want.v_thevenin));
          ASSERT_TRUE(same_bits(got.r_thevenin, want.r_thevenin));
        }
      }
    }
  }
}

// --- sense amplifier --------------------------------------------------------

TEST(SenseAmp, ValidationRejectsNegativeSigmas) {
  SenseAmpParams params;
  params.offset_sigma = -1.0;
  EXPECT_THROW(SenseAmp{params}, util::ConfigError);
  params = SenseAmpParams{};
  params.metastable_band = -1.0;
  EXPECT_THROW(SenseAmp{params}, util::ConfigError);
}

TEST(SenseAmp, NoiselessAmpIsDeterministic) {
  SenseAmpParams params;
  params.offset_sigma = 0.0;
  params.reference_sigma = 0.0;
  params.metastable_band = 0.1e-6;
  const SenseAmp amp(params);
  util::Rng rng(1);
  EXPECT_EQ(amp.sample(10e-6, 5e-6, rng), SenseOutcome::kReadP);
  EXPECT_EQ(amp.sample(1e-6, 5e-6, rng), SenseOutcome::kReadAp);
  EXPECT_EQ(amp.sample(5.01e-6, 5e-6, rng), SenseOutcome::kBlocked);
  EXPECT_DOUBLE_EQ(amp.decision_error_probability(1e-6), 0.0);
  EXPECT_DOUBLE_EQ(amp.decision_error_probability(-1e-6), 1.0);
  EXPECT_DOUBLE_EQ(amp.blocked_probability(0.0), 1.0);
  EXPECT_DOUBLE_EQ(amp.blocked_probability(1e-6), 0.0);
}

TEST(SenseAmp, SampledRatesMatchAnalyticProbabilities) {
  const SenseAmp amp(SenseAmpParams{});
  const double sigma = amp.total_sigma();
  EXPECT_NEAR(sigma, std::hypot(0.4e-6, 0.25e-6), 1e-12);
  // Margin of one sigma: appreciable error and blocked probabilities.
  const double i_ref = 10e-6;
  const double i_cell = i_ref + sigma;
  util::Rng rng(2);
  const int n = 20000;
  int wrong = 0, blocked = 0;
  for (int k = 0; k < n; ++k) {
    const SenseOutcome outcome = amp.sample(i_cell, i_ref, rng);
    wrong += outcome == SenseOutcome::kReadAp;
    blocked += outcome == SenseOutcome::kBlocked;
  }
  const double p_err = amp.decision_error_probability(sigma);
  const double p_blk = amp.blocked_probability(sigma);
  // Within four binomial sigmas.
  EXPECT_NEAR(wrong / static_cast<double>(n), p_err,
              4.0 * std::sqrt(p_err * (1.0 - p_err) / n));
  EXPECT_NEAR(blocked / static_cast<double>(n), p_blk,
              4.0 * std::sqrt(p_blk * (1.0 - p_blk) / n));
  // The analytic pieces are monotone in the margin.
  EXPECT_GT(amp.decision_error_probability(0.0),
            amp.decision_error_probability(sigma));
  EXPECT_GT(amp.blocked_probability(0.0), amp.blocked_probability(sigma));
}

// --- read-error model -------------------------------------------------------

ReadPathConfig small_path(double v_read = 0.2, std::size_t rows = 16) {
  ReadPathConfig path;
  path.v_read = v_read;
  path.bitline.rows = rows;
  return path;
}

TEST(ReadErrorModel, MarginShrinksAlongTheColumn) {
  const auto params = dev::MtjParams::reference_device(35e-9);
  const ReadErrorModel model(params, small_path());
  const std::vector<int> column(16, 0);
  const auto near = model.operating_point(0, column);
  const auto far = model.operating_point(15, column);
  EXPECT_GT(near.margin, far.margin);
  EXPECT_GT(far.margin, 0.0);
  // The midpoint reference sits between the state currents.
  EXPECT_GT(near.i_p, near.i_ref);
  EXPECT_GT(near.i_ref, near.i_ap);
  // And the error budget worsens with the row.
  const auto hz = model.device().intra_stray_field();
  EXPECT_GE(model.error_budget(far, MtjState::kAntiParallel, hz).decision,
            model.error_budget(near, MtjState::kAntiParallel, hz).decision);
}

TEST(ReadErrorModel, CellReadSolvesTheDivider) {
  const auto params = dev::MtjParams::reference_device(35e-9);
  const ReadPathConfig path = small_path();
  const ReadErrorModel model(params, path);
  const auto op = model.operating_point(7, std::vector<int>(16, 0));
  // Self-consistency of the AP fixed point: i * (r_th + r_read) + v = v_th.
  const auto read = model.cell_read(op.port, MtjState::kAntiParallel);
  EXPECT_NEAR(read.i_cell * (op.port.r_thevenin + path.transistor.r_read) +
                  read.v_mtj,
              op.port.v_thevenin, op.port.v_thevenin * 1e-9);
  // A higher TMR multiplier raises the AP resistance, lowering the current.
  const auto high = model.cell_read(op.port, MtjState::kAntiParallel, 1.5);
  EXPECT_LT(high.i_cell, read.i_cell);
  // The P branch is TMR-independent.
  EXPECT_DOUBLE_EQ(model.cell_read(op.port, MtjState::kParallel, 1.5).i_cell,
                   model.cell_read(op.port, MtjState::kParallel, 1.0).i_cell);
}

/// The AP fixed point written out on its own, one read at a time: cell_read
/// and the lane margin share one body, so a change to that body shows only
/// against an independent copy. Adds the iterations run to `sweeps`.
ReadErrorModel::CellRead reference_ap_read(const ReadErrorModel& model,
                                           const ReadPort& port,
                                           double tmr_mult,
                                           std::size_t& sweeps) {
  const auto& ep = model.device().params().electrical;
  const double rp = model.device().electrical().rp();
  const double r_series = port.r_thevenin + model.path().transistor.r_read;
  const auto r_ap = [&](double v) {
    const double x = v / ep.vh;
    return rp * (1.0 + tmr_mult * ep.tmr0 / (1.0 + x * x));
  };
  double v = port.v_thevenin * r_ap(0.0) / (r_ap(0.0) + r_series);
  for (int iter = 0; iter < 100; ++iter) {
    const double r = r_ap(v);
    const double v_next = port.v_thevenin * r / (r + r_series);
    const bool converged = std::abs(v_next - v) < 1e-15 * port.v_thevenin;
    v = v_next;
    ++sweeps;
    if (converged) break;
  }
  ReadErrorModel::CellRead read;
  read.v_mtj = v;
  read.i_cell = v / r_ap(v);
  return read;
}

/// The noise margin of one read built from cell_read: the one-read
/// arithmetic the lane kernels must reproduce bit for bit.
double scalar_margin(const ReadErrorModel& model,
                     const ReadErrorModel::OperatingPoint& op,
                     MtjState stored, const double z[3]) {
  const ReadPathConfig& path = model.path();
  const double tmr_mult = std::max(1.0 + path.tmr_sigma_rel * z[0], 0.05);
  const auto read = model.cell_read(op.port, stored, tmr_mult);
  const double offset = path.sense.offset_sigma * z[1];
  const double ref_error = path.sense.reference_sigma * z[2];
  const double differential = (read.i_cell + offset) - (op.i_ref + ref_error);
  return stored == MtjState::kParallel ? differential : -differential;
}

TEST(ReadErrorModel, LaneNoiseMarginMatchesCellReadBitwise) {
  // Every version of the lane margin this CPU runs, against cell_read one
  // read at a time: stored P and AP, random deviates plus TMR deviates deep
  // enough to hit the 0.05 clamp, every lane count up to two rare-event
  // lane blocks and a row stride wider than the count. Lanes past n keep
  // their sentinels, and a group sweeps exactly until its slowest read
  // converges: inactive lanes never drive the loop.
  const auto params = dev::MtjParams::reference_device(35e-9);
  util::Rng rng(77);
  const std::vector<int> column = {0, 1, 1, 0, 1, 0, 0, 1,
                                   1, 1, 0, 0, 1, 0, 1, 0};
  for (const double v_read : {0.04, 0.18, 0.6}) {
    const ReadErrorModel model(params, small_path(v_read));
    const auto op = model.operating_point(15, column);
    constexpr std::size_t kMax = 2 * eng::kRareLanes + 3;
    constexpr std::size_t ld = kMax + 5;
    std::vector<double> z(3 * ld);
    rng.normal_fill(z.data(), z.size());
    for (std::size_t d = 0; d < 3; ++d) z[d * ld + 5] = 0.0;
    z[2] = -40.0;    // tmr_mult 1 - 1.2: clamped to 0.05
    z[9] = -1e6;     // clamped
    z[11] = 12.0;    // far upper tail
    // A run of clamped reads from lane 24 on: they converge in fewer
    // sweeps than unclamped ones, so a lane past n that ran would show.
    for (std::size_t l = 24; l < kMax; ++l) z[l] = -50.0;
    std::vector<std::size_t> solo(kMax);  // fixed-point sweeps per read
    for (std::size_t l = 0; l < kMax; ++l) {
      const double tmr_mult =
          std::max(1.0 + model.path().tmr_sigma_rel * z[l], 0.05);
      const auto got =
          model.cell_read(op.port, MtjState::kAntiParallel, tmr_mult);
      const auto want = reference_ap_read(model, op.port, tmr_mult, solo[l]);
      ASSERT_TRUE(same_bits(got.v_mtj, want.v_mtj)) << "lane " << l;
      ASSERT_TRUE(same_bits(got.i_cell, want.i_cell)) << "lane " << l;
    }
    for (const MtjState stored :
         {MtjState::kParallel, MtjState::kAntiParallel}) {
      for (int isa = 0; isa <= static_cast<int>(detail::ladder_isa());
           ++isa) {
        const auto version = static_cast<detail::LadderIsa>(isa);
        const std::size_t width = detail::isa_lanes(version);
        for (std::size_t n = 1; n <= kMax; ++n) {
          std::vector<double> out(ld, -7.0);
          const std::size_t sweeps = detail::margin_lanes(
              model, version, op, stored, n, z.data(), ld, out.data());
          std::size_t want_sweeps = 0;
          for (std::size_t g = 0; stored == MtjState::kAntiParallel && g < n;
               g += width) {
            want_sweeps += *std::max_element(
                solo.begin() + g, solo.begin() + std::min(g + width, n));
          }
          EXPECT_EQ(sweeps, want_sweeps) << "isa " << isa << " n " << n;
          for (std::size_t l = 0; l < ld; ++l) {
            if (l >= n) {
              ASSERT_EQ(out[l], -7.0) << "lane past n written";
              continue;
            }
            const double zl[3] = {z[l], z[ld + l], z[2 * ld + l]};
            const double want = scalar_margin(model, op, stored, zl);
            ASSERT_TRUE(same_bits(out[l], want))
                << "isa " << isa << " v_read " << v_read << " stored "
                << static_cast<int>(stored) << " n " << n << " lane " << l
                << ": " << out[l] << " vs " << want;
          }
        }
      }
      // The library entry point runs the widest version.
      std::vector<double> out(kMax);
      model.noise_margin(op, stored, kMax, z.data(), ld, out.data());
      for (std::size_t l = 0; l < kMax; ++l) {
        const double zl[3] = {z[l], z[ld + l], z[2 * ld + l]};
        ASSERT_TRUE(same_bits(out[l], scalar_margin(model, op, stored, zl)));
      }
      // Zero deviates give the nominal margin.
      ASSERT_TRUE(same_bits(out[5], op.margin) ||
                  std::abs(out[5] - op.margin) <= 1e-15 * op.margin);
    }
  }
}

TEST(ReadErrorModel, DisturbProbabilityPhysics) {
  auto params = dev::MtjParams::reference_device(35e-9);
  params.delta0 = 14.0;
  const ReadErrorModel model(params, small_path());
  const double hz = model.device().intra_stray_field();
  // Zero duration: no disturb. Monotone in current for the AP state.
  EXPECT_DOUBLE_EQ(
      model.disturb_probability(MtjState::kAntiParallel, 10e-6, 0.0, hz), 0.0);
  const double lo =
      model.disturb_probability(MtjState::kAntiParallel, 6e-6, 30e-9, hz);
  const double hi =
      model.disturb_probability(MtjState::kAntiParallel, 12e-6, 30e-9, hz);
  EXPECT_GT(hi, lo);
  EXPECT_GT(lo, 0.0);
  // The read polarity stabilizes P: orders of magnitude below AP.
  EXPECT_LT(model.disturb_probability(MtjState::kParallel, 12e-6, 30e-9, hz),
            1e-6 * hi);
}

TEST(ReadErrorModel, MatchesDeviceReadDisturbAtEqualCurrent) {
  // MtjDevice::read_disturb_probability evaluated at an ideal bias and the
  // model's current-driven form agree when fed the same current.
  auto params = dev::MtjParams::reference_device(35e-9);
  params.delta0 = 14.0;
  const ReadErrorModel model(params, small_path());
  const dev::MtjDevice device(params);
  const double hz = device.intra_stray_field();
  const double v = 0.15;
  const double i = device.electrical().current(MtjState::kAntiParallel, v);
  EXPECT_NEAR(device.read_disturb_probability(MtjState::kAntiParallel, v,
                                              30e-9, hz),
              model.disturb_probability(MtjState::kAntiParallel, i, 30e-9, hz),
              1e-12);
}

// --- measure_rer ------------------------------------------------------------

RerConfig rer_config() {
  RerConfig cfg;
  cfg.path = small_path(0.04);  // starved margin: measurable error rates
  cfg.trials = 600;
  cfg.hz_stray = dev::MtjDevice(cfg.device).intra_stray_field();
  return cfg;
}

/// Scalar reference for measure_rer's brute-force path, built from public
/// API only: the same setup draws, then the operating point re-derived per
/// trial instead of hoisted once per call.
struct RerOracle {
  std::size_t decision_errors = 0;
  std::size_t blocked = 0;
  std::size_t disturbs = 0;
  util::RunningStats margin;

  void merge(const RerOracle& o) {
    decision_errors += o.decision_errors;
    blocked += o.blocked;
    disturbs += o.disturbs;
    margin.merge(o.margin);
  }
};

RerOracle scalar_rer(const RerConfig& cfg, util::Rng& rng) {
  const std::size_t row = resolve_row(cfg.row, cfg.path.bitline);
  const ReadErrorModel model(cfg.device, cfg.path);
  const auto column =
      make_column_data(cfg.column_pattern, cfg.path.bitline.rows, rng);
  const std::uint64_t seed = rng();
  eng::MonteCarloRunner runner(eng::RunnerConfig{1, cfg.runner.chunk_size});
  return runner.run<RerOracle>(
      cfg.trials, seed,
      [&](util::Rng& trial_rng, std::size_t, RerOracle& acc) {
        const auto op = model.operating_point(row, column);
        const auto read = model.sample_read(op, cfg.stored, cfg.hz_stray,
                                            cfg.temperature, trial_rng);
        acc.decision_errors += read.decision_error;
        acc.blocked += read.blocked;
        acc.disturbs += read.disturbed;
        acc.margin.add(read.margin);
      });
}

TEST(MeasureRer, MatchesScalarOracleBitwise) {
  auto cfg = rer_config();
  util::Rng rng_a(11);
  const auto result = measure_rer(cfg, rng_a);
  util::Rng rng_b(11);
  const auto oracle = scalar_rer(cfg, rng_b);
  EXPECT_EQ(result.decision_errors, oracle.decision_errors);
  EXPECT_EQ(result.blocked, oracle.blocked);
  EXPECT_EQ(result.disturbs, oracle.disturbs);
  // Bitwise: the accumulation order is identical, not just the counts.
  EXPECT_EQ(result.mean_margin, oracle.margin.mean());
  EXPECT_GT(result.read_errors, 0u);
}

TEST(MeasureRer, BitIdenticalAcrossThreadCounts) {
  auto cfg = rer_config();
  cfg.runner.threads = 1;
  util::Rng rng_a(12);
  const auto serial = measure_rer(cfg, rng_a);
  cfg.runner.threads = 4;
  util::Rng rng_b(12);
  const auto parallel = measure_rer(cfg, rng_b);
  EXPECT_EQ(serial.read_errors, parallel.read_errors);
  EXPECT_EQ(serial.disturbs, parallel.disturbs);
  EXPECT_EQ(serial.mean_margin, parallel.mean_margin);
}

TEST(MeasureRer, MoreReadVoltageFewerDecisionErrors) {
  auto cfg = rer_config();
  util::Rng rng(13);
  const auto starved = measure_rer(cfg, rng);
  cfg.path.v_read = 0.2;
  const auto healthy = measure_rer(cfg, rng);
  EXPECT_GT(starved.rer, healthy.rer);
  EXPECT_EQ(healthy.read_errors, 0u);
  EXPECT_GT(starved.op.margin, 0.0);
  EXPECT_LT(starved.op.margin, healthy.op.margin);
}

// --- measure_read_disturb ---------------------------------------------------

ReadDisturbConfig disturb_config() {
  ReadDisturbConfig cfg;
  cfg.device.delta0 = 14.0;  // thermally active: measurable disturb rates
  cfg.path = small_path(0.14);
  cfg.path.t_read = 30e-9;
  cfg.trials = 150;
  cfg.hz_stray = dev::MtjDevice(cfg.device).intra_stray_field();
  return cfg;
}

TEST(MeasureReadDisturb, MatchesScalarOracleBitwise) {
  // Odd trial count: a partial lane block included. The batched kernel
  // shares MacrospinSim's stochastic Heun step, so switch decisions AND
  // switch times must agree bitwise.
  auto cfg = disturb_config();
  cfg.trials = 37;
  eng::MonteCarloRunner runner(eng::RunnerConfig{1, cfg.runner.chunk_size});
  util::Rng rng_s(21);
  const auto oracle = oracle::disturb_brute(cfg, rng_s, runner);
  ASSERT_GT(oracle.disturbed, 0u);
  for (unsigned threads : {1u, 4u}) {
    cfg.runner.threads = threads;
    util::Rng rng_b(21);
    const auto result = measure_read_disturb(cfg, rng_b);
    EXPECT_EQ(result.disturbed, oracle.disturbed) << threads;
    EXPECT_EQ(result.mean_switch_time, oracle.times.mean()) << threads;
    EXPECT_EQ(result.rate, static_cast<double>(oracle.disturbed) /
                               static_cast<double>(cfg.trials))
        << threads;
  }
}

TEST(MeasureReadDisturb, BitIdenticalAcrossThreadCounts) {
  auto cfg = disturb_config();
  cfg.trials = 64;
  cfg.runner.threads = 1;
  util::Rng rng_a(22);
  const auto serial = measure_read_disturb(cfg, rng_a);
  cfg.runner.threads = 4;
  util::Rng rng_b(22);
  const auto parallel = measure_read_disturb(cfg, rng_b);
  EXPECT_EQ(serial.disturbed, parallel.disturbed);
  EXPECT_EQ(serial.mean_switch_time, parallel.mean_switch_time);
}

TEST(MeasureReadDisturb, LongerStrobesDisturbMore) {
  auto cfg = disturb_config();
  cfg.trials = 150;
  util::Rng rng(23);
  cfg.duration = 5e-9;
  const auto brief = measure_read_disturb(cfg, rng);
  cfg.duration = 60e-9;
  const auto lingering = measure_read_disturb(cfg, rng);
  EXPECT_GT(lingering.rate, brief.rate);
}

TEST(MeasureReadDisturb, StoredParallelIsStabilized) {
  auto cfg = disturb_config();
  cfg.stored = MtjState::kParallel;
  cfg.trials = 100;
  util::Rng rng(24);
  const auto r = measure_read_disturb(cfg, rng);
  EXPECT_EQ(r.disturbed, 0u);
  EXPECT_LT(r.analytic_probability, 1e-9);
}

TEST(MeasureReadDisturb, AnalyticModelTracksTheLlgEnsemble) {
  // The satellite validation that promoted read_disturb_probability out of
  // its stub: the analytic thermal-activation model with the *quadratic*
  // STT-reduced barrier Delta (1 - I/Ic)^2 tracks the stochastic-LLG
  // ensemble within a factor of 3 across the measurable range. The linear
  // barrier this model shipped with originally under-predicts these points
  // by 1-2 orders of magnitude and fails this bound.
  auto cfg = disturb_config();
  cfg.trials = 400;
  for (const double v_read : {0.10, 0.12, 0.14}) {
    cfg.path = small_path(v_read);
    cfg.path.t_read = 30e-9;
    util::Rng rng(25);
    const auto r = measure_read_disturb(cfg, rng);
    ASSERT_GT(r.disturbed, 5u) << v_read;
    ASSERT_LT(r.disturbed, cfg.trials) << v_read;
    EXPECT_GT(r.analytic_probability, r.rate / 3.0) << v_read;
    EXPECT_LT(r.analytic_probability, r.rate * 3.0) << v_read;
  }
}

// --- read_yield -------------------------------------------------------------

TEST(ReadYield, DeterministicAndSpecMonotone) {
  ReadYieldConfig cfg;
  cfg.path = small_path(0.2, 32);
  cfg.samples = 200;
  cfg.spec.min_margin_sigma = 7.0;
  util::Rng rng_a(31);
  const auto a = read_yield(cfg, rng_a);
  // A 4-thread run reproduces it exactly.
  cfg.runner.threads = 4;
  util::Rng rng_b(31);
  const auto b = read_yield(cfg, rng_b);
  EXPECT_EQ(a.pass_margin, b.pass_margin);
  EXPECT_EQ(a.pass_disturb, b.pass_disturb);
  EXPECT_EQ(a.pass_both, b.pass_both);
  EXPECT_EQ(a.sampled, 200u);
  // A tighter margin spec can only fail more devices.
  cfg.spec.min_margin_sigma = 9.5;
  util::Rng rng_c(31);
  const auto tight = read_yield(cfg, rng_c);
  EXPECT_LE(tight.pass_margin, a.pass_margin);
  EXPECT_LT(tight.yield, 1.0);
  EXPECT_GT(a.pass_disturb, 0u);
}

TEST(ReadYield, CountsOneLadderSolvePerSampledDevice) {
  // readout.ladder_solves is how a metrics doc explains the read path's
  // cost: every sampled device rebuilds its read path and solves its
  // column's ladder once, on whichever worker runs it.
  obs::Registry reg;
  obs::ScopedRegistry guard(&reg);
  ReadYieldConfig cfg;
  cfg.path = small_path(0.2, 16);
  cfg.samples = 37;
  cfg.runner.threads = 2;
  util::Rng rng(5);
  read_yield(cfg, rng);
  const BitlinePath path(cfg.path.bitline, nominal_cell());
  path.port(3, 0.2, std::vector<int>(16, 0));
  EXPECT_EQ(reg.snapshot().counters.at("readout.ladder_solves"), 38u);
}

TEST(ReadYield, SpecValidation) {
  ReadYieldSpec spec;
  spec.min_margin_sigma = 0.0;
  EXPECT_THROW(spec.validate(), util::ConfigError);
  spec = ReadYieldSpec{};
  spec.max_disturb = 1.0;
  EXPECT_THROW(spec.validate(), util::ConfigError);
}

// --- march integration ------------------------------------------------------

TEST(MarchReadPath, StarvedMarginYieldsTransientReadFaults) {
  // Stable array + strong pulse + a starved sense margin: every fault is a
  // transient read fault (the stored data stays correct throughout).
  mem::ArrayConfig cfg;
  cfg.device = dev::MtjParams::reference_device(35e-9);
  cfg.pitch = 2.0 * 35e-9;
  cfg.rows = cfg.cols = 5;
  mem::MramArray array(cfg);

  ReadPathConfig path;
  path.bitline.rows = cfg.rows;
  path.v_read = 0.02;  // deep starvation: lots of misreads
  const ReadErrorModel model(cfg.device, path);
  const auto hook = make_march_read_hook(model, cfg.temperature);

  util::Rng rng(41);
  const auto result = mem::run_march(array, mem::march_c_minus(),
                                     mem::WritePulse{1.2, 100e-9}, rng, 0.0,
                                     nullptr, hook);
  EXPECT_GT(result.count(mem::FaultClass::kReadFault), 0u);
  EXPECT_EQ(result.count(mem::FaultClass::kWriteFault), 0u);
  EXPECT_EQ(result.count(mem::FaultClass::kRetentionFault), 0u);
  EXPECT_EQ(result.failed_writes, 0u);
  // The stored data survived the whole march: the final element verified
  // every cell reads 0 and the faults were all sense-path transients.
  for (std::size_t r = 0; r < 5; ++r) {
    for (std::size_t c = 0; c < 5; ++c) {
      EXPECT_EQ(array.read(r, c), 0);
    }
  }
}

TEST(MarchReadPath, ReadHammerDetectsDisturbFaults) {
  // March C- masks AP->P read disturbs (each r1 is followed by a healing
  // w0); back-to-back r1 reads catch them as read-disturb faults.
  mem::ArrayConfig cfg;
  cfg.device = dev::MtjParams::reference_device(35e-9);
  cfg.device.delta0 = 16.0;
  cfg.pitch = 2.0 * 35e-9;
  cfg.rows = cfg.cols = 5;
  mem::MramArray array(cfg);

  ReadPathConfig path;
  path.bitline.rows = cfg.rows;
  path.v_read = 0.14;
  path.t_read = 30e-9;
  const ReadErrorModel model(cfg.device, path);
  const auto hook = make_march_read_hook(model, cfg.temperature);

  const std::vector<mem::MarchElement> hammer = {
      {mem::MarchOrder::kAscending, {mem::MarchOp::kW1}},
      {mem::MarchOrder::kAscending,
       {mem::MarchOp::kR1, mem::MarchOp::kR1, mem::MarchOp::kR1}},
  };
  util::Rng rng(42);
  const auto result = mem::run_march(array, hammer,
                                     mem::WritePulse{1.2, 100e-9}, rng, 0.0,
                                     nullptr, hook);
  EXPECT_GT(result.count(mem::FaultClass::kReadDisturbFault), 0u);
  EXPECT_EQ(result.count(mem::FaultClass::kWriteFault), 0u);
}

TEST(MarchReadPath, HookRejectsMismatchedColumnLength) {
  mem::ArrayConfig cfg;
  cfg.device = dev::MtjParams::reference_device(35e-9);
  cfg.pitch = 2.0 * 35e-9;
  cfg.rows = cfg.cols = 5;
  mem::MramArray array(cfg);
  ReadPathConfig path;  // default 64 rows != the 5-row array
  const ReadErrorModel model(cfg.device, path);
  const auto hook = make_march_read_hook(model);
  util::Rng rng(43);
  EXPECT_THROW(hook(array, 0, 0, rng), util::ContractViolation);
}

TEST(MarchReadPath, HookCachesTheOperatingPointPerRowAndColumnData) {
  // The operating point depends on the row and the column's data, not on
  // which column holds it: reading the same row of another column with
  // the same data reuses the cached solve.
  mem::ArrayConfig cfg;
  cfg.device = dev::MtjParams::reference_device(35e-9);
  cfg.pitch = 2.0 * 35e-9;
  cfg.rows = cfg.cols = 5;
  mem::MramArray array(cfg);
  ReadPathConfig path;
  path.bitline.rows = cfg.rows;
  const ReadErrorModel model(cfg.device, path);
  const auto hook = make_march_read_hook(model, cfg.temperature);
  obs::Registry reg;
  obs::ScopedRegistry guard(&reg);
  util::Rng rng(44);
  const auto solves = [&] {
    return reg.snapshot().counters.at("readout.ladder_solves");
  };
  hook(array, 2, 0, rng);
  EXPECT_EQ(solves(), 1u);
  hook(array, 2, 3, rng);  // same row, same (all-0) data
  EXPECT_EQ(solves(), 1u);
  hook(array, 4, 3, rng);  // another row
  EXPECT_EQ(solves(), 2u);
  arr::DataGrid grid = array.data();
  grid.set(0, 1, 1);
  array.load(grid);
  hook(array, 4, 1, rng);  // same row, different data
  EXPECT_EQ(solves(), 3u);
}

TEST(MarchReadPath, FaultClassNames) {
  EXPECT_STREQ(mem::to_string(mem::FaultClass::kReadFault), "read");
  EXPECT_STREQ(mem::to_string(mem::FaultClass::kReadDisturbFault),
               "read-disturb");
}

}  // namespace
}  // namespace mram::rdo
