#include "readout/read_error.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>

#include "obs/metrics.h"
#include "readout/ladder_isa.h"
#include "util/error.h"

// The AP cell's fixed point is one template over a value type: double for
// cell_read, a GCC vector of 2, 4 or 8 lanes for noise_margin, compiled
// once per x86-64 ISA level (SSE2 baseline, AVX2, AVX-512F) like the ladder
// solve in bitline.cpp and picked by the same detail::ladder_isa(). Each
// lane runs cell_read's operations in cell_read's order; with
// -ffp-contract=off (CMakeLists.txt) every width returns the same bits.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define MRAM_MARGIN_X86 1
#else
#define MRAM_MARGIN_X86 0
#endif
#define MRAM_MARGIN_INLINE inline __attribute__((always_inline))

namespace mram::rdo {

using dev::MtjState;

namespace {

/// What the AP fixed point of one port reads: the Thevenin drive, the
/// series resistance in front of the MTJ, and the MTJ's TMR roll-off.
struct ApCell {
  double v_th = 0.0;
  double r_series = 0.0;
  double rp = 0.0, tmr0 = 0.0, vh = 0.0;
};

ApCell ap_cell(const ReadErrorModel& model, const ReadPort& port) {
  const auto& ep = model.device().params().electrical;
  return {port.v_thevenin, port.r_thevenin + model.path().transistor.r_read,
          model.device().electrical().rp(), ep.tmr0, ep.vh};
}

// The lane helpers below take and return vectors wider than the baseline
// ABI passes in registers. They are always_inline into the target-attributed
// kernels and file-local, so no call ever uses that ABI: -Wpsabi's note
// about it does not apply. GCC reports it at the end of the file, so the
// pragma holds for the rest of it.
#pragma GCC diagnostic ignored "-Wpsabi"

template <std::size_t W>
struct Lanes {
  typedef double V __attribute__((vector_size(W * sizeof(double))));
  typedef std::int64_t M __attribute__((vector_size(W * sizeof(double))));
};

// Lane helpers, with the one-value forms the scalar instantiation uses.
MRAM_MARGIN_INLINE double magnitude(double x) { return std::abs(x); }
template <class V>
MRAM_MARGIN_INLINE V magnitude(const V& x) {
  return x < 0.0 ? -x : x;  // same magnitude bits; only compared below
}
MRAM_MARGIN_INLINE double select(bool m, double a, double b) {
  return m ? a : b;
}
template <class M, class V>
MRAM_MARGIN_INLINE V select(const M& m, const V& a, const V& b) {
  return m ? a : b;
}
MRAM_MARGIN_INLINE bool and_not(bool a, bool b) { return a && !b; }
template <class M>
MRAM_MARGIN_INLINE M and_not(const M& a, const M& b) {
  return a & ~b;
}
MRAM_MARGIN_INLINE bool any(bool m) { return m; }
template <class M>
MRAM_MARGIN_INLINE bool any(const M& m) {
  std::int64_t r = 0;
  for (std::size_t l = 0; l < sizeof(M) / sizeof(std::int64_t); ++l) {
    r |= m[l];
  }
  return r != 0;
}

/// AP resistance at bias v with TMR0 scaled by tmr_mult.
template <class V>
MRAM_MARGIN_INLINE V ap_resistance(const ApCell& c, const V& v,
                                     const V& tmr_mult) {
  const V x = v / c.vh;
  return c.rp * (1.0 + tmr_mult * c.tmr0 / (1.0 + x * x));
}

/// The AP cell's bias: the fixed point of v <- v_th R(v) / (R(v) +
/// r_series), a contraction (R bounded, r_series > 0), so a handful of
/// iterations reaches double precision. A lane takes the iterate that
/// passes its convergence test and then stops; lanes off in `lanes`
/// never move and never keep the loop going. Adds the sweeps run to
/// `sweeps`.
template <class V, class M>
MRAM_MARGIN_INLINE V ap_bias(const ApCell& c, const V& tmr_mult,
                             const M& lanes, std::size_t& sweeps) {
  M active = lanes;
  const V r0 = ap_resistance(c, V{}, tmr_mult);
  V v = c.v_th * r0 / (r0 + c.r_series);
  for (int iter = 0; iter < 100 && any(active); ++iter) {
    const V r = ap_resistance(c, v, tmr_mult);
    const V v_next = c.v_th * r / (r + c.r_series);
    const M converged = magnitude(v_next - v) < 1e-15 * c.v_th;
    v = select(active, v_next, v);
    active = and_not(active, converged);
    ++sweeps;
  }
  return v;
}

/// AP cell currents of n reads with TMR deviates z0[0, n), in groups of W
/// lanes; lanes past n in the last group run inactive on zeros. Returns
/// the sweeps of all groups.
template <std::size_t W>
MRAM_MARGIN_INLINE std::size_t ap_currents(const ApCell& c, double sigma,
                                           std::size_t n, const double* z0,
                                           double* i_cell) {
  using V = typename Lanes<W>::V;
  using M = typename Lanes<W>::M;
  std::size_t sweeps = 0;
  for (std::size_t base = 0; base < n; base += W) {
    const std::size_t m = std::min(W, n - base);
    alignas(sizeof(V)) double t[W] = {};
    alignas(sizeof(M)) std::int64_t on[W] = {};
    for (std::size_t l = 0; l < m; ++l) {
      t[l] = std::max(1.0 + sigma * z0[base + l], 0.05);
      on[l] = -1;
    }
    V tmr_mult;
    M active;
    std::memcpy(&tmr_mult, t, sizeof(V));
    std::memcpy(&active, on, sizeof(M));
    const V v = ap_bias(c, tmr_mult, active, sweeps);
    const V i = v / ap_resistance(c, v, tmr_mult);
    for (std::size_t l = 0; l < m; ++l) i_cell[base + l] = i[l];
  }
  return sweeps;
}

#if MRAM_MARGIN_X86
__attribute__((target("avx512f"))) std::size_t ap_currents_avx512(
    const ApCell& c, double sigma, std::size_t n, const double* z0,
    double* i_cell) {
  return ap_currents<8>(c, sigma, n, z0, i_cell);
}
__attribute__((target("avx2"))) std::size_t ap_currents_avx2(
    const ApCell& c, double sigma, std::size_t n, const double* z0,
    double* i_cell) {
  return ap_currents<4>(c, sigma, n, z0, i_cell);
}
#endif
std::size_t ap_currents_baseline(const ApCell& c, double sigma, std::size_t n,
                                 const double* z0, double* i_cell) {
  return ap_currents<2>(c, sigma, n, z0, i_cell);
}

}  // namespace

void ReadPathConfig::validate() const {
  transistor.validate();
  bitline.validate();
  sense.validate();
  if (v_read <= 0.0) throw util::ConfigError("read voltage must be positive");
  if (t_read <= 0.0) throw util::ConfigError("read pulse must be positive");
  if (tmr_sigma_rel < 0.0) {
    throw util::ConfigError("TMR sigma must be non-negative");
  }
}

ReadErrorModel::ReadErrorModel(const dev::MtjParams& device,
                               const ReadPathConfig& path)
    : device_(device),
      path_((path.validate(), path)),
      sense_(path.sense),
      bitline_(path.bitline, device_.electrical()) {
  rp_ = device_.electrical().rp();
}

ReadErrorModel::CellRead ReadErrorModel::cell_read(const ReadPort& port,
                                                   MtjState state,
                                                   double tmr_mult) const {
  const double r_series = port.r_thevenin + path_.transistor.r_read;
  CellRead read;
  if (state == MtjState::kParallel) {
    // Bias-independent resistance: closed form.
    read.i_cell = port.v_thevenin / (r_series + rp_);
    read.v_mtj = read.i_cell * rp_;
    return read;
  }
  // AP resistance depends on its own bias through the TMR roll-off: the
  // fixed point noise_margin runs on lanes, here on one value.
  const ApCell c = ap_cell(*this, port);
  std::size_t sweeps = 0;
  read.v_mtj = ap_bias(c, tmr_mult, true, sweeps);
  read.i_cell = read.v_mtj / ap_resistance(c, read.v_mtj, tmr_mult);
  return read;
}

ReadErrorModel::OperatingPoint ReadErrorModel::operating_point(
    std::size_t row, const std::vector<int>& column_data) const {
  OperatingPoint op;
  op.row = row;
  op.port = bitline_.port(row, path_.v_read, column_data);
  const CellRead p = cell_read(op.port, MtjState::kParallel);
  const CellRead ap = cell_read(op.port, MtjState::kAntiParallel);
  op.v_p = p.v_mtj;
  op.v_ap = ap.v_mtj;
  op.i_p = p.i_cell;
  op.i_ap = ap.i_cell;
  op.i_ref = 0.5 * (op.i_p + op.i_ap);
  op.margin = 0.5 * (op.i_p - op.i_ap);
  MRAM_ENSURES(op.margin > 0.0, "P must carry more read current than AP");
  return op;
}

double ReadErrorModel::disturb_probability(MtjState stored, double i_cell,
                                           double duration, double hz_stray,
                                           double t) const {
  // One home for the physics: the device's quadratic STT-activation model,
  // evaluated at the actual (IR-dropped, TMR-varied) cell current.
  return device_.read_disturb_probability_at_current(stored, i_cell, duration,
                                                     hz_stray, t);
}

ReadErrorModel::ErrorBudget ReadErrorModel::error_budget(
    const OperatingPoint& op, MtjState stored, double hz_stray,
    double t) const {
  ErrorBudget budget;
  budget.decision = sense_.decision_error_probability(op.margin);
  budget.blocked = sense_.blocked_probability(op.margin);
  const double i_cell = stored == MtjState::kParallel ? op.i_p : op.i_ap;
  budget.disturb =
      disturb_probability(stored, i_cell, path_.t_read, hz_stray, t);
  return budget;
}

ReadOutcome ReadErrorModel::sample_read(const OperatingPoint& op,
                                        MtjState stored, double hz_stray,
                                        double t, util::Rng& rng) const {
  // Every sampling read-path trial body funnels through here, so this one
  // tag attributes the RER / stage / disturb / yield drivers' chunks.
  // noise_margin stays untagged on purpose: it is the score function of the
  // rare-event drivers, whose chunks tag kRare.
  obs::tag_kernel(obs::KernelTag::kReadout);
  // Draw 1: this read's cell TMR deviation. Drawn for both states so the
  // stream consumption never depends on the stored data; it only perturbs
  // the AP branch (R_P carries no TMR term).
  const double tmr_mult =
      std::max(1.0 + path_.tmr_sigma_rel * rng.normal(), 0.05);
  const CellRead read = cell_read(op.port, stored, tmr_mult);

  // Draws 2-3: the sense comparison against the nominal reference.
  const SenseOutcome sensed = sense_.sample(read.i_cell, op.i_ref, rng);

  ReadOutcome out;
  out.i_cell = read.i_cell;
  out.margin = stored == MtjState::kParallel ? read.i_cell - op.i_ref
                                             : op.i_ref - read.i_cell;
  out.blocked = sensed == SenseOutcome::kBlocked;
  if (!out.blocked) {
    out.observed =
        sensed == SenseOutcome::kReadAp ? 1 : 0;
    out.decision_error = out.observed != dev::state_to_bit(stored);
  }

  // Draw 4: read disturb at the actual (TMR-varied, IR-dropped) current.
  const double p_disturb =
      disturb_probability(stored, read.i_cell, path_.t_read, hz_stray, t);
  out.disturbed = rng.bernoulli(p_disturb);
  return out;
}

void ReadErrorModel::noise_margin(const OperatingPoint& op, MtjState stored,
                                  std::size_t n, const double* z,
                                  std::size_t ld, double* out) const {
  detail::margin_lanes(*this, detail::ladder_isa(), op, stored, n, z, ld,
                       out);
}

namespace detail {

std::size_t margin_lanes(const ReadErrorModel& model, LadderIsa isa,
                         const ReadErrorModel::OperatingPoint& op,
                         MtjState stored, std::size_t n, const double* z,
                         std::size_t ld, double* out) {
  MRAM_EXPECTS(isa <= ladder_isa(), "noise margin ISA not supported here");
  MRAM_EXPECTS(n <= ld, "noise margin needs a row stride of at least n");
  // Same arithmetic as sample_read + SenseAmp::sample, with the deviates
  // injected instead of drawn: tmr_mult from z[0] (clamped like the sampled
  // path), offset from z[1], reference mismatch from z[2]. out[] holds the
  // cell currents until the last loop turns them into margins.
  std::size_t sweeps = 0;
  if (stored == MtjState::kParallel) {
    std::fill_n(out, n, model.cell_read(op.port, stored).i_cell);
  } else {
    const ApCell c = ap_cell(model, op.port);
    const double sigma = model.path().tmr_sigma_rel;
    switch (isa) {
#if MRAM_MARGIN_X86
      case LadderIsa::kAvx512:
        sweeps = ap_currents_avx512(c, sigma, n, z, out);
        break;
      case LadderIsa::kAvx2:
        sweeps = ap_currents_avx2(c, sigma, n, z, out);
        break;
#endif
      default:
        sweeps = ap_currents_baseline(c, sigma, n, z, out);
    }
  }
  const SenseAmpParams& sense = model.path().sense;
  for (std::size_t l = 0; l < n; ++l) {
    const double offset = sense.offset_sigma * z[ld + l];
    const double ref_error = sense.reference_sigma * z[2 * ld + l];
    const double differential = (out[l] + offset) - (op.i_ref + ref_error);
    out[l] = stored == MtjState::kParallel ? differential : -differential;
  }
  return sweeps;
}

}  // namespace detail

}  // namespace mram::rdo
