#include "dynamics/llg_batch.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <type_traits>

#include "dynamics/llg_heun_step.h"
#include "obs/metrics.h"
#include "util/constants.h"
#include "util/error.h"

#if defined(__GNUC__) || defined(__clang__)
#define MRAM_RESTRICT __restrict__
// Keep the lane kernel an out-of-line function even under LTO: restrict is
// only honored on function *parameters*, so inlining it into the caller
// would degrade the pointers to locals and silently kill vectorization.
#define MRAM_NOINLINE __attribute__((noinline))
#define MRAM_ALWAYS_INLINE inline __attribute__((always_inline))
#else
#define MRAM_RESTRICT
#define MRAM_NOINLINE
#define MRAM_ALWAYS_INLINE inline
#endif

// Runtime-dispatched SIMD width for the lane loop on x86-64: the portable
// baseline only guarantees SSE2 (2 doubles/op), so the default build would
// leave a lot on the table on AVX machines. target_clones emits one clone
// per ISA plus an ifunc resolver picked at load time. The clone list
// depends on the slot width W of step_lanes<W>: one Heun step is a serial
// dependency chain, so at W = 8 an AVX-512 clone packs the whole block into
// a single latency-bound zmm chain, and measured slower than two
// interleaved ymm chains (plus heavy zmm sqrt/div and license
// downclocking) -- the 8-slot entry point therefore stops at AVX2. At
// W = 16 the block fills two independent zmm chains and AVX-512 pays off,
// so the 16-slot entry point adds an avx512f clone, and preferred_lanes()
// runs every call of more than 8 trials at 16 slots on CPUs that have it.
// Safe for the bit-identity contract because vectorization only reorders
// *independent lanes*, never the within-lane operation sequence, and the
// build pins -ffp-contract=off so no clone can fuse multiply-adds.
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
#define MRAM_SIMD_CLONES __attribute__((target_clones("avx2", "default")))
#define MRAM_SIMD_CLONES_W16 \
  __attribute__((target_clones("avx512f", "avx2", "default")))
#define MRAM_HAS_AVX512_DISPATCH 1
#else
#define MRAM_SIMD_CLONES
#define MRAM_SIMD_CLONES_W16
#define MRAM_HAS_AVX512_DISPATCH 0
#endif

namespace mram::dyn {

using num::Vec3;

BatchMacrospinSim::BatchMacrospinSim(const LlgParams& params)
    : params_(params) {
  params_.validate();
  rhs_.gamma_prime = util::kGyromagneticRatio * util::kMu0 /
                     (1.0 + params_.alpha * params_.alpha);
  rhs_.alpha = params_.alpha;
  rhs_.hk = params_.hk;
  rhs_.aj = params_.spin_torque_field();
  rhs_.h = params_.h_applied;
  rhs_.p = params_.spin_polarization;
}

namespace {

/// Steps per thermal-noise block: one normal_fill_lanes call (and one
/// kernel call, absent crossings and refills) covers this many steps.
constexpr std::size_t kNoiseBlockSteps = 64;
/// Field rows per noise block: three components per step.
constexpr std::size_t kNoiseRows = 3 * kNoiseBlockSteps;

// Lockstep Heun steps over all W slots, up to a.steps of them: the
// canonical stochastic_heun_step (shared with the scalar reference path,
// so each lane is bit-identical to it by construction) inlined into a
// fixed-width loop over the SoA arrays, where the independent lanes fill
// the FP pipelines and vectorize without a remainder loop. Each slot also
// advances its own clock, t += dt, exactly like the scalar loop. Returns
// after the first step at which any slot crossed -- crossed[] then names
// the finished slots -- or after a.steps steps, whichever is first; the
// return value is the number of steps executed. The restrict-qualified
// pointers are *parameters*: GCC only honors restrict there, and without
// it the possible aliasing between the arrays blocks vectorization.
template <std::size_t W, bool kHasTorque, bool kHasTilt>
MRAM_ALWAYS_INLINE std::size_t step_lanes(
    std::size_t steps, const double* MRAM_RESTRICT h, std::size_t h_stride,
    double* MRAM_RESTRICT mx, double* MRAM_RESTRICT my,
    double* MRAM_RESTRICT mz, const double* MRAM_RESTRICT sign,
    double* MRAM_RESTRICT crossed, double* MRAM_RESTRICT logw,
    double* MRAM_RESTRICT t, const detail::HeunStepCoeffs& coeffs,
    const detail::TiltWeightCoeffs& wcoeffs, double mz_stop) {
  const detail::HeunStepCoeffs c = coeffs;  // loop-invariant locals
  const detail::TiltWeightCoeffs w = wcoeffs;
  for (std::size_t s = 0; s < steps; ++s) {
    const double* MRAM_RESTRICT hx = h + s * h_stride;
    const double* MRAM_RESTRICT hy = hx + W;
    const double* MRAM_RESTRICT hz = hx + 2 * W;
    double any = 0.0;
    for (std::size_t a = 0; a < W; ++a) {
      if constexpr (kHasTilt) {
        // Same expression, same assembled-field inputs, same step order as
        // the scalar loop's accumulation -- bit-identical log weights. The
        // crossing step's weight is included, matching the scalar loop
        // (which accumulates before stepping and checking).
        logw[a] += detail::tilt_log_weight_step(w, hx[a], hy[a], hz[a]);
      }
      detail::stochastic_heun_step<kHasTorque>(c, hx[a], hy[a], hz[a], mx[a],
                                               my[a], mz[a]);
      t[a] += c.dt;
      const double flag = (sign[a] * (mz[a] - mz_stop) < 0.0) ? 1.0 : 0.0;
      crossed[a] = flag;
      any += flag;
    }
    if (any != 0.0) return s + 1;
  }
  return steps;
}

// The two out-of-line entry points of step_lanes, one per slot width, each
// with its own clone list (see above). They repeat the restrict-qualified
// parameter list because restrict survives only on the parameters of the
// function that is actually compiled.
#define MRAM_STEP_LANES_PARAMS                                                \
  std::size_t steps, const double* MRAM_RESTRICT h, std::size_t h_stride,    \
      double* MRAM_RESTRICT mx, double* MRAM_RESTRICT my,                    \
      double* MRAM_RESTRICT mz, const double* MRAM_RESTRICT sign,            \
      double* MRAM_RESTRICT crossed, double* MRAM_RESTRICT logw,             \
      double* MRAM_RESTRICT t, const detail::HeunStepCoeffs& coeffs,         \
      const detail::TiltWeightCoeffs& wcoeffs, double mz_stop
#define MRAM_STEP_LANES_ARGS                                                  \
  steps, h, h_stride, mx, my, mz, sign, crossed, logw, t, coeffs, wcoeffs,    \
      mz_stop

template <bool kHasTorque, bool kHasTilt>
MRAM_NOINLINE MRAM_SIMD_CLONES std::size_t step_lanes_w8(
    MRAM_STEP_LANES_PARAMS) {
  return step_lanes<BatchMacrospinSim::kDefaultLanes, kHasTorque, kHasTilt>(
      MRAM_STEP_LANES_ARGS);
}

template <bool kHasTorque, bool kHasTilt>
MRAM_NOINLINE MRAM_SIMD_CLONES_W16 std::size_t step_lanes_w16(
    MRAM_STEP_LANES_PARAMS) {
  return step_lanes<BatchMacrospinSim::kAvx512Lanes, kHasTorque, kHasTilt>(
      MRAM_STEP_LANES_ARGS);
}

/// Slot width of calls with more than kDefaultLanes trials.
std::size_t wide_slots() {
  static const std::size_t w = [] {
#if MRAM_HAS_AVX512_DISPATCH
    if (__builtin_cpu_supports("avx512f")) {
      return BatchMacrospinSim::kAvx512Lanes;
    }
#endif
    return BatchMacrospinSim::kDefaultLanes;
  }();
  return w;
}

/// Step budget of each window: the iteration count of the scalar loop
/// `for (t = 0; t < d; t += dt)`. The loop's exact floating-point time
/// accumulation is replayed once per call, visiting the windows in
/// ascending order, so each distinct window costs no extra additions.
void step_budgets(const double* durations, std::size_t n, double dt,
                  std::size_t* budget) {
  std::size_t order[BatchMacrospinSim::kMaxTrials];
  std::iota(order, order + n, std::size_t{0});
  std::sort(order, order + n, [durations](std::size_t a, std::size_t b) {
    return durations[a] < durations[b];
  });
  double t = 0.0;
  std::size_t steps = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double d = durations[order[i]];
    for (; t < d; ++steps) t += dt;
    budget[order[i]] = steps;
  }
}

}  // namespace

std::size_t BatchMacrospinSim::preferred_lanes() {
  const std::size_t lanes = wide_slots();
  obs::gauge_set(obs::Gauge::kLlgPreferredLanes,
                 static_cast<double>(lanes));
  return lanes;
}

void BatchMacrospinSim::run_until_switch(std::size_t n, const Vec3* m0,
                                         util::Rng* rngs, double duration,
                                         double dt, SwitchResult* out,
                                         double mz_stop, const Vec3& tilt) {
  MRAM_EXPECTS(n > 0 && n <= kMaxTrials, "need 1 to 64 trials per call");
  double durations[kMaxTrials];
  std::fill(durations, durations + n, duration);
  run_until_switch(n, m0, rngs, durations, dt, out, mz_stop, tilt);
}

void BatchMacrospinSim::run_until_switch(std::size_t n, const Vec3* m0,
                                         util::Rng* rngs,
                                         const double* durations, double dt,
                                         SwitchResult* out, double mz_stop,
                                         const Vec3& tilt) {
  MRAM_EXPECTS(dt > 0.0, "invalid integration step");
  MRAM_EXPECTS(n > 0 && n <= kMaxTrials, "need 1 to 64 trials per call");
  for (std::size_t l = 0; l < n; ++l) {
    MRAM_EXPECTS(std::abs(num::norm(m0[l]) - 1.0) < 1e-6,
                 "m0 must be a unit vector");
    MRAM_EXPECTS(durations[l] > 0.0, "invalid integration window");
  }
  obs::counter_add(obs::Counter::kLlgLanesEntered, n);
  std::size_t budget[kMaxTrials];
  step_budgets(durations, n, dt, budget);

  std::size_t W = (n <= kDefaultLanes) ? kDefaultLanes : wide_slots();
  const double sigma = thermal_field_sigma(params_, dt);
  const bool has_torque = (rhs_.aj != 0.0);
  const bool has_tilt =
      sigma > 0.0 && (tilt.x != 0.0 || tilt.y != 0.0 || tilt.z != 0.0);
  const double ha[3] = {params_.h_applied.x, params_.h_applied.y,
                        params_.h_applied.z};
  const double tilt_arr[3] = {tilt.x, tilt.y, tilt.z};
  const auto coeffs = detail::HeunStepCoeffs::from(rhs_, dt);
  const auto wcoeffs =
      detail::TiltWeightCoeffs::from(tilt, params_.h_applied, sigma);

  // Slot state. An empty slot keeps a unit vector and sign 0, so it steps
  // harmlessly and never reports a crossing.
  constexpr std::size_t kSlots = kAvx512Lanes;
  constexpr std::size_t kEmpty = kMaxTrials;
  alignas(64) double mx[kSlots] = {}, my[kSlots] = {}, mz[kSlots] = {};
  alignas(64) double sign[kSlots] = {}, crossed[kSlots] = {};
  alignas(64) double logw[kSlots] = {}, t[kSlots] = {};
  std::size_t trial[kSlots];
  std::size_t left[kSlots] = {};
  // Working copies of the slots' engines, contiguous for
  // normal_fill_lanes; copied back into rngs[] when a trial retires. An
  // empty slot's engine is never a trial's stream.
  util::Rng slot_rng[kSlots];
  std::fill(mz, mz + kSlots, 1.0);
  std::fill(trial, trial + kSlots, kEmpty);

  // Constant field of the sigma == 0 case: one step's x, y and z rows of W
  // slots each, read with stride 0 (laid out again if W narrows).
  alignas(64) double h0[3 * kSlots];
  const auto fill_h0 = [&] {
    for (std::size_t c = 0; c < 3; ++c) {
      std::fill(h0 + c * W, h0 + (c + 1) * W, ha[c]);
    }
  };
  fill_h0();
  if (sigma > 0.0) field_.resize(kNoiseRows * W);
  double* field = field_.data();

  // Noise rows [row0, kNoiseRows) of slots [a0, a1): the raw deviates
  // turned into the scalar loop's field h = h_applied + sigma * (z + tilt)
  // (the tilt is the mean shift normal_fill_tilted adds after the draw).
  const auto draw_field = [&](std::size_t a0, std::size_t a1,
                              std::size_t row0) {
    obs::counter_add(obs::Counter::kLlgNoiseScalarFallbacks,
                     util::Rng::normal_fill_lanes(slot_rng + a0, a1 - a0,
                                                  field + row0 * W + a0, W,
                                                  kNoiseRows - row0));
    for (std::size_t row = row0; row < kNoiseRows; ++row) {
      const std::size_t c = row % 3;
      double* f = field + row * W;
      for (std::size_t a = a0; a < a1; ++a) {
        f[a] = ha[c] + sigma * (has_tilt ? f[a] + tilt_arr[c] : f[a]);
      }
    }
  };

  std::size_t next = 0;   // next pending trial
  std::size_t live = 0;   // slots holding a trial
  std::size_t phase = 0;  // step index within the current noise block
  const auto load = [&](std::size_t a) {
    if (next == n) return;
    const std::size_t l = next++;
    mx[a] = m0[l].x;
    my[a] = m0[l].y;
    mz[a] = m0[l].z;
    sign[a] = (m0[l].z >= mz_stop) ? 1.0 : -1.0;
    logw[a] = 0.0;
    t[a] = 0.0;
    left[a] = budget[l];
    slot_rng[a] = rngs[l];
    trial[a] = l;
    ++live;
  };
  for (std::size_t a = 0; a < W; ++a) load(a);

  const auto kernel = [&](std::size_t steps, const double* h,
                          std::size_t h_stride) -> std::size_t {
    const auto run = [&](auto torque, auto tilted) -> std::size_t {
      constexpr bool kT = decltype(torque)::value;
      constexpr bool kW = decltype(tilted)::value;
      if (W == kAvx512Lanes) {
        obs::counter_add(obs::Counter::kLlgBlocksW16);
        obs::tag_kernel(obs::KernelTag::kLlgW16);
        return step_lanes_w16<kT, kW>(steps, h, h_stride, mx, my, mz, sign,
                                      crossed, logw, t, coeffs, wcoeffs,
                                      mz_stop);
      }
      obs::counter_add(obs::Counter::kLlgBlocksW8);
      obs::tag_kernel(obs::KernelTag::kLlgW8);
      return step_lanes_w8<kT, kW>(steps, h, h_stride, mx, my, mz, sign,
                                   crossed, logw, t, coeffs, wcoeffs,
                                   mz_stop);
    };
    const auto by_tilt = [&](auto torque) -> std::size_t {
      return has_tilt ? run(torque, std::true_type{})
                      : run(torque, std::false_type{});
    };
    return has_torque ? by_tilt(std::true_type{})
                      : by_tilt(std::false_type{});
  };

  while (live > 0) {
    const double* h = h0;
    std::size_t h_stride = 0;
    std::size_t steps = kNoiseBlockSteps;
    if (sigma > 0.0) {
      if (phase == 0) draw_field(0, W, 0);
      h = field + 3 * phase * W;
      h_stride = 3 * W;
      steps = kNoiseBlockSteps - phase;
    }
    // Never step a trial past its own window: live slots always have
    // budget left (exhausted ones retire below), so steps >= 1.
    for (std::size_t a = 0; a < W; ++a) {
      if (trial[a] != kEmpty) steps = std::min(steps, left[a]);
    }
    const std::size_t done = kernel(steps, h, h_stride);

    // Occupancy bookkeeping: lane-steps of live slots against the slot
    // capacity the kernel paid for.
    obs::counter_add(obs::Counter::kLlgNoiseBlocks);
    obs::counter_add(obs::Counter::kLlgLaneSteps,
                     static_cast<std::uint64_t>(done) * live);
    obs::counter_add(obs::Counter::kLlgLaneStepCapacity,
                     static_cast<std::uint64_t>(done) * W);
    obs::counter_add(obs::Counter::kLlgFlops,
                     static_cast<std::uint64_t>(done) * live *
                         (has_torque ? detail::kHeunStepFlopsTorque
                                     : detail::kHeunStepFlops));
    if (sigma > 0.0) phase = (phase + done) % kNoiseBlockSteps;

    // Retire finished trials and refill their slots in trial order. A
    // crossing takes precedence over budget exhaustion, exactly like the
    // scalar loop's final-step check. A slot refilled mid-block draws the
    // rest of the block from its new stream; runs of adjacent refilled
    // slots draw together.
    std::size_t run_lo = 0;
    std::size_t run_hi = 0;
    const auto flush_run = [&] {
      if (run_hi > run_lo && sigma > 0.0 && phase != 0) {
        draw_field(run_lo, run_hi, 3 * phase);
      }
      run_lo = run_hi = 0;
    };
    for (std::size_t a = 0; a < W; ++a) {
      const std::size_t l = trial[a];
      if (l == kEmpty) continue;
      left[a] -= done;
      const Vec3 m{mx[a], my[a], mz[a]};
      if (crossed[a] != 0.0) {
        obs::counter_add(obs::Counter::kLlgLanesEarlyExit);
        out[l] = {true, t[a], logw[a], m};
      } else if (left[a] == 0) {
        out[l] = {false, durations[l], logw[a], m};
      } else {
        continue;
      }
      rngs[l] = slot_rng[a];
      trial[a] = kEmpty;
      sign[a] = 0.0;
      --live;
      load(a);
      if (trial[a] == kEmpty) continue;
      if (run_hi != a) flush_run();
      if (run_hi == run_lo) run_lo = a;
      run_hi = a + 1;
    }
    flush_run();

    // Drain: once no trial is pending and at most 8 slots are live, move
    // them into the low 8 slots and finish at the narrow width, so the
    // last trials of a call do not pay for 16 lanes. Slot order is free:
    // results go out by trial index.
    if (W == kAvx512Lanes && next == n && live > 0 && live <= kDefaultLanes) {
      constexpr std::size_t kNarrow = kDefaultLanes;
      std::size_t src[kNarrow];
      std::size_t hole = 0;
      for (std::size_t a = 0; a < kNarrow; ++a) src[a] = a;
      for (std::size_t a = kNarrow; a < kAvx512Lanes; ++a) {
        if (trial[a] == kEmpty) continue;
        while (trial[hole] != kEmpty) ++hole;
        src[hole] = a;
        mx[hole] = mx[a];
        my[hole] = my[a];
        mz[hole] = mz[a];
        sign[hole] = sign[a];
        logw[hole] = logw[a];
        t[hole] = t[a];
        left[hole] = left[a];
        slot_rng[hole] = slot_rng[a];
        trial[hole] = trial[a];
        trial[a] = kEmpty;
      }
      if (sigma > 0.0 && phase != 0) {
        // Re-lay the rest of the block at row stride 8, in ascending rows:
        // row r's new place never overlaps an old row not yet read.
        for (std::size_t row = 3 * phase; row < kNoiseRows; ++row) {
          double v[kNarrow];
          for (std::size_t a = 0; a < kNarrow; ++a) {
            v[a] = field[row * kAvx512Lanes + src[a]];
          }
          std::copy(v, v + kNarrow, field + row * kNarrow);
        }
      }
      W = kNarrow;
      fill_h0();
    }
  }
}

}  // namespace mram::dyn
