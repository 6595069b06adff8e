#pragma once

#include <cstddef>
#include <vector>

#include "dynamics/llg.h"
#include "numerics/vec3.h"
#include "util/rng.h"

// Batched structure-of-arrays stochastic-LLG kernel.
//
// MacrospinSim::run_until_switch integrates one trial at a time: every Heun
// stage is a serial dependency chain of ~100 flops, so a superscalar core
// spends most of each step waiting on latencies. BatchMacrospinSim keeps W
// *independent* trials in flight in W lane slots and advances them in
// lockstep over SoA double arrays. W is fixed per call: preferred_lanes()
// (16 on hosts with an AVX-512 clone, else 8), or 8 for calls of at most 8
// trials. The per-lane step is the canonical stochastic_heun_step shared
// with the scalar path (llg_heun_step.h), inlined into one fixed-width
// kernel template (step_lanes<W>) that the compiler vectorizes -- with
// AVX2 and, at 16 lanes, AVX-512 clones dispatched at load time on x86-64
// (see llg_batch.cpp for why the width matters) -- and driven for up to a
// whole thermal-noise block (64 steps) per kernel call, with an early
// return as soon as any lane's mz crosses the stop plane.
//
// A call takes up to 64 trials. The first W start in the W slots; when a
// slot's trial finishes (crossing or exhausted window) the slot is
// refilled at once with the next pending trial, in trial order, so the
// kernel keeps running full width until the call's trials run out. Slots
// left without a trial at the end of a call run masked: they never cross,
// and they draw noise only from engines that are not a trial's stream.
//
// Determinism contract: each slot draws its thermal field from its trial's
// own util::Rng via Rng::normal_fill_lanes (the same values, in the same
// order, that the scalar path's per-step normal_fill consumes; a slot
// refilled partway through a noise block draws the rest of that block from
// its new stream, which normal_fill's split consistency makes the same
// values), accumulates its own time from its own first step, and runs the
// same inline arithmetic -- so every trial's SwitchResult is bit-identical
// to MacrospinSim::run_until_switch on the same stream. tests/test_dynamics
// asserts this for trial counts that do and do not fill the slots.

namespace mram::dyn {

class BatchMacrospinSim {
 public:
  /// Slot width of calls with at most 8 trials, and of every call on hosts
  /// without an AVX-512 clone: 8 independent Heun chains fill two
  /// interleaved 4-wide AVX2 vectors.
  static constexpr std::size_t kDefaultLanes = 8;

  /// Slot width of the AVX-512 fast path: 16 lanes fill two independent
  /// 8-wide zmm dependency chains, which is what makes an AVX-512 clone
  /// profitable where it is not at 8 lanes (one chain, latency-bound).
  static constexpr std::size_t kAvx512Lanes = 16;

  /// Most trials one run_until_switch call accepts.
  static constexpr std::size_t kMaxTrials = 64;

  /// Slot width of calls with more than kDefaultLanes trials on this
  /// machine: kAvx512Lanes when the load-time dispatch has an AVX-512 clone
  /// to back it (x86-64 GCC build on an avx512f CPU), else kDefaultLanes.
  /// Any width produces bit-identical results (slots only regroup
  /// independent trials); this only picks the fastest one.
  static std::size_t preferred_lanes();

  explicit BatchMacrospinSim(const LlgParams& params);

  const LlgParams& params() const { return params_; }

  /// Integrates `n` (1..kMaxTrials) independent stochastic trials. Trial l
  /// starts at m0[l] (unit vectors), draws its thermal field from rngs[l],
  /// and writes its result to out[l]. Results per trial are exactly
  /// MacrospinSim::run_until_switch(m0[l], duration, dt, rngs[l], mz_stop,
  /// tilt) -- switched flag, crossing time, log_weight and m_end included.
  /// The thermal history is prefetched from each trial's rng in blocks, so
  /// the kernel may consume *more* values from rngs[l] than the scalar path
  /// would (the values actually used are the same ones, in the same order);
  /// callers must not draw further randomness from a trial's rng after the
  /// call and expect scalar-path agreement.
  void run_until_switch(std::size_t n, const num::Vec3* m0, util::Rng* rngs,
                        double duration, double dt, SwitchResult* out,
                        double mz_stop = 0.0, const num::Vec3& tilt = {});

  /// Per-trial-durations variant for the multilevel-splitting driver,
  /// whose continuation trajectories carry different remaining windows.
  /// Trial l integrates for durations[l] seconds (each > 0): its step
  /// budget is the number of iterations the scalar while-loop executes for
  /// durations[l], with the scalar path's exact floating-point time
  /// accumulation (replayed once per call, not once per trial), and a trial
  /// whose budget runs out retires with {switched=false,
  /// time=durations[l]}. A trial that crosses on its final budgeted step
  /// reports switched, exactly like the scalar loop.
  void run_until_switch(std::size_t n, const num::Vec3* m0, util::Rng* rngs,
                        const double* durations, double dt,
                        SwitchResult* out, double mz_stop = 0.0,
                        const num::Vec3& tilt = {});

 private:
  LlgParams params_;
  LlgRhs rhs_;  ///< precomputed gamma', a_j (shared across lanes)

  /// Field rows of the current noise block, [3 * step + component][slot]:
  /// raw normal_fill_lanes output turned in place into h_applied + sigma *
  /// (z + tilt). A member so one BatchMacrospinSim per worker context
  /// amortizes the allocation over all its calls.
  std::vector<double> field_;
};

}  // namespace mram::dyn
