#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>

// Deterministic random number generation for simulations.
//
// We implement xoshiro256++ (public domain, Blackman & Vigna) instead of using
// std::mt19937 because (a) results must be bit-reproducible across standard
// library implementations -- experiment tables in EXPERIMENTS.md are generated
// from seeded runs -- and (b) it is significantly faster in the Monte Carlo
// loops of the write-error-rate benches.

namespace mram::util {

class Rng;

namespace detail {

// The lane kernels behind Rng::normal_fill_lanes (util/zig_lanes.h).
enum class ZigIsa : int;
std::size_t zig_fill_lanes(ZigIsa isa, Rng* rngs, std::size_t lanes,
                           double* out, std::size_t ld, std::size_t n);

}  // namespace detail

/// xoshiro256++ engine. Satisfies std::uniform_random_bit_generator, so it can
/// be used with <random> distributions, though the member helpers below are
/// preferred for reproducibility.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four 64-bit words of state from a single seed via splitmix64,
  /// as recommended by the xoshiro authors.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) { reseed(seed); }

  void reseed(std::uint64_t seed);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() { return next(); }

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Standard normal deviate -- the *legacy* sampler (Marsaglia polar
  /// method, cached spare), kept bit-for-bit stable: the committed golden
  /// CSVs and every seeded variation/characterization ensemble depend on
  /// its exact draw sequence. Prefer normal_fill for new bulk consumers.
  double normal();

  /// Normal deviate with the given mean and standard deviation.
  double normal(double mean, double sigma);

  /// Fills out[0..n) with standard normal deviates from the 128-strip
  /// ziggurat (tables committed as exact hex literals) -- ~2.5x cheaper per
  /// value than normal() and the sampler behind the stochastic-LLG thermal
  /// fields, scalar and batched alike. Deterministic for a given engine
  /// state and self-consistent: one fill of n equals any split into smaller
  /// fills, with no hidden state between calls. NOT the same value stream
  /// as the legacy normal() (see there for why that one cannot change).
  void normal_fill(double* out, std::size_t n);

  /// Fills two engines' outputs in lockstep: out_a gets exactly
  /// a.normal_fill(out_a, n) and out_b exactly b.normal_fill(out_b, n),
  /// value for value. Interleaving two independent xoshiro chains gains
  /// less than it promises: on a 4-vCPU AVX-512 Xeon it measured 4.4 ns
  /// per value against normal_fill's 5.4. normal_fill_lanes is the bulk
  /// path for many engines at once.
  static void normal_fill_pair(Rng& a, Rng& b, double* out_a, double* out_b,
                               std::size_t n);

  /// Fills `lanes` engines side by side: lane l receives exactly
  /// rngs[l].normal_fill(n) at out[k * ld + l] for k in [0, n), and each
  /// engine ends in the state that fill would leave. The xoshiro256++
  /// states advance in vector registers (Blackman & Vigna run such streams
  /// side by side), all lanes share one row cursor, and every store is a
  /// masked row store. The whole ziggurat runs masked in the vector loop:
  /// the strip test; for its rejections the wedge test, whose uniform is
  /// the lane's next output, decided on a vector exp (see
  /// detail::kZigWedgeBand); and the redraw and retest of wedge
  /// rejections. Only two cases go to scalar code, one lane at a time and
  /// without leaving the loop: strip-0 tails (zig_fallback, from the
  /// lane's exact state) and wedge tests too close to the vector exp to
  /// call (std::exp, as zig_fallback compares). Dispatched at run time
  /// (AVX-512F+DQ, AVX2, or a scalar loop); all three write the same bits.
  /// Engines past `lanes` are never read or advanced. Returns how many
  /// lane draws scalar code finished: those tail and band draws, or every
  /// draw when the scalar loop ran (no SIMD, or a single lane).
  /// Precondition: ld >= lanes when n > 1.
  static std::size_t normal_fill_lanes(Rng* rngs, std::size_t lanes,
                                       double* out, std::size_t ld,
                                       std::size_t n);

  /// Exponentially tilted normal_fill: out[k] = z_k + tilt[k % period] where
  /// the z_k are *exactly* the deviates normal_fill would have produced --
  /// the raw draw stream (including fallback consumption) is untouched, so
  /// an all-zero tilt reproduces normal_fill bit for bit, and a tilted run
  /// consumes the same engine state as an untilted one. The importance
  /// sampler's likelihood-ratio bookkeeping relies on this: the tilt is a
  /// deterministic mean shift applied after the draw, never a change to the
  /// sampling path. Precondition: period > 0.
  void normal_fill_tilted(double* out, std::size_t n, const double* tilt,
                          std::size_t period);

  /// Uniform integer in [0, n). Precondition: n > 0.
  std::uint64_t below(std::uint64_t n);

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool bernoulli(double p);

  /// Splits off an independent stream (jump-free: reseeds a child from the
  /// parent's output, sufficient decorrelation for our Monte Carlo usage).
  Rng split();

  /// Counter-based split: the `index`-th independent stream of a master
  /// `seed`. Unlike split(), this needs no shared parent state, so parallel
  /// trial i can derive its stream directly from (seed, i) -- the engine's
  /// Monte Carlo runner uses this to make results independent of the thread
  /// count and the scheduling order.
  static Rng stream(std::uint64_t seed, std::uint64_t index);

 private:
  std::uint64_t next();

  /// One ziggurat draw (the normal_fill stream).
  double zig_draw();

  /// Completes one ziggurat draw whose first strip test rejected (wedge,
  /// tail and retry paths; out of line, ~2.5% of draws).
  double zig_fallback(std::uint64_t b);

  friend std::size_t detail::zig_fill_lanes(detail::ZigIsa, Rng*,
                                            std::size_t, double*,
                                            std::size_t, std::size_t);

  std::uint64_t state_[4];
  bool has_spare_ = false;
  double spare_ = 0.0;
};

}  // namespace mram::util
