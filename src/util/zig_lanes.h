#pragma once

// The lane kernels behind Rng::normal_fill_lanes, exposed for tests: pick a
// kernel, and check the vector wedge decision and the exp it rests on
// against the scalar sampler. Not for other callers; use
// Rng::normal_fill_lanes.

#include <cstddef>

#include "util/rng.h"

namespace mram::util::detail {

/// Kernels of Rng::normal_fill_lanes, in order of width.
enum class ZigIsa : int { kScalar, kAvx2, kAvx512 };

/// The widest kernel this CPU runs (the one normal_fill_lanes uses).
ZigIsa zig_isa();

// zig_fill_lanes(isa, rngs, lanes, out, ld, n), declared in util/rng.h:
// Rng::normal_fill_lanes on a given kernel. Precondition: isa <= zig_isa().

/// Relative half-width of the band around the vector exp inside which the
/// lane kernels' wedge test falls back to std::exp. A wedge draw y is
/// accepted when y < e * (1 - band) and rejected when y > e * (1 + band),
/// e the vector exp(-x^2/2); in between, y < std::exp(-x^2/2) decides,
/// exactly as zig_fallback does. So the decision is the scalar one while
/// the vector exp stays inside the band around std::exp; test_util
/// requires it within band / 4 over 10^8 arguments of [-r^2/2, 0].
inline constexpr double kZigWedgeBand = 0x1.0p-24;

/// The lane kernels' exp on t in [-r^2/2, 0] (r the ziggurat tail cut).
/// Precondition: kScalar < isa <= zig_isa().
void zig_exp(ZigIsa isa, const double* t, double* out, std::size_t n);

/// The lane kernels' wedge decision on n pairs: accept[k] is
/// y[k] < std::exp(-0.5 * x[k] * x[k]) for x[k] in [0, r). Returns how many
/// pairs fell inside the band and were decided with std::exp.
/// Precondition: kScalar < isa <= zig_isa().
std::size_t zig_wedge_accept(ZigIsa isa, const double* x, const double* y,
                             std::size_t n, bool* accept);

}  // namespace mram::util::detail
