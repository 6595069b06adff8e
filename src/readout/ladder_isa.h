#pragma once

// The SIMD versions of the read-path kernels, exposed for tests: the
// bitline ladder solve behind BitlinePath::port and the lane noise margin
// behind ReadErrorModel::noise_margin. Run each version this CPU has
// against its scalar oracle. Not for other callers; use BitlinePath::port
// and ReadErrorModel::noise_margin.

#include <cstddef>

#include "readout/bitline.h"
#include "readout/read_error.h"

namespace mram::rdo::detail {

/// Versions of the kernels, in order of width: baseline (SSE2 on x86-64,
/// 2 lanes), AVX2 (4 lanes), AVX-512F (8 lanes). All return the same bits.
enum class LadderIsa : int { kBaseline, kAvx2, kAvx512 };

/// The widest version this CPU runs (the one the library uses).
LadderIsa ladder_isa();

/// Double lanes of one vector at version `isa`.
constexpr std::size_t isa_lanes(LadderIsa isa) {
  return std::size_t{2} << static_cast<int>(isa);
}

// ladder_port(path, isa, row, v_read, column_data), declared in
// readout/bitline.h: BitlinePath::port on a given version. Precondition:
// isa <= ladder_isa().

/// ReadErrorModel::noise_margin on a given version. Returns the sweeps of
/// the AP fixed point, summed over the groups of isa_lanes(isa) reads it
/// runs (each group sweeps until its slowest read converges); 0 for stored
/// P. Precondition: isa <= ladder_isa().
std::size_t margin_lanes(const ReadErrorModel& model, LadderIsa isa,
                         const ReadErrorModel::OperatingPoint& op,
                         dev::MtjState stored, std::size_t n, const double* z,
                         std::size_t ld, double* out);

}  // namespace mram::rdo::detail
