#pragma once

// The SIMD versions of the bitline ladder solve behind BitlinePath::port,
// exposed for tests: run each version this CPU has against the dense
// oracle. Not for other callers; use BitlinePath::port.

#include "readout/bitline.h"

namespace mram::rdo::detail {

/// Versions of the ladder solve, in order of width: baseline (SSE2 on
/// x86-64, 2 lanes), AVX2 (4 lanes), AVX-512F (8 lanes). All return the
/// same bits.
enum class LadderIsa : int { kBaseline, kAvx2, kAvx512 };

/// The widest version this CPU runs (the one BitlinePath::port uses).
LadderIsa ladder_isa();

// ladder_port(path, isa, row, v_read, column_data), declared in
// readout/bitline.h: BitlinePath::port on a given version. Precondition:
// isa <= ladder_isa().

}  // namespace mram::rdo::detail
