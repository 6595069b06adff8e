#pragma once

#include "numerics/vec3.h"

// Circular bound-current loop -- the paper's elementary stray-field source
// (Sec. IV-A): a uniformly magnetized thin ferromagnetic layer is equivalent
// to a loop carrying the bound current Ib = Ms * t around its edge.
//
// Two evaluators are provided:
//   * loop_field_biot_savart -- the paper's method: the loop is cut into N
//     straight segments and the Biot--Savart contributions are summed.
//   * loop_field_exact       -- closed form via complete elliptic integrals
//     (valid for any field point off the wire). This is the ground truth the
//     discretization converges to (see scenario abl_segments) and the fast
//     path used by the array solvers.
//
// Note on units: the paper's Eq. (1) carries a mu0/(4*pi) prefactor, which
// produces B in tesla. We consistently return the H-field in A/m, i.e. the
// prefactor is 1/(4*pi); convert with util::a_per_m_to_oe for paper units.

namespace mram::mag {

/// A circular loop in a plane parallel to x-y.
/// `current` > 0 flows counterclockwise seen from +z, giving a magnetic
/// moment of current * pi * radius^2 along +z.
struct CurrentLoop {
  num::Vec3 center;     ///< loop center [m]
  double radius = 0.0;  ///< loop radius [m], must be > 0
  double current = 0.0; ///< bound current Ib = Ms*t [A], sign = moment sign
};

/// H-field [A/m] at point `p` by summing `segments` straight Biot--Savart
/// segments (the paper's discretization). Precondition: segments >= 3.
num::Vec3 loop_field_biot_savart(const CurrentLoop& loop, const num::Vec3& p,
                                 int segments);

/// Exact H-field [A/m] at point `p` via complete elliptic integrals.
/// Precondition: `p` does not lie on the wire itself.
num::Vec3 loop_field_exact(const CurrentLoop& loop, const num::Vec3& p);

/// On-axis closed form Hz = I R^2 / (2 (R^2 + z^2)^(3/2)); used in tests and
/// for fast center-of-FL evaluations.
double loop_field_on_axis(const CurrentLoop& loop, double z_from_center);

/// Magnetic moment of the loop [A*m^2], along +z for positive current.
double loop_moment(const CurrentLoop& loop);

}  // namespace mram::mag
