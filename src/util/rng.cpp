#include "util/rng.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "util/error.h"
#include "util/zig_lanes.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#define MRAM_ZIG_X86 1
#else
#define MRAM_ZIG_X86 0
#endif

namespace mram::util {

namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t v, int k) {
  return (v << k) | (v >> (64 - k));
}

// --- ziggurat tables for normal_fill() --------------------------------------
//
// Marsaglia--Tsang ziggurat with 128 strips: ~97.5% of draws are one next(),
// one multiply and one compare. The strip edges x_i and ordinates
// f_i = exp(-x_i^2/2) are committed as exact hex literals (generated once
// with the recurrence below) so the sampler does not depend on the build
// machine's libm at setup time:
//
//   r = 3.442619855899, V = 9.91256303526217e-3 (tail cut and strip area)
//   x_0 = V / f(r), x_1 = r, x_128 = 0,
//   x_i = sqrt(-2 ln(V / x_{i-1} + f(x_{i-1})))        for i = 2..127.
//
// Only the rare wedge/tail paths (~2.5%) call std::exp / std::log.

constexpr int kZigStrips = 128;
constexpr double kZigR = 3.442619855899;

constexpr double kZigX[kZigStrips + 1] = {
    0x1.db4668fe7e4a4p+1,    0x1.b8a7c476d2be8p+1,
    0x1.9c8e0c7c8098fp+1,    0x1.8aa73e440ffbcp+1,
    0x1.7d45eb36eb842p+1,    0x1.7279dd4ac3f9dp+1,
    0x1.695c2be68edc9p+1,    0x1.616dff7c8f54ap+1,
    0x1.5a61edf7e8f32p+1,    0x1.54052012a04a4p+1,
    0x1.4e3456b0e3a1bp+1,    0x1.48d61806d601p+1,
    0x1.43d75b60bca1dp+1,    0x1.3f29848d3b416p+1,
    0x1.3ac11b8e206d6p+1,    0x1.3694f3a3740d9p+1,
    0x1.329d9725e32f7p+1,    0x1.2ed4df8099571p+1,
    0x1.2b35aa5ebee3ep+1,    0x1.27bba2b5dbc92p+1,
    0x1.246317a6b53cp+1,    0x1.2128dd36bdf09p+1,
    0x1.1e0a342cf08f6p+1,    0x1.1b04b731f6bccp+1,
    0x1.18164be0c1c39p+1,    0x1.153d16d45743dp+1,
    0x1.12777201834f3p+1,    0x1.0fc3e4d95f278p+1,
    0x1.0d211dd28b00fp+1,    0x1.0a8ded0ec371ap+1,
    0x1.08093fe3e40e1p+1,    0x1.05921d1c4d769p+1,
    0x1.0327a1cc4cf5ep+1,    0x1.00c8fea1720d4p+1,
    0x1.fceaeb2ca5f17p+0,    0x1.f858aff31cbfp+0,
    0x1.f3da097460823p+0,    0x1.ef6dcddc7d392p+0,
    0x1.eb12e91486bbcp+0,    0x1.e6c85a849b015p+0,
    0x1.e28d331c6723cp+0,    0x1.de609397e09b9p+0,
    0x1.da41aaf79a344p+0,    0x1.d62fb52580b86p+0,
    0x1.d229f9bfeefdbp+0,    0x1.ce2fcb05f8c34p+0,
    0x1.ca4084e091e34p+0,    0x1.c65b8c04dbac2p+0,
    0x1.c2804d2c6b16fp+0,    0x1.beae3c60cd0e4p+0,
    0x1.bae4d457ee119p+0,    0x1.b72395df5b73bp+0,
    0x1.b36a075498d64p+0,    0x1.afb7b428fe7a1p+0,
    0x1.ac0c2c6fc6382p+0,    0x1.a867047516e4fp+0,
    0x1.a4c7d45d01a31p+0,    0x1.a12e37c983369p+0,
    0x1.9d99cd86b58b4p+0,    0x1.9a0a373c73f21p+0,
    0x1.967f1924c7b06p+0,    0x1.92f819c682bf5p+0,
    0x1.8f74e1b37c6b8p+0,    0x1.8bf51b49ef337p+0,
    0x1.88787278810a6p+0,    0x1.84fe9484873b9p+0,
    0x1.81872fd21db73p+0,    0x1.7e11f3adaeb92p+0,
    0x1.7a9e90168b8eep+0,    0x1.772cb58a39dd6p+0,
    0x1.73bc14d01a2c9p+0,    0x1.704c5ec50cb81p+0,
    0x1.6cdd4426b88a5p+0,    0x1.696e755e16b84p+0,
    0x1.65ffa248e016dp+0,    0x1.62907a0176ebfp+0,
    0x1.5f20aaa4dfc1ap+0,    0x1.5bafe11654817p+0,
    0x1.583dc8bff3219p+0,    0x1.54ca0b4ffd349p+0,
    0x1.515450720f455p+0,    0x1.4ddc3d83a5b84p+0,
    0x1.4a617543306ccp+0,    0x1.46e39778de063p+0,
    0x1.436240982ad9dp+0,    0x1.3fdd09591d2a4p+0,
    0x1.3c538647ef792p+0,    0x1.38c54749b9033p+0,
    0x1.3531d7146a43ep+0,    0x1.3198ba982d911p+0,
    0x1.2df97057e7efbp+0,    0x1.2a536fae30e33p+0,
    0x1.26a627fb9d12p+0,    0x1.22f0ffbaa1e55p+0,
    0x1.1f335374a10f8p+0,    0x1.1b6c7492c9735p+0,
    0x1.179ba80463fecp+0,    0x1.13c024b2c7ec6p+0,
    0x1.0fd911b97f236p+0,    0x1.0be58456ff4aep+0,
    0x1.07e47d87a40f6p+0,    0x1.03d4e7391c5b7p+0,
    0x1.ff6b21fffe31ap-1,    0x1.f70a5866c8f46p-1,
    0x1.ee848e956826fp-1,    0x1.e5d6909f51b6ap-1,
    0x1.dcfccc51c59fp-1,    0x1.d3f340dda611cp-1,
    0x1.cab56ac6a38d3p-1,    0x1.c13e2b014e85cp-1,
    0x1.b787a7c516f3bp-1,    0x1.ad8b2506a137cp-1,
    0x1.a340d1baf5b18p-1,    0x1.989f85c753b2cp-1,
    0x1.8d9c6a9d35e3dp-1,    0x1.822a858af0e7dp-1,
    0x1.763a1600eec74p-1,    0x1.69b7b213f3f69p-1,
    0x1.5c8afdbf0217bp-1,    0x1.4e94c08c0bab7p-1,
    0x1.3fabee1911cd7p-1,    0x1.2f98d6bb4f41fp-1,
    0x1.1e0ce6b5969b3p-1,    0x1.0a936da5e55adp-1,
    0x1.e8e576e43fbefp-2,    0x1.b4c8fece48e83p-2,
    0x1.73949184db9dfp-2,    0x1.16db47e193e1ap-2,
    0x0p+0,
};
constexpr double kZigF[kZigStrips + 1] = {
    0x1.09e80c5ba8b5bp-10,    0x1.5de9e33726f2p-9,
    0x1.6ba8b0ffb627ep-8,    0x1.1a9b6b3fc1937p-7,
    0x1.83f4bed19339ap-7,    0x1.f100847645165p-7,
    0x1.309cee4e09981p-6,    0x1.6a23fa9d5f276p-6,
    0x1.a4f57a25d9cbdp-6,    0x1.e0f951d57e236p-6,
    0x1.0f0e539c89b76p-5,    0x1.2e282b724adacp-5,
    0x1.4dc3fcbd99702p-5,    0x1.6ddc9dd1fe248p-5,
    0x1.8e6db483bc1bbp-5,    0x1.af738c17a5016p-5,
    0x1.d0eaf63395868p-5,    0x1.f2d13368bd127p-5,
    0x1.0a91f09183c33p-4,    0x1.1bf075c20a9fep-4,
    0x1.2d8341133a33bp-4,    0x1.3f4987896ad6ap-4,
    0x1.514297b239a5bp-4,    0x1.636dd69e8c211p-4,
    0x1.75cabd60e5dbbp-4,    0x1.8858d6f54ff3p-4,
    0x1.9b17be7e63eebp-4,    0x1.ae071dc7af28fp-4,
    0x1.c126ac011775fp-4,    0x1.d4762ca983a5ap-4,
    0x1.e7f56ea105fbcp-4,    0x1.fba44b5c4de8bp-4,
    0x1.07c1531a2b49bp-3,    0x1.11c835e71b728p-3,
    0x1.1be6c8cbda96fp-3,    0x1.261d0aaaebe72p-3,
    0x1.306afe6193144p-3,    0x1.3ad0aa9dd7fa4p-3,
    0x1.454e19baa0e72p-3,    0x1.4fe359a138234p-3,
    0x1.5a907baface5fp-3,    0x1.655594a396d54p-3,
    0x1.7032bc88d676ap-3,    0x1.7b280eabfd4b9p-3,
    0x1.8635a99016373p-3,    0x1.915baee792bfp-3,
    0x1.9c9a43902c0f3p-3,    0x1.a7f18f918fb5cp-3,
    0x1.b361be1eb801cp-3,    0x1.beeafd99d710fp-3,
    0x1.ca8d7f9ac2021p-3,    0x1.d64978f7cf9d6p-3,
    0x1.e21f21d12332ep-3,    0x1.ee0eb59e61862p-3,
    0x1.fa18733ed2789p-3,    0x1.031e4e85fb6a1p-2,
    0x1.093dbc774f1ap-2,    0x1.0f6aa83b46cf7p-2,
    0x1.15a5387a66034p-2,    0x1.1bed95cc5751fp-2,
    0x1.2243eac7e2068p-2,    0x1.28a864146107ep-2,
    0x1.2f1b307ccfe9ap-2,    0x1.359c810485cb7p-2,
    0x1.3c2c88fdb8ddp-2,    0x1.42cb7e21e8c52p-2,
    0x1.497998ac51ea1p-2,    0x1.503713768fb3fp-2,
    0x1.57042c17986d6p-2,    0x1.5de12305426e6p-2,
    0x1.64ce3bb887d89p-2,    0x1.6bcbbcd4c4723p-2,
    0x1.72d9f05230366p-2,    0x1.79f923abe1175p-2,
    0x1.8129a811a7651p-2,    0x1.886bd29e22628p-2,
    0x1.8fbffc917614cp-2,    0x1.97268391186b6p-2,
    0x1.9e9fc9ed3ad0ap-2,    0x1.a62c36ec664dap-2,
    0x1.adcc371df4166p-2,    0x1.b5803cb422f1dp-2,
    0x1.bd48bfe6a41dfp-2,    0x1.c5263f5e989cp-2,
    0x1.cd1940ad1b14p-2,    0x1.d52250cd9b948p-2,
    0x1.dd4204b58297ep-2,    0x1.e578f9f2c936cp-2,
    0x1.edc7d75b77106p-2,    0x1.f62f4dd04549dp-2,
    0x1.feb0191503b06p-2,    0x1.03a58060e667cp-1,
    0x1.08006ca84ddep-1,    0x1.0c6942a5bbca5p-1,
    0x1.10e07b5015e52p-1,    0x1.1566980fb8bacp-1,
    0x1.19fc239747fabp-1,    0x1.1ea1b2d9efcb5p-1,
    0x1.2357e62428f89p-1,    0x1.281f6a5d2446ap-1,
    0x1.2cf8fa78591b5p-1,    0x1.31e5612065cfcp-1,
    0x1.36e57aa698262p-1,    0x1.3bfa374538788p-1,
    0x1.41249dc646445p-1,    0x1.4665cea500fb2p-1,
    0x1.4bbf07c6c217dp-1,    0x1.5131a8efe6179p-1,
    0x1.56bf39249a236p-1,    0x1.5c696d348e881p-1,
    0x1.62322fc593a59p-1,    0x1.681bab4ebdc18p-1,
    0x1.6e2856a006c14p-1,    0x1.745b04d027f1cp-1,
    0x1.7ab6f9c656c14p-1,    0x1.814005219cc6ep-1,
    0x1.87faa61a739e6p-1,    0x1.8eec3c5bbfb34p-1,
    0x1.961b4c1afe57ap-1,    0x1.9d8fdfaec7beap-1,
    0x1.a55418110d29fp-1,    0x1.ad750b7255a18p-1,
    0x1.b6042cf903cb5p-1,    0x1.bf19b6810e602p-1,
    0x1.c8d923f9e066ep-1,    0x1.d37a74ffb7e3fp-1,
    0x1.df6071934c096p-1,    0x1.ed5cf060d53bbp-1,
    0x1p+0,
};

static_assert(kZigX[1] == kZigR);

}  // namespace

void Rng::reseed(std::uint64_t seed) {
  std::uint64_t s = seed;
  for (auto& word : state_) word = splitmix64(s);
  has_spare_ = false;
}

std::uint64_t Rng::next() {
  const std::uint64_t result = rotl(state_[0] + state_[3], 23) + state_[0];
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

double Rng::uniform() {
  // 53 random mantissa bits -> uniform in [0, 1).
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  MRAM_EXPECTS(lo <= hi, "uniform(lo, hi) requires lo <= hi");
  return lo + (hi - lo) * uniform();
}

double Rng::normal() {
  if (has_spare_) {
    has_spare_ = false;
    return spare_;
  }
  double u, v, s;
  do {
    u = uniform(-1.0, 1.0);
    v = uniform(-1.0, 1.0);
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double factor = std::sqrt(-2.0 * std::log(s) / s);
  spare_ = v * factor;
  has_spare_ = true;
  return u * factor;
}

double Rng::normal(double mean, double sigma) {
  MRAM_EXPECTS(sigma >= 0.0, "normal() requires sigma >= 0");
  return mean + sigma * normal();
}

namespace {

// The sign comes from bit 7 via a branch-free bit-OR into the IEEE sign
// bit (a 50/50 sign *branch* would mispredict half the time and dominate
// the whole sampler).
inline double zig_signed_by_bit7(double magnitude, std::uint64_t b) {
  return std::bit_cast<double>(std::bit_cast<std::uint64_t>(magnitude) |
                               ((b & 0x80ULL) << 56));
}

}  // namespace

double Rng::zig_fallback(std::uint64_t b) {
  for (;;) {
    const int i = static_cast<int>(b & 0x7F);
    const double au = static_cast<double>(b >> 11) * 0x1.0p-53;  // [0, 1)
    const double x = au * kZigX[i];
    if (x < kZigX[i + 1]) return zig_signed_by_bit7(x, b);
    if (i == 0) {
      // Tail beyond r: Marsaglia's exact exponential-rejection sampler.
      double xt, yt;
      do {
        double u1, u2;
        do {
          u1 = uniform();
        } while (u1 == 0.0);
        do {
          u2 = uniform();
        } while (u2 == 0.0);
        xt = -std::log(u1) / kZigR;
        yt = -std::log(u2);
      } while (yt + yt < xt * xt);
      return zig_signed_by_bit7(kZigR + xt, b);
    }
    // Wedge between the strip rectangle and the density.
    const double y = kZigF[i] + uniform() * (kZigF[i + 1] - kZigF[i]);
    if (y < std::exp(-0.5 * x * x)) return zig_signed_by_bit7(x, b);
    b = next();
  }
}

void Rng::normal_fill(double* out, std::size_t n) {
  // Ziggurat (Marsaglia & Tsang 2000): one 64-bit draw yields disjoint
  // fields -- bits 0..6 the strip index, bit 7 the sign, bits 11..63 the
  // 53-bit magnitude -- so the frequent path (~97.5%) costs one next(), one
  // multiply and one compare, about 2.5x cheaper per value than normal()'s
  // polar method. Deliberately NOT the same value stream as normal():
  // normal() keeps the legacy cached-spare polar sampler bit-for-bit
  // because the committed golden CSVs (and every seeded variation ensemble)
  // depend on its exact draws. normal_fill is the sampler for bulk
  // consumers -- the scalar and batched stochastic-LLG thermal fields both
  // draw through it, which is what keeps those two paths bit-identical to
  // each other. Self-consistency contract: one fill of n values equals any
  // split sequence of smaller fills on the same engine (no hidden state).
  for (std::size_t k = 0; k < n; ++k) out[k] = zig_draw();
}

double Rng::zig_draw() {
  const std::uint64_t b = next();
  const int i = static_cast<int>(b & 0x7F);
  const double au = static_cast<double>(b >> 11) * 0x1.0p-53;  // [0, 1)
  const double x = au * kZigX[i];
  return (x < kZigX[i + 1]) ? zig_signed_by_bit7(x, b) : zig_fallback(b);
}

void Rng::normal_fill_pair(Rng& a, Rng& b, double* out_a, double* out_b,
                           std::size_t n) {
  // Lockstep interleave of two independent engines. Each engine's draw
  // sequence (including fallback consumption) is exactly its solo
  // normal_fill sequence; only the instruction-level interleaving differs.
  for (std::size_t k = 0; k < n; ++k) {
    const std::uint64_t ba = a.next();
    const std::uint64_t bb = b.next();
    const int ia = static_cast<int>(ba & 0x7F);
    const int ib = static_cast<int>(bb & 0x7F);
    const double aua = static_cast<double>(ba >> 11) * 0x1.0p-53;
    const double aub = static_cast<double>(bb >> 11) * 0x1.0p-53;
    const double xa = aua * kZigX[ia];
    const double xb = aub * kZigX[ib];
    out_a[k] = (xa < kZigX[ia + 1]) ? zig_signed_by_bit7(xa, ba)
                                    : a.zig_fallback(ba);
    out_b[k] = (xb < kZigX[ib + 1]) ? zig_signed_by_bit7(xb, bb)
                                    : b.zig_fallback(bb);
  }
}

void Rng::normal_fill_tilted(double* out, std::size_t n, const double* tilt,
                             std::size_t period) {
  MRAM_EXPECTS(period > 0, "normal_fill_tilted requires period > 0");
  // Draw first, shift second: the raw stream must match normal_fill exactly
  // so tilted and untilted runs consume identical engine state and a zero
  // tilt degenerates to normal_fill bitwise.
  normal_fill(out, n);
  std::size_t c = 0;
  for (std::size_t k = 0; k < n; ++k) {
    out[k] += tilt[c];
    if (++c == period) c = 0;
  }
}

// --- lane-parallel ziggurat (normal_fill_lanes) ------------------------------

namespace {

/// Lanes of one normal_fill_lanes group: two 8 x u64 AVX-512 register sets.
constexpr std::size_t kZigGroupLanes = 16;

/// Transposed engine states of one lane group. Lanes past the group's
/// width stay zero: an all-zero xoshiro state stays zero, and those lanes
/// are masked out of every store.
struct ZigLanes {
  alignas(64) std::uint64_t s[4][kZigGroupLanes];
};

/// Finishes a strip-0 tail draw b on the scalar engine whose state words
/// are s[0..4), advancing them as zig_fallback does.
using ZigTailFn = double (*)(std::uint64_t* s, std::uint64_t b);

/// Vector kernel of one ISA: draws rows [0, n) of the lanes in `valid`
/// into out[row * ld + l] and returns the lane draws finished by scalar
/// code (tails and wedge-band decisions).
using ZigRowsFn = std::size_t (*)(ZigLanes& z, std::uint32_t valid,
                                  std::size_t n, double* out, std::size_t ld,
                                  ZigTailFn tail);

// The lane kernels' exp, on t in [-r^2/2, 0] only: t = k ln2 + f with
// k = round(t log2 e) in [-9, 0] and |f| <= ln2 / 2, exp(t) = 2^k p(f),
// p the degree-7 Taylor polynomial (truncation below 1e-8 relative), in
// Estrin's scheme for a short dependency chain. ln2 is split Cody-Waite
// style (fdlibm's ln2_hi has 32 significant bits), so k * ln2_hi and
// t - k * ln2_hi are exact. Its accuracy only sets how often the wedge
// test needs std::exp (detail::kZigWedgeBand), never the decision itself.
constexpr double kExpLog2e = 0x1.71547652b82fep+0;
constexpr double kExpLn2Hi = 0x1.62e42feep-1;
constexpr double kExpLn2Lo = 0x1.a39ef35793c76p-33;
constexpr double kExpTaylor[8] = {
    1.0,       1.0,       1.0 / 2,    1.0 / 6,
    1.0 / 24,  1.0 / 120, 1.0 / 720,  1.0 / 5040,
};
constexpr double kWedgeBelow = 1.0 - detail::kZigWedgeBand;
constexpr double kWedgeAbove = 1.0 + detail::kZigWedgeBand;

/// Scalar side of the wedge band: the decision zig_fallback makes, with
/// t = -0.5 * x * x computed by the vector code in the same IEEE steps.
inline bool zig_wedge_exact(double y, double t) { return y < std::exp(t); }

#if MRAM_ZIG_X86

// Both kernels replay Rng::next() and zig_fallback operation for
// operation: integer ops are exact, the 53-bit magnitudes convert to
// double exactly, and x = au * x_i, y = f_i + u * (f_{i+1} - f_i) and
// t = (-0.5 * x) * x are the scalar code's own IEEE multiplies and adds
// (the build disables FMA contraction; FMA appears only inside the exp
// approximations, which decide nothing on their own).
//
// Row loop. Every lane draws one output per row step, unmasked: for a lane
// settled at row j it is row j+1's draw, for a lane whose row j draw the
// strip test rejected (pending) it is exactly the wedge uniform that
// zig_fallback would draw next. So the branch into the pending lanes'
// catch-up tests a mask known one step early, and the catch-up reuses that
// output. It decides the wedge tests, then draws each pending lane's next
// output under a mask that does not wait on the decision: row j+1's draw
// after an accept, the redraw of row j after a reject. Accepted redraws
// draw row j+1 once more; rejected ones (rare) run the full loop of
// zig_resolve. Tails (strip 0 past r) go to the scalar engine as soon as
// their draw is seen, so a pending lane is never a tail.

// GCC 12 flags the _mm512_undefined_* placeholders inside its own
// AVX-512 intrinsic headers as (maybe-)uninitialized once they inline here.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#pragma GCC diagnostic ignored "-Wuninitialized"
#endif

#define MRAM_ZIG_512 \
  inline __attribute__((target("avx512f,avx512dq"), always_inline))

/// One xoshiro256++ step of every lane; returns the lanes' outputs.
MRAM_ZIG_512 __m512i zig_next512(__m512i& s0, __m512i& s1, __m512i& s2,
                                 __m512i& s3) {
  const __m512i r =
      _mm512_add_epi64(_mm512_rol_epi64(_mm512_add_epi64(s0, s3), 23), s0);
  const __m512i t = _mm512_slli_epi64(s1, 17);
  const __m512i n2 = _mm512_xor_si512(s2, s0);
  const __m512i n3 = _mm512_xor_si512(s3, s1);
  s1 = _mm512_xor_si512(s1, n2);
  s0 = _mm512_xor_si512(s0, n3);
  s2 = _mm512_xor_si512(n2, t);
  s3 = _mm512_rol_epi64(n3, 45);
  return r;
}

/// The same step, advancing only the lanes in m.
MRAM_ZIG_512 __m512i zig_next512(__m512i& s0, __m512i& s1, __m512i& s2,
                                 __m512i& s3, __mmask8 m) {
  const __m512i r =
      _mm512_add_epi64(_mm512_rol_epi64(_mm512_add_epi64(s0, s3), 23), s0);
  const __m512i t = _mm512_slli_epi64(s1, 17);
  const __m512i n2 = _mm512_xor_si512(s2, s0);
  const __m512i n3 = _mm512_xor_si512(s3, s1);
  s1 = _mm512_mask_xor_epi64(s1, m, s1, n2);
  s0 = _mm512_mask_xor_epi64(s0, m, s0, n3);
  s2 = _mm512_mask_xor_epi64(s2, m, n2, t);
  s3 = _mm512_mask_rol_epi64(s3, m, n3, 45);
  return r;
}

/// Bits 11..63 of draws r as doubles in [0, 1): uniform()'s formula.
MRAM_ZIG_512 __m512d zig_unit512(__m512i r) {
  return _mm512_mul_pd(_mm512_cvtepu64_pd(_mm512_srli_epi64(r, 11)),
                       _mm512_set1_pd(0x1.0p-53));
}

/// table[idx] and table[idx + 1] in the lanes of m. With at most one lane
/// in m (`single`), two broadcast loads replace the two gathers.
MRAM_ZIG_512 void zig_lookup512(const double* table, __m512i idx, __mmask8 m,
                                bool single, __m512d& lo, __m512d& hi) {
  if (single) {
    const auto i = static_cast<std::size_t>(_mm_cvtsi128_si64(
        _mm512_castsi512_si128(_mm512_maskz_compress_epi64(m, idx))));
    lo = _mm512_set1_pd(table[i]);
    hi = _mm512_set1_pd(table[i + 1]);
  } else {
    lo = _mm512_i64gather_pd(idx, table, 8);
    hi = _mm512_i64gather_pd(idx, table + 1, 8);
  }
}

/// Strip test of draws r in the lanes of m: strip idx, x = au * x_i, and
/// the lanes where x < x_{i+1} (zig_draw's fast path) as the result.
MRAM_ZIG_512 __mmask8 zig_strip512(__m512i r, __mmask8 m, bool single,
                                   __m512i& idx, __m512d& x) {
  idx = _mm512_and_si512(r, _mm512_set1_epi64(0x7F));
  __m512d xi, edge;
  zig_lookup512(kZigX, idx, m, single, xi, edge);
  x = _mm512_mul_pd(zig_unit512(r), xi);
  return _mm512_mask_cmp_pd_mask(m, x, edge, _CMP_LT_OQ);
}

/// x with the sign of bit 7 of r (zig_signed_by_bit7).
MRAM_ZIG_512 __m512d zig_signed512(__m512d x, __m512i r) {
  return _mm512_castsi512_pd(_mm512_or_si512(
      _mm512_castpd_si512(x),
      _mm512_slli_epi64(_mm512_and_si512(r, _mm512_set1_epi64(0x80)), 56)));
}

MRAM_ZIG_512 __m512d zig_taylor512(int j) {
  return _mm512_set1_pd(kExpTaylor[j]);
}

MRAM_ZIG_512 __m512d zig_exp512(__m512d t) {
  const __m512d k = _mm512_roundscale_pd(
      _mm512_mul_pd(t, _mm512_set1_pd(kExpLog2e)),
      _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  const __m512d f = _mm512_fnmadd_pd(
      k, _mm512_set1_pd(kExpLn2Lo),
      _mm512_fnmadd_pd(k, _mm512_set1_pd(kExpLn2Hi), t));
  const __m512d f2 = _mm512_mul_pd(f, f);
  const __m512d p01 = _mm512_fmadd_pd(zig_taylor512(1), f, zig_taylor512(0));
  const __m512d p23 = _mm512_fmadd_pd(zig_taylor512(3), f, zig_taylor512(2));
  const __m512d p45 = _mm512_fmadd_pd(zig_taylor512(5), f, zig_taylor512(4));
  const __m512d p67 = _mm512_fmadd_pd(zig_taylor512(7), f, zig_taylor512(6));
  const __m512d p03 = _mm512_fmadd_pd(p23, f2, p01);
  const __m512d p47 = _mm512_fmadd_pd(p67, f2, p45);
  const __m512d p = _mm512_fmadd_pd(p47, _mm512_mul_pd(f2, f2), p03);
  return _mm512_scalef_pd(p, k);
}

/// Wedge test y < exp(-0.5 * x * x) of the lanes in m, on the vector exp
/// outside the band and on std::exp inside it (counted in `scalar`).
/// Returns the accepted lanes.
MRAM_ZIG_512 __mmask8 zig_wedge512(__m512d x, __m512d y, __mmask8 m,
                                   std::size_t& scalar) {
  const __m512d t = _mm512_mul_pd(_mm512_mul_pd(_mm512_set1_pd(-0.5), x), x);
  const __m512d e = zig_exp512(t);
  __mmask8 acc = _mm512_mask_cmp_pd_mask(
      m, y, _mm512_mul_pd(e, _mm512_set1_pd(kWedgeBelow)), _CMP_LT_OQ);
  const __mmask8 band = _mm512_mask_cmp_pd_mask(
      static_cast<__mmask8>(m & ~acc), y,
      _mm512_mul_pd(e, _mm512_set1_pd(kWedgeAbove)), _CMP_LE_OQ);
  if (__builtin_expect(band != 0, 0)) {
    alignas(64) double tv[8], yv[8];
    _mm512_store_pd(tv, t);
    _mm512_store_pd(yv, y);
    for (unsigned b = band; b != 0; b &= b - 1) {
      const int l = std::countr_zero(b);
      if (zig_wedge_exact(yv[l], tv[l])) acc |= static_cast<__mmask8>(1u << l);
      ++scalar;
    }
  }
  return acc;
}

/// Wedge test of the lanes in m (strip idx, magnitude x) with uniforms
/// from their draws ru.
MRAM_ZIG_512 __mmask8 zig_wedge_of512(__m512i ru, __m512i idx, __m512d x,
                                      __mmask8 m, bool single,
                                      std::size_t& scalar) {
  __m512d f0, f1;
  zig_lookup512(kZigF, idx, m, single, f0, f1);
  const __m512d y =
      _mm512_add_pd(f0, _mm512_mul_pd(zig_unit512(ru), _mm512_sub_pd(f1, f0)));
  return zig_wedge512(x, y, m, scalar);
}

/// Runs the tail draws r of the lanes in m on the scalar engine, one lane
/// at a time: its state words come out of the registers, `tail` advances
/// them, and they go back in. The other lanes are not touched.
MRAM_ZIG_512 void zig_tails512(__m512i& s0, __m512i& s1, __m512i& s2,
                               __m512i& s3, __mmask8 m, __m512i r, double* o,
                               ZigTailFn tail) {
  for (unsigned b = m; b != 0; b &= b - 1) {
    const int l = std::countr_zero(b);
    const __mmask8 lane = static_cast<__mmask8>(1u << l);
    alignas(64) std::uint64_t w[4][8] = {}, draw[8] = {};
    _mm512_mask_store_epi64(w[0], lane, s0);
    _mm512_mask_store_epi64(w[1], lane, s1);
    _mm512_mask_store_epi64(w[2], lane, s2);
    _mm512_mask_store_epi64(w[3], lane, s3);
    _mm512_mask_store_epi64(draw, lane, r);
    std::uint64_t st[4] = {w[0][l], w[1][l], w[2][l], w[3][l]};
    o[l] = tail(st, draw[l]);
    s0 = _mm512_mask_set1_epi64(s0, lane, static_cast<long long>(st[0]));
    s1 = _mm512_mask_set1_epi64(s1, lane, static_cast<long long>(st[1]));
    s2 = _mm512_mask_set1_epi64(s2, lane, static_cast<long long>(st[2]));
    s3 = _mm512_mask_set1_epi64(s3, lane, static_cast<long long>(st[3]));
  }
}

/// Finishes the tails among the strip-rejected lanes in pend (draws r,
/// strips idx) and returns the rest.
MRAM_ZIG_512 __mmask8 zig_drop_tails512(__m512i& s0, __m512i& s1, __m512i& s2,
                                        __m512i& s3, __mmask8 pend, __m512i r,
                                        __m512i idx, double* o, ZigTailFn tail,
                                        std::size_t& scalar) {
  const __mmask8 tails =
      _mm512_mask_cmpeq_epi64_mask(pend, idx, _mm512_setzero_si512());
  if (__builtin_expect(tails != 0, 0)) {
    zig_tails512(s0, s1, s2, s3, tails, r, o, tail);
    scalar += static_cast<std::size_t>(std::popcount(tails));
  }
  return static_cast<__mmask8>(pend & ~tails);
}

/// Completes the draws of the lanes in `pend` the way zig_fallback does,
/// drawing their wedge uniforms from their own streams: strip test r
/// (strip idx, magnitude x) rejected; tails go to the scalar engine, wedge
/// lanes are decided, wedge rejections redraw and retest, until every lane
/// has stored its value in o. Returns the lane draws finished by scalar
/// code.
MRAM_ZIG_512 std::size_t zig_resolve512(__m512i& s0, __m512i& s1,
                                        __m512i& s2, __m512i& s3,
                                        __mmask8 pend, __m512i r, __m512i idx,
                                        __m512d x, double* o, ZigTailFn tail) {
  std::size_t scalar = 0;
  for (;;) {
    pend = zig_drop_tails512(s0, s1, s2, s3, pend, r, idx, o, tail, scalar);
    if (pend == 0) break;
    const __m512i ru = zig_next512(s0, s1, s2, s3, pend);
    const __mmask8 wedge = zig_wedge_of512(ru, idx, x, pend, false, scalar);
    _mm512_mask_storeu_pd(o, wedge, zig_signed512(x, r));
    pend = static_cast<__mmask8>(pend & ~wedge);
    r = zig_next512(s0, s1, s2, s3, pend);
    const __mmask8 strip = zig_strip512(r, pend, false, idx, x);
    _mm512_mask_storeu_pd(o, strip, zig_signed512(x, r));
    pend = static_cast<__mmask8>(pend & ~strip);
  }
  return scalar;
}

/// Draws the next output of the lanes in m as their row draw: stores the
/// accepted ones in o, adds the rejected ones to pend, and puts their draw
/// and strip data into (r, idx, x).
MRAM_ZIG_512 void zig_redraw512(__m512i& s0, __m512i& s1, __m512i& s2,
                                __m512i& s3, __mmask8 m, bool single,
                                double* o, __m512i& r, __m512i& idx,
                                __m512d& x, __mmask8& pend) {
  __m512i idx2;
  __m512d x2;
  const __m512i r2 = zig_next512(s0, s1, s2, s3, m);
  const __mmask8 acc = zig_strip512(r2, m, single, idx2, x2);
  _mm512_mask_storeu_pd(o, acc, zig_signed512(x2, r2));
  pend |= static_cast<__mmask8>(m & ~acc);
  r = _mm512_mask_mov_epi64(r, m, r2);
  idx = _mm512_mask_mov_epi64(idx, m, idx2);
  x = _mm512_mask_mov_pd(x, m, x2);
}

/// The catch-up of the row loop (see above) for the lanes pending at row
/// j (draws r, strips idx, magnitudes x), whose next outputs are in rn:
/// stores their row j values in o and their row j+1 values in o1, and
/// merges those left pending at row j+1 into (rn, idxn, xn, pendn).
MRAM_ZIG_512 std::size_t zig_catch_up512(
    __m512i& s0, __m512i& s1, __m512i& s2, __m512i& s3, __mmask8 pend,
    __m512i r, __m512i idx, __m512d x, __m512i& rn, __m512i& idxn,
    __m512d& xn, __mmask8& pendn, double* o, double* o1, ZigTailFn tail) {
  std::size_t scalar = 0;
  const bool single = (pend & (pend - 1)) == 0;
  const __mmask8 wedge = zig_wedge_of512(rn, idx, x, pend, single, scalar);
  _mm512_mask_storeu_pd(o, wedge, zig_signed512(x, r));
  const __mmask8 redraw = static_cast<__mmask8>(pend & ~wedge);
  __m512i idx2;
  __m512d x2;
  const __m512i r2 = zig_next512(s0, s1, s2, s3, pend);
  const __mmask8 acc = zig_strip512(r2, pend, single, idx2, x2);
  const __m512d v2 = zig_signed512(x2, r2);
  _mm512_mask_storeu_pd(o, acc & redraw, v2);
  _mm512_mask_storeu_pd(o1, acc & wedge, v2);
  pendn |= static_cast<__mmask8>(wedge & ~acc);
  rn = _mm512_mask_mov_epi64(rn, wedge, r2);
  idxn = _mm512_mask_mov_epi64(idxn, wedge, idx2);
  xn = _mm512_mask_mov_pd(xn, wedge, x2);
  zig_redraw512(s0, s1, s2, s3, static_cast<__mmask8>(redraw & acc), single,
                o1, rn, idxn, xn, pendn);
  const __mmask8 left = static_cast<__mmask8>(redraw & ~acc);
  if (__builtin_expect(left != 0, 0)) {
    scalar += zig_resolve512(s0, s1, s2, s3, left, r2, idx2, x2, o, tail);
    zig_redraw512(s0, s1, s2, s3, left, false, o1, rn, idxn, xn, pendn);
  }
  return scalar;
}

template <int G>
__attribute__((target("avx512f,avx512dq"))) std::size_t zig_rows_avx512(
    ZigLanes& z, std::uint32_t valid, std::size_t n, double* out,
    std::size_t ld, ZigTailFn tail) {
  // Per group: engine states, and the current row's draws, strips,
  // magnitudes and pending lanes. Unrolled loops keep them in registers.
  __m512i s0[G], s1[G], s2[G], s3[G], r[G], idx[G];
  __m512d x[G];
  __mmask8 k[G], pend[G];
  std::size_t scalar = 0;
#pragma GCC unroll 4
  for (int g = 0; g < G; ++g) {
    r[g] = idx[g] = _mm512_setzero_si512();
    x[g] = _mm512_setzero_pd();
    s0[g] = _mm512_load_si512(z.s[0] + 8 * g);
    s1[g] = _mm512_load_si512(z.s[1] + 8 * g);
    s2[g] = _mm512_load_si512(z.s[2] + 8 * g);
    s3[g] = _mm512_load_si512(z.s[3] + 8 * g);
    k[g] = static_cast<__mmask8>(valid >> (8 * g));
    pend[g] = 0;
    zig_redraw512(s0[g], s1[g], s2[g], s3[g], k[g], false, out + 8 * g, r[g],
                  idx[g], x[g], pend[g]);
    pend[g] = zig_drop_tails512(s0[g], s1[g], s2[g], s3[g], pend[g], r[g],
                                idx[g], out + 8 * g, tail, scalar);
  }
  for (std::size_t row = 0; row + 1 < n; ++row) {
    double* o = out + row * ld;
#pragma GCC unroll 4
    for (int g = 0; g < G; ++g) {
      __m512i rn = zig_next512(s0[g], s1[g], s2[g], s3[g]);
      __m512i idxn;
      __m512d xn;
      const __mmask8 settled = static_cast<__mmask8>(k[g] & ~pend[g]);
      const __mmask8 acc = zig_strip512(rn, settled, false, idxn, xn);
      _mm512_mask_storeu_pd(o + ld + 8 * g, acc, zig_signed512(xn, rn));
      __mmask8 pendn = static_cast<__mmask8>(settled & ~acc);
      if (__builtin_expect(pend[g] != 0, 0)) {
        scalar += zig_catch_up512(s0[g], s1[g], s2[g], s3[g], pend[g], r[g],
                                  idx[g], x[g], rn, idxn, xn, pendn,
                                  o + 8 * g, o + ld + 8 * g, tail);
      }
      pend[g] = zig_drop_tails512(s0[g], s1[g], s2[g], s3[g], pendn, rn, idxn,
                                  o + ld + 8 * g, tail, scalar);
      r[g] = rn;
      idx[g] = idxn;
      x[g] = xn;
    }
  }
#pragma GCC unroll 4
  for (int g = 0; g < G; ++g) {
    if (pend[g] != 0) {
      scalar += zig_resolve512(s0[g], s1[g], s2[g], s3[g], pend[g], r[g],
                               idx[g], x[g], out + (n - 1) * ld + 8 * g, tail);
    }
    _mm512_store_si512(z.s[0] + 8 * g, s0[g]);
    _mm512_store_si512(z.s[1] + 8 * g, s1[g]);
    _mm512_store_si512(z.s[2] + 8 * g, s2[g]);
    _mm512_store_si512(z.s[3] + 8 * g, s3[g]);
  }
  return scalar;
}

__attribute__((target("avx512f,avx512dq"))) void zig_exp_block512(
    const double* t, double* e) {
  _mm512_storeu_pd(e, zig_exp512(_mm512_loadu_pd(t)));
}

__attribute__((target("avx512f,avx512dq"))) std::size_t zig_wedge_block512(
    const double* x, const double* y, std::uint32_t m, std::uint32_t& acc) {
  std::size_t scalar = 0;
  acc = zig_wedge512(_mm512_loadu_pd(x), _mm512_loadu_pd(y),
                     static_cast<__mmask8>(m), scalar);
  return scalar;
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

// The AVX2 kernel: the same steps on 4 lanes, with lane masks kept as bits
// (bit l for lane l) and widened to all-ones lanes where an instruction
// needs a vector mask.

#define MRAM_ZIG_256 inline __attribute__((target("avx2"), always_inline))

MRAM_ZIG_256 __m256i zig_rotl256(__m256i v, int k) {
  return _mm256_or_si256(_mm256_slli_epi64(v, k),
                         _mm256_srli_epi64(v, 64 - k));
}

/// All-ones 64-bit lanes for the bits set in m (bit l -> lane l).
MRAM_ZIG_256 __m256i zig_lanes256(unsigned m) {
  const __m256i lane_bit = _mm256_set_epi64x(8, 4, 2, 1);
  return _mm256_cmpeq_epi64(
      _mm256_and_si256(_mm256_set1_epi64x(m & 0xF), lane_bit), lane_bit);
}

/// Bit l set for every all-ones lane l of v.
MRAM_ZIG_256 unsigned zig_bits256(__m256i v) {
  return static_cast<unsigned>(_mm256_movemask_pd(_mm256_castsi256_pd(v)));
}

MRAM_ZIG_256 unsigned zig_bits256(__m256d v) {
  return static_cast<unsigned>(_mm256_movemask_pd(v));
}

/// One xoshiro256++ step of every lane; returns the lanes' outputs.
MRAM_ZIG_256 __m256i zig_next256(__m256i& s0, __m256i& s1, __m256i& s2,
                                 __m256i& s3) {
  const __m256i r = _mm256_add_epi64(
      zig_rotl256(_mm256_add_epi64(s0, s3), 23), s0);
  const __m256i t = _mm256_slli_epi64(s1, 17);
  const __m256i n2 = _mm256_xor_si256(s2, s0);
  const __m256i n3 = _mm256_xor_si256(s3, s1);
  s1 = _mm256_xor_si256(s1, n2);
  s0 = _mm256_xor_si256(s0, n3);
  s2 = _mm256_xor_si256(n2, t);
  s3 = zig_rotl256(n3, 45);
  return r;
}

/// The same step, advancing only the lanes in m.
MRAM_ZIG_256 __m256i zig_next256(__m256i& s0, __m256i& s1, __m256i& s2,
                                 __m256i& s3, unsigned m) {
  const __m256i lanes = zig_lanes256(m);
  __m256i n0 = s0, n1 = s1, n2 = s2, n3 = s3;
  const __m256i r = zig_next256(n0, n1, n2, n3);
  s0 = _mm256_blendv_epi8(s0, n0, lanes);
  s1 = _mm256_blendv_epi8(s1, n1, lanes);
  s2 = _mm256_blendv_epi8(s2, n2, lanes);
  s3 = _mm256_blendv_epi8(s3, n3, lanes);
  return r;
}

/// Bits 11..63 of draws r as doubles in [0, 1): uniform()'s formula. Each
/// 32-bit half of the 53-bit magnitude is OR-ed into the mantissa of 2^52
/// and the bias subtracted; hi * 2^32 + lo is exactly representable, so
/// the sum rounds exactly.
MRAM_ZIG_256 __m256d zig_unit256(__m256i r) {
  const __m256i magic = _mm256_set1_epi64x(0x4330000000000000LL);
  const __m256d two52 = _mm256_set1_pd(0x1.0p52);
  const __m256i mag = _mm256_srli_epi64(r, 11);
  const __m256d lo = _mm256_sub_pd(
      _mm256_castsi256_pd(_mm256_or_si256(
          _mm256_and_si256(mag, _mm256_set1_epi64x(0xFFFFFFFF)), magic)),
      two52);
  const __m256d hi = _mm256_sub_pd(
      _mm256_castsi256_pd(_mm256_or_si256(_mm256_srli_epi64(mag, 32), magic)),
      two52);
  return _mm256_mul_pd(
      _mm256_add_pd(_mm256_mul_pd(hi, _mm256_set1_pd(0x1.0p32)), lo),
      _mm256_set1_pd(0x1.0p-53));
}

/// zig_lookup512 on 4 lanes.
MRAM_ZIG_256 void zig_lookup256(const double* table, __m256i idx, unsigned m,
                                bool single, __m256d& lo, __m256d& hi) {
  if (single) {
    alignas(32) std::int64_t iv[4];
    _mm256_store_si256(reinterpret_cast<__m256i*>(iv), idx);
    const auto i = static_cast<std::size_t>(iv[std::countr_zero(m) & 3]);
    lo = _mm256_set1_pd(table[i]);
    hi = _mm256_set1_pd(table[i + 1]);
  } else {
    lo = _mm256_i64gather_pd(table, idx, 8);
    hi = _mm256_i64gather_pd(table + 1, idx, 8);
  }
}

/// zig_strip512 on 4 lanes.
MRAM_ZIG_256 unsigned zig_strip256(__m256i r, unsigned m, bool single,
                                   __m256i& idx, __m256d& x) {
  idx = _mm256_and_si256(r, _mm256_set1_epi64x(0x7F));
  __m256d xi, edge;
  zig_lookup256(kZigX, idx, m, single, xi, edge);
  x = _mm256_mul_pd(zig_unit256(r), xi);
  return m & zig_bits256(_mm256_cmp_pd(x, edge, _CMP_LT_OQ));
}

/// Stores lanes m of v at o.
MRAM_ZIG_256 void zig_store256(double* o, unsigned m, __m256d v) {
  _mm256_maskstore_pd(o, zig_lanes256(m), v);
}

/// x with the sign of bit 7 of r (zig_signed_by_bit7).
MRAM_ZIG_256 __m256d zig_signed256(__m256d x, __m256i r) {
  return _mm256_castsi256_pd(_mm256_or_si256(
      _mm256_castpd_si256(x),
      _mm256_slli_epi64(_mm256_and_si256(r, _mm256_set1_epi64x(0x80)), 56)));
}

MRAM_ZIG_256 __m256d zig_taylor256(int j) {
  return _mm256_set1_pd(kExpTaylor[j]);
}

/// a * b + d in two roundings.
MRAM_ZIG_256 __m256d zig_madd256(__m256d a, __m256d b, __m256d d) {
  return _mm256_add_pd(_mm256_mul_pd(a, b), d);
}

/// zig_exp512 without FMA (AVX2 alone does not imply it): the same
/// reduction and polynomial, 2^k built in the exponent field.
MRAM_ZIG_256 __m256d zig_exp256(__m256d t) {
  const __m256d k =
      _mm256_round_pd(_mm256_mul_pd(t, _mm256_set1_pd(kExpLog2e)),
                      _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  const __m256d f = _mm256_sub_pd(
      _mm256_sub_pd(t, _mm256_mul_pd(k, _mm256_set1_pd(kExpLn2Hi))),
      _mm256_mul_pd(k, _mm256_set1_pd(kExpLn2Lo)));
  const __m256d f2 = _mm256_mul_pd(f, f);
  const __m256d p01 = zig_madd256(zig_taylor256(1), f, zig_taylor256(0));
  const __m256d p23 = zig_madd256(zig_taylor256(3), f, zig_taylor256(2));
  const __m256d p45 = zig_madd256(zig_taylor256(5), f, zig_taylor256(4));
  const __m256d p67 = zig_madd256(zig_taylor256(7), f, zig_taylor256(6));
  const __m256d p03 = zig_madd256(p23, f2, p01);
  const __m256d p47 = zig_madd256(p67, f2, p45);
  const __m256d p = zig_madd256(p47, _mm256_mul_pd(f2, f2), p03);
  const __m256i biased = _mm256_add_epi64(
      _mm256_cvtepi32_epi64(_mm256_cvtpd_epi32(k)), _mm256_set1_epi64x(1023));
  return _mm256_mul_pd(p, _mm256_castsi256_pd(_mm256_slli_epi64(biased, 52)));
}

/// zig_wedge512 on 4 lanes.
MRAM_ZIG_256 unsigned zig_wedge256(__m256d x, __m256d y, unsigned m,
                                   std::size_t& scalar) {
  const __m256d t = _mm256_mul_pd(_mm256_mul_pd(_mm256_set1_pd(-0.5), x), x);
  const __m256d e = zig_exp256(t);
  unsigned acc = m & zig_bits256(_mm256_cmp_pd(
                         y, _mm256_mul_pd(e, _mm256_set1_pd(kWedgeBelow)),
                         _CMP_LT_OQ));
  const unsigned band =
      m & ~acc &
      zig_bits256(_mm256_cmp_pd(
          y, _mm256_mul_pd(e, _mm256_set1_pd(kWedgeAbove)), _CMP_LE_OQ));
  if (__builtin_expect(band != 0, 0)) {
    alignas(32) double tv[4], yv[4];
    _mm256_store_pd(tv, t);
    _mm256_store_pd(yv, y);
    for (unsigned b = band; b != 0; b &= b - 1) {
      const int l = std::countr_zero(b);
      if (zig_wedge_exact(yv[l], tv[l])) acc |= 1u << l;
      ++scalar;
    }
  }
  return acc;
}

/// zig_wedge_of512 on 4 lanes.
MRAM_ZIG_256 unsigned zig_wedge_of256(__m256i ru, __m256i idx, __m256d x,
                                      unsigned m, bool single,
                                      std::size_t& scalar) {
  __m256d f0, f1;
  zig_lookup256(kZigF, idx, m, single, f0, f1);
  const __m256d y =
      _mm256_add_pd(f0, _mm256_mul_pd(zig_unit256(ru), _mm256_sub_pd(f1, f0)));
  return zig_wedge256(x, y, m, scalar);
}

/// zig_tails512 on 4 lanes.
MRAM_ZIG_256 void zig_tails256(__m256i& s0, __m256i& s1, __m256i& s2,
                               __m256i& s3, unsigned m, __m256i r, double* o,
                               ZigTailFn tail) {
  for (unsigned b = m; b != 0; b &= b - 1) {
    const int l = std::countr_zero(b);
    const __m256i lane = zig_lanes256(1u << l);
    alignas(32) long long w[4][4] = {}, draw[4] = {};
    _mm256_maskstore_epi64(w[0], lane, s0);
    _mm256_maskstore_epi64(w[1], lane, s1);
    _mm256_maskstore_epi64(w[2], lane, s2);
    _mm256_maskstore_epi64(w[3], lane, s3);
    _mm256_maskstore_epi64(draw, lane, r);
    std::uint64_t st[4];
    for (int j = 0; j < 4; ++j) st[j] = static_cast<std::uint64_t>(w[j][l]);
    o[l] = tail(st, static_cast<std::uint64_t>(draw[l]));
    for (int j = 0; j < 4; ++j) w[j][l] = static_cast<long long>(st[j]);
    s0 = _mm256_blendv_epi8(s0, _mm256_set1_epi64x(w[0][l]), lane);
    s1 = _mm256_blendv_epi8(s1, _mm256_set1_epi64x(w[1][l]), lane);
    s2 = _mm256_blendv_epi8(s2, _mm256_set1_epi64x(w[2][l]), lane);
    s3 = _mm256_blendv_epi8(s3, _mm256_set1_epi64x(w[3][l]), lane);
  }
}

/// zig_drop_tails512 on 4 lanes.
MRAM_ZIG_256 unsigned zig_drop_tails256(__m256i& s0, __m256i& s1, __m256i& s2,
                                        __m256i& s3, unsigned pend, __m256i r,
                                        __m256i idx, double* o, ZigTailFn tail,
                                        std::size_t& scalar) {
  const unsigned tails =
      pend & zig_bits256(_mm256_cmpeq_epi64(idx, _mm256_setzero_si256()));
  if (__builtin_expect(tails != 0, 0)) {
    zig_tails256(s0, s1, s2, s3, tails, r, o, tail);
    scalar += static_cast<std::size_t>(std::popcount(tails));
  }
  return pend & ~tails;
}

/// zig_resolve512 on 4 lanes.
MRAM_ZIG_256 std::size_t zig_resolve256(__m256i& s0, __m256i& s1,
                                        __m256i& s2, __m256i& s3,
                                        unsigned pend, __m256i r, __m256i idx,
                                        __m256d x, double* o, ZigTailFn tail) {
  std::size_t scalar = 0;
  for (;;) {
    pend = zig_drop_tails256(s0, s1, s2, s3, pend, r, idx, o, tail, scalar);
    if (pend == 0) break;
    const __m256i ru = zig_next256(s0, s1, s2, s3, pend);
    const unsigned wedge = zig_wedge_of256(ru, idx, x, pend, false, scalar);
    zig_store256(o, wedge, zig_signed256(x, r));
    pend &= ~wedge;
    r = zig_next256(s0, s1, s2, s3, pend);
    const unsigned strip = zig_strip256(r, pend, false, idx, x);
    zig_store256(o, strip, zig_signed256(x, r));
    pend &= ~strip;
  }
  return scalar;
}

/// zig_redraw512 on 4 lanes.
MRAM_ZIG_256 void zig_redraw256(__m256i& s0, __m256i& s1, __m256i& s2,
                                __m256i& s3, unsigned m, bool single,
                                double* o, __m256i& r, __m256i& idx,
                                __m256d& x, unsigned& pend) {
  __m256i idx2;
  __m256d x2;
  const __m256i r2 = zig_next256(s0, s1, s2, s3, m);
  const unsigned acc = zig_strip256(r2, m, single, idx2, x2);
  zig_store256(o, acc, zig_signed256(x2, r2));
  pend |= m & ~acc;
  const __m256i lanes = zig_lanes256(m);
  r = _mm256_blendv_epi8(r, r2, lanes);
  idx = _mm256_blendv_epi8(idx, idx2, lanes);
  x = _mm256_blendv_pd(x, x2, _mm256_castsi256_pd(lanes));
}

/// zig_catch_up512 on 4 lanes.
MRAM_ZIG_256 std::size_t zig_catch_up256(
    __m256i& s0, __m256i& s1, __m256i& s2, __m256i& s3, unsigned pend,
    __m256i r, __m256i idx, __m256d x, __m256i& rn, __m256i& idxn,
    __m256d& xn, unsigned& pendn, double* o, double* o1, ZigTailFn tail) {
  std::size_t scalar = 0;
  const bool single = (pend & (pend - 1)) == 0;
  const unsigned wedge = zig_wedge_of256(rn, idx, x, pend, single, scalar);
  zig_store256(o, wedge, zig_signed256(x, r));
  const unsigned redraw = pend & ~wedge;
  __m256i idx2;
  __m256d x2;
  const __m256i r2 = zig_next256(s0, s1, s2, s3, pend);
  const unsigned acc = zig_strip256(r2, pend, single, idx2, x2);
  const __m256d v2 = zig_signed256(x2, r2);
  zig_store256(o, acc & redraw, v2);
  zig_store256(o1, acc & wedge, v2);
  pendn |= wedge & ~acc;
  const __m256i lanes = zig_lanes256(wedge);
  rn = _mm256_blendv_epi8(rn, r2, lanes);
  idxn = _mm256_blendv_epi8(idxn, idx2, lanes);
  xn = _mm256_blendv_pd(xn, x2, _mm256_castsi256_pd(lanes));
  zig_redraw256(s0, s1, s2, s3, redraw & acc, single, o1, rn, idxn, xn, pendn);
  const unsigned left = redraw & ~acc;
  if (__builtin_expect(left != 0, 0)) {
    scalar += zig_resolve256(s0, s1, s2, s3, left, r2, idx2, x2, o, tail);
    zig_redraw256(s0, s1, s2, s3, left, false, o1, rn, idxn, xn, pendn);
  }
  return scalar;
}

template <int G>
__attribute__((target("avx2"))) std::size_t zig_rows_avx2(
    ZigLanes& z, std::uint32_t valid, std::size_t n, double* out,
    std::size_t ld, ZigTailFn tail) {
  __m256i s0[G], s1[G], s2[G], s3[G], r[G], idx[G];
  __m256d x[G];
  unsigned k[G], pend[G];
  std::size_t scalar = 0;
#pragma GCC unroll 4
  for (int g = 0; g < G; ++g) {
    r[g] = idx[g] = _mm256_setzero_si256();
    x[g] = _mm256_setzero_pd();
    s0[g] = _mm256_load_si256(reinterpret_cast<const __m256i*>(z.s[0] + 4 * g));
    s1[g] = _mm256_load_si256(reinterpret_cast<const __m256i*>(z.s[1] + 4 * g));
    s2[g] = _mm256_load_si256(reinterpret_cast<const __m256i*>(z.s[2] + 4 * g));
    s3[g] = _mm256_load_si256(reinterpret_cast<const __m256i*>(z.s[3] + 4 * g));
    k[g] = (valid >> (4 * g)) & 0xFu;
    pend[g] = 0;
    zig_redraw256(s0[g], s1[g], s2[g], s3[g], k[g], false, out + 4 * g, r[g],
                  idx[g], x[g], pend[g]);
    pend[g] = zig_drop_tails256(s0[g], s1[g], s2[g], s3[g], pend[g], r[g],
                                idx[g], out + 4 * g, tail, scalar);
  }
  for (std::size_t row = 0; row + 1 < n; ++row) {
    double* o = out + row * ld;
#pragma GCC unroll 4
    for (int g = 0; g < G; ++g) {
      __m256i rn = zig_next256(s0[g], s1[g], s2[g], s3[g]);
      __m256i idxn;
      __m256d xn;
      const unsigned settled = k[g] & ~pend[g];
      const unsigned acc = zig_strip256(rn, settled, false, idxn, xn);
      zig_store256(o + ld + 4 * g, acc, zig_signed256(xn, rn));
      unsigned pendn = settled & ~acc;
      if (__builtin_expect(pend[g] != 0, 0)) {
        scalar += zig_catch_up256(s0[g], s1[g], s2[g], s3[g], pend[g], r[g],
                                  idx[g], x[g], rn, idxn, xn, pendn,
                                  o + 4 * g, o + ld + 4 * g, tail);
      }
      pend[g] = zig_drop_tails256(s0[g], s1[g], s2[g], s3[g], pendn, rn, idxn,
                                  o + ld + 4 * g, tail, scalar);
      r[g] = rn;
      idx[g] = idxn;
      x[g] = xn;
    }
  }
#pragma GCC unroll 4
  for (int g = 0; g < G; ++g) {
    if (pend[g] != 0) {
      scalar += zig_resolve256(s0[g], s1[g], s2[g], s3[g], pend[g], r[g],
                               idx[g], x[g], out + (n - 1) * ld + 4 * g, tail);
    }
    _mm256_store_si256(reinterpret_cast<__m256i*>(z.s[0] + 4 * g), s0[g]);
    _mm256_store_si256(reinterpret_cast<__m256i*>(z.s[1] + 4 * g), s1[g]);
    _mm256_store_si256(reinterpret_cast<__m256i*>(z.s[2] + 4 * g), s2[g]);
    _mm256_store_si256(reinterpret_cast<__m256i*>(z.s[3] + 4 * g), s3[g]);
  }
  return scalar;
}

__attribute__((target("avx2"))) void zig_exp_block256(const double* t,
                                                      double* e) {
  _mm256_storeu_pd(e, zig_exp256(_mm256_loadu_pd(t)));
}

__attribute__((target("avx2"))) std::size_t zig_wedge_block256(
    const double* x, const double* y, std::uint32_t m, std::uint32_t& acc) {
  std::size_t scalar = 0;
  acc = zig_wedge256(_mm256_loadu_pd(x), _mm256_loadu_pd(y), m, scalar);
  return scalar;
}

ZigRowsFn zig_rows_fn(detail::ZigIsa isa, std::size_t lanes) {
  if (isa == detail::ZigIsa::kAvx512) {
    return lanes <= 8 ? zig_rows_avx512<1> : zig_rows_avx512<2>;
  }
  if (lanes <= 4) return zig_rows_avx2<1>;
  return lanes <= 8 ? zig_rows_avx2<2> : zig_rows_avx2<4>;
}

#endif

/// Runs a test seam's per-block vector function over n values in blocks of
/// the ISA's width; the last block is zero-padded.
template <class Block>
void zig_blocks(detail::ZigIsa isa, std::size_t n, Block&& block) {
  MRAM_EXPECTS(isa != detail::ZigIsa::kScalar && isa <= detail::zig_isa(),
               "the lane-ziggurat seams need a vector ISA this CPU runs");
  const std::size_t width = isa == detail::ZigIsa::kAvx512 ? 8 : 4;
  for (std::size_t k = 0; k < n; k += width) {
    block(k, std::min(width, n - k));
  }
}

}  // namespace

namespace detail {

ZigIsa zig_isa() {
#if MRAM_ZIG_X86
  static const ZigIsa isa = [] {
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx512f") &&
        __builtin_cpu_supports("avx512dq")) {
      return ZigIsa::kAvx512;
    }
    return __builtin_cpu_supports("avx2") ? ZigIsa::kAvx2 : ZigIsa::kScalar;
  }();
  return isa;
#else
  return ZigIsa::kScalar;
#endif
}

std::size_t zig_fill_lanes(ZigIsa isa, Rng* rngs, std::size_t lanes,
                           double* out, std::size_t ld, std::size_t n) {
  if (lanes == 0 || n == 0) return 0;
  MRAM_EXPECTS(n == 1 || ld >= lanes,
               "normal_fill_lanes needs a row stride of at least `lanes`");
  MRAM_EXPECTS(isa <= zig_isa(), "normal_fill_lanes ISA not supported here");
  if (isa == ZigIsa::kScalar || lanes == 1) {
    for (std::size_t l = 0; l < lanes; ++l) {
      for (std::size_t k = 0; k < n; ++k) out[k * ld + l] = rngs[l].zig_draw();
    }
    return lanes * n;
  }
#if MRAM_ZIG_X86
  const ZigTailFn tail = [](std::uint64_t* s, std::uint64_t b) {
    Rng e(0);
    std::copy(s, s + 4, e.state_);
    const double v = e.zig_fallback(b);
    std::copy(e.state_, e.state_ + 4, s);
    return v;
  };
  std::size_t scalar = 0;
  for (std::size_t base = 0; base < lanes; base += kZigGroupLanes) {
    const std::size_t m = std::min(kZigGroupLanes, lanes - base);
    Rng* group = rngs + base;
    ZigLanes z{};
    for (std::size_t l = 0; l < m; ++l) {
      for (int w = 0; w < 4; ++w) z.s[w][l] = group[l].state_[w];
    }
    scalar += zig_rows_fn(isa, m)(z, (1u << m) - 1u, n, out + base, ld, tail);
    for (std::size_t l = 0; l < m; ++l) {
      for (int w = 0; w < 4; ++w) group[l].state_[w] = z.s[w][l];
    }
  }
  return scalar;
#else
  return 0;
#endif
}

void zig_exp(ZigIsa isa, const double* t, double* out, std::size_t n) {
  zig_blocks(isa, n, [&](std::size_t k, std::size_t m) {
    double tv[8] = {}, ev[8];
    std::copy(t + k, t + k + m, tv);
#if MRAM_ZIG_X86
    if (isa == ZigIsa::kAvx512) {
      zig_exp_block512(tv, ev);
    } else {
      zig_exp_block256(tv, ev);
    }
#endif
    std::copy(ev, ev + m, out + k);
  });
}

std::size_t zig_wedge_accept(ZigIsa isa, const double* x, const double* y,
                             std::size_t n, bool* accept) {
  std::size_t scalar = 0;
  zig_blocks(isa, n, [&](std::size_t k, std::size_t m) {
    double xv[8] = {}, yv[8] = {};
    std::copy(x + k, x + k + m, xv);
    std::copy(y + k, y + k + m, yv);
    std::uint32_t acc = 0;
#if MRAM_ZIG_X86
    const std::uint32_t lanes = (1u << m) - 1u;
    scalar += isa == ZigIsa::kAvx512
                  ? zig_wedge_block512(xv, yv, lanes, acc)
                  : zig_wedge_block256(xv, yv, lanes, acc);
#endif
    for (std::size_t j = 0; j < m; ++j) accept[k + j] = (acc >> j) & 1u;
  });
  return scalar;
}

}  // namespace detail

std::size_t Rng::normal_fill_lanes(Rng* rngs, std::size_t lanes, double* out,
                                   std::size_t ld, std::size_t n) {
  return detail::zig_fill_lanes(detail::zig_isa(), rngs, lanes, out, ld, n);
}

std::uint64_t Rng::below(std::uint64_t n) {
  MRAM_EXPECTS(n > 0, "below(n) requires n > 0");
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = max() - max() % n;
  std::uint64_t v;
  do {
    v = next();
  } while (v >= limit);
  return v % n;
}

bool Rng::bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform() < p;
}

Rng Rng::split() { return Rng(next()); }

Rng Rng::stream(std::uint64_t seed, std::uint64_t index) {
  // Two rounds of splitmix64 over a golden-ratio combination of seed and
  // index decorrelate neighboring indices; reseed() then expands the result
  // into the four xoshiro state words with a third round.
  std::uint64_t x = seed ^ (0x9e3779b97f4a7c15ULL * (index + 1));
  const std::uint64_t a = splitmix64(x);
  const std::uint64_t b = splitmix64(x);
  return Rng(a ^ rotl(b, 32));
}

}  // namespace mram::util
