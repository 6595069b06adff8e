#include "util/rng.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "util/error.h"

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

/// Transposed engine states of one lane group, and the draws whose strip
/// test rejected, waiting for zig_fallback. Lanes past the group's width
/// stay zero: an all-zero xoshiro state stays zero, and those lanes are
/// masked out of every store.
struct ZigLanes {
  alignas(64) std::uint64_t s[4][kZigGroupLanes];
  alignas(64) std::uint64_t pend[kZigGroupLanes];
};

/// Vector fast path of one ISA. All lanes share the row cursor: from row
/// `row` on, every row draws one value per lane in `valid` and stores the
/// accepted ones at out[row * ld + l]. It stops after the first row in
/// which some lane rejected (those lanes go to `rejected`, their draws to
/// pend[]) or at row n, and returns the row it stopped at.
using ZigRowsFn = std::size_t (*)(ZigLanes& z, std::uint32_t valid,
                                  std::size_t row, std::size_t n, double* out,
                                  std::size_t ld, std::uint32_t& rejected);

enum class ZigIsa { kScalar, kAvx2, kAvx512 };

#if MRAM_ZIG_X86

// Both kernels replay Rng::next() and the zig_draw fast path operation for
// operation: integer ops are exact, the 53-bit magnitude converts to
// double exactly, and au * x_i is the same single IEEE multiply.

// GCC 12 flags the _mm512_undefined_* placeholders inside its own
// AVX-512 intrinsic headers as maybe-uninitialized once they inline here.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

template <int G>
__attribute__((target("avx512f,avx512dq"))) std::size_t zig_rows_avx512(
    ZigLanes& z, std::uint32_t valid, std::size_t row, std::size_t n,
    double* out, std::size_t ld, std::uint32_t& rejected) {
  __m512i s0[G], s1[G], s2[G], s3[G];
  __mmask8 k[G];
  for (int g = 0; g < G; ++g) {
    s0[g] = _mm512_load_si512(z.s[0] + 8 * g);
    s1[g] = _mm512_load_si512(z.s[1] + 8 * g);
    s2[g] = _mm512_load_si512(z.s[2] + 8 * g);
    s3[g] = _mm512_load_si512(z.s[3] + 8 * g);
    k[g] = static_cast<__mmask8>(valid >> (8 * g));
  }
  const __m512i strip = _mm512_set1_epi64(0x7F);
  const __m512i sign = _mm512_set1_epi64(0x80);
  const __m512d scale = _mm512_set1_pd(0x1.0p-53);
  std::uint32_t rej_all = 0;
  for (; row < n; ++row) {
    double* o = out + row * ld;
    for (int g = 0; g < G; ++g) {
      const __m512i r = _mm512_add_epi64(
          _mm512_rol_epi64(_mm512_add_epi64(s0[g], s3[g]), 23), s0[g]);
      const __m512i t = _mm512_slli_epi64(s1[g], 17);
      const __m512i n2 = _mm512_xor_si512(s2[g], s0[g]);
      const __m512i n3 = _mm512_xor_si512(s3[g], s1[g]);
      s1[g] = _mm512_xor_si512(s1[g], n2);
      s0[g] = _mm512_xor_si512(s0[g], n3);
      s2[g] = _mm512_xor_si512(n2, t);
      s3[g] = _mm512_rol_epi64(n3, 45);

      const __m512i idx = _mm512_and_si512(r, strip);
      const __m512d au = _mm512_mul_pd(
          _mm512_cvtepu64_pd(_mm512_srli_epi64(r, 11)), scale);
      const __m512d x =
          _mm512_mul_pd(au, _mm512_i64gather_pd(idx, kZigX, 8));
      const __m512d edge = _mm512_i64gather_pd(idx, kZigX + 1, 8);
      const __mmask8 acc = _mm512_mask_cmp_pd_mask(k[g], x, edge, _CMP_LT_OQ);
      const __m512d v = _mm512_castsi512_pd(_mm512_or_si512(
          _mm512_castpd_si512(x),
          _mm512_slli_epi64(_mm512_and_si512(r, sign), 56)));
      _mm512_mask_storeu_pd(o + 8 * g, acc, v);
      const __mmask8 rej = static_cast<__mmask8>(k[g] & ~acc);
      if (rej != 0) {
        _mm512_mask_storeu_epi64(z.pend + 8 * g, rej, r);
        rej_all |= static_cast<std::uint32_t>(rej) << (8 * g);
      }
    }
    if (rej_all != 0) break;
  }
  for (int g = 0; g < G; ++g) {
    _mm512_store_si512(z.s[0] + 8 * g, s0[g]);
    _mm512_store_si512(z.s[1] + 8 * g, s1[g]);
    _mm512_store_si512(z.s[2] + 8 * g, s2[g]);
    _mm512_store_si512(z.s[3] + 8 * g, s3[g]);
  }
  rejected = rej_all;
  return row;
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

__attribute__((target("avx2"))) inline __m256i rotl_avx2(__m256i v, int k) {
  return _mm256_or_si256(_mm256_slli_epi64(v, k),
                         _mm256_srli_epi64(v, 64 - k));
}

template <int G>
__attribute__((target("avx2"))) std::size_t zig_rows_avx2(
    ZigLanes& z, std::uint32_t valid, std::size_t row, std::size_t n,
    double* out, std::size_t ld, std::uint32_t& rejected) {
  __m256i s0[G], s1[G], s2[G], s3[G], k[G];
  const __m256i lane_bit = _mm256_set_epi64x(8, 4, 2, 1);
  for (int g = 0; g < G; ++g) {
    s0[g] = _mm256_load_si256(reinterpret_cast<const __m256i*>(z.s[0] + 4 * g));
    s1[g] = _mm256_load_si256(reinterpret_cast<const __m256i*>(z.s[1] + 4 * g));
    s2[g] = _mm256_load_si256(reinterpret_cast<const __m256i*>(z.s[2] + 4 * g));
    s3[g] = _mm256_load_si256(reinterpret_cast<const __m256i*>(z.s[3] + 4 * g));
    const __m256i bits = _mm256_set1_epi64x((valid >> (4 * g)) & 0xF);
    k[g] = _mm256_cmpeq_epi64(_mm256_and_si256(bits, lane_bit), lane_bit);
  }
  const __m256i strip = _mm256_set1_epi64x(0x7F);
  const __m256i sign = _mm256_set1_epi64x(0x80);
  const __m256i low32 = _mm256_set1_epi64x(0xFFFFFFFF);
  // Exact u64 -> double for the 53-bit magnitude: each 32-bit half is
  // OR-ed into the mantissa of 2^52 and the bias subtracted, and
  // hi * 2^32 + lo is exactly representable, so the sum rounds exactly.
  const __m256i magic = _mm256_set1_epi64x(0x4330000000000000LL);
  const __m256d two52 = _mm256_set1_pd(0x1.0p52);
  const __m256d two32 = _mm256_set1_pd(0x1.0p32);
  const __m256d scale = _mm256_set1_pd(0x1.0p-53);
  std::uint32_t rej_all = 0;
  for (; row < n; ++row) {
    double* o = out + row * ld;
    for (int g = 0; g < G; ++g) {
      const __m256i r = _mm256_add_epi64(
          rotl_avx2(_mm256_add_epi64(s0[g], s3[g]), 23), s0[g]);
      const __m256i t = _mm256_slli_epi64(s1[g], 17);
      const __m256i n2 = _mm256_xor_si256(s2[g], s0[g]);
      const __m256i n3 = _mm256_xor_si256(s3[g], s1[g]);
      s1[g] = _mm256_xor_si256(s1[g], n2);
      s0[g] = _mm256_xor_si256(s0[g], n3);
      s2[g] = _mm256_xor_si256(n2, t);
      s3[g] = rotl_avx2(n3, 45);

      const __m256i idx = _mm256_and_si256(r, strip);
      const __m256i mag = _mm256_srli_epi64(r, 11);
      const __m256d lo = _mm256_sub_pd(
          _mm256_castsi256_pd(
              _mm256_or_si256(_mm256_and_si256(mag, low32), magic)),
          two52);
      const __m256d hi = _mm256_sub_pd(
          _mm256_castsi256_pd(
              _mm256_or_si256(_mm256_srli_epi64(mag, 32), magic)),
          two52);
      const __m256d au =
          _mm256_mul_pd(_mm256_add_pd(_mm256_mul_pd(hi, two32), lo), scale);
      const __m256d x =
          _mm256_mul_pd(au, _mm256_i64gather_pd(kZigX, idx, 8));
      const __m256d edge = _mm256_i64gather_pd(kZigX + 1, idx, 8);
      const __m256i acc = _mm256_and_si256(
          _mm256_castpd_si256(_mm256_cmp_pd(x, edge, _CMP_LT_OQ)), k[g]);
      const __m256i v = _mm256_or_si256(
          _mm256_castpd_si256(x),
          _mm256_slli_epi64(_mm256_and_si256(r, sign), 56));
      _mm256_maskstore_pd(o + 4 * g, acc, _mm256_castsi256_pd(v));
      const __m256i rej = _mm256_andnot_si256(acc, k[g]);
      const int rbits = _mm256_movemask_pd(_mm256_castsi256_pd(rej));
      if (rbits != 0) {
        _mm256_maskstore_epi64(
            reinterpret_cast<long long*>(z.pend + 4 * g), rej, r);
        rej_all |= static_cast<std::uint32_t>(rbits) << (4 * g);
      }
    }
    if (rej_all != 0) break;
  }
  for (int g = 0; g < G; ++g) {
    _mm256_store_si256(reinterpret_cast<__m256i*>(z.s[0] + 4 * g), s0[g]);
    _mm256_store_si256(reinterpret_cast<__m256i*>(z.s[1] + 4 * g), s1[g]);
    _mm256_store_si256(reinterpret_cast<__m256i*>(z.s[2] + 4 * g), s2[g]);
    _mm256_store_si256(reinterpret_cast<__m256i*>(z.s[3] + 4 * g), s3[g]);
  }
  rejected = rej_all;
  return row;
}

ZigIsa zig_isa() {
  static const ZigIsa isa = [] {
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx512f") &&
        __builtin_cpu_supports("avx512dq")) {
      return ZigIsa::kAvx512;
    }
    return __builtin_cpu_supports("avx2") ? ZigIsa::kAvx2 : ZigIsa::kScalar;
  }();
  return isa;
}

ZigRowsFn zig_rows_fn(ZigIsa isa, std::size_t lanes) {
  if (isa == ZigIsa::kAvx512) {
    return lanes <= 8 ? zig_rows_avx512<1> : zig_rows_avx512<2>;
  }
  if (lanes <= 4) return zig_rows_avx2<1>;
  return lanes <= 8 ? zig_rows_avx2<2> : zig_rows_avx2<4>;
}

#else

ZigIsa zig_isa() { return ZigIsa::kScalar; }
ZigRowsFn zig_rows_fn(ZigIsa, std::size_t) { return nullptr; }

#endif

}  // namespace

void Rng::normal_fill_lanes(Rng* rngs, std::size_t lanes, double* out,
                            std::size_t ld, std::size_t n) {
  if (lanes == 0 || n == 0) return;
  MRAM_EXPECTS(n == 1 || ld >= lanes,
               "normal_fill_lanes needs a row stride of at least `lanes`");
  const ZigIsa isa = zig_isa();
  if (isa == ZigIsa::kScalar || lanes == 1) {
    for (std::size_t l = 0; l < lanes; ++l) {
      for (std::size_t k = 0; k < n; ++k) out[k * ld + l] = rngs[l].zig_draw();
    }
    return;
  }
  for (std::size_t base = 0; base < lanes; base += kZigGroupLanes) {
    const std::size_t m = std::min(kZigGroupLanes, lanes - base);
    Rng* group = rngs + base;
    double* o = out + base;
    ZigLanes z{};
    for (std::size_t l = 0; l < m; ++l) {
      for (int w = 0; w < 4; ++w) z.s[w][l] = group[l].state_[w];
    }
    const ZigRowsFn rows = zig_rows_fn(isa, m);
    const std::uint32_t valid = (1u << m) - 1u;
    std::size_t row = 0;
    while (true) {
      std::uint32_t rejected = 0;
      row = rows(z, valid, row, n, o, ld, rejected);
      if (rejected == 0) break;
      // The rejecting lanes finish this row's draw on the scalar engine
      // (wedge, tail and retry draws come from the same stream), so every
      // lane leaves the row with the same cursor.
      for (; rejected != 0; rejected &= rejected - 1) {
        const int l = std::countr_zero(rejected);
        Rng e = group[l];
        for (int w = 0; w < 4; ++w) e.state_[w] = z.s[w][l];
        o[row * ld + l] = e.zig_fallback(z.pend[l]);
        for (int w = 0; w < 4; ++w) z.s[w][l] = e.state_[w];
      }
      ++row;
    }
    for (std::size_t l = 0; l < m; ++l) {
      for (int w = 0; w < 4; ++w) group[l].state_[w] = z.s[w][l];
    }
  }
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
