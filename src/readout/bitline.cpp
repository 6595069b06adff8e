#include "readout/bitline.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "obs/metrics.h"
#include "readout/ladder_isa.h"
#include "util/error.h"

// The ladder solve is compiled once per x86-64 ISA level (AVX-512F, AVX2,
// and the SSE2 baseline) from one template at each level's native vector
// width, and port() runs the widest one the CPU has. One target_clones body
// cannot do this: GCC keeps a vector wider than the target on the stack (a
// 64-byte vector in an AVX2 clone ran 5x slower than in the AVX-512 one).
// Only independent entries share a vector, each entry keeps its scalar
// sequence of IEEE operations, and the build pins -ffp-contract=off, so
// every version returns the same bits (tests run each one against the dense
// oracle through readout/ladder_isa.h).
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define MRAM_LADDER_X86 1
#else
#define MRAM_LADDER_X86 0
#endif
#define MRAM_LADDER_INLINE inline __attribute__((always_inline))

namespace mram::rdo {

void BitlineParams::validate() const {
  if (r_driver <= 0.0 || r_sink <= 0.0) {
    throw util::ConfigError("driver and sink resistances must be positive");
  }
  if (r_bl_segment < 0.0 || r_sl_segment < 0.0) {
    throw util::ConfigError("segment resistances must be non-negative");
  }
  if (r_leak <= 0.0) throw util::ConfigError("leak resistance must be positive");
  if (rows == 0) throw util::ConfigError("a column needs at least one row");
}

BitlinePath::BitlinePath(const BitlineParams& params,
                         const dev::ElectricalModel& cell)
    : params_(params) {
  params_.validate();
  // Sneak-path drops across off cells are millivolts, so the zero-bias
  // resistances are accurate and keep the leak branches linear (the network
  // solve stays a single linear system).
  r_leak_p_ = params_.r_leak + cell.resistance(dev::MtjState::kParallel, 0.0);
  r_leak_ap_ =
      params_.r_leak + cell.resistance(dev::MtjState::kAntiParallel, 0.0);
}

double BitlinePath::series_resistance(std::size_t row) const {
  MRAM_EXPECTS(row < params_.rows, "row out of range");
  const double hops = static_cast<double>(row);
  return params_.r_driver + params_.r_sink +
         hops * (params_.r_bl_segment + params_.r_sl_segment);
}

namespace {

// Tiles and panels are kBlock = 8 columns wide: one AVX-512 vector, two
// AVX2 or four SSE2 vectors of W lanes. Every vector access is to a column
// offset that is a multiple of W in a row of stride `ld` (a multiple of
// kBlock), so with a 64-byte aligned workspace every access is aligned;
// may_alias makes the accesses through double* well-defined.
constexpr std::size_t kBlock = 8;

template <std::size_t W>
struct Simd {
  typedef double V __attribute__((vector_size(W * sizeof(double)), may_alias));
  static constexpr std::size_t kPerBlock = kBlock / W;
};

std::size_t round_up(std::size_t n) {
  return (n + kBlock - 1) / kBlock * kBlock;
}

/// The stamped ladder of one port() call, in the conductances the stamps
/// use.
struct Ladder {
  std::size_t n = 0;    ///< rows
  std::size_t row = 0;  ///< selected row
  double g_driver = 0.0, g_sink = 0.0, g_bl = 0.0, g_sl = 0.0;
  double v_read = 0.0;
  const double* leak = nullptr;  ///< 1/r_branch per row (unused at `row`)
};

/// Diagonal of bitline (`g_end` = driver) or source-line (`g_end` = sink)
/// node i, accumulated in the order the stamps add into it: the end
/// termination, the segment to i-1, the segment to i+1, the sneak branch.
MRAM_LADDER_INLINE double line_diagonal(const Ladder& l, std::size_t i,
                                        double g_end, double g_seg) {
  double d = 0.0;
  if (i == 0) d += g_end;
  if (i > 0) d += g_seg;
  if (i + 1 < l.n) d += g_seg;
  if (i != l.row) d += l.leak[i];
  return d;
}

/// The rung entry coupling bitline node i to source-line node i:
/// -1/r_branch, or +0 at the selected row, whose branch is the port.
MRAM_LADDER_INLINE double rung(const Ladder& l, std::size_t i) {
  return i == l.row ? 0.0 : 0.0 - l.leak[i];
}

/// s[r][c] -= lhs(r, q) * rhs[q][c] for q ascending, for rows [r_lo, r_hi)
/// and columns [c_lo, ld), with lhs(r, q) = lhs[r * lr + q * lq]. Tiles of
/// 4 rows x 8 columns stay in registers across the q loop; each entry still
/// receives its updates one by one in ascending q. With `triangular` the
/// q range of a tile starts at max(q_lo, r0, c0) instead of q_lo, skipping
/// terms where lhs(r, q) = +0 (q < r) or rhs[q][c] = +0 (q < c); the tile
/// that holds the right-hand-side columns (c >= n) keeps the full range.
template <std::size_t W>
MRAM_LADDER_INLINE void subtract_products(
    double* s, std::size_t ld, std::size_t n, std::size_t r_lo,
    std::size_t r_hi, std::size_t c_lo, const double* lhs, std::size_t lr,
    std::size_t lq, const double* rhs, std::size_t q_lo, std::size_t q_hi,
    bool triangular) {
  using V = typename Simd<W>::V;
  constexpr std::size_t P = Simd<W>::kPerBlock;
  constexpr std::size_t R = 4;
  for (std::size_t c0 = c_lo; c0 < ld; c0 += kBlock) {
    const std::size_t q_tile =
        triangular && c0 + kBlock <= n ? std::max(q_lo, c0) : q_lo;
    for (std::size_t r0 = r_lo; r0 < r_hi; r0 += R) {
      const std::size_t q_first = triangular ? std::max(q_tile, r0) : q_tile;
      if (r0 + R <= r_hi) {
        V a[R][P];
        for (std::size_t i = 0; i < R; ++i) {
          for (std::size_t v = 0; v < P; ++v) {
            a[i][v] = *reinterpret_cast<const V*>(s + (r0 + i) * ld + c0 +
                                                  v * W);
          }
        }
        for (std::size_t q = q_first; q < q_hi; ++q) {
          const double* lrow = lhs + r0 * lr + q * lq;
          const double* urow = rhs + q * ld + c0;
          for (std::size_t i = 0; i < R; ++i) {
            const double m = lrow[i * lr];
            for (std::size_t v = 0; v < P; ++v) {
              a[i][v] -= m * *reinterpret_cast<const V*>(urow + v * W);
            }
          }
        }
        for (std::size_t i = 0; i < R; ++i) {
          for (std::size_t v = 0; v < P; ++v) {
            *reinterpret_cast<V*>(s + (r0 + i) * ld + c0 + v * W) = a[i][v];
          }
        }
      } else {
        for (std::size_t r = r0; r < r_hi; ++r) {
          V a[P];
          for (std::size_t v = 0; v < P; ++v) {
            a[v] = *reinterpret_cast<const V*>(s + r * ld + c0 + v * W);
          }
          for (std::size_t q = triangular ? std::max(q_first, r) : q_first;
               q < q_hi; ++q) {
            const double m = lhs[r * lr + q * lq];
            for (std::size_t v = 0; v < P; ++v) {
              a[v] -= m * *reinterpret_cast<const V*>(rhs + q * ld + c0 +
                                                      v * W);
            }
          }
          for (std::size_t v = 0; v < P; ++v) {
            *reinterpret_cast<V*>(s + r * ld + c0 + v * W) = a[v];
          }
        }
      }
    }
  }
}

/// Bitline phase: eliminates the bitline pivots 0..n-1 in order. Pivot k
/// touches only bitline row k+1 and the source-line rows [0, k] (rows
/// N..N+k of the full matrix), and of pivot row k only column k+1 and the
/// source-line span [0, k]. None of this reads the source-line block, so
/// the recurrences run first and store, per pivot k, the multipliers
/// f[k][j] of the source-line rows and the pivot row's source-line part
/// u[k][j] (its right-hand sides in columns n and n+1); the block's own
/// updates s[j][c] -= f[k][j] * u[k][c] follow as one product in ascending
/// k. Rows of f and u are +0 right of the span.
MRAM_LADDER_INLINE void bitline_phase(const Ladder& l, std::size_t ld,
                                      double* f, double* u, double* c,
                                      double* d) {
  const std::size_t n = l.n;
  const double off_bl = 0.0 - l.g_bl;  // a[k][k+1] and a[k+1][k]
  std::fill(u, u + ld, 0.0);
  u[0] = rung(l, 0);
  u[n] = l.v_read * l.g_driver;       // the driver forcing v_read
  u[n + 1] = l.row == 0 ? 1.0 : 0.0;  // the unit test current
  std::fill(c, c + ld, 0.0);
  c[0] = rung(l, 0);
  d[0] = line_diagonal(l, 0, l.g_driver, l.g_bl);
  for (std::size_t k = 0; k < n; ++k) {
    const double pivot = d[k];
    MRAM_ENSURES(std::abs(pivot) > 0.0, "singular read-column network");
    double* fk = f + k * ld;
    const double* uk = u + k * ld;
    for (std::size_t j = 0; j <= k; ++j) fk[j] = c[j] / pivot;
    std::fill(fk + k + 1, fk + ld, 0.0);
    if (k + 1 == n) break;
    // Bitline row k+1: its diagonal, its source-line span and right-hand
    // sides (it starts with only its rung in the span).
    const double f0 = off_bl / pivot;
    d[k + 1] = line_diagonal(l, k + 1, l.g_driver, l.g_bl) - f0 * off_bl;
    double* un = u + (k + 1) * ld;
    for (std::size_t j = 0; j <= k; ++j) un[j] = 0.0 - f0 * uk[j];
    std::fill(un + k + 1, un + ld, 0.0);
    un[k + 1] = rung(l, k + 1);
    un[n] = 0.0 - f0 * uk[n];
    un[n + 1] = (k + 1 == l.row ? 1.0 : 0.0) - f0 * uk[n + 1];
    // Column k+1 of the source-line rows: fill from pivot row k's entry
    // a[k][k+1], plus the rung of row k+1.
    for (std::size_t j = 0; j <= k; ++j) c[j] = 0.0 - fk[j] * off_bl;
    c[k + 1] = rung(l, k + 1);
  }
}

/// Source-line phase: the dense elimination of the n x n block (with its two
/// right-hand-side columns) in blocked form. For each panel of 8 pivots the
/// panel columns are eliminated row by row, the panel rows' trailing columns
/// get the panel's earlier pivots, and one product updates the trailing
/// block. Every entry still receives its updates in ascending pivot order.
/// Multipliers are stored in place of the eliminated entries.
template <std::size_t W>
MRAM_LADDER_INLINE void source_line_phase(double* s, std::size_t ld,
                                          std::size_t n) {
  using V = typename Simd<W>::V;
  constexpr std::size_t P = Simd<W>::kPerBlock;
  for (std::size_t p0 = 0; p0 < n; p0 += kBlock) {
    const std::size_t pb = std::min(p0 + kBlock, n);
    for (std::size_t p = p0; p < pb; ++p) {
      const double* sp = s + p * ld;
      const double pivot = sp[p];
      MRAM_ENSURES(std::abs(pivot) > 0.0, "singular read-column network");
      // Pivot row over the panel's 8 columns, +0 at and left of the pivot:
      // those lanes then subtract a signed zero, which changes no entry.
      alignas(64) double panel_row[kBlock];
      for (std::size_t w = 0; w < kBlock; ++w) {
        panel_row[w] = p0 + w > p ? sp[p0 + w] : 0.0;
      }
      V urow[P];
      for (std::size_t v = 0; v < P; ++v) {
        urow[v] = *reinterpret_cast<const V*>(panel_row + v * W);
      }
      for (std::size_t r = p + 1; r < n; ++r) {
        double* sr = s + r * ld;
        const double m = sr[p] / pivot;
        for (std::size_t v = 0; v < P; ++v) {
          *reinterpret_cast<V*>(sr + p0 + v * W) -= m * urow[v];
        }
        sr[p] = m;
      }
    }
    // Columns right of the panel's 8. In a short last panel (pb < p0 + 8)
    // the panel pass already covered the right-hand-side columns it spans.
    const std::size_t c_lo = p0 + kBlock;
    for (std::size_t p = p0 + 1; p < pb; ++p) {
      double* sp = s + p * ld;
      for (std::size_t q = p0; q < p; ++q) {
        const double m = sp[q];
        const double* sq = s + q * ld;
        for (std::size_t col = c_lo; col < ld; col += W) {
          *reinterpret_cast<V*>(sp + col) -=
              m * *reinterpret_cast<const V*>(sq + col);
        }
      }
    }
    if (pb < n) {
      subtract_products<W>(s, ld, n, pb, n, c_lo, s, ld, 1, s, p0, pb, false);
    }
  }
}

/// Workspace of one solve, reused across calls on the same thread (port()
/// is const and runs concurrently from pool workers), 64-byte aligned.
double* ladder_workspace(std::size_t doubles) {
  thread_local std::vector<double> buffer;
  if (buffer.size() < doubles + kBlock) buffer.resize(doubles + kBlock);
  const auto addr = reinterpret_cast<std::uintptr_t>(buffer.data());
  const std::size_t skew = (addr / sizeof(double)) % kBlock;
  return buffer.data() + (skew ? kBlock - skew : 0);
}

/// Solves the ladder for the open-circuit port voltage and the port
/// resistance: the arithmetic of dense Gaussian elimination without
/// pivoting over the 2N x 2N conductance matrix (bitline nodes 0..N-1, then
/// source-line nodes N..2N-1, with the two right-hand sides), visiting only
/// the ladder's structural nonzeros; see bitline.h for why that is exact.
template <std::size_t W>
MRAM_LADDER_INLINE ReadPort solve_ladder_w(const Ladder& l) {
  const std::size_t n = l.n;
  const std::size_t ld = round_up(n + 2);  // + two right-hand sides
  double* s = ladder_workspace(3 * n * ld + ld + n);
  double* f = s + n * ld;
  double* u = f + n * ld;
  double* c = u + n * ld;
  double* d = c + ld;

  bitline_phase(l, ld, f, u, c, d);

  // Source-line block as stamped: diagonal, wire segments, and the right-
  // hand sides (no driver term; -1 A out of the selected row's node).
  const double off_sl = 0.0 - l.g_sl;
  for (std::size_t j = 0; j < n; ++j) {
    double* sj = s + j * ld;
    std::fill(sj, sj + ld, 0.0);
    sj[j] = line_diagonal(l, j, l.g_sink, l.g_sl);
    if (j > 0) sj[j - 1] = off_sl;
    if (j + 1 < n) sj[j + 1] = off_sl;
    sj[n + 1] = j == l.row ? -1.0 : 0.0;
  }
  subtract_products<W>(s, ld, n, 0, n, 0, f, 1, ld, u, 0, n, true);
  source_line_phase<W>(s, ld, n);

  // Back substitution, each row's terms in ascending column order. Every
  // source-line node is needed; bitline nodes only from the selected row
  // on (x[k] depends on x[k+1] and the source line). Source-line solutions
  // overwrite the right-hand-side columns.
  for (std::size_t j = n; j-- > 0;) {
    double* sj = s + j * ld;
    double xa = sj[n], xb = sj[n + 1];
    for (std::size_t col = j + 1; col < n; ++col) {
      xa -= sj[col] * s[col * ld + n];
      xb -= sj[col] * s[col * ld + n + 1];
    }
    sj[n] = xa / sj[j];
    sj[n + 1] = xb / sj[j];
  }
  const double off_bl = 0.0 - l.g_bl;
  double xa_next = 0.0, xb_next = 0.0;
  for (std::size_t k = n; k-- > l.row;) {
    const double* uk = u + k * ld;
    double xa = uk[n], xb = uk[n + 1];
    if (k + 1 < n) {
      xa -= off_bl * xa_next;
      xb -= off_bl * xb_next;
    }
    for (std::size_t j = 0; j <= k; ++j) {
      xa -= uk[j] * s[j * ld + n];
      xb -= uk[j] * s[j * ld + n + 1];
    }
    xa_next = xa / d[k];
    xb_next = xb / d[k];
  }
  const double* sr = s + l.row * ld;
  ReadPort port;
  port.v_thevenin = xa_next - sr[n];
  port.r_thevenin = xb_next - sr[n + 1];
  return port;
}

#if MRAM_LADDER_X86
__attribute__((target("avx512f"))) ReadPort solve_ladder_avx512(
    const Ladder& l) {
  return solve_ladder_w<8>(l);
}
__attribute__((target("avx2"))) ReadPort solve_ladder_avx2(const Ladder& l) {
  return solve_ladder_w<4>(l);
}
#endif
ReadPort solve_ladder_baseline(const Ladder& l) {
  return solve_ladder_w<2>(l);
}

}  // namespace

namespace detail {

LadderIsa ladder_isa() {
#if MRAM_LADDER_X86
  static const LadderIsa isa = [] {
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx512f")) return LadderIsa::kAvx512;
    return __builtin_cpu_supports("avx2") ? LadderIsa::kAvx2
                                          : LadderIsa::kBaseline;
  }();
  return isa;
#else
  return LadderIsa::kBaseline;
#endif
}

ReadPort ladder_port(const BitlinePath& path, LadderIsa isa, std::size_t row,
                     double v_read, const std::vector<int>& column_data) {
  const BitlineParams& params = path.params_;
  MRAM_EXPECTS(row < params.rows, "selected row out of range");
  MRAM_EXPECTS(v_read > 0.0, "read voltage must be positive");
  MRAM_EXPECTS(column_data.size() == params.rows,
               "column data must cover every row");
  MRAM_EXPECTS(isa <= ladder_isa(), "ladder solve ISA not supported here");
  obs::counter_add(obs::Counter::kReadoutLadderSolves);

  const std::size_t n_rows = params.rows;
  // Unselected rows: sneak branch bitline -> source line through the off
  // access transistor in series with that row's MTJ state resistance.
  thread_local std::vector<double> leak;
  leak.resize(n_rows);
  for (std::size_t i = 0; i < n_rows; ++i) {
    leak[i] = 1.0 / (column_data[i] ? path.r_leak_ap_ : path.r_leak_p_);
  }

  Ladder ladder;
  ladder.n = n_rows;
  ladder.row = row;
  ladder.g_driver = 1.0 / params.r_driver;
  ladder.g_sink = 1.0 / params.r_sink;
  // A zero-resistance segment collapses to a strong tie so the matrix stays
  // nonsingular without special-casing ideal wires.
  ladder.g_bl = params.r_bl_segment > 0.0 ? 1.0 / params.r_bl_segment : 1e12;
  ladder.g_sl = params.r_sl_segment > 0.0 ? 1.0 / params.r_sl_segment : 1e12;
  ladder.v_read = v_read;
  ladder.leak = leak.data();

  ReadPort port;
  switch (isa) {
#if MRAM_LADDER_X86
    case LadderIsa::kAvx512:
      port = solve_ladder_avx512(ladder);
      break;
    case LadderIsa::kAvx2:
      port = solve_ladder_avx2(ladder);
      break;
#endif
    default:
      port = solve_ladder_baseline(ladder);
  }
  MRAM_ENSURES(port.r_thevenin > 0.0, "port resistance must be positive");
  return port;
}

}  // namespace detail

ReadPort BitlinePath::port(std::size_t row, double v_read,
                           const std::vector<int>& column_data) const {
  return detail::ladder_port(*this, detail::ladder_isa(), row, v_read,
                             column_data);
}

}  // namespace mram::rdo
