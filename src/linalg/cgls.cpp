#include "linalg/cgls.h"

#include <cmath>
#include <numeric>
#include <stdexcept>

namespace rnt::linalg {

namespace {

double norm2(const std::vector<double>& v) {
  double acc = 0.0;
  for (double x : v) acc += x * x;
  return std::sqrt(acc);
}

// ---------------------------------------------------------------------------
// Lane-dispatched inner passes.
//
// Every pass below is a loop over matrix entries (or rows, or columns)
// around a unit-stride loop over the first `span` lane slots of one
// [index][lane] block with row stride `stride`.  Written once as a macro
// body and instantiated per target, like linalg/slicedrank's passes:
// `#pragma omp simd` (active under -fopenmp-simd) vectorizes the lane
// loop, and each lane keeps its own accumulator, so a lane adds in exactly
// the scalar order whatever the width.
//
// `span` and `stride` are multiples of kSlotBlock.  The gather takes its
// slots in fixed blocks of 16 and 8: a fixed block compiles to
// straight-line vector code with the matrix row's accumulators in
// registers, where a sum carried through memory would put a store-to-load
// round trip on every entry's dependency chain.  Slots past the live lanes
// hold zeros and a zero mask, so they compute zeros no lane ever reads.
// ---------------------------------------------------------------------------

#define RNT_CGLS_BLOCKS(STEP) STEP(16) STEP(8)

/* Slots [l0, l0 + B) of out = D (M v) for CSR M and 0/1 mask rows D, and
   norm2 = ‖out‖² summed in row order.  Blocks are the outer loop, so a
   block's partial norms stay with it across the rows. */
#define RNT_CGLS_GATHER(B)                                                    \
  for (; l0 + (B) <= span; l0 += (B)) {                                       \
    double sum[B];                                                            \
    for (std::size_t l = 0; l < (B); ++l) sum[l] = 0.0;                       \
    for (std::size_t i = 0; i < n; ++i) {                                     \
      double acc[B];                                                          \
      for (std::size_t l = 0; l < (B); ++l) acc[l] = 0.0;                     \
      for (std::size_t k = start[i]; k < start[i + 1]; ++k) {                 \
        const double a = values[k];                                           \
        const double* vk = v + index[k] * stride + l0;                        \
        _Pragma("omp simd") for (std::size_t l = 0; l < (B); ++l) {           \
          acc[l] += a * vk[l];                                                \
        }                                                                     \
      }                                                                       \
      const double* m = mask + i * mask_stride + l0;                          \
      double* o = out + i * stride + l0;                                      \
      _Pragma("omp simd") for (std::size_t l = 0; l < (B); ++l) {             \
        const double masked = acc[l] * m[l];                                  \
        o[l] = masked;                                                        \
        sum[l] += masked * masked;                                            \
      }                                                                       \
    }                                                                         \
    for (std::size_t l = 0; l < (B); ++l) norm2[l0 + l] = sum[l];             \
  }

#define RNT_CGLS_BODY(TARGET, SUFFIX)                                         \
  /* out = D (M v) for CSR M and 0/1 mask D, row i of D at mask +         \
     i * mask_stride; norm2 = ‖out‖² per slot, summed in row order. */      \
  TARGET void gather_##SUFFIX(                                                \
      const std::size_t* start, const std::size_t* index,                    \
      const double* values, std::size_t n, const double* v,                   \
      const double* mask, std::size_t mask_stride, double* out,              \
      double* norm2, std::size_t span, std::size_t stride) {                  \
    std::size_t l0 = 0;                                                       \
    RNT_CGLS_BLOCKS(RNT_CGLS_GATHER)                                          \
  }                                                                           \
  /* y += a x per slot, or y -= a x when `subtract`. */                       \
  TARGET void update_##SUFFIX(double* y, const double* x, const double* a,    \
                              bool subtract, std::size_t n,                   \
                              std::size_t span, std::size_t stride) {         \
    for (std::size_t i = 0; i < n; ++i) {                                     \
      double* yi = y + i * stride;                                            \
      const double* xi = x + i * stride;                                      \
      if (subtract) {                                                         \
        _Pragma("omp simd") for (std::size_t l = 0; l < span; ++l) {          \
          yi[l] -= a[l] * xi[l];                                              \
        }                                                                     \
      } else {                                                                \
        _Pragma("omp simd") for (std::size_t l = 0; l < span; ++l) {          \
          yi[l] += a[l] * xi[l];                                              \
        }                                                                     \
      }                                                                       \
    }                                                                         \
  }                                                                           \
  /* p = s + beta p per slot. */                                              \
  TARGET void xpby_##SUFFIX(double* p, const double* s, const double* beta,   \
                            std::size_t n, std::size_t span,                  \
                            std::size_t stride) {                             \
    for (std::size_t i = 0; i < n; ++i) {                                     \
      double* pi = p + i * stride;                                            \
      const double* si = s + i * stride;                                      \
      _Pragma("omp simd") for (std::size_t l = 0; l < span; ++l) {            \
        pi[l] = si[l] + beta[l] * pi[l];                                      \
      }                                                                       \
    }                                                                         \
  }

RNT_CGLS_BODY(static, scalar)

#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
#define RNT_X86_CGLS 1
RNT_CGLS_BODY(static __attribute__((target("avx2"))), simd256)
RNT_CGLS_BODY(static __attribute__((target("avx512f"))), simd512)
#endif

#undef RNT_CGLS_BODY
#undef RNT_CGLS_GATHER
#undef RNT_CGLS_BLOCKS

/// The smallest slot block: spans and strides are multiples of it.
constexpr std::size_t kSlotBlock = 8;

std::size_t round_to_block(std::size_t n) {
  return (n + kSlotBlock - 1) / kSlotBlock * kSlotBlock;
}

struct CglsOps {
  void (*gather)(const std::size_t*, const std::size_t*, const double*,
                 std::size_t, const double*, const double*, std::size_t,
                 double*, double*, std::size_t, std::size_t);
  void (*update)(double*, const double*, const double*, bool, std::size_t,
                 std::size_t, std::size_t);
  void (*xpby)(double*, const double*, const double*, std::size_t,
               std::size_t, std::size_t);
};

constexpr CglsOps kScalarOps = {gather_scalar, update_scalar, xpby_scalar};
#ifdef RNT_X86_CGLS
constexpr CglsOps kSimd256Ops = {gather_simd256, update_simd256,
                                 xpby_simd256};
constexpr CglsOps kSimd512Ops = {gather_simd512, update_simd512,
                                 xpby_simd512};
#endif

const CglsOps& ops_for(SliceLane width) {
#ifdef RNT_X86_CGLS
  switch (resolve_slice_lane(width)) {
    case SliceLane::kSimd256:
      return kSimd256Ops;
    case SliceLane::kSimd512:
      return kSimd512Ops;
    default:
      break;
  }
#else
  (void)width;
#endif
  return kScalarOps;
}

/// The lane-major CGLS loop.  Slot l of every [index][slot] block holds
/// the problem id[l] while l < live; a lane that stops is written out, the
/// last live slot moves into its place, and the vacated slot is zeroed.
std::vector<CglsResult> solve_lanes(const CglsOps& ops, const SparseMatrix& a,
                                    std::span<const double> b,
                                    std::span<const double> mask,
                                    std::size_t lanes, CglsOptions options) {
  const std::size_t rows = a.rows();
  const std::size_t cols = a.cols();
  if (b.size() != rows * lanes || mask.size() != rows * lanes) {
    throw std::invalid_argument("cgls_solve_lanes: rhs/mask size mismatch");
  }
  std::vector<CglsResult> results(lanes);
  if (lanes == 0) return results;
  const std::size_t max_iter =
      options.max_iterations > 0 ? options.max_iterations : 2 * cols;
  const std::size_t stride = round_to_block(lanes);
  // CSC form for the adjoint: column c's rows, ascending.  Its mask is one
  // row of ones (x * 1 is x, bit for bit) repeated with stride 0.
  const SparseMatrix at = a.transposed();
  const std::vector<double> ones(stride, 1.0);
  const auto forward = [&](const double* v, const double* m, double* out,
                           double* n2, std::size_t span) {
    ops.gather(a.row_starts().data(), a.col_indices().data(),
               a.values().data(), rows, v, m, stride, out, n2, span, stride);
  };
  const auto adjoint = [&](const double* v, double* out, double* n2,
                           std::size_t span) {
    ops.gather(at.row_starts().data(), at.col_indices().data(),
               at.values().data(), cols, v, ones.data(), 0, out, n2, span,
               stride);
  };

  std::vector<double> x(cols * stride, 0.0);
  std::vector<double> p(cols * stride);
  std::vector<double> s(cols * stride);
  std::vector<double> r(rows * stride, 0.0);
  std::vector<double> q(rows * stride, 0.0);
  std::vector<double> m(rows * stride, 0.0);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t l = 0; l < lanes; ++l) {
      if (mask[i * lanes + l] == 0.0) continue;
      m[i * stride + l] = 1.0;
      r[i * stride + l] = b[i * lanes + l];
    }
  }
  std::vector<double> gamma(stride, 0.0);
  std::vector<double> gamma_new(stride, 0.0);
  std::vector<double> qq(stride, 0.0);
  std::vector<double> step(stride, 0.0);  // alpha, then beta.
  std::vector<double> target(lanes);
  std::vector<std::size_t> id(lanes);
  std::iota(id.begin(), id.end(), std::size_t{0});

  // r = b - A x = b;  s = Aᵀ r;  p = s.
  adjoint(r.data(), s.data(), gamma.data(), stride);
  p = s;
  for (std::size_t l = 0; l < lanes; ++l) {
    target[l] = options.tolerance * std::sqrt(gamma[l]);
  }

  std::size_t live = lanes;
  std::size_t iterations = 0;
  const auto move_slot = [&](std::vector<double>& v, std::size_t n,
                             std::size_t from, std::size_t to) {
    for (std::size_t i = 0; i < n; ++i) {
      v[i * stride + to] = v[i * stride + from];
      v[i * stride + from] = 0.0;
    }
  };
  // Writes slot l's result and refills the slot from the last live one.
  const auto retire = [&](std::size_t l) {
    CglsResult& out = results[id[l]];
    out.x.resize(cols);
    for (std::size_t c = 0; c < cols; ++c) out.x[c] = x[c * stride + l];
    double rr = 0.0;
    for (std::size_t i = 0; i < rows; ++i) {
      rr += r[i * stride + l] * r[i * stride + l];
    }
    out.iterations = iterations;
    out.residual_norm = std::sqrt(rr);
    out.converged = std::sqrt(gamma[l]) <= target[l] || gamma[l] == 0.0;
    const std::size_t last = --live;
    for (std::vector<double>* v : {&x, &p, &r, &q, &m}) {
      move_slot(*v, v->size() / stride, last, l);
    }
    gamma[l] = gamma[last];
    qq[l] = qq[last];
    step[l] = step[last];
    target[l] = target[last];
    id[l] = id[last];
    gamma[last] = 0.0;
    step[last] = 0.0;
  };

  for (;;) {
    for (std::size_t l = 0; l < live;) {
      if (iterations < max_iter && std::sqrt(gamma[l]) > target[l] &&
          gamma[l] > 0.0 && std::isfinite(step[l])) {
        ++l;
      } else {
        retire(l);
      }
    }
    if (live == 0) break;
    forward(p.data(), m.data(), q.data(), qq.data(), round_to_block(live));
    // qq == 0: p in the null space; nothing left to gain.  A step that
    // is not finite (qq or alpha overflowed once the iteration ran past
    // its roundoff floor) stops the lane before it is applied.
    for (std::size_t l = 0; l < live;) {
      if (qq[l] == 0.0 || !std::isfinite(qq[l]) ||
          !std::isfinite(gamma[l] / qq[l])) {
        retire(l);
      } else {
        ++l;
      }
    }
    if (live == 0) break;
    const std::size_t span = round_to_block(live);
    for (std::size_t l = 0; l < live; ++l) step[l] = gamma[l] / qq[l];
    ops.update(x.data(), p.data(), step.data(), false, cols, span, stride);
    ops.update(r.data(), q.data(), step.data(), true, rows, span, stride);
    adjoint(r.data(), s.data(), gamma_new.data(), span);
    // A beta that is not finite stops the lane at the top of the loop,
    // before the p it spoiled is used.
    for (std::size_t l = 0; l < live; ++l) step[l] = gamma_new[l] / gamma[l];
    ops.xpby(p.data(), s.data(), step.data(), cols, span, stride);
    for (std::size_t l = 0; l < live; ++l) gamma[l] = gamma_new[l];
    ++iterations;
  }
  return results;
}

}  // namespace

CglsResult cgls_solve(const Matrix& a, std::span<const double> b,
                      CglsOptions options) {
  if (b.size() != a.rows()) {
    throw std::invalid_argument("cgls_solve: rhs size mismatch");
  }
  CglsResult result;
  result.x.assign(a.cols(), 0.0);
  std::vector<double> r(b.begin(), b.end());
  if (a.rows() == 0 || a.cols() == 0) {
    // Nothing to fit: x = 0 is the min-norm solution and b the residual.
    result.residual_norm = norm2(r);
    result.converged = true;
    return result;
  }
  const std::size_t max_iter = options.max_iterations > 0
                                   ? options.max_iterations
                                   : 2 * a.cols();
  const Matrix at = a.transposed();

  // r = b - A x = b;  s = Aᵀ r;  p = s.
  std::vector<double> s = at.multiply(std::span<const double>(r));
  std::vector<double> p = s;
  double gamma = 0.0;
  for (double v : s) gamma += v * v;
  const double target = options.tolerance * std::sqrt(gamma);

  while (result.iterations < max_iter && std::sqrt(gamma) > target &&
         gamma > 0.0) {
    const std::vector<double> q = a.multiply(std::span<const double>(p));
    double qq = 0.0;
    for (double v : q) qq += v * v;
    // p in the null space (nothing left to gain), or a step that is not
    // finite: stop, as the lane loop does.
    if (qq == 0.0 || !std::isfinite(qq) || !std::isfinite(gamma / qq)) break;
    const double alpha = gamma / qq;
    for (std::size_t i = 0; i < a.cols(); ++i) result.x[i] += alpha * p[i];
    for (std::size_t i = 0; i < a.rows(); ++i) r[i] -= alpha * q[i];
    s = at.multiply(std::span<const double>(r));
    double gamma_new = 0.0;
    for (double v : s) gamma_new += v * v;
    const double beta = gamma_new / gamma;
    for (std::size_t i = 0; i < a.cols(); ++i) p[i] = s[i] + beta * p[i];
    gamma = gamma_new;
    ++result.iterations;
    if (!std::isfinite(beta)) break;
  }
  result.residual_norm = norm2(r);
  result.converged = std::sqrt(gamma) <= target || gamma == 0.0;
  return result;
}

CglsResult cgls_solve(const SparseMatrix& a, std::span<const double> b,
                      CglsOptions options) {
  const std::vector<double> all(a.rows(), 1.0);
  return std::move(cgls_solve_lanes(a, b, all, 1, options).front());
}

std::vector<CglsResult> cgls_solve_lanes(const SparseMatrix& a,
                                         std::span<const double> b,
                                         std::span<const double> mask,
                                         std::size_t lanes,
                                         CglsOptions options) {
  return detail::cgls_solve_lanes(SliceLane::kAuto, a, b, mask, lanes,
                                  options);
}

namespace detail {

std::vector<CglsResult> cgls_solve_lanes(SliceLane width,
                                         const SparseMatrix& a,
                                         std::span<const double> b,
                                         std::span<const double> mask,
                                         std::size_t lanes,
                                         CglsOptions options) {
  return solve_lanes(ops_for(width), a, b, mask, lanes, options);
}

}  // namespace detail

}  // namespace rnt::linalg
