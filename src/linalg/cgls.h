// CGLS — conjugate gradient on the normal equations, without forming AᵀA.
//
// The tomography system under probe noise is an inconsistent least-squares
// problem: more surviving measurements than independent rows.  The
// basis-subsystem solver (tomo/estimation.h) throws the redundancy away;
// CGLS keeps it, converging to the *minimum-norm* least-squares solution
// x† = A⁺ b — so redundant probes average the noise down instead of being
// discarded.  Identifiable links have the same value in every LS solution,
// so x† restricted to them is the estimator of interest.
//
// The sparse solver is lane-major: cgls_solve_lanes runs many right-hand
// sides over one CSR matrix in a single pass, each lane with its own 0/1
// row mask, step sizes and stopping rule.  Vectors are stored
// [row][lane] and [column][lane], so every inner loop is a unit-stride
// loop over the live lanes, dispatched at runtime to a 512-, 256-bit or
// plain copy (linalg/slicedrank's SliceLane).  A lane is bit for bit the
// one-lane solve of its unmasked rows:
//
//   * a masked row's q entry is 0 · (A p)_i = ±0 and its residual stays
//     +0, so the row adds only +0 to every dot product, to ‖q‖² and ‖r‖²;
//   * the adjoint gathers each column over its rows in ascending order
//     (the order the one-lane scatter adds in), and an accumulator that
//     starts at +0 never becomes −0, so the +0 terms change no bit;
//   * a column no unmasked row touches keeps s = p = x = +0 throughout;
//   * a lane leaves the batch at its own stop and the live lanes are
//     compacted, so no lane computes past its exit; the slots past the
//     live lanes, up to the next multiple of 8, hold zeros and compute
//     zeros in the same vector instructions.
//
// Nothing here may contract a*b+c into an FMA: the library builds with
// -ffp-contract=off, so every copy rounds each product and sum on its own.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "linalg/matrix.h"
#include "linalg/slicedrank.h"
#include "linalg/sparse.h"

namespace rnt::linalg {

/// Options for the CGLS iteration.
struct CglsOptions {
  std::size_t max_iterations = 0;  ///< 0 = 2 * cols (ample for exact CG).
  double tolerance = 1e-10;        ///< On ‖Aᵀr‖ relative to ‖Aᵀb‖.
};

/// Result of a CGLS solve.
struct CglsResult {
  std::vector<double> x;           ///< Minimum-norm LS solution (from x0=0).
  std::size_t iterations = 0;
  double residual_norm = 0.0;      ///< ‖Ax - b‖ at exit.
  bool converged = false;
};

/// Solves min ‖A x − b‖₂ from x₀ = 0 (dense A).  The reference the tests
/// and the testkit hold the sparse solver to.
CglsResult cgls_solve(const Matrix& a, std::span<const double> b,
                      CglsOptions options = {});

/// Sparse variant (CSR A); identical semantics.  One lane of
/// cgls_solve_lanes with every row unmasked.
CglsResult cgls_solve(const SparseMatrix& a, std::span<const double> b,
                      CglsOptions options = {});

/// Solves `lanes` masked problems over one CSR matrix in one pass.  Lane l
/// reads b[i * lanes + l] and mask[i * lanes + l] (0 or 1) for row i and
/// solves min ‖A_l x − b_l‖₂ from x₀ = 0, where A_l keeps the rows whose
/// mask is 1; b is ignored where the mask is 0.  Each result is bit for
/// bit cgls_solve on A_l (same columns, same iteration cap), and its x is
/// exactly +0 at every column no unmasked row touches.
std::vector<CglsResult> cgls_solve_lanes(const SparseMatrix& a,
                                         std::span<const double> b,
                                         std::span<const double> mask,
                                         std::size_t lanes,
                                         CglsOptions options = {});

namespace detail {

/// cgls_solve_lanes on an explicit SIMD width (resolved through
/// resolve_slice_lane), so tests can pin every compiled copy to the same
/// bits.  Production always takes the widest width the CPU runs.
std::vector<CglsResult> cgls_solve_lanes(SliceLane width,
                                         const SparseMatrix& a,
                                         std::span<const double> b,
                                         std::span<const double> mask,
                                         std::size_t lanes,
                                         CglsOptions options = {});

}  // namespace detail

}  // namespace rnt::linalg
