// Preconditioned conjugate-gradient solver for the symmetric positive
// definite systems arising from the quadratic placement objective
// (section 4.1 of the paper: "solve equation (3) by using a conjugate
// gradient approach with preconditioning"). The preconditioner is
// Jacobi (diagonal scaling), which suits the diagonally dominant
// placement systems.
//
// The placer always solves two systems at once — the x and y axes, whose
// matrices share one sparsity pattern — each with an optional diagonal
// shift (the hold-and-move springs, the wire-relaxation anchor, GORDIAN's
// region anchors). One CG core runs both axes in lockstep: every
// iteration is three slab passes over all pool threads, and each pass
// serves both axes (the SpMV reads the shared column indices once).
#pragma once

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "linalg/csr_matrix.hpp"
#include "util/profiler.hpp"

namespace gpf {

struct cg_options {
    double tolerance = 1e-8;          ///< relative residual ||r||/||b|| target
    std::size_t max_iterations = 0;   ///< 0 → 10 * n
    /// Absolute step bound: an axis also stops as converged once an update
    /// αp moved no variable by more than this (0: off, the residual test
    /// alone). The placer's wire relaxation sets it to a fraction of a
    /// density bin; see DESIGN.md, "Stopping rules".
    double step_bound = 0.0;
};

struct cg_result {
    bool converged = false;
    std::size_t iterations = 0;
    double residual = 0.0; ///< final relative residual
    cg_stop stop = cg_stop::cap; ///< why the solve ended (util/profiler.hpp)
};

/// One axis of a paired solve: (A + diag(s)) x = b, with A's values on the
/// pattern shared by both axes.
struct cg_axis {
    std::span<const double> values;   ///< A, one value per pattern entry
    /// s on rows [0, shift.size()); later rows are unshifted (empty: A
    /// alone). GORDIAN anchors only the movable prefix of its variables.
    std::span<const double> shift;
    /// diag(A) + s, the Jacobi diagonal (entries must be positive).
    std::span<const double> diagonal;
    std::span<const double> b;
    /// The explicit starting guess — wire relaxation passes the current
    /// positions — holding the solution on return. Any other size than
    /// the system's is reset to zeros.
    std::vector<double>& x;
};

/// Solve the x and y axis systems in lockstep. Each axis keeps its own
/// scalars, convergence test, breakdown guards and fault-injection visit
/// (x first), so each result is bitwise the one a solve of that axis
/// alone would give — for any GPF_THREADS and GPF_SIMD.
std::pair<cg_result, cg_result> cg_solve_pair(const csr_pattern& pattern,
                                              const cg_axis& x_axis,
                                              const cg_axis& y_axis,
                                              const cg_options& options = {});

/// Solve A x = b for a single matrix (the same core, one axis). A must be
/// symmetric positive (semi-)definite with a positive diagonal.
cg_result cg_solve(const csr_matrix& a, const std::vector<double>& b,
                   std::vector<double>& x, const cg_options& options = {});

// --- small dense-free vector helpers shared by solver clients -------------

double dot(const std::vector<double>& a, const std::vector<double>& b);
double norm2(const std::vector<double>& a);
/// y += alpha * x
void axpy(double alpha, const std::vector<double>& x, std::vector<double>& y);

} // namespace gpf
