#include "linalg/cg_solver.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/check.hpp"
#include "util/fault.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

namespace gpf {

namespace {

// Minimum elements per chunk for the elementwise vector kernels; bounds
// scheduling overhead only, never the arithmetic.
constexpr std::size_t kVectorGrain = 4096;

constexpr std::size_t kSlab = deterministic_sum_slab;

std::size_t slab_count(std::size_t n) { return (n + kSlab - 1) / kSlab; }

/// Serial slab-order merge of per-slab partials: the reduction tree of
/// dot() (a single slab is returned as is, not added to 0.0).
double merge_slabs(const std::vector<double>& partial) {
    if (partial.size() == 1) return partial[0];
    double acc = 0.0;
    for (const double p : partial) acc += p;
    return acc;
}

/// deterministic_sum's fixed-slab shape with the SIMD 4-lane reduction
/// inside each slab: slab boundaries and the serial slab merge depend only
/// on n, and every ISA's dot kernel reduces in the same fixed lane order
/// (util/simd.hpp) — bitwise reproducible across GPF_THREADS and GPF_SIMD
/// alike.
double slab_dot(const double* a, const double* b, std::size_t n) {
    if (n == 0) return 0.0;
    const simd_kernels& kern = simd();
    const std::size_t slabs = slab_count(n);
    if (slabs == 1) return kern.dot(a, b, n);
    std::vector<double> partial(slabs, 0.0);
    parallel_for(slabs, [&](std::size_t s) {
        const std::size_t begin = s * kSlab;
        const std::size_t end = std::min(n, begin + kSlab);
        partial[s] = kern.dot(a + begin, b + begin, end - begin);
    });
    return merge_slabs(partial);
}

/// Armed-fault entry gate, visited once per axis. Returns true when this
/// solve must abort, with `result` describing the simulated failure: a
/// stalled solve (no progress, full relative residual) or a NaN residual
/// with one poisoned solution entry — the two CG failure shapes the
/// placer's recovery ladder must handle.
bool inject_cg_fault(std::vector<double>& x, cg_result& result) {
    if (fault_fires(fault_site::cg_stall)) {
        result.converged = false;
        result.iterations = 0;
        result.residual = 1.0;
        result.stop = cg_stop::fault;
        return true;
    }
    if (fault_fires(fault_site::cg_nan)) {
        const double nan = std::numeric_limits<double>::quiet_NaN();
        if (!x.empty()) x[fault_injector::instance().seed() % x.size()] = nan;
        result.converged = false;
        result.iterations = 0;
        result.residual = nan;
        result.stop = cg_stop::fault;
        return true;
    }
    return false;
}

/// max(m, v) that keeps a NaN once seen: std::max(m, NaN) returns m, which
/// would let a poisoned update pass the step test.
inline double nan_sticky_max(double m, double v) {
    return std::isnan(m) || v <= m ? m : v;
}

/// Per-axis CG state. Workspaces are sized once per solve; the iteration
/// loop allocates nothing.
struct axis_state {
    const cg_axis* sys = nullptr;
    cg_result result;
    bool active = false;
    double bnorm = 0.0;
    double rz = 0.0;
    double rr = 0.0; ///< r·r of the current residual
    double alpha = 0.0;
    double beta = 0.0;
    std::vector<double> r, z, p, ap;
    std::vector<double> pap_part, rz_part, rr_part; ///< per slab
    std::vector<double> step_part; ///< per slab max |αp_i| (step rule only)

    /// The loop's exit bookkeeping: final residual from the current r; a
    /// solve that did not reach the tolerance stopped for `cause`.
    void finish(double tolerance, cg_stop cause) {
        result.residual = std::sqrt(rr) / bnorm;
        result.converged = result.residual <= tolerance;
        result.stop = result.converged ? cg_stop::residual : cause;
        active = false;
    }
};

/// (A + diag(s)) p at row i, given the row product `sum` = (A p)_i: the
/// shift is added after the row reduction, exactly once per row.
inline double shifted(double sum, std::span<const double> shift, const double* p,
                      std::size_t i) {
    return i < shift.size() ? sum + shift[i] * p[i] : sum;
}

/// out = (A + diag(s)) p over rows [begin, end) of one axis.
void shifted_spmv_rows(const csr_pattern& a, const cg_axis& sys, const double* p,
                       double* out, std::size_t begin, std::size_t end) {
    const simd_kernels& kern = simd();
    const std::size_t* rp = a.row_ptr.data();
    const double* v = sys.values.data();
    for (std::size_t i = begin; i < end; ++i) {
        const double sum =
            kern.dot_gather(v + rp[i], a.col_idx.data() + rp[i], p, rp[i + 1] - rp[i]);
        out[i] = shifted(sum, sys.shift, p, i);
    }
}

/// Jacobi preconditioning z = D⁻¹ r over rows [begin, end), with D the
/// shifted diagonal diag(A) + s.
void precondition_rows(std::span<const double> diagonal, const double* r, double* z,
                       std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) z[i] = r[i] / diagonal[i];
}

/// Entry checks, fault gate, zero-rhs exit and r0/z0/p0 for one axis.
/// Leaves the axis active when it needs iterations.
void start_axis(const csr_pattern& a, axis_state& ax, const cg_options& options) {
    const cg_axis& sys = *ax.sys;
    const std::size_t n = a.rows();
    GPF_CHECK(sys.b.size() == n);
    GPF_CHECK(sys.values.size() == a.nonzeros());
    GPF_CHECK(sys.shift.size() <= n);
    if (sys.x.size() != n) sys.x.assign(n, 0.0);

    if (inject_cg_fault(sys.x, ax.result)) return;
    ax.bnorm = std::sqrt(slab_dot(sys.b.data(), sys.b.data(), n));
    if (ax.bnorm == 0.0) {
        sys.x.assign(n, 0.0);
        ax.result.converged = true;
        ax.result.stop = cg_stop::residual;
        return;
    }
    GPF_CHECK(sys.diagonal.size() == n);
    for (const double d : sys.diagonal) {
        GPF_CHECK_MSG(d > 0.0, "preconditioner requires positive diagonal");
    }

    const std::size_t slabs = slab_count(n);
    ax.r.resize(n);
    ax.z.resize(n);
    ax.p.resize(n);
    ax.ap.resize(n);
    ax.pap_part.assign(slabs, 0.0);
    ax.rz_part.assign(slabs, 0.0);
    ax.rr_part.assign(slabs, 0.0);
    if (options.step_bound > 0.0) ax.step_part.assign(slabs, 0.0);

    // r0 = b - (A + diag(s)) x0
    parallel_for_chunks(
        n,
        [&](std::size_t begin, std::size_t end) {
            shifted_spmv_rows(a, sys, sys.x.data(), ax.ap.data(), begin, end);
            for (std::size_t i = begin; i < end; ++i) ax.r[i] = sys.b[i] - ax.ap[i];
        },
        /*grain=*/256);
    precondition_rows(sys.diagonal, ax.r.data(), ax.z.data(), 0, n);
    ax.p = ax.z;
    ax.rz = slab_dot(ax.r.data(), ax.z.data(), n);
    ax.rr = slab_dot(ax.r.data(), ax.r.data(), n);
    ax.active = true;
}

/// The lockstep loop over one or two axes of the same pattern. Every
/// iteration is three passes over fixed deterministic_sum slabs, each one
/// parallel_for over all pool threads serving every active axis:
///   1. Ap (+ shift) and the p·Ap slab partials — with both axes active,
///      dot_gather_pair reads the slab's shared indices once for both;
///   2. x += αp, r -= αAp, z = M⁻¹r and the r·z, r·r slab partials (and,
///      with a step bound, the slab's largest |αp_i|);
///   3. p = z + βp.
/// Partials merge serially in slab order (dot()'s tree), so every axis
/// follows the exact arithmetic of a solo solve; the step maxima merge in
/// any order, since max is exact.
///
/// An axis stops at the top of an iteration once its relative residual
/// is at most the tolerance, or right after pass 2 once the update moved
/// no variable by more than options.step_bound — only when that maximum
/// and r·r are both finite, so a poisoned update never counts as
/// converged. Both rules end with `converged`; result.stop says which.
void solve_axes(const csr_pattern& a, std::span<axis_state> axes,
                const cg_options& options) {
    const std::size_t n = a.rows();
    for (axis_state& ax : axes) start_axis(a, ax, options);

    const bool step_rule = options.step_bound > 0.0;
    const std::size_t slabs = slab_count(n);
    const std::size_t max_iter =
        options.max_iterations > 0 ? options.max_iterations : 10 * n + 100;
    const simd_kernels& kern = simd();
    const std::size_t* rp = a.row_ptr.data();
    const std::uint32_t* ci = a.col_idx.data();
    const auto any_active = [&] {
        for (const axis_state& ax : axes) {
            if (ax.active) return true;
        }
        return false;
    };
    const auto slab_rows = [n](std::size_t s) {
        return std::pair{s * kSlab, std::min(n, (s + 1) * kSlab)};
    };

    for (std::size_t it = 0; it < max_iter && any_active(); ++it) {
        for (axis_state& ax : axes) {
            if (!ax.active) continue;
            ax.result.residual = std::sqrt(ax.rr) / ax.bnorm;
            if (!std::isfinite(ax.result.residual)) {
                // contaminated: iterating cannot recover
                ax.finish(options.tolerance, cg_stop::breakdown);
            } else if (ax.result.residual <= options.tolerance) {
                ax.result.converged = true;
                ax.result.iterations = it;
                ax.result.stop = cg_stop::residual;
                ax.active = false;
            }
        }
        if (!any_active()) break;

        // Pass 1: Ap and p·Ap.
        const bool paired = axes.size() == 2 && axes[0].active && axes[1].active;
        parallel_for(slabs, [&](std::size_t s) {
            const auto [begin, end] = slab_rows(s);
            if (paired) {
                axis_state& ax = axes[0];
                axis_state& ay = axes[1];
                const double* vx = ax.sys->values.data();
                const double* vy = ay.sys->values.data();
                const double* px = ax.p.data();
                const double* py = ay.p.data();
                kern.dot_gather_pair(rp, ci, vx, vy, px, py, begin, end, ax.ap.data(),
                                     ay.ap.data());
                for (std::size_t i = begin; i < end; ++i) {
                    ax.ap[i] = shifted(ax.ap[i], ax.sys->shift, px, i);
                    ay.ap[i] = shifted(ay.ap[i], ay.sys->shift, py, i);
                }
            } else {
                for (axis_state& ax : axes) {
                    if (ax.active) {
                        shifted_spmv_rows(a, *ax.sys, ax.p.data(), ax.ap.data(), begin, end);
                    }
                }
            }
            for (axis_state& ax : axes) {
                if (!ax.active) continue;
                ax.pap_part[s] = kern.dot(ax.p.data() + begin, ax.ap.data() + begin,
                                          end - begin);
            }
        });
        for (axis_state& ax : axes) {
            if (!ax.active) continue;
            const double pap = merge_slabs(ax.pap_part);
            if (!(pap > 0.0)) {
                // not SPD along p (or NaN); bail out
                ax.finish(options.tolerance, cg_stop::breakdown);
                continue;
            }
            ax.alpha = ax.rz / pap;
            // Injection site (util/fault.hpp): a NaN entering p after Ap
            // was formed, so only the step test can see it this iteration.
            if (fault_fires(fault_site::cg_step_nan)) {
                ax.p[fault_injector::instance().seed() % n] =
                    std::numeric_limits<double>::quiet_NaN();
            }
        }
        if (!any_active()) break;

        // Pass 2: x, r, z and r·z, r·r.
        parallel_for(slabs, [&](std::size_t s) {
            const auto [begin, end] = slab_rows(s);
            const std::size_t len = end - begin;
            for (axis_state& ax : axes) {
                if (!ax.active) continue;
                double* r = ax.r.data();
                kern.axpy(ax.alpha, ax.p.data() + begin, ax.sys->x.data() + begin, len);
                kern.axpy(-ax.alpha, ax.ap.data() + begin, r + begin, len);
                precondition_rows(ax.sys->diagonal, r, ax.z.data(), begin, end);
                ax.rz_part[s] = kern.dot(r + begin, ax.z.data() + begin, len);
                ax.rr_part[s] = kern.dot(r + begin, r + begin, len);
                if (step_rule) {
                    const double* p = ax.p.data();
                    double m = 0.0;
                    for (std::size_t i = begin; i < end; ++i) {
                        m = nan_sticky_max(m, std::abs(ax.alpha * p[i]));
                    }
                    ax.step_part[s] = m;
                }
            }
        });
        for (axis_state& ax : axes) {
            if (!ax.active) continue;
            const double rz_new = merge_slabs(ax.rz_part);
            ax.rr = merge_slabs(ax.rr_part);
            ax.beta = rz_new / ax.rz;
            ax.rz = rz_new;
            if (step_rule) {
                double step = 0.0;
                for (const double m : ax.step_part) step = nan_sticky_max(step, m);
                if (std::isfinite(step) && std::isfinite(ax.rr) &&
                    step <= options.step_bound) {
                    ax.result.iterations = it + 1;
                    ax.finish(options.tolerance, cg_stop::step);
                    ax.result.converged = true;
                }
            }
        }

        // Pass 3: p = z + βp.
        parallel_for(slabs, [&](std::size_t s) {
            const auto [begin, end] = slab_rows(s);
            for (axis_state& ax : axes) {
                if (!ax.active) continue;
                kern.xpby(ax.z.data() + begin, ax.beta, ax.p.data() + begin, end - begin);
            }
        });
        for (axis_state& ax : axes) {
            if (ax.active) ax.result.iterations = it + 1;
        }
    }
    for (axis_state& ax : axes) {
        if (ax.active) ax.finish(options.tolerance, cg_stop::cap);
    }
}

} // namespace

double dot(const std::vector<double>& a, const std::vector<double>& b) {
    GPF_DCHECK(a.size() == b.size());
    return slab_dot(a.data(), b.data(), a.size());
}

double norm2(const std::vector<double>& a) { return std::sqrt(dot(a, a)); }

void axpy(double alpha, const std::vector<double>& x, std::vector<double>& y) {
    GPF_DCHECK(x.size() == y.size());
    const simd_kernels& kern = simd();
    const double* xp = x.data();
    double* yp = y.data();
    parallel_for_chunks(
        x.size(),
        [&](std::size_t begin, std::size_t end) {
            kern.axpy(alpha, xp + begin, yp + begin, end - begin);
        },
        kVectorGrain);
}

std::pair<cg_result, cg_result> cg_solve_pair(const csr_pattern& pattern,
                                              const cg_axis& x_axis,
                                              const cg_axis& y_axis,
                                              const cg_options& options) {
    axis_state axes[2];
    axes[0].sys = &x_axis;
    axes[1].sys = &y_axis;
    solve_axes(pattern, axes, options);
    return {axes[0].result, axes[1].result};
}

cg_result cg_solve(const csr_matrix& a, const std::vector<double>& b,
                   std::vector<double>& x, const cg_options& options) {
    const std::vector<double> diagonal = a.diagonal();
    const cg_axis sys{a.values(), {}, diagonal, b, x};
    axis_state axis[1];
    axis[0].sys = &sys;
    solve_axes(a.pattern(), axis, options);
    return axis[0].result;
}

} // namespace gpf
