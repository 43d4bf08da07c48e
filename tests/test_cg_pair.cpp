// The paired-axis CG core against a frozen copy of the per-axis solver
// loop it replaced. The placer solves x and y in lockstep over one shared
// pattern; each axis must still follow, bit for bit, the arithmetic of
// solving that axis alone with the old operator loop — on the placer's
// real systems (wire relaxation, hold-and-move, GORDIAN's movable-prefix
// anchors), at every GPF_THREADS value and every kernel tier the host
// runs, and through the edge cases where the two axes part ways: one
// converging first, a zero right-hand side, a fault on one axis, and a
// system small enough for a single reduction slab. The step rule
// (cg_options::step_bound) is checked against a reference loop of its
// own, and must leave the oracle match untouched while it is off.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "linalg/cg_solver.hpp"
#include "model/quadratic_system.hpp"
#include "netlist/generator.hpp"
#include "util/check.hpp"
#include "util/fault.hpp"
#include "util/prng.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

namespace gpf {
namespace {

// --- bitwise oracle ---------------------------------------------------------
//
// Permanent copy of the matrix-free per-axis Jacobi-PCG loop the paired
// core replaced (an opaque y = A x plus the Jacobi diagonal). Do not
// "simplify" it into the library's core: its value is that it is an
// independent statement of the arithmetic the placements were built on.

using apply_fn = std::function<void(const std::vector<double>&, std::vector<double>&)>;

/// The reduction the old loop's dot() performed: the kernel dot over each
/// deterministic_sum slab, slabs summed serially in order (a single slab
/// is the kernel's value as is).
double oracle_dot(const std::vector<double>& a, const std::vector<double>& b) {
    const std::size_t n = a.size();
    const simd_kernels& kern = simd();
    if (n <= deterministic_sum_slab) return n == 0 ? 0.0 : kern.dot(a.data(), b.data(), n);
    double acc = 0.0;
    for (std::size_t begin = 0; begin < n; begin += deterministic_sum_slab) {
        const std::size_t len = std::min(deterministic_sum_slab, n - begin);
        acc += kern.dot(a.data() + begin, b.data() + begin, len);
    }
    return acc;
}

double oracle_norm(const std::vector<double>& a) { return std::sqrt(oracle_dot(a, a)); }

cg_result oracle_solve(const apply_fn& apply, const std::vector<double>& diagonal,
                       const std::vector<double>& b, std::vector<double>& x,
                       const cg_options& options) {
    const std::size_t n = b.size();
    if (x.size() != n) x.assign(n, 0.0);

    cg_result result;
    if (fault_fires(fault_site::cg_stall)) {
        result.residual = 1.0;
        return result;
    }
    if (fault_fires(fault_site::cg_nan)) {
        const double nan = std::numeric_limits<double>::quiet_NaN();
        if (!x.empty()) x[fault_injector::instance().seed() % x.size()] = nan;
        result.residual = nan;
        return result;
    }
    const double bnorm = oracle_norm(b);
    if (bnorm == 0.0) {
        x.assign(n, 0.0);
        result.converged = true;
        return result;
    }
    const std::size_t max_iter =
        options.max_iterations > 0 ? options.max_iterations : 10 * n + 100;

    std::vector<double> r(n), z(n), p(n), ap(n);
    apply(x, ap);
    for (std::size_t i = 0; i < n; ++i) r[i] = b[i] - ap[i];
    const auto precond = [&](const std::vector<double>& rin, std::vector<double>& zout) {
        for (std::size_t i = 0; i < n; ++i) zout[i] = rin[i] / diagonal[i];
    };
    precond(r, z);
    p = z;
    double rz = oracle_dot(r, z);

    for (std::size_t it = 0; it < max_iter; ++it) {
        result.residual = oracle_norm(r) / bnorm;
        if (!std::isfinite(result.residual)) break;
        if (result.residual <= options.tolerance) {
            result.converged = true;
            result.iterations = it;
            return result;
        }
        apply(p, ap);
        const double pap = oracle_dot(p, ap);
        if (!(pap > 0.0)) break;
        const double alpha = rz / pap;
        for (std::size_t i = 0; i < n; ++i) x[i] += alpha * p[i];
        for (std::size_t i = 0; i < n; ++i) r[i] += -alpha * ap[i];
        precond(r, z);
        const double rz_new = oracle_dot(r, z);
        const double beta = rz_new / rz;
        rz = rz_new;
        for (std::size_t i = 0; i < n; ++i) p[i] = z[i] + beta * p[i];
        result.iterations = it + 1;
    }
    result.residual = oracle_norm(r) / bnorm;
    result.converged = result.residual <= options.tolerance;
    return result;
}

// --- the placer's systems ---------------------------------------------------

/// One axis in both forms: the shift/diagonal vectors of the paired core
/// and the operator the old per-axis solve applied (written exactly as
/// the placer and GORDIAN wrote it).
struct axis_case {
    std::vector<double> values, shift, diagonal, b, x0;
    apply_fn apply;
};

struct system_case {
    std::string name;
    csr_pattern pattern;
    axis_case ax, ay;
};

netlist make_netlist(std::size_t cells, std::uint64_t seed) {
    generator_options opt;
    opt.num_cells = cells;
    opt.num_nets = cells + cells / 8;
    opt.num_rows = std::max<std::size_t>(8, cells / 60);
    opt.seed = seed;
    return generate_circuit(opt);
}

placement scattered(const netlist& nl, prng& rng) {
    placement pl = nl.centered_placement();
    const rect r = nl.region();
    for (cell_id i = 0; i < nl.num_cells(); ++i) {
        if (nl.cell_at(i).fixed) continue;
        pl[i] = point(rng.next_range(r.xlo, r.xhi), rng.next_range(r.ylo, r.yhi));
    }
    return pl;
}

/// Wire relaxation: (C + β·diag C) p = −d + β·diag(C)·p_cur.
axis_case wire_relax_axis(const quadratic_system& sys, const csr_matrix& a,
                          const std::vector<double>& b, const std::vector<double>& diag,
                          const std::vector<double>& cur) {
    const double beta = 0.05;
    const std::size_t n = sys.num_vars();
    axis_case c;
    c.values = a.values();
    c.shift.resize(n);
    c.diagonal.resize(n);
    c.b.resize(n);
    for (std::size_t v = 0; v < n; ++v) {
        c.shift[v] = beta * diag[v];
        c.diagonal[v] = diag[v] * (1.0 + beta);
        c.b[v] = -b[v] + beta * diag[v] * cur[v];
    }
    c.x0 = cur;
    c.apply = [&a, diag, beta](const std::vector<double>& in, std::vector<double>& out) {
        a.multiply(in, out);
        for (std::size_t v = 0; v < in.size(); ++v) out[v] += beta * diag[v] * in[v];
    };
    return c;
}

/// Hold-and-move: (C + diag C) δ = diag(C)·u from a cold start.
axis_case hold_and_move_axis(const quadratic_system& sys, const csr_matrix& a,
                             const std::vector<double>& diag, prng& rng) {
    const std::size_t n = sys.num_vars();
    axis_case c;
    c.values = a.values();
    c.shift = diag;
    c.diagonal.resize(n);
    c.b.assign(n, 0.0);
    for (std::size_t v = 0; v < n; ++v) c.diagonal[v] = 2.0 * diag[v];
    for (std::size_t v = 0; v < sys.num_movable(); ++v) {
        c.b[v] = diag[v] * rng.next_range(-3.0, 3.0);
    }
    c.x0.assign(n, 0.0);
    c.apply = [&a, diag](const std::vector<double>& in, std::vector<double>& out) {
        a.multiply(in, out);
        for (std::size_t v = 0; v < in.size(); ++v) out[v] += diag[v] * in[v];
    };
    return c;
}

/// GORDIAN: anchors of weight w on the movable prefix only (star centers
/// past it stay unshifted).
axis_case gordian_axis(const quadratic_system& sys, const csr_matrix& a,
                       const std::vector<double>& b, const std::vector<double>& cur,
                       double w, prng& rng) {
    const std::size_t n = sys.num_vars();
    const std::size_t m = sys.num_movable();
    axis_case c;
    c.values = a.values();
    c.shift.assign(m, w);
    c.diagonal = a.diagonal();
    c.b.resize(n);
    c.x0.assign(n, 0.0);
    for (std::size_t v = 0; v < n; ++v) {
        double anchored = 0.0;
        if (v < m) {
            anchored = w * (cur[v] + rng.next_range(-1.0, 1.0));
            c.diagonal[v] += w;
            c.x0[v] = cur[v];
        }
        c.b[v] = -b[v] + anchored;
    }
    c.apply = [&a, m, w](const std::vector<double>& in, std::vector<double>& out) {
        a.multiply(in, out);
        for (std::size_t v = 0; v < m; ++v) out[v] += w * in[v];
    };
    return c;
}

/// Netlist, assembled system and matrices outlive the cases (the oracle
/// operators hold references to the matrices).
struct fixture {
    netlist nl;
    quadratic_system sys;
    csr_matrix mx, my;
    std::vector<double> cur_x, cur_y;

    fixture(std::size_t cells, std::uint64_t seed, net_model_options model)
        : nl(make_netlist(cells, seed)), sys(nl, model) {
        prng rng(seed * 7 + 1);
        const placement pl = scattered(nl, rng);
        sys.assemble(pl);
        mx = sys.matrix_x();
        my = sys.matrix_y();
        for (const point& p : sys.variable_positions(pl)) {
            cur_x.push_back(p.x);
            cur_y.push_back(p.y);
        }
    }
};

std::vector<system_case> make_cases(const fixture& f, std::uint64_t seed) {
    prng rng(seed);
    const quadratic_system& sys = f.sys;
    std::vector<system_case> cases;
    cases.push_back({"wire_relax", sys.pattern(),
                     wire_relax_axis(sys, f.mx, sys.rhs_x(), sys.diagonal_x(), f.cur_x),
                     wire_relax_axis(sys, f.my, sys.rhs_y(), sys.diagonal_y(), f.cur_y)});
    cases.push_back({"hold_and_move", sys.pattern(),
                     hold_and_move_axis(sys, f.mx, sys.diagonal_x(), rng),
                     hold_and_move_axis(sys, f.my, sys.diagonal_y(), rng)});
    const double w = 0.3 * sys.mean_stiffness();
    cases.push_back({"gordian_prefix", sys.pattern(),
                     gordian_axis(sys, f.mx, sys.rhs_x(), f.cur_x, w, rng),
                     gordian_axis(sys, f.my, sys.rhs_y(), f.cur_y, 2.0 * w, rng)});
    return cases;
}

// --- sweep ------------------------------------------------------------------

std::vector<simd_isa> available_isas() {
    std::vector<simd_isa> isas{simd_isa::scalar};
    if (simd_kernels_for(simd_isa::avx2) != nullptr) isas.push_back(simd_isa::avx2);
    return isas;
}

class scoped_config {
public:
    scoped_config(simd_isa isa, std::size_t threads)
        : prev_isa_(simd_active_isa()),
          prev_threads_(thread_pool::instance().num_threads()) {
        EXPECT_TRUE(simd_set_isa(isa));
        thread_pool::instance().set_num_threads(threads);
    }
    ~scoped_config() {
        simd_set_isa(prev_isa_);
        thread_pool::instance().set_num_threads(prev_threads_);
    }

private:
    simd_isa prev_isa_;
    std::size_t prev_threads_;
};

/// Arms one fault for the scope (the paired core visits x's gate first,
/// then y's — the order of the old sequential solves).
class scoped_fault {
public:
    scoped_fault(fault_site site, std::size_t visit, std::uint64_t seed) {
        fault_injector::instance().arm(site, visit, seed);
    }
    ~scoped_fault() { fault_injector::instance().disarm(); }
};

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
    return a.size() == b.size() &&
           (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

struct solved {
    cg_result rx, ry;
    std::vector<double> x, y;
};

/// How a sweep variant perturbs the case before solving.
enum class variant { plain, y_converges_first, zero_rhs_y, nan_fault_y, stall_fault_x };

const char* variant_name(variant v) {
    switch (v) {
        case variant::plain: return "plain";
        case variant::y_converges_first: return "y_converges_first";
        case variant::zero_rhs_y: return "zero_rhs_y";
        case variant::nan_fault_y: return "nan_fault_y";
        case variant::stall_fault_x: return "stall_fault_x";
    }
    return "?";
}

solved run_oracle(const system_case& c, const cg_options& opt, variant v) {
    solved s{{}, {}, c.ax.x0, c.ay.x0};
    std::vector<double> by = c.ay.b;
    if (v == variant::zero_rhs_y) by.assign(by.size(), 0.0);
    std::optional<scoped_fault> fault;
    if (v == variant::nan_fault_y) fault.emplace(fault_site::cg_nan, 1, 5);
    if (v == variant::stall_fault_x) fault.emplace(fault_site::cg_stall, 0, 0);
    s.rx = oracle_solve(c.ax.apply, c.ax.diagonal, c.ax.b, s.x, opt);
    s.ry = oracle_solve(c.ay.apply, c.ay.diagonal, by, s.y, opt);
    return s;
}

solved run_paired(const system_case& c, const cg_options& opt, variant v,
                  const std::vector<double>& y_start) {
    solved s{{}, {}, c.ax.x0, y_start};
    std::vector<double> by = c.ay.b;
    if (v == variant::zero_rhs_y) by.assign(by.size(), 0.0);
    std::optional<scoped_fault> fault;
    if (v == variant::nan_fault_y) fault.emplace(fault_site::cg_nan, 1, 5);
    if (v == variant::stall_fault_x) fault.emplace(fault_site::cg_stall, 0, 0);
    std::tie(s.rx, s.ry) =
        cg_solve_pair(c.pattern, {c.ax.values, c.ax.shift, c.ax.diagonal, c.ax.b, s.x},
                      {c.ay.values, c.ay.shift, c.ay.diagonal, by, s.y}, opt);
    return s;
}

void expect_same(const cg_result& got, const cg_result& want, const std::string& where) {
    EXPECT_EQ(got.converged, want.converged) << where;
    EXPECT_EQ(got.iterations, want.iterations) << where;
    EXPECT_TRUE(same_bits(got.residual, want.residual))
        << where << ": residual " << got.residual << " vs " << want.residual;
}

void sweep_against_oracle(const fixture& f, std::uint64_t seed) {
    cg_options opt;
    opt.tolerance = 1e-10;
    opt.step_bound = 0.0; // off: the core must be the oracle's arithmetic
    for (const system_case& c : make_cases(f, seed)) {
        for (const variant v : {variant::plain, variant::y_converges_first,
                                variant::zero_rhs_y, variant::nan_fault_y,
                                variant::stall_fault_x}) {
            // y_converges_first: y starts a handful of iterations from its
            // solution, so x keeps iterating alone after y stops.
            system_case cv = c;
            if (v == variant::y_converges_first) {
                cg_options loose = opt;
                loose.tolerance = 1e-6;
                solved warm = run_oracle(c, loose, variant::plain);
                cv.ay.x0 = warm.y;
            }
            solved want;
            {
                scoped_config cfg(simd_isa::scalar, 1);
                want = run_oracle(cv, opt, v);
            }
            if (v == variant::y_converges_first) {
                ASSERT_LT(want.ry.iterations, want.rx.iterations) << c.name;
            }
            for (const simd_isa isa : available_isas()) {
                for (const std::size_t threads : {1, 2, 4, 8}) {
                    scoped_config cfg(isa, threads);
                    const solved got = run_paired(cv, opt, v, cv.ay.x0);
                    const std::string where = c.name + "/" + variant_name(v) + " " +
                                              simd_isa_name(isa) + " threads=" +
                                              std::to_string(threads);
                    expect_same(got.rx, want.rx, where + " x");
                    expect_same(got.ry, want.ry, where + " y");
                    ASSERT_TRUE(same_bits(got.x, want.x)) << where << " x solution";
                    ASSERT_TRUE(same_bits(got.y, want.y)) << where << " y solution";
                }
            }
        }
    }
}

TEST(CgPair, MatchesPerAxisOracleOnPlacerSystems) {
    // n > deterministic_sum_slab: several reduction slabs per pass. The
    // hybrid model with a low star threshold appends star variables, so
    // GORDIAN's shift covers a strict prefix.
    net_model_options model;
    model.kind = net_model_kind::hybrid;
    model.star_threshold = 4;
    const fixture f(5000, 11, model);
    ASSERT_GT(f.sys.num_vars(), f.sys.num_movable());
    ASSERT_GT(f.sys.num_vars(), 2 * deterministic_sum_slab);
    sweep_against_oracle(f, 11);
}

TEST(CgPair, MatchesPerAxisOracleInOneSlab) {
    const fixture f(400, 5, net_model_options{});
    ASSERT_LT(f.sys.num_vars(), deterministic_sum_slab);
    sweep_against_oracle(f, 5);
}

TEST(CgPair, NanFaultPoisonsOnlyItsAxis) {
    const fixture f(400, 9, net_model_options{});
    const system_case c = make_cases(f, 9).front();
    const solved s = run_paired(c, cg_options{}, variant::nan_fault_y, c.ay.x0);
    EXPECT_TRUE(s.rx.converged);
    EXPECT_TRUE(std::isnan(s.ry.residual));
    EXPECT_EQ(s.ry.iterations, 0u);
    EXPECT_TRUE(std::isnan(s.y[5 % s.y.size()]));
}

// --- step rule ----------------------------------------------------------------

/// The oracle's loop for one axis, plus the step rule as specified: after
/// each update, stop as converged once max_i |α·p_i| is at most `bound`
/// (a NaN maximum or a non-finite r·r never stops). `steps` receives the
/// maximum of every update made.
cg_result reference_step_solve(const apply_fn& apply, const std::vector<double>& diagonal,
                               const std::vector<double>& b, std::vector<double>& x,
                               double tolerance, double bound,
                               std::vector<double>* steps = nullptr) {
    const std::size_t n = b.size();
    cg_result result;
    const double bnorm = oracle_norm(b);
    std::vector<double> r(n), z(n), p(n), ap(n);
    apply(x, ap);
    for (std::size_t i = 0; i < n; ++i) r[i] = b[i] - ap[i];
    for (std::size_t i = 0; i < n; ++i) z[i] = r[i] / diagonal[i];
    p = z;
    double rz = oracle_dot(r, z);
    for (std::size_t it = 0; it < 10 * n + 100; ++it) {
        result.residual = oracle_norm(r) / bnorm;
        if (result.residual <= tolerance) {
            result.converged = true;
            result.iterations = it;
            result.stop = cg_stop::residual;
            return result;
        }
        apply(p, ap);
        const double alpha = rz / oracle_dot(p, ap);
        double step = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            const double d = std::abs(alpha * p[i]);
            if (!std::isnan(step) && !(d <= step)) step = d; // NaN sticks
            x[i] += alpha * p[i];
        }
        if (steps) steps->push_back(step);
        for (std::size_t i = 0; i < n; ++i) r[i] += -alpha * ap[i];
        for (std::size_t i = 0; i < n; ++i) z[i] = r[i] / diagonal[i];
        const double rz_new = oracle_dot(r, z);
        const double rr = oracle_dot(r, r);
        result.iterations = it + 1;
        if (std::isfinite(step) && std::isfinite(rr) && step <= bound) {
            result.residual = std::sqrt(rr) / bnorm;
            result.converged = true;
            result.stop = result.residual <= tolerance ? cg_stop::residual : cg_stop::step;
            return result;
        }
        const double beta = rz_new / rz;
        rz = rz_new;
        for (std::size_t i = 0; i < n; ++i) p[i] = z[i] + beta * p[i];
    }
    ADD_FAILURE() << "reference loop hit its iteration cap";
    return result;
}

/// A bound that the step rule meets partway through the solve: the
/// median of the update maxima of an unbounded reference solve.
double midway_bound(const axis_case& c, double tolerance) {
    std::vector<double> x = c.x0;
    std::vector<double> steps;
    reference_step_solve(c.apply, c.diagonal, c.b, x, tolerance, 0.0, &steps);
    std::nth_element(steps.begin(), steps.begin() + steps.size() / 2, steps.end());
    return steps[steps.size() / 2];
}

TEST(CgStepRule, StopsAtFirstSmallUpdatePerAxisAtEveryThreadCount) {
    const fixture f(5000, 21, net_model_options{});
    ASSERT_GT(f.sys.num_vars(), 2 * deterministic_sum_slab);
    bool axes_parted = false;
    for (const system_case& c : make_cases(f, 21)) {
        cg_options opt;
        opt.tolerance = 1e-12;
        opt.step_bound = midway_bound(c.ax, opt.tolerance);
        // Each axis alone, as the reference states the rule.
        solved want{{}, {}, c.ax.x0, c.ay.x0};
        {
            scoped_config cfg(simd_isa::scalar, 1);
            want.rx = reference_step_solve(c.ax.apply, c.ax.diagonal, c.ax.b, want.x,
                                           opt.tolerance, opt.step_bound);
            want.ry = reference_step_solve(c.ay.apply, c.ay.diagonal, c.ay.b, want.y,
                                           opt.tolerance, opt.step_bound);
        }
        ASSERT_EQ(want.rx.stop, cg_stop::step) << c.name;
        ASSERT_GT(want.rx.iterations, 1u) << c.name;
        axes_parted = axes_parted || want.rx.iterations != want.ry.iterations;
        for (const simd_isa isa : available_isas()) {
            for (const std::size_t threads : {1, 2, 4, 8}) {
                scoped_config cfg(isa, threads);
                const solved got = run_paired(c, opt, variant::plain, c.ay.x0);
                const std::string where = c.name + " " + simd_isa_name(isa) +
                                          " threads=" + std::to_string(threads);
                expect_same(got.rx, want.rx, where + " x");
                expect_same(got.ry, want.ry, where + " y");
                EXPECT_EQ(got.rx.stop, want.rx.stop) << where;
                EXPECT_EQ(got.ry.stop, want.ry.stop) << where;
                ASSERT_TRUE(same_bits(got.x, want.x)) << where << " x solution";
                ASSERT_TRUE(same_bits(got.y, want.y)) << where << " y solution";
            }
        }
    }
    // At least one system stops its axes at different iterations, so the
    // lockstep core really carries on with one axis alone.
    EXPECT_TRUE(axes_parted);
}

TEST(CgStepRule, NanInSearchDirectionIsNeverConverged) {
    // Plant a NaN in p right before the update at which the step rule
    // would otherwise stop. r·r stays finite (Ap was formed before the
    // NaN), so only a NaN-keeping maximum refuses to report the poisoned
    // x as converged; the next p·Ap then breaks the solve down.
    const fixture f(5000, 23, net_model_options{});
    const system_case c = make_cases(f, 23).front();
    cg_options opt;
    opt.tolerance = 1e-14;
    opt.step_bound = midway_bound(c.ax, opt.tolerance);
    std::vector<double> x = c.ax.x0;
    const cg_result clean = reference_step_solve(c.ax.apply, c.ax.diagonal, c.ax.b, x,
                                                 opt.tolerance, opt.step_bound);
    ASSERT_EQ(clean.stop, cg_stop::step);
    ASSERT_GE(clean.iterations, 2u); // the NaN lands after the first iteration
    const std::vector<double> zero_b(c.ay.b.size(), 0.0); // y inactive: visits are x's
    for (const std::size_t threads : {1, 4}) {
        scoped_config cfg(simd_isa::scalar, threads);
        std::vector<double> sx = c.ax.x0;
        std::vector<double> sy = c.ay.x0;
        cg_result rx;
        {
            scoped_fault fault(fault_site::cg_step_nan, clean.iterations - 1, 17);
            rx = cg_solve_pair(c.pattern, {c.ax.values, c.ax.shift, c.ax.diagonal, c.ax.b, sx},
                               {c.ay.values, c.ay.shift, c.ay.diagonal, zero_b, sy}, opt)
                     .first;
        }
        EXPECT_FALSE(rx.converged) << "threads=" << threads;
        EXPECT_EQ(rx.stop, cg_stop::breakdown) << "threads=" << threads;
        EXPECT_TRUE(std::isnan(sx[17 % sx.size()])) << "threads=" << threads;
    }
}

TEST(CsrPattern, RejectsRowsBeyondThirtyTwoBitIndices) {
    EXPECT_NO_THROW(check_rows_fit_u32((std::size_t{1} << 32) - 1));
    EXPECT_THROW(check_rows_fit_u32(std::size_t{1} << 32), check_error);
    // The pattern constructor applies the guard to its own row count.
    EXPECT_NO_THROW(csr_pattern({0, 1}, {0}));
}

} // namespace
} // namespace gpf
