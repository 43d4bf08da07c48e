#include <gtest/gtest.h>

#include <cmath>

#include "linalg/cg_solver.hpp"
#include "linalg/csr_matrix.hpp"
#include "util/check.hpp"
#include "util/prng.hpp"

namespace gpf {
namespace {

csr_matrix make_tridiagonal(std::size_t n, double diag, double off) {
    coo_builder b(n);
    for (std::size_t i = 0; i < n; ++i) {
        b.add_diagonal(i, diag);
        if (i + 1 < n) b.add_symmetric_pair(i, i + 1, off);
    }
    return b.build();
}

TEST(CsrMatrix, BuildsAndMerges) {
    coo_builder b(3);
    b.add(0, 0, 1.0);
    b.add(0, 0, 2.0); // duplicate → merged
    b.add(0, 2, -1.0);
    b.add(2, 0, -1.0);
    b.add(1, 1, 5.0);
    b.add(2, 2, 4.0);
    const csr_matrix m = b.build();
    EXPECT_EQ(m.rows(), 3u);
    EXPECT_EQ(m.nonzeros(), 5u);
    EXPECT_DOUBLE_EQ(m.at(0, 0), 3.0);
    EXPECT_DOUBLE_EQ(m.at(0, 2), -1.0);
    EXPECT_DOUBLE_EQ(m.at(0, 1), 0.0);
    EXPECT_TRUE(m.is_symmetric());
}

TEST(CsrMatrix, Multiply) {
    const csr_matrix m = make_tridiagonal(4, 2.0, -1.0);
    std::vector<double> y;
    m.multiply({1.0, 1.0, 1.0, 1.0}, y);
    ASSERT_EQ(y.size(), 4u);
    EXPECT_DOUBLE_EQ(y[0], 1.0);
    EXPECT_DOUBLE_EQ(y[1], 0.0);
    EXPECT_DOUBLE_EQ(y[2], 0.0);
    EXPECT_DOUBLE_EQ(y[3], 1.0);
}

TEST(CsrMatrix, Diagonal) {
    const csr_matrix m = make_tridiagonal(3, 5.0, -1.0);
    const std::vector<double> d = m.diagonal();
    EXPECT_EQ(d, (std::vector<double>{5.0, 5.0, 5.0}));
}

TEST(CsrMatrix, AsymmetryDetected) {
    coo_builder b(2);
    b.add_diagonal(0, 1.0);
    b.add_diagonal(1, 1.0);
    b.add(0, 1, -0.5); // missing transpose entry
    const csr_matrix m = b.build();
    EXPECT_FALSE(m.is_symmetric());
}

TEST(CsrMatrix, OutOfRangeAddThrows) {
    coo_builder b(2);
    EXPECT_THROW(b.add(2, 0, 1.0), check_error);
}

TEST(CgSolver, SolvesIdentity) {
    coo_builder b(3);
    for (std::size_t i = 0; i < 3; ++i) b.add_diagonal(i, 1.0);
    const csr_matrix m = b.build();
    std::vector<double> x;
    const cg_result res = cg_solve(m, {1.0, 2.0, 3.0}, x);
    EXPECT_TRUE(res.converged);
    EXPECT_NEAR(x[0], 1.0, 1e-8);
    EXPECT_NEAR(x[1], 2.0, 1e-8);
    EXPECT_NEAR(x[2], 3.0, 1e-8);
}

TEST(CgSolver, ZeroRhsGivesZero) {
    const csr_matrix m = make_tridiagonal(5, 2.0, -1.0);
    std::vector<double> x(5, 3.0); // non-zero warm start
    const cg_result res = cg_solve(m, std::vector<double>(5, 0.0), x);
    EXPECT_TRUE(res.converged);
    for (const double v : x) EXPECT_DOUBLE_EQ(v, 0.0);
}

class CgPreconditioners : public ::testing::TestWithParam<preconditioner_kind> {};

TEST_P(CgPreconditioners, SolvesRandomSpdSystem) {
    // Laplacian + diagonal dominance → SPD.
    constexpr std::size_t n = 60;
    prng rng(17);
    coo_builder b(n);
    for (std::size_t i = 0; i < n; ++i) b.add_diagonal(i, 4.0 + rng.next_double());
    for (std::size_t i = 0; i + 1 < n; ++i) b.add_symmetric_pair(i, i + 1, -1.0);
    for (std::size_t i = 0; i + 7 < n; ++i) b.add_symmetric_pair(i, i + 7, -0.5);
    const csr_matrix m = b.build();

    std::vector<double> x_true(n);
    for (double& v : x_true) v = rng.next_range(-2.0, 2.0);
    std::vector<double> rhs;
    m.multiply(x_true, rhs);

    cg_options opt;
    opt.preconditioner = GetParam();
    opt.tolerance = 1e-10;
    std::vector<double> x;
    const cg_result res = cg_solve(m, rhs, x, opt);
    EXPECT_TRUE(res.converged);
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-6);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, CgPreconditioners,
                         ::testing::Values(preconditioner_kind::none,
                                           preconditioner_kind::jacobi,
                                           preconditioner_kind::ssor));

TEST(CgSolver, WarmStartConvergesFaster) {
    const csr_matrix m = make_tridiagonal(200, 2.1, -1.0);
    std::vector<double> rhs(200, 1.0);

    std::vector<double> cold;
    const cg_result cold_res = cg_solve(m, rhs, cold);
    ASSERT_TRUE(cold_res.converged);

    std::vector<double> warm = cold; // exact solution as start
    const cg_result warm_res = cg_solve(m, rhs, warm);
    EXPECT_TRUE(warm_res.converged);
    EXPECT_LT(warm_res.iterations, cold_res.iterations);
    EXPECT_EQ(warm_res.iterations, 0u);
}

TEST(CgSolver, PairedSolveMatchesSingleAxisSolves) {
    // Two systems on one pattern (the x/y shape of the placement system):
    // the lockstep paired solve must reproduce each solo solve bit for bit.
    const csr_matrix mx = make_tridiagonal(50, 3.0, -1.0);
    const csr_matrix my = make_tridiagonal(50, 2.5, -0.75);
    std::vector<double> bx(50), by(50);
    prng rng(23);
    for (double& v : bx) v = rng.next_range(-1.0, 1.0);
    for (double& v : by) v = rng.next_range(-1.0, 1.0);

    std::vector<double> x_solo, y_solo;
    const cg_result rx_solo = cg_solve(mx, bx, x_solo);
    const cg_result ry_solo = cg_solve(my, by, y_solo);

    const std::vector<double> dx = mx.diagonal();
    const std::vector<double> dy = my.diagonal();
    std::vector<double> x, y;
    const auto [rx, ry] = cg_solve_pair(mx.pattern(), {mx.values(), {}, dx, bx, x},
                                        {my.values(), {}, dy, by, y});
    ASSERT_TRUE(rx.converged && ry.converged);
    EXPECT_EQ(rx.iterations, rx_solo.iterations);
    EXPECT_EQ(ry.iterations, ry_solo.iterations);
    EXPECT_EQ(x, x_solo);
    EXPECT_EQ(y, y_solo);
}

TEST(CgSolver, OperatorWithDiagonalShift) {
    // (A + wI) x = b via the axis shift — the anchored system used by the
    // GORDIAN baseline — with the y axis shifted on a row prefix only.
    const csr_matrix m = make_tridiagonal(30, 2.0, -1.0);
    const double w = 0.7;
    const std::vector<double> shift_x(30, w), shift_y(12, w);
    std::vector<double> diag_x = m.diagonal(), diag_y = m.diagonal();
    for (double& d : diag_x) d += w;
    for (std::size_t i = 0; i < shift_y.size(); ++i) diag_y[i] += w;
    const std::vector<double> rhs(30, 1.0);
    std::vector<double> x, y;
    const auto [rx, ry] = cg_solve_pair(m.pattern(), {m.values(), shift_x, diag_x, rhs, x},
                                        {m.values(), shift_y, diag_y, rhs, y});
    ASSERT_TRUE(rx.converged && ry.converged);
    // Verify residuals directly.
    std::vector<double> ax, ay;
    m.multiply(x, ax);
    m.multiply(y, ay);
    for (std::size_t i = 0; i < 30; ++i) {
        EXPECT_NEAR(ax[i] + w * x[i], rhs[i], 1e-6);
        EXPECT_NEAR(ay[i] + (i < shift_y.size() ? w * y[i] : 0.0), rhs[i], 1e-6);
    }
}

TEST(CgSolver, SsorOnShiftedSystemConvergesToJacobiSolution) {
    // SSOR sweeps the shifted system with D = diag(A) + s: a different
    // iteration from Jacobi, but the same solution within tolerance.
    const csr_matrix m = make_tridiagonal(60, 3.0, -1.0);
    std::vector<double> rhs(60);
    prng rng(77);
    for (double& v : rhs) v = rng.next_range(-1.0, 1.0);
    std::vector<double> shift(60), diag = m.diagonal();
    for (std::size_t i = 0; i < 60; ++i) {
        shift[i] = rng.next_range(0.1, 2.0);
        diag[i] += shift[i];
    }

    const auto solve = [&](preconditioner_kind kind, std::vector<double>& x,
                           std::vector<double>& y) {
        cg_options opt;
        opt.preconditioner = kind;
        opt.tolerance = 1e-12;
        return cg_solve_pair(m.pattern(), {m.values(), shift, diag, rhs, x},
                             {m.values(), shift, diag, rhs, y}, opt);
    };
    std::vector<double> x_ssor, y_ssor, x_jacobi, y_jacobi;
    const auto [sx, sy] = solve(preconditioner_kind::ssor, x_ssor, y_ssor);
    const auto [jx, jy] = solve(preconditioner_kind::jacobi, x_jacobi, y_jacobi);
    ASSERT_TRUE(sx.converged && sy.converged && jx.converged && jy.converged);
    EXPECT_EQ(x_ssor, y_ssor); // both axes run the same sweep
    for (std::size_t i = 0; i < 60; ++i) EXPECT_NEAR(x_ssor[i], x_jacobi[i], 1e-9) << i;
}

TEST(VectorHelpers, DotNormAxpy) {
    const std::vector<double> a{1.0, 2.0, 3.0};
    const std::vector<double> b{4.0, 5.0, 6.0};
    EXPECT_DOUBLE_EQ(dot(a, b), 32.0);
    EXPECT_DOUBLE_EQ(norm2(a), std::sqrt(14.0));
    std::vector<double> y = b;
    axpy(2.0, a, y);
    EXPECT_EQ(y, (std::vector<double>{6.0, 9.0, 12.0}));
}

} // namespace
} // namespace gpf
