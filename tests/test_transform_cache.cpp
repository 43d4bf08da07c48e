// The cache contract of the transformation-loop hot path (DESIGN.md §7):
// every iteration-persistent cache — the spectral_convolver's kernel
// spectra, the quadratic system's symbolic CSR pattern, the placer's
// density / calculator / workspace reuse — must be invisible in the
// results. A reused object produces BITWISE identical output to a freshly
// constructed one, and the full placer produces bitwise identical
// placements at any thread count.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "gpf.hpp"

namespace gpf {
namespace {

class scoped_threads {
public:
    explicit scoped_threads(std::size_t n)
        : previous_(thread_pool::instance().num_threads()) {
        thread_pool::instance().set_num_threads(n);
    }
    ~scoped_threads() { thread_pool::instance().set_num_threads(previous_); }

private:
    std::size_t previous_;
};

netlist test_circuit(std::size_t cells, std::uint64_t seed) {
    generator_options opt;
    opt.num_cells = cells;
    opt.num_nets = cells + cells / 6;
    opt.num_rows = 8;
    opt.num_pads = 24;
    opt.seed = seed;
    return generate_circuit(opt);
}

placement random_placement(const netlist& nl, std::uint64_t seed) {
    prng rng(seed);
    placement pl = nl.initial_placement();
    const rect r = nl.region();
    for (cell_id i = 0; i < nl.num_cells(); ++i) {
        if (nl.cell_at(i).fixed) continue;
        pl[i] = point(rng.next_range(r.xlo, r.xhi), rng.next_range(r.ylo, r.yhi));
    }
    return pl;
}

class TransformCacheProperties : public ::testing::TestWithParam<std::uint64_t> {};

// ---------------------------------------------------------------------------
// spectral_convolver: reused == fresh (bitwise), and both match convolve_2d
// ---------------------------------------------------------------------------

TEST_P(TransformCacheProperties, SpectralConvolverReuseIsBitwiseIdentical) {
    const std::uint64_t seed = GetParam();
    prng rng(seed);
    const std::size_t n0 = 4 + rng.next_below(21);
    const std::size_t n1 = 4 + rng.next_below(21);
    const std::size_t ksize = (2 * n0 - 1) * (2 * n1 - 1);
    std::vector<double> kx(ksize), ky(ksize);
    for (double& v : kx) v = rng.next_range(-1.0, 1.0);
    for (double& v : ky) v = rng.next_range(-1.0, 1.0);

    spectral_convolver reused(n0, n1, kx, ky);
    std::vector<double> rx, ry, fx, fy;
    for (std::size_t call = 0; call < 3; ++call) {
        std::vector<double> data(n0 * n1);
        for (double& v : data) v = rng.next_range(-2.0, 2.0);

        reused.convolve_pair(data, rx, ry);
        spectral_convolver fresh(n0, n1, kx, ky);
        fresh.convolve_pair(data, fx, fy);

        ASSERT_EQ(rx.size(), n0 * n1);
        for (std::size_t i = 0; i < n0 * n1; ++i) {
            ASSERT_EQ(rx[i], fx[i]) << "call " << call << " x index " << i;
            ASSERT_EQ(ry[i], fy[i]) << "call " << call << " y index " << i;
        }

        // Against the plain per-kernel path (different FFT packing, so
        // tolerance, not bitwise).
        const std::vector<double> ref_x = convolve_2d(data, n0, n1, kx);
        const std::vector<double> ref_y = convolve_2d(data, n0, n1, ky);
        double scale = 1.0;
        for (const double v : ref_x) scale = std::max(scale, std::abs(v));
        for (const double v : ref_y) scale = std::max(scale, std::abs(v));
        for (std::size_t i = 0; i < n0 * n1; ++i) {
            ASSERT_NEAR(rx[i], ref_x[i], 1e-11 * scale) << "x index " << i;
            ASSERT_NEAR(ry[i], ref_y[i], 1e-11 * scale) << "y index " << i;
        }
    }
}

// ---------------------------------------------------------------------------
// quadratic_system: symbolic pattern + numeric refill == fresh assembly
// ---------------------------------------------------------------------------

TEST_P(TransformCacheProperties, SystemRefillMatchesFreshAssembly) {
    const std::uint64_t seed = GetParam();
    netlist nl = test_circuit(220, seed);
    quadratic_system reused(nl);

    for (std::size_t call = 0; call < 3; ++call) {
        const placement pl = random_placement(nl, seed * 1000 + call);
        // Live net-weight change (the timing-driven weight hook does this
        // between transformations); the refill must pick it up.
        if (call == 2) nl.net_at(0).weight *= 3.5;

        reused.assemble(pl);
        quadratic_system fresh(nl);
        fresh.assemble(pl);

        const auto expect_same = [&](const std::vector<double>& a,
                                     const std::vector<double>& b, const char* what) {
            ASSERT_EQ(a.size(), b.size()) << what;
            for (std::size_t i = 0; i < a.size(); ++i) {
                ASSERT_EQ(a[i], b[i]) << what << " index " << i << " call " << call;
            }
        };
        expect_same(reused.matrix_x().values(), fresh.matrix_x().values(), "Cx");
        expect_same(reused.matrix_y().values(), fresh.matrix_y().values(), "Cy");
        expect_same(reused.rhs_x(), fresh.rhs_x(), "dx");
        expect_same(reused.rhs_y(), fresh.rhs_y(), "dy");
        expect_same(reused.diagonal_x(), fresh.diagonal_x(), "diag_x");
        expect_same(reused.diagonal_y(), fresh.diagonal_y(), "diag_y");
    }
}

TEST_P(TransformCacheProperties, CachedDiagonalMatchesMatrixDiagonal) {
    const std::uint64_t seed = GetParam();
    const netlist nl = test_circuit(180, seed);
    quadratic_system sys(nl);
    sys.assemble(random_placement(nl, seed + 7));
    const std::vector<double> dx = sys.matrix_x().diagonal();
    const std::vector<double> dy = sys.matrix_y().diagonal();
    ASSERT_EQ(dx.size(), sys.diagonal_x().size());
    for (std::size_t v = 0; v < dx.size(); ++v) {
        ASSERT_EQ(sys.diagonal_x()[v], dx[v]) << "x var " << v;
        ASSERT_EQ(sys.diagonal_y()[v], dy[v]) << "y var " << v;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TransformCacheProperties,
                         ::testing::Range<std::uint64_t>(1, 21));

// ---------------------------------------------------------------------------
// Full placer: bitwise identical at every thread count
// ---------------------------------------------------------------------------

placement run_placer(const netlist& nl, std::size_t threads) {
    scoped_threads guard(threads);
    placer_options opt;
    opt.max_iterations = 12;
    placer p(nl, opt);
    return p.run();
}

TEST(TransformCache, PlacerBitwiseIdenticalAcrossThreads) {
    const netlist nl = test_circuit(400, 2024);
    const placement reference = run_placer(nl, 1);
    ASSERT_EQ(reference.size(), nl.num_cells());
    for (const std::size_t t : {1, 2, 4, 8}) {
        const placement pl = run_placer(nl, t);
        ASSERT_EQ(pl.size(), reference.size());
        for (std::size_t i = 0; i < pl.size(); ++i) {
            ASSERT_EQ(pl[i].x, reference[i].x) << "cell " << i << " threads=" << t;
            ASSERT_EQ(pl[i].y, reference[i].y) << "cell " << i << " threads=" << t;
        }
    }
}

// ---------------------------------------------------------------------------
// Profiler smoke
// ---------------------------------------------------------------------------

TEST(TransformCache, ProfilerCollectsPhaseSamples) {
    profiler& prof = profiler::instance();
    const bool was_enabled = prof.enabled();
    prof.set_enabled(true);
    prof.reset();

    const netlist nl = test_circuit(200, 99);
    placer_options opt;
    opt.max_iterations = 3;
    opt.min_iterations = 3;
    placer p(nl, opt);
    p.run();

    EXPECT_GE(prof.transforms(), 3u);
    EXPECT_GT(prof.calls(profile_phase::assemble), 0u);
    EXPECT_GT(prof.calls(profile_phase::density), 0u);
    EXPECT_GT(prof.calls(profile_phase::force_field), 0u);
    EXPECT_GT(prof.calls(profile_phase::solve), 0u);
    EXPECT_GT(prof.calls(profile_phase::spread_check), 0u);
    EXPECT_GT(prof.total_cg_x() + prof.total_cg_y(), 0u);
    EXPECT_FALSE(prof.summary().empty());

    prof.reset();
    prof.set_enabled(was_enabled);
}

TEST(TransformCache, ProfilerSplitsCgIterationsByKind) {
    profiler& prof = profiler::instance();
    const bool was_enabled = prof.enabled();
    prof.set_enabled(true);
    prof.reset();

    const netlist nl = test_circuit(200, 99);
    placer_options opt;
    opt.max_iterations = 3;
    opt.min_iterations = 3;
    opt.wire_relax_interval = 1;
    placer p(nl, opt);
    p.run();

    // Every transformation re-assembles once more for its wire
    // relaxation, booked to the assemble phase rather than wire_relax.
    EXPECT_EQ(prof.calls(profile_phase::wire_relax), prof.transforms());
    EXPECT_EQ(prof.calls(profile_phase::assemble), 2 * prof.transforms());
    const std::size_t solve = prof.total_cg(profile_phase::solve);
    const std::size_t relax = prof.total_cg(profile_phase::wire_relax);
    EXPECT_GT(solve, 0u);
    EXPECT_GT(relax, 0u);
    EXPECT_EQ(solve + relax, prof.total_cg_x() + prof.total_cg_y());

    // Kernels without a flop model report time only, never "0.00 GFLOP/s".
    const std::string summary = prof.summary();
    EXPECT_NE(summary.find("wire-relax " + std::to_string(relax)), std::string::npos)
        << summary;
    const std::size_t stamp = summary.find("kernel stamp");
    ASSERT_NE(stamp, std::string::npos) << summary;
    const std::string stamp_line = summary.substr(stamp, summary.find('\n', stamp) - stamp);
    EXPECT_EQ(stamp_line.find("GFLOP"), std::string::npos) << stamp_line;

    prof.reset();
    prof.set_enabled(was_enabled);
}

TEST(TransformCache, ProfilerCountsCgStopsByCause) {
    profiler& prof = profiler::instance();
    const bool was_enabled = prof.enabled();
    prof.set_enabled(true);
    prof.reset();

    const netlist nl = test_circuit(200, 99);
    placer_options opt;
    opt.max_iterations = 3;
    opt.min_iterations = 3;
    opt.wire_relax_interval = 1;
    placer p(nl, opt);
    p.run();

    // One stop per axis and solve. Only wire relaxation has a step bound.
    for (const profile_phase kind : {profile_phase::solve, profile_phase::wire_relax}) {
        std::size_t stops = 0;
        for (std::size_t c = 0; c < num_cg_stops; ++c) {
            stops += prof.cg_stops(kind, static_cast<cg_stop>(c));
        }
        EXPECT_EQ(stops, 2 * prof.transforms()) << profile_phase_name(kind);
    }
    EXPECT_EQ(prof.cg_stops(profile_phase::solve, cg_stop::step), 0u);
    EXPECT_GT(prof.cg_stops(profile_phase::wire_relax, cg_stop::step), 0u);
    EXPECT_LE(prof.worst_cg_residual(profile_phase::solve), opt.cg.tolerance);
    EXPECT_GT(prof.worst_cg_residual(profile_phase::wire_relax), opt.cg.tolerance);

    const std::string summary = prof.summary();
    const std::size_t iters = summary.find("cg iterations:");
    const std::size_t stops = summary.find("cg stops:");
    ASSERT_NE(stops, std::string::npos) << summary;
    EXPECT_LT(iters, stops) << summary;
    EXPECT_NE(summary.find("wire-relax residual="), std::string::npos) << summary;

    prof.reset();
    prof.set_enabled(was_enabled);
}

} // namespace
} // namespace gpf
