// Scalar↔SIMD bitwise-equivalence sweep (DESIGN.md §13): every dispatched
// kernel must produce bitwise identical results under every available
// GPF_SIMD tier (scalar, avx2, avx512, neon — whichever the host
// supports), at any thread count, and with the fused forward path on or
// off — the same reproducibility contract GPF_THREADS carries
// (DESIGN.md §12, tests/test_parallel.cpp). Tiers the host cannot run
// (e.g. avx512 on a non-AVX-512 CPU) are skipped, not failed.
//
// Runs in the property binary: each check is a pure function of its seed,
// replayable with
//
//   GPF_PROPERTY_SEEDS=<n> ./gpf_property_tests --gtest_filter='*Simd*'
//
// Seed count defaults to 20 (GPF_PROPERTY_SEEDS scales the nightly
// sweep); GPF_PROPERTY_SEED_LOG accumulates reproducer lines. On hosts
// whose best ISA *is* scalar the suite is skipped — there is no second
// kernel table to compare against.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "density/density_map.hpp"
#include "linalg/cg_solver.hpp"
#include "linalg/csr_matrix.hpp"
#include "linalg/fft.hpp"
#include "util/prng.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

namespace gpf {
namespace {

std::uint64_t seed_count() {
    if (const char* env = std::getenv("GPF_PROPERTY_SEEDS")) {
        const long n = std::atol(env);
        if (n > 0) return static_cast<std::uint64_t>(n);
    }
    return 20;
}

void log_failing_seed(const char* check, std::uint64_t seed) {
    const char* path = std::getenv("GPF_PROPERTY_SEED_LOG");
    if (path == nullptr || *path == '\0') return;
    std::ofstream out(path, std::ios::app);
    out << check << " seed=" << seed << "\n";
}

constexpr std::size_t kThreadSweep[] = {1, 2, 4, 8};

/// Every kernel tier this host can actually run: scalar always, plus each
/// vector ISA whose table is compiled in and supported by the CPU
/// (simd_set_isa refuses unavailable tiers). On an AVX-512 host this is
/// {scalar, avx2, avx512}; elsewhere the unavailable tiers drop out
/// gracefully instead of failing.
std::vector<simd_isa> available_isas() {
    const simd_isa prev = simd_active_isa();
    std::vector<simd_isa> isas{simd_isa::scalar};
    for (const simd_isa isa :
         {simd_isa::avx2, simd_isa::avx512, simd_isa::neon}) {
        if (simd_set_isa(isa)) isas.push_back(isa);
    }
    simd_set_isa(prev);
    return isas;
}

/// RAII: pins the active kernel table and the pool size, restoring both.
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

bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b) {
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool bitwise_equal(const std::vector<std::complex<double>>& a,
                   const std::vector<std::complex<double>>& b) {
    return a.size() == b.size() &&
           (a.empty() || std::memcmp(a.data(), b.data(),
                                     a.size() * sizeof(std::complex<double>)) == 0);
}

class SimdEquivalence : public ::testing::Test {
protected:
    void SetUp() override {
        if (simd_detected_isa() == simd_isa::scalar) {
            GTEST_SKIP() << "no vector ISA compiled in / supported";
        }
    }
};

TEST_F(SimdEquivalence, Fft2dBitwiseAcrossIsaAndThreads) {
    const std::uint64_t seeds = seed_count();
    for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
        SCOPED_TRACE("seed=" + std::to_string(seed));
        prng rng(seed);
        // 32 (even log2) x 128 (odd log2): both radix-4 schedules, with
        // and without the opening radix-2 stage.
        const std::size_t n0 = 32, n1 = 128;
        std::vector<std::complex<double>> input(n0 * n1);
        for (auto& v : input) {
            v = {rng.next_range(-1.0, 1.0), rng.next_range(-1.0, 1.0)};
        }

        std::vector<std::complex<double>> reference;
        {
            scoped_config cfg(simd_isa::scalar, 1);
            reference = input;
            fft_2d(reference, n0, n1, false);
            fft_2d(reference, n0, n1, true);
        }
        for (const simd_isa isa : available_isas()) {
            for (const std::size_t threads : kThreadSweep) {
                scoped_config cfg(isa, threads);
                std::vector<std::complex<double>> a = input;
                fft_2d(a, n0, n1, false);
                fft_2d(a, n0, n1, true);
                if (!bitwise_equal(a, reference)) {
                    log_failing_seed("simd_fft2d_bitwise", seed);
                }
                ASSERT_TRUE(bitwise_equal(a, reference))
                    << simd_isa_name(isa) << " threads=" << threads;
            }
        }
    }
}

TEST_F(SimdEquivalence, R2cTransformsBitwiseAcrossIsaAndThreads) {
    const std::uint64_t seeds = seed_count();
    for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
        SCOPED_TRACE("seed=" + std::to_string(seed));
        prng rng(seed * 733 + 5);
        // 16 (even log2) x 128 (odd log2): both radix schedules, odd row
        // count in the packed pairing is covered by n0/2 pair + remainder
        // logic at any size.
        const std::size_t n0 = 16, n1 = 128;
        std::vector<double> input(n0 * n1);
        for (double& v : input) v = rng.next_range(-3.0, 3.0);

        std::vector<std::complex<double>> ref_half;
        std::vector<double> ref_back;
        {
            scoped_config cfg(simd_isa::scalar, 1);
            ref_half = fft_2d_r2c(input, n0, n1);
            std::vector<std::complex<double>> scratch = ref_half;
            ref_back = fft_2d_c2r(scratch, n0, n1);
        }
        for (const simd_isa isa : available_isas()) {
            for (const std::size_t threads : kThreadSweep) {
                scoped_config cfg(isa, threads);
                const auto half = fft_2d_r2c(input, n0, n1);
                std::vector<std::complex<double>> scratch = half;
                const auto back = fft_2d_c2r(scratch, n0, n1);
                if (!bitwise_equal(half, ref_half) ||
                    !bitwise_equal(back, ref_back)) {
                    log_failing_seed("simd_r2c_bitwise", seed);
                }
                ASSERT_TRUE(bitwise_equal(half, ref_half))
                    << simd_isa_name(isa) << " threads=" << threads;
                ASSERT_TRUE(bitwise_equal(back, ref_back))
                    << simd_isa_name(isa) << " threads=" << threads;
            }
        }
    }
}

TEST_F(SimdEquivalence, ConvolvePairBitwiseAcrossIsaAndThreads) {
    const std::uint64_t seeds = seed_count();
    for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
        SCOPED_TRACE("seed=" + std::to_string(seed));
        prng rng(seed * 977 + 11);
        const std::size_t n0 = 24, n1 = 40; // non-pow2 data, cyclic padding
        const std::size_t k0 = 2 * n0 - 1, k1 = 2 * n1 - 1;
        std::vector<double> kx(k0 * k1), ky(k0 * k1), data(n0 * n1);
        for (double& v : kx) v = rng.next_range(-1.0, 1.0);
        for (double& v : ky) v = rng.next_range(-1.0, 1.0);
        for (double& v : data) v = rng.next_range(0.0, 2.0);

        std::vector<double> ref_x, ref_y;
        {
            scoped_config cfg(simd_isa::scalar, 1);
            spectral_convolver conv(n0, n1, kx, ky);
            conv.convolve_pair(data, ref_x, ref_y);
        }
        for (const simd_isa isa : available_isas()) {
            for (const std::size_t threads : kThreadSweep) {
                scoped_config cfg(isa, threads);
                spectral_convolver conv(n0, n1, kx, ky);
                std::vector<double> out_x, out_y;
                conv.convolve_pair(data, out_x, out_y);
                if (!bitwise_equal(out_x, ref_x) || !bitwise_equal(out_y, ref_y)) {
                    log_failing_seed("simd_convolve_pair_bitwise", seed);
                }
                ASSERT_TRUE(bitwise_equal(out_x, ref_x))
                    << simd_isa_name(isa) << " threads=" << threads;
                ASSERT_TRUE(bitwise_equal(out_y, ref_y))
                    << simd_isa_name(isa) << " threads=" << threads;
            }
        }
    }
}

/// SPD test system: 1-D Laplacian plus a random positive diagonal.
csr_matrix laplacian_system(std::size_t n, prng& rng, std::vector<double>& b) {
    coo_builder builder(n);
    for (std::size_t i = 0; i < n; ++i) {
        builder.add_diagonal(i, 4.0 + rng.next_range(0.0, 1.0));
        if (i + 1 < n) builder.add_symmetric_pair(i, i + 1, -1.0);
    }
    b.resize(n);
    for (double& v : b) v = rng.next_range(-1.0, 1.0);
    return builder.build();
}

TEST_F(SimdEquivalence, CgSolveBitwiseAcrossIsaAndThreads) {
    const std::uint64_t seeds = seed_count();
    for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
        SCOPED_TRACE("seed=" + std::to_string(seed));
        prng rng(seed * 131 + 7);
        // Above deterministic_sum_slab so dot() takes the slabbed path.
        const std::size_t n = 3000;
        std::vector<double> b;
        const csr_matrix a = laplacian_system(n, rng, b);
        cg_options opt;
        opt.tolerance = 1e-10;

        std::vector<double> ref;
        cg_result ref_result;
        {
            scoped_config cfg(simd_isa::scalar, 1);
            ref_result = cg_solve(a, b, ref, opt);
            ASSERT_TRUE(ref_result.converged);
        }
        for (const simd_isa isa : available_isas()) {
            for (const std::size_t threads : kThreadSweep) {
                scoped_config cfg(isa, threads);
                std::vector<double> x;
                const cg_result result = cg_solve(a, b, x, opt);
                if (!bitwise_equal(x, ref)) {
                    log_failing_seed("simd_cg_solve_bitwise", seed);
                }
                ASSERT_TRUE(bitwise_equal(x, ref))
                    << simd_isa_name(isa) << " threads=" << threads;
                EXPECT_EQ(result.iterations, ref_result.iterations);
            }
        }
    }
}

TEST_F(SimdEquivalence, DotGatherPairBitwiseAcrossIsa) {
    // The paired CSR row products of the lockstep x/y CG solve: on every
    // tier, each row of each axis must equal the scalar reference — and
    // the single-axis dot_gather of the same row — bit for bit, for every
    // row length (empty, tail only, vector body, both) and a row block
    // that starts mid-pattern.
    const std::uint64_t seeds = seed_count();
    for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
        SCOPED_TRACE("seed=" + std::to_string(seed));
        prng rng(seed * 613 + 29);
        const std::size_t n = 600;
        std::vector<double> px(n), py(n);
        for (double& v : px) v = rng.next_range(-2.0, 2.0);
        for (double& v : py) v = rng.next_range(-2.0, 2.0);
        constexpr std::size_t rows = 38; // row r has r entries
        std::vector<std::size_t> row_ptr{0};
        std::vector<double> vx, vy;
        std::vector<std::uint32_t> idx;
        for (std::size_t r = 0; r < rows; ++r) {
            for (std::size_t k = 0; k < r; ++k) {
                vx.push_back(rng.next_range(-1.0, 1.0));
                vy.push_back(rng.next_range(-1.0, 1.0));
                idx.push_back(static_cast<std::uint32_t>(rng.next_below(n)));
            }
            row_ptr.push_back(idx.size());
        }
        const std::size_t begin = 3; // untouched rows below begin stay NaN
        const auto run = [&](const simd_kernels& kern, std::vector<double>& ox,
                             std::vector<double>& oy) {
            ox.assign(rows, std::numeric_limits<double>::quiet_NaN());
            oy.assign(rows, std::numeric_limits<double>::quiet_NaN());
            kern.dot_gather_pair(row_ptr.data(), idx.data(), vx.data(), vy.data(),
                                 px.data(), py.data(), begin, rows, ox.data(), oy.data());
        };
        std::vector<double> want_x, want_y;
        run(*simd_kernels_for(simd_isa::scalar), want_x, want_y);
        for (const simd_isa isa : available_isas()) {
            const simd_kernels& kern = *simd_kernels_for(isa);
            std::vector<double> got_x, got_y;
            run(kern, got_x, got_y);
            bool ok = bitwise_equal(got_x, want_x) && bitwise_equal(got_y, want_y);
            for (std::size_t r = begin; r < rows; ++r) {
                const std::size_t k0 = row_ptr[r], len = row_ptr[r + 1] - k0;
                const double solo_x =
                    kern.dot_gather(vx.data() + k0, idx.data() + k0, px.data(), len);
                const double solo_y =
                    kern.dot_gather(vy.data() + k0, idx.data() + k0, py.data(), len);
                ok = ok && std::memcmp(&solo_x, &got_x[r], sizeof(double)) == 0 &&
                     std::memcmp(&solo_y, &got_y[r], sizeof(double)) == 0;
            }
            for (std::size_t r = 0; r < begin; ++r) {
                ok = ok && std::isnan(got_x[r]) && std::isnan(got_y[r]);
            }
            if (!ok) log_failing_seed("simd_dot_gather_pair_bitwise", seed);
            ASSERT_TRUE(ok) << simd_isa_name(isa);
        }
    }
}

TEST_F(SimdEquivalence, DensityStampingBitwiseAcrossIsaAndThreads) {
    const std::uint64_t seeds = seed_count();
    for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
        SCOPED_TRACE("seed=" + std::to_string(seed));
        prng rng(seed * 31 + 3);
        const rect region(0.0, 0.0, 100.0, 80.0);
        // Enough rects that add_rects row-ownership chunking engages on
        // every pool size in the sweep.
        std::vector<rect> rects;
        rects.reserve(1500);
        for (std::size_t i = 0; i < 1500; ++i) {
            const double w = rng.next_range(0.5, 4.0);
            const double h = rng.next_range(0.5, 4.0);
            const point c(rng.next_range(0.0, 100.0), rng.next_range(0.0, 80.0));
            rects.push_back(rect::from_center(c, w, h));
        }
        std::vector<double> field(64 * 48);
        for (double& v : field) v = rng.next_range(-0.5, 0.5);

        const auto run = [&] {
            density_map map(region, 64, 48);
            map.add_rects(rects);
            map.add_field(field, 0.25);
            map.finalize();
            std::vector<double> demand(64 * 48);
            for (std::size_t ix = 0; ix < 64; ++ix) {
                for (std::size_t iy = 0; iy < 48; ++iy) {
                    demand[ix * 48 + iy] = map.demand_at(ix, iy);
                }
            }
            return demand;
        };

        std::vector<double> reference;
        {
            scoped_config cfg(simd_isa::scalar, 1);
            reference = run();
        }
        for (const simd_isa isa : available_isas()) {
            for (const std::size_t threads : kThreadSweep) {
                scoped_config cfg(isa, threads);
                const std::vector<double> demand = run();
                if (!bitwise_equal(demand, reference)) {
                    log_failing_seed("simd_density_stamping_bitwise", seed);
                }
                ASSERT_TRUE(bitwise_equal(demand, reference))
                    << simd_isa_name(isa) << " threads=" << threads;
            }
        }
    }
}

/// RAII: pins the fused-forward toggle, restoring the previous setting.
class scoped_fused {
public:
    explicit scoped_fused(bool on) : prev_(spectral_fused_enabled()) {
        set_spectral_fused(on);
    }
    ~scoped_fused() { set_spectral_fused(prev_); }

private:
    bool prev_;
};

// Deliberately not on the SimdEquivalence fixture: the fused-vs-staged
// identity is worth checking even on scalar-only hosts (available_isas()
// then sweeps {scalar} and the property still exercises both data paths).
TEST(FusedEquivalence, FusedForwardBitwiseAcrossIsaAndThreads) {
    const std::uint64_t seeds = seed_count();
    for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
        SCOPED_TRACE("seed=" + std::to_string(seed));
        prng rng(seed * 389 + 17);
        // Non-power-of-two shape: the cyclic padding band is non-empty, so
        // the fused sweep's zero-row pruning runs (and must keep ±0 signs
        // out of the picture — the gathered zeros are the literal +0.0 the
        // staged path stores).
        const std::size_t n0 = 24, n1 = 40;
        const std::size_t k0 = 2 * n0 - 1, k1 = 2 * n1 - 1;
        std::vector<double> kx(k0 * k1), ky(k0 * k1), data(n0 * n1);
        for (double& v : kx) v = rng.next_range(-1.0, 1.0);
        for (double& v : ky) v = rng.next_range(-1.0, 1.0);
        for (double& v : data) v = rng.next_range(0.0, 2.0);
        const double shift = -rng.next_range(0.0, 1.0);
        const double scale = rng.next_range(0.5, 2.0);

        // Reference: staged (GPF_FUSED=0) path, scalar kernels, 1 thread.
        std::vector<double> ref_x, ref_y, ref_ax, ref_ay;
        {
            scoped_config cfg(simd_isa::scalar, 1);
            scoped_fused fused(false);
            spectral_convolver conv(n0, n1, kx, ky);
            conv.convolve_pair(data, ref_x, ref_y);
            conv.convolve_pair_affine(data, shift, scale, ref_ax, ref_ay);
        }
        for (const simd_isa isa : available_isas()) {
            for (const std::size_t threads : kThreadSweep) {
                for (const bool fused_on : {false, true}) {
                    scoped_config cfg(isa, threads);
                    scoped_fused fused(fused_on);
                    spectral_convolver conv(n0, n1, kx, ky);
                    std::vector<double> out_x, out_y, ax, ay;
                    conv.convolve_pair(data, out_x, out_y);
                    conv.convolve_pair_affine(data, shift, scale, ax, ay);
                    if (!bitwise_equal(out_x, ref_x) ||
                        !bitwise_equal(out_y, ref_y) ||
                        !bitwise_equal(ax, ref_ax) || !bitwise_equal(ay, ref_ay)) {
                        log_failing_seed("simd_fused_forward_bitwise", seed);
                    }
                    ASSERT_TRUE(bitwise_equal(out_x, ref_x) &&
                                bitwise_equal(out_y, ref_y))
                        << simd_isa_name(isa) << " threads=" << threads
                        << " fused=" << fused_on;
                    ASSERT_TRUE(bitwise_equal(ax, ref_ax) &&
                                bitwise_equal(ay, ref_ay))
                        << simd_isa_name(isa) << " threads=" << threads
                        << " fused=" << fused_on << " (affine)";
                }
            }
        }
    }
}

} // namespace
} // namespace gpf
