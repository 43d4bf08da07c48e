// Unit tests of the SIMD dispatch layer (util/simd.hpp): table
// availability, the GPF_SIMD-style override hook, and the scalar
// reference kernels against straightforward loop implementations. The
// cross-ISA bitwise sweep lives in the property binary
// (test_simd_equivalence.cpp).
#include <gtest/gtest.h>

#include <complex>
#include <cstdint>
#include <cstring>
#include <vector>

#include "util/prng.hpp"
#include "util/simd.hpp"

namespace gpf {
namespace {

class scoped_isa {
public:
    explicit scoped_isa(simd_isa isa) : previous_(simd_active_isa()) {
        EXPECT_TRUE(simd_set_isa(isa));
    }
    ~scoped_isa() { simd_set_isa(previous_); }

private:
    simd_isa previous_;
};

TEST(Simd, ScalarTableAlwaysAvailableAndComplete) {
    const simd_kernels* table = simd_kernels_for(simd_isa::scalar);
    ASSERT_NE(table, nullptr);
    EXPECT_EQ(table->isa, simd_isa::scalar);
    EXPECT_STREQ(table->name, "scalar");
    EXPECT_NE(table->axpy, nullptr);
    EXPECT_NE(table->xpby, nullptr);
    EXPECT_NE(table->accumulate, nullptr);
    EXPECT_NE(table->scale, nullptr);
    EXPECT_NE(table->dot, nullptr);
    EXPECT_NE(table->dot_gather, nullptr);
    EXPECT_NE(table->dot_gather_pair, nullptr);
    EXPECT_NE(table->add_scalar, nullptr);
    EXPECT_NE(table->cmul, nullptr);
    EXPECT_NE(table->cmul_pair, nullptr);
    EXPECT_NE(table->fft_radix2, nullptr);
    EXPECT_NE(table->fft_radix4, nullptr);
}

TEST(Simd, DetectedTableIsComplete) {
    const simd_kernels* table = simd_kernels_for(simd_detected_isa());
    ASSERT_NE(table, nullptr);
    EXPECT_EQ(table->isa, simd_detected_isa());
    EXPECT_NE(table->dot, nullptr);
    EXPECT_NE(table->fft_radix4, nullptr);
}

TEST(Simd, SetIsaSwapsAndRejectsUnsupported) {
    const simd_isa original = simd_active_isa();
    {
        scoped_isa guard(simd_isa::scalar);
        EXPECT_EQ(simd_active_isa(), simd_isa::scalar);
        EXPECT_EQ(simd().isa, simd_isa::scalar);
    }
    EXPECT_EQ(simd_active_isa(), original);

    // Vector ISAs the build or CPU lacks must be rejected without
    // disturbing the active table (x86-64 may carry both avx2 and avx512;
    // neon is aarch64-only, so at least one of these always exercises the
    // rejection path).
    for (const simd_isa isa :
         {simd_isa::avx2, simd_isa::avx512, simd_isa::neon}) {
        if (simd_kernels_for(isa) == nullptr) {
            EXPECT_FALSE(simd_set_isa(isa));
            EXPECT_EQ(simd_active_isa(), original);
        }
    }
}

TEST(Simd, IsaNames) {
    EXPECT_STREQ(simd_isa_name(simd_isa::scalar), "scalar");
    EXPECT_STREQ(simd_isa_name(simd_isa::avx2), "avx2");
    EXPECT_STREQ(simd_isa_name(simd_isa::avx512), "avx512");
    EXPECT_STREQ(simd_isa_name(simd_isa::neon), "neon");
}

TEST(Simd, Avx512TableCompleteWhenAvailable) {
    const simd_kernels* table = simd_kernels_for(simd_isa::avx512);
    if (table == nullptr) {
        GTEST_SKIP() << "avx512 tier not compiled in or not supported";
    }
    EXPECT_EQ(table->isa, simd_isa::avx512);
    EXPECT_STREQ(table->name, "avx512");
    EXPECT_NE(table->axpy, nullptr);
    EXPECT_NE(table->xpby, nullptr);
    EXPECT_NE(table->accumulate, nullptr);
    EXPECT_NE(table->scale, nullptr);
    EXPECT_NE(table->dot, nullptr);
    EXPECT_NE(table->dot_gather, nullptr);
    EXPECT_NE(table->dot_gather_pair, nullptr);
    EXPECT_NE(table->add_scalar, nullptr);
    EXPECT_NE(table->cmul, nullptr);
    EXPECT_NE(table->cmul_pair, nullptr);
    EXPECT_NE(table->fft_radix2, nullptr);
    EXPECT_NE(table->fft_radix4, nullptr);
    // An available avx512 tier implies the avx2 tier (the 512-bit kernels
    // delegate short blocks to the shared 256-bit bodies).
    EXPECT_NE(simd_kernels_for(simd_isa::avx2), nullptr);
}

TEST(Simd, ParseEnvRecognizesEveryTier) {
    for (const auto& [text, isa] :
         {std::pair<const char*, simd_isa>{"scalar", simd_isa::scalar},
          {"avx2", simd_isa::avx2},
          {"avx512", simd_isa::avx512},
          {"neon", simd_isa::neon}}) {
        const simd_env_request req = simd_parse_env(text);
        EXPECT_TRUE(req.known) << text;
        EXPECT_FALSE(req.native) << text;
        EXPECT_EQ(req.isa, isa) << text;
    }
}

TEST(Simd, ParseEnvDefaultsToNative) {
    for (const char* text : {static_cast<const char*>(nullptr), "", "native"}) {
        const simd_env_request req = simd_parse_env(text);
        EXPECT_TRUE(req.known);
        EXPECT_TRUE(req.native);
    }
}

TEST(Simd, ParseEnvRejectsUnknownValues) {
    // Unknown values must come back flagged (the resolver warns and falls
    // back to scalar) rather than silently mapping to some tier.
    for (const char* text : {"avx", "AVX2", "sse2", "avx-512", "1", "best"}) {
        const simd_env_request req = simd_parse_env(text);
        EXPECT_FALSE(req.known) << text;
        EXPECT_FALSE(req.native) << text;
        EXPECT_EQ(req.isa, simd_isa::scalar) << text;
    }
}

TEST(Simd, ElementwiseKernelsMatchLoops) {
    prng rng(7);
    const std::size_t n = 1003; // odd: exercises vector tails
    std::vector<double> x(n), y(n), z(n), expected(n);
    for (std::size_t i = 0; i < n; ++i) {
        x[i] = rng.next_range(-2.0, 2.0);
        y[i] = rng.next_range(-2.0, 2.0);
        z[i] = rng.next_range(-2.0, 2.0);
    }
    const simd_kernels& kern = simd();

    std::vector<double> got = y;
    for (std::size_t i = 0; i < n; ++i) expected[i] = y[i] + 1.5 * x[i];
    kern.axpy(1.5, x.data(), got.data(), n);
    EXPECT_EQ(std::memcmp(got.data(), expected.data(), n * sizeof(double)), 0);

    got = y;
    for (std::size_t i = 0; i < n; ++i) expected[i] = z[i] + 0.75 * y[i];
    kern.xpby(z.data(), 0.75, got.data(), n);
    EXPECT_EQ(std::memcmp(got.data(), expected.data(), n * sizeof(double)), 0);

    got = y;
    for (std::size_t i = 0; i < n; ++i) expected[i] = y[i] + x[i];
    kern.accumulate(x.data(), got.data(), n);
    EXPECT_EQ(std::memcmp(got.data(), expected.data(), n * sizeof(double)), 0);

    got = y;
    for (std::size_t i = 0; i < n; ++i) expected[i] = y[i] * -0.3;
    kern.scale(got.data(), -0.3, n);
    EXPECT_EQ(std::memcmp(got.data(), expected.data(), n * sizeof(double)), 0);

    got = y;
    for (std::size_t i = 0; i < n; ++i) expected[i] = y[i] + 2.25;
    kern.add_scalar(got.data(), 2.25, n);
    EXPECT_EQ(std::memcmp(got.data(), expected.data(), n * sizeof(double)), 0);
}

TEST(Simd, ReductionsUseFixedLaneOrder) {
    prng rng(13);
    const std::size_t n = 517;
    std::vector<double> a(n), b(n), c(n), d(n);
    std::vector<std::uint32_t> idx(n);
    for (std::size_t i = 0; i < n; ++i) {
        a[i] = rng.next_range(-1.0, 1.0);
        b[i] = rng.next_range(-1.0, 1.0);
        c[i] = rng.next_range(-1.0, 1.0);
        d[i] = rng.next_range(-1.0, 1.0);
        idx[i] = static_cast<std::uint32_t>(rng.next_below(n));
    }

    // The documented reduction shape: 4 logical lanes over the 4-aligned
    // prefix, merged (l0+l2)+(l1+l3), serial tail.
    const auto reference = [&](const auto& term) {
        double l0 = 0, l1 = 0, l2 = 0, l3 = 0;
        const std::size_t m = n & ~std::size_t{3};
        std::size_t i = 0;
        for (; i < m; i += 4) {
            l0 += term(i);
            l1 += term(i + 1);
            l2 += term(i + 2);
            l3 += term(i + 3);
        }
        double acc = (l0 + l2) + (l1 + l3);
        for (; i < n; ++i) acc += term(i);
        return acc;
    };

    const double want_dot = reference([&](std::size_t i) { return a[i] * b[i]; });
    const double got_dot = simd().dot(a.data(), b.data(), n);
    EXPECT_EQ(std::memcmp(&got_dot, &want_dot, sizeof(double)), 0);

    const double want_gather =
        reference([&](std::size_t i) { return a[i] * b[idx[i]]; });
    const double got_gather = simd().dot_gather(a.data(), idx.data(), b.data(), n);
    EXPECT_EQ(std::memcmp(&got_gather, &want_gather, sizeof(double)), 0);

    // The paired row product: each axis is exactly its own dot_gather.
    const double want_pair_y =
        reference([&](std::size_t i) { return c[i] * d[idx[i]]; });
    const std::size_t row_ptr[] = {0, n}; // one row over all n entries
    double got_pair_x = 0.0, got_pair_y = 0.0;
    simd().dot_gather_pair(row_ptr, idx.data(), a.data(), c.data(), b.data(), d.data(),
                           0, 1, &got_pair_x, &got_pair_y);
    EXPECT_EQ(std::memcmp(&got_pair_x, &want_gather, sizeof(double)), 0);
    EXPECT_EQ(std::memcmp(&got_pair_y, &want_pair_y, sizeof(double)), 0);
}

TEST(Simd, ComplexMultiplyMatchesExplicitForm) {
    prng rng(21);
    const std::size_t n = 129;
    std::vector<std::complex<double>> w(n), s(n), expected(n);
    for (std::size_t i = 0; i < n; ++i) {
        w[i] = {rng.next_range(-1.0, 1.0), rng.next_range(-1.0, 1.0)};
        s[i] = {rng.next_range(-1.0, 1.0), rng.next_range(-1.0, 1.0)};
        expected[i] = {w[i].real() * s[i].real() - w[i].imag() * s[i].imag(),
                       w[i].real() * s[i].imag() + w[i].imag() * s[i].real()};
    }
    simd().cmul(w.data(), s.data(), n);
    EXPECT_EQ(
        std::memcmp(w.data(), expected.data(), n * sizeof(std::complex<double>)),
        0);
}

TEST(Simd, DualComplexMultiplyMatchesExplicitForm) {
    // cmul_pair shares one read of w between two products: q = w·t, then
    // w = w·s — both bitwise equal to the explicit forms (the order
    // matters: q must see the *original* w, not w·s).
    prng rng(23);
    const std::size_t n = 129; // odd: exercises vector tails
    std::vector<std::complex<double>> w(n), s(n), t(n), q(n);
    std::vector<std::complex<double>> want_w(n), want_q(n);
    for (std::size_t i = 0; i < n; ++i) {
        w[i] = {rng.next_range(-1.0, 1.0), rng.next_range(-1.0, 1.0)};
        s[i] = {rng.next_range(-1.0, 1.0), rng.next_range(-1.0, 1.0)};
        t[i] = {rng.next_range(-1.0, 1.0), rng.next_range(-1.0, 1.0)};
        want_q[i] = {w[i].real() * t[i].real() - w[i].imag() * t[i].imag(),
                     w[i].real() * t[i].imag() + w[i].imag() * t[i].real()};
        want_w[i] = {w[i].real() * s[i].real() - w[i].imag() * s[i].imag(),
                     w[i].real() * s[i].imag() + w[i].imag() * s[i].real()};
    }
    simd().cmul_pair(w.data(), q.data(), s.data(), t.data(), n);
    EXPECT_EQ(
        std::memcmp(q.data(), want_q.data(), n * sizeof(std::complex<double>)),
        0);
    EXPECT_EQ(
        std::memcmp(w.data(), want_w.data(), n * sizeof(std::complex<double>)),
        0);
}

} // namespace
} // namespace gpf
