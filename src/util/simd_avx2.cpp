// AVX2 kernel table. Compiled with -mavx2 -ffp-contract=off on x86-64
// (src/CMakeLists.txt); on other architectures — or with
// GPF_ENABLE_SIMD=OFF, which drops the -mavx2 flag — this TU compiles to
// a stub accessor returning nullptr and the dispatcher stays scalar.
//
// Bitwise contract with the scalar kernels (util/simd.cpp): every lane
// evaluates the same expression with the same IEEE operations — plain
// vmulpd/vaddpd/vsubpd, never vfmadd (no -mfma, contraction off).
// Reductions keep the fixed 4-lane shape: one 256-bit accumulator is
// exactly the four scalar lane accumulators, and the (l0+l2)+(l1+l3)
// merge folds the 128-bit halves in the shared reduce_lanes. Loop tails
// run the scalar reference code. The 256-bit bodies shared with the
// AVX-512 tier (dot, dot_gather, the butterfly passes) live in
// util/simd_x86_common.hpp.
#include "util/simd_internal.hpp"

#if defined(__AVX2__) && (defined(__x86_64__) || defined(_M_X64)) && \
    !defined(GPF_DISABLE_SIMD)

#include <immintrin.h>

#include "util/simd_x86_common.hpp"

namespace gpf::detail {
namespace {

// --- flat real kernels ----------------------------------------------------

void axpy_avx2(double alpha, const double* x, double* y, std::size_t n) {
    const __m256d va = _mm256_set1_pd(alpha);
    const std::size_t m = n & ~std::size_t{3};
    for (std::size_t i = 0; i < m; i += 4) {
        const __m256d vy = _mm256_loadu_pd(y + i);
        const __m256d vx = _mm256_loadu_pd(x + i);
        _mm256_storeu_pd(y + i, _mm256_add_pd(vy, _mm256_mul_pd(va, vx)));
    }
    axpy_scalar(alpha, x + m, y + m, n - m);
}

void xpby_avx2(const double* z, double beta, double* p, std::size_t n) {
    const __m256d vb = _mm256_set1_pd(beta);
    const std::size_t m = n & ~std::size_t{3};
    for (std::size_t i = 0; i < m; i += 4) {
        const __m256d vz = _mm256_loadu_pd(z + i);
        const __m256d vp = _mm256_loadu_pd(p + i);
        _mm256_storeu_pd(p + i, _mm256_add_pd(vz, _mm256_mul_pd(vb, vp)));
    }
    xpby_scalar(z + m, beta, p + m, n - m);
}

void accumulate_avx2(const double* src, double* dst, std::size_t n) {
    const std::size_t m = n & ~std::size_t{3};
    for (std::size_t i = 0; i < m; i += 4) {
        _mm256_storeu_pd(
            dst + i, _mm256_add_pd(_mm256_loadu_pd(dst + i), _mm256_loadu_pd(src + i)));
    }
    accumulate_scalar(src + m, dst + m, n - m);
}

void add_scalar_avx2(double* dst, double c, std::size_t n) {
    const __m256d vc = _mm256_set1_pd(c);
    const std::size_t m = n & ~std::size_t{3};
    for (std::size_t i = 0; i < m; i += 4) {
        _mm256_storeu_pd(dst + i, _mm256_add_pd(_mm256_loadu_pd(dst + i), vc));
    }
    add_scalar_scalar(dst + m, c, n - m);
}

void scale_avx2(double* p, double s, std::size_t n) {
    const __m256d vs = _mm256_set1_pd(s);
    const std::size_t m = n & ~std::size_t{3};
    for (std::size_t i = 0; i < m; i += 4) {
        _mm256_storeu_pd(p + i, _mm256_mul_pd(_mm256_loadu_pd(p + i), vs));
    }
    scale_scalar(p + m, s, n - m);
}

void cmul_avx2(std::complex<double>* w, const std::complex<double>* s,
               std::size_t n) {
    double* wp = reinterpret_cast<double*>(w);
    const double* sp = reinterpret_cast<const double*>(s);
    const std::size_t m = n & ~std::size_t{1};
    for (std::size_t i = 0; i < m; i += 2) {
        const __m256d vw = _mm256_loadu_pd(wp + 2 * i);
        const __m256d vs = _mm256_loadu_pd(sp + 2 * i);
        _mm256_storeu_pd(wp + 2 * i, cmul2(vw, vs));
    }
    cmul_scalar(w + m, s + m, n - m);
}

void cmul_pair_avx2(std::complex<double>* w, std::complex<double>* q,
                    const std::complex<double>* s, const std::complex<double>* t,
                    std::size_t n) {
    double* wp = reinterpret_cast<double*>(w);
    double* qp = reinterpret_cast<double*>(q);
    const double* sp = reinterpret_cast<const double*>(s);
    const double* tp = reinterpret_cast<const double*>(t);
    const std::size_t m = n & ~std::size_t{1};
    for (std::size_t i = 0; i < m; i += 2) {
        const __m256d vw = _mm256_loadu_pd(wp + 2 * i);
        _mm256_storeu_pd(qp + 2 * i, cmul2(vw, _mm256_loadu_pd(tp + 2 * i)));
        _mm256_storeu_pd(wp + 2 * i, cmul2(vw, _mm256_loadu_pd(sp + 2 * i)));
    }
    cmul_pair_scalar(w + m, q + m, s + m, t + m, n - m);
}

constexpr simd_kernels avx2_table = {
    simd_isa::avx2,
    "avx2",
    axpy_avx2,
    xpby_avx2,
    accumulate_avx2,
    add_scalar_avx2,
    scale_avx2,
    dot_x86,
    dot_gather_x86,
    dot_gather_pair_x86,
    cmul_avx2,
    cmul_pair_avx2,
    fft_radix2_x86,
    fft_radix4_x86,
};

} // namespace

const simd_kernels* simd_avx2_table() {
#if defined(__GNUC__) || defined(__clang__)
    // The TU is compiled for AVX2, but the host CPU may still lack it.
    if (!__builtin_cpu_supports("avx2")) return nullptr;
#endif
    return &avx2_table;
}

} // namespace gpf::detail

#else // !__AVX2__

namespace gpf::detail {
const simd_kernels* simd_avx2_table() { return nullptr; }
} // namespace gpf::detail

#endif
