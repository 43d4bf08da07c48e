// NEON kernel table for aarch64. Compiled with -ffp-contract=off
// (src/CMakeLists.txt) — mandatory here, since aarch64 compilers contract
// a*b+c to fmadd by default, which would break the bitwise contract with
// the scalar kernels.
//
// NEON registers hold 2 doubles, so one register is one complex value and
// the 4-lane reduction shape of simd.hpp is emulated with two vector
// accumulators (lanes {0,1} and {2,3}); the merge below folds them as
// (l0+l2)+(l1+l3), matching scalar and AVX2 bit for bit. Sign flips are
// applied by XOR on the sign bit — exact — so a + (−b) is bitwise a − b.
// dot_gather and dot_gather_pair reuse the scalar reference: CSR rows are
// short and a NEON gather would be synthesized from scalar loads anyway.
#include "util/simd_internal.hpp"

#if defined(__aarch64__) && defined(__ARM_NEON) && !defined(GPF_DISABLE_SIMD)

#include <arm_neon.h>

namespace gpf::detail {
namespace {

inline float64x2_t neg_lane0(float64x2_t v) {
    const uint64x2_t mask = {0x8000000000000000ULL, 0};
    return vreinterpretq_f64_u64(veorq_u64(vreinterpretq_u64_f64(v), mask));
}

inline float64x2_t neg_lane1(float64x2_t v) {
    const uint64x2_t mask = {0, 0x8000000000000000ULL};
    return vreinterpretq_f64_u64(veorq_u64(vreinterpretq_u64_f64(v), mask));
}

/// One complex product [ar ai]·[br bi]: lane0 = ar*br − ai*bi,
/// lane1 = ai*br + ar*bi (additions commuted relative to the scalar
/// kernel, which IEEE-754 guarantees is bitwise identical).
inline float64x2_t cmul1(float64x2_t a, float64x2_t b) {
    const float64x2_t br = vdupq_laneq_f64(b, 0);
    const float64x2_t bi = vdupq_laneq_f64(b, 1);
    const float64x2_t as = vextq_f64(a, a, 1); // [ai ar]
    return vaddq_f64(vmulq_f64(a, br), neg_lane0(vmulq_f64(as, bi)));
}

/// Exact ·(−i) (forward) or ·(+i) (inverse).
inline float64x2_t rot_i1(float64x2_t g, bool inverse) {
    const float64x2_t swapped = vextq_f64(g, g, 1); // [im re]
    return inverse ? neg_lane0(swapped) : neg_lane1(swapped);
}

void axpy_neon(double alpha, const double* x, double* y, std::size_t n) {
    const float64x2_t va = vdupq_n_f64(alpha);
    const std::size_t m = n & ~std::size_t{3};
    for (std::size_t i = 0; i < m; i += 4) {
        vst1q_f64(y + i, vaddq_f64(vld1q_f64(y + i), vmulq_f64(va, vld1q_f64(x + i))));
        vst1q_f64(y + i + 2,
                  vaddq_f64(vld1q_f64(y + i + 2), vmulq_f64(va, vld1q_f64(x + i + 2))));
    }
    axpy_scalar(alpha, x + m, y + m, n - m);
}

void xpby_neon(const double* z, double beta, double* p, std::size_t n) {
    const float64x2_t vb = vdupq_n_f64(beta);
    const std::size_t m = n & ~std::size_t{3};
    for (std::size_t i = 0; i < m; i += 4) {
        vst1q_f64(p + i, vaddq_f64(vld1q_f64(z + i), vmulq_f64(vb, vld1q_f64(p + i))));
        vst1q_f64(p + i + 2,
                  vaddq_f64(vld1q_f64(z + i + 2), vmulq_f64(vb, vld1q_f64(p + i + 2))));
    }
    xpby_scalar(z + m, beta, p + m, n - m);
}

void accumulate_neon(const double* src, double* dst, std::size_t n) {
    const std::size_t m = n & ~std::size_t{3};
    for (std::size_t i = 0; i < m; i += 4) {
        vst1q_f64(dst + i, vaddq_f64(vld1q_f64(dst + i), vld1q_f64(src + i)));
        vst1q_f64(dst + i + 2, vaddq_f64(vld1q_f64(dst + i + 2), vld1q_f64(src + i + 2)));
    }
    accumulate_scalar(src + m, dst + m, n - m);
}

void add_scalar_neon(double* dst, double c, std::size_t n) {
    const float64x2_t vc = vdupq_n_f64(c);
    const std::size_t m = n & ~std::size_t{3};
    for (std::size_t i = 0; i < m; i += 4) {
        vst1q_f64(dst + i, vaddq_f64(vld1q_f64(dst + i), vc));
        vst1q_f64(dst + i + 2, vaddq_f64(vld1q_f64(dst + i + 2), vc));
    }
    add_scalar_scalar(dst + m, c, n - m);
}

void scale_neon(double* p, double s, std::size_t n) {
    const float64x2_t vs = vdupq_n_f64(s);
    const std::size_t m = n & ~std::size_t{3};
    for (std::size_t i = 0; i < m; i += 4) {
        vst1q_f64(p + i, vmulq_f64(vld1q_f64(p + i), vs));
        vst1q_f64(p + i + 2, vmulq_f64(vld1q_f64(p + i + 2), vs));
    }
    scale_scalar(p + m, s, n - m);
}

double dot_neon(const double* a, const double* b, std::size_t n) {
    float64x2_t acc01 = vdupq_n_f64(0.0); // logical lanes 0, 1
    float64x2_t acc23 = vdupq_n_f64(0.0); // logical lanes 2, 3
    const std::size_t m = n & ~std::size_t{3};
    for (std::size_t i = 0; i < m; i += 4) {
        acc01 = vaddq_f64(acc01, vmulq_f64(vld1q_f64(a + i), vld1q_f64(b + i)));
        acc23 = vaddq_f64(acc23, vmulq_f64(vld1q_f64(a + i + 2), vld1q_f64(b + i + 2)));
    }
    const float64x2_t fold = vaddq_f64(acc01, acc23); // [l0+l2, l1+l3]
    double sum = vgetq_lane_f64(fold, 0) + vgetq_lane_f64(fold, 1);
    for (std::size_t i = m; i < n; ++i) sum += a[i] * b[i];
    return sum;
}

void cmul_neon(std::complex<double>* w, const std::complex<double>* s,
               std::size_t n) {
    double* wp = reinterpret_cast<double*>(w);
    const double* sp = reinterpret_cast<const double*>(s);
    for (std::size_t i = 0; i < n; ++i) {
        vst1q_f64(wp + 2 * i, cmul1(vld1q_f64(wp + 2 * i), vld1q_f64(sp + 2 * i)));
    }
}

void cmul_pair_neon(std::complex<double>* w, std::complex<double>* q,
                    const std::complex<double>* s, const std::complex<double>* t,
                    std::size_t n) {
    double* wp = reinterpret_cast<double*>(w);
    double* qp = reinterpret_cast<double*>(q);
    const double* sp = reinterpret_cast<const double*>(s);
    const double* tp = reinterpret_cast<const double*>(t);
    for (std::size_t i = 0; i < n; ++i) {
        const float64x2_t vw = vld1q_f64(wp + 2 * i);
        vst1q_f64(qp + 2 * i, cmul1(vw, vld1q_f64(tp + 2 * i)));
        vst1q_f64(wp + 2 * i, cmul1(vw, vld1q_f64(sp + 2 * i)));
    }
}

void fft_radix2_neon(std::complex<double>* a, std::size_t n, std::size_t len,
                     const std::complex<double>* w) {
    const std::size_t half = len / 2;
    double* base = reinterpret_cast<double*>(a);
    const double* wp = reinterpret_cast<const double*>(w);
    for (std::size_t i = 0; i < n; i += len) {
        double* u = base + 2 * i;
        double* b = base + 2 * (i + half);
        for (std::size_t k = 0; k < half; ++k) {
            const float64x2_t vu = vld1q_f64(u + 2 * k);
            const float64x2_t t = cmul1(vld1q_f64(b + 2 * k), vld1q_f64(wp + 2 * k));
            vst1q_f64(u + 2 * k, vaddq_f64(vu, t));
            vst1q_f64(b + 2 * k, vsubq_f64(vu, t));
        }
    }
}

void fft_radix4_neon(std::complex<double>* a, std::size_t n, std::size_t block,
                     const std::complex<double>* wa,
                     const std::complex<double>* wb, bool inverse) {
    const std::size_t quarter = block / 4;
    const std::size_t half = block / 2;
    double* base = reinterpret_cast<double*>(a);
    const double* wap = reinterpret_cast<const double*>(wa);
    const double* wbp = reinterpret_cast<const double*>(wb);
    for (std::size_t i = 0; i < n; i += block) {
        double* p0 = base + 2 * i;
        double* p1 = p0 + 2 * quarter;
        double* p2 = p0 + 2 * half;
        double* p3 = p2 + 2 * quarter;
        for (std::size_t k = 0; k < quarter; ++k) {
            const float64x2_t vwa = vld1q_f64(wap + 2 * k);
            const float64x2_t vwb = vld1q_f64(wbp + 2 * k);
            const float64x2_t x0 = vld1q_f64(p0 + 2 * k);
            const float64x2_t t1 = cmul1(vld1q_f64(p1 + 2 * k), vwa);
            const float64x2_t x2 = vld1q_f64(p2 + 2 * k);
            const float64x2_t t3 = cmul1(vld1q_f64(p3 + 2 * k), vwa);
            const float64x2_t e0 = vaddq_f64(x0, t1);
            const float64x2_t e1 = vsubq_f64(x0, t1);
            const float64x2_t e2 = vaddq_f64(x2, t3);
            const float64x2_t e3 = vsubq_f64(x2, t3);
            const float64x2_t f2 = cmul1(e2, vwb);
            const float64x2_t f3 = rot_i1(cmul1(e3, vwb), inverse);
            vst1q_f64(p0 + 2 * k, vaddq_f64(e0, f2));
            vst1q_f64(p1 + 2 * k, vaddq_f64(e1, f3));
            vst1q_f64(p2 + 2 * k, vsubq_f64(e0, f2));
            vst1q_f64(p3 + 2 * k, vsubq_f64(e1, f3));
        }
    }
}

constexpr simd_kernels neon_table = {
    simd_isa::neon,
    "neon",
    axpy_neon,
    xpby_neon,
    accumulate_neon,
    add_scalar_neon,
    scale_neon,
    dot_neon,
    dot_gather_scalar,      // scalar reference (see header comment)
    dot_gather_pair_scalar, // scalar reference (see header comment)
    cmul_neon,
    cmul_pair_neon,
    fft_radix2_neon,
    fft_radix4_neon,
};

} // namespace

const simd_kernels* simd_neon_table() { return &neon_table; }

} // namespace gpf::detail

#else // !aarch64

namespace gpf::detail {
const simd_kernels* simd_neon_table() { return nullptr; }
} // namespace gpf::detail

#endif
