// SIMD dispatcher + scalar reference kernels. This translation unit is
// compiled with -ffp-contract=off (src/CMakeLists.txt): the scalar
// kernels are the reference the vector ISAs must match bitwise, so the
// compiler must not fuse their multiply-adds on targets (aarch64) where
// contraction is the default.
#include "util/simd.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>

#include "util/logging.hpp"
#include "util/simd_internal.hpp"

namespace gpf {

namespace detail {

void axpy_scalar(double alpha, const double* x, double* y, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void xpby_scalar(const double* z, double beta, double* p, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) p[i] = z[i] + beta * p[i];
}

void accumulate_scalar(const double* src, double* dst, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) dst[i] += src[i];
}

void add_scalar_scalar(double* dst, double c, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) dst[i] += c;
}

void scale_scalar(double* p, double s, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) p[i] *= s;
}

// Reduction shape shared by every ISA (see simd.hpp): four logical lane
// accumulators over the 4-aligned prefix, merged as (l0+l2)+(l1+l3) — the
// exact order a 256-bit register reduces in — then a serial tail.
double dot_scalar(const double* a, const double* b, std::size_t n) {
    double l0 = 0.0, l1 = 0.0, l2 = 0.0, l3 = 0.0;
    const std::size_t m = n & ~std::size_t{3};
    std::size_t i = 0;
    for (; i < m; i += 4) {
        l0 += a[i] * b[i];
        l1 += a[i + 1] * b[i + 1];
        l2 += a[i + 2] * b[i + 2];
        l3 += a[i + 3] * b[i + 3];
    }
    double acc = (l0 + l2) + (l1 + l3);
    for (; i < n; ++i) acc += a[i] * b[i];
    return acc;
}

double dot_gather_scalar(const double* v, const std::uint32_t* idx,
                         const double* x, std::size_t n) {
    double l0 = 0.0, l1 = 0.0, l2 = 0.0, l3 = 0.0;
    const std::size_t m = n & ~std::size_t{3};
    std::size_t i = 0;
    for (; i < m; i += 4) {
        l0 += v[i] * x[idx[i]];
        l1 += v[i + 1] * x[idx[i + 1]];
        l2 += v[i + 2] * x[idx[i + 2]];
        l3 += v[i + 3] * x[idx[i + 3]];
    }
    double acc = (l0 + l2) + (l1 + l3);
    for (; i < n; ++i) acc += v[i] * x[idx[i]];
    return acc;
}

// Two dot_gather reductions per row sharing one index stream: each axis
// keeps its own four lane accumulators, so both results are bitwise
// dot_gather's.
void dot_gather_pair_scalar(const std::size_t* row_ptr, const std::uint32_t* idx,
                            const double* vx, const double* vy, const double* px,
                            const double* py, std::size_t begin, std::size_t end,
                            double* ox, double* oy) {
    for (std::size_t row = begin; row < end; ++row) {
        const std::size_t k0 = row_ptr[row];
        const std::size_t n = row_ptr[row + 1] - k0;
        const std::uint32_t* j = idx + k0;
        const double* ax = vx + k0;
        const double* ay = vy + k0;
        double x0 = 0.0, x1 = 0.0, x2 = 0.0, x3 = 0.0;
        double y0 = 0.0, y1 = 0.0, y2 = 0.0, y3 = 0.0;
        const std::size_t m = n & ~std::size_t{3};
        std::size_t i = 0;
        for (; i < m; i += 4) {
            x0 += ax[i] * px[j[i]];
            x1 += ax[i + 1] * px[j[i + 1]];
            x2 += ax[i + 2] * px[j[i + 2]];
            x3 += ax[i + 3] * px[j[i + 3]];
            y0 += ay[i] * py[j[i]];
            y1 += ay[i + 1] * py[j[i + 1]];
            y2 += ay[i + 2] * py[j[i + 2]];
            y3 += ay[i + 3] * py[j[i + 3]];
        }
        double sx = (x0 + x2) + (x1 + x3);
        double sy = (y0 + y2) + (y1 + y3);
        for (; i < n; ++i) {
            sx += ax[i] * px[j[i]];
            sy += ay[i] * py[j[i]];
        }
        ox[row] = sx;
        oy[row] = sy;
    }
}

// Complex multiply written in explicit real arithmetic — matches the
// butterfly twiddle product (and the AVX2 addsub formulation) bit for bit
// and skips std::complex's non-finite recovery paths.
void cmul_scalar(std::complex<double>* w, const std::complex<double>* s,
                 std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
        const double ar = w[i].real();
        const double ai = w[i].imag();
        const double br = s[i].real();
        const double bi = s[i].imag();
        w[i] = {ar * br - ai * bi, ar * bi + ai * br};
    }
}

// Dual pointwise product (the half-spectrum Hermitian product of the
// packed real convolver): q = w·t first, then w *= s, so the shared
// input is read once per element. Same explicit real arithmetic as
// cmul_scalar.
void cmul_pair_scalar(std::complex<double>* w, std::complex<double>* q,
                      const std::complex<double>* s,
                      const std::complex<double>* t, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
        const double ar = w[i].real();
        const double ai = w[i].imag();
        const double tr = t[i].real();
        const double ti = t[i].imag();
        q[i] = {ar * tr - ai * ti, ar * ti + ai * tr};
        const double sr = s[i].real();
        const double si = s[i].imag();
        w[i] = {ar * sr - ai * si, ar * si + ai * sr};
    }
}

void fft_radix2_scalar(std::complex<double>* a, std::size_t n, std::size_t len,
                       const std::complex<double>* w) {
    const std::size_t half = len / 2;
    for (std::size_t i = 0; i < n; i += len) {
        for (std::size_t k = 0; k < half; ++k) {
            const double ur = a[i + k].real();
            const double ui = a[i + k].imag();
            const double br = a[i + k + half].real();
            const double bi = a[i + k + half].imag();
            const double wr = w[k].real();
            const double wi = w[k].imag();
            const double vr = br * wr - bi * wi;
            const double vi = br * wi + bi * wr;
            a[i + k] = {ur + vr, ui + vi};
            a[i + k + half] = {ur - vr, ui - vi};
        }
    }
}

// Fused stage pair (len = block/2 then len = block) as a radix-4
// butterfly. The second-stage twiddle for the odd quarter,
// w_b[k + block/4] = w_b[k] · e^{∓iπ/2}, is applied as an exact ∓i
// rotation (a swap and a sign flip — no rounding), which saves one
// complex multiply per four outputs relative to two radix-2 stages.
void fft_radix4_scalar(std::complex<double>* a, std::size_t n,
                       std::size_t block, const std::complex<double>* wa,
                       const std::complex<double>* wb, bool inverse) {
    const std::size_t quarter = block / 4;
    const std::size_t half = block / 2;
    for (std::size_t i = 0; i < n; i += block) {
        for (std::size_t k = 0; k < quarter; ++k) {
            std::complex<double>* p0 = a + i + k;
            std::complex<double>* p1 = p0 + quarter;
            std::complex<double>* p2 = p0 + half;
            std::complex<double>* p3 = p2 + quarter;
            const double war = wa[k].real();
            const double wai = wa[k].imag();
            const double wbr = wb[k].real();
            const double wbi = wb[k].imag();

            // first fused stage: butterflies (p0,p1) and (p2,p3) with wa
            const double x1r = p1->real(), x1i = p1->imag();
            const double t1r = x1r * war - x1i * wai;
            const double t1i = x1r * wai + x1i * war;
            const double x3r = p3->real(), x3i = p3->imag();
            const double t3r = x3r * war - x3i * wai;
            const double t3i = x3r * wai + x3i * war;
            const double e0r = p0->real() + t1r, e0i = p0->imag() + t1i;
            const double e1r = p0->real() - t1r, e1i = p0->imag() - t1i;
            const double e2r = p2->real() + t3r, e2i = p2->imag() + t3i;
            const double e3r = p2->real() - t3r, e3i = p2->imag() - t3i;

            // second fused stage: (e0,e2) with wb, (e1,e3) with ∓i·wb
            const double f2r = e2r * wbr - e2i * wbi;
            const double f2i = e2r * wbi + e2i * wbr;
            const double g3r = e3r * wbr - e3i * wbi;
            const double g3i = e3r * wbi + e3i * wbr;
            // forward: ·(−i) → (im, −re); inverse: ·(+i) → (−im, re)
            const double f3r = inverse ? -g3i : g3i;
            const double f3i = inverse ? g3r : -g3r;

            *p0 = {e0r + f2r, e0i + f2i};
            *p1 = {e1r + f3r, e1i + f3i};
            *p2 = {e0r - f2r, e0i - f2i};
            *p3 = {e1r - f3r, e1i - f3i};
        }
    }
}

} // namespace detail

namespace {

constexpr simd_kernels scalar_table = {
    simd_isa::scalar,
    "scalar",
    detail::axpy_scalar,
    detail::xpby_scalar,
    detail::accumulate_scalar,
    detail::add_scalar_scalar,
    detail::scale_scalar,
    detail::dot_scalar,
    detail::dot_gather_scalar,
    detail::dot_gather_pair_scalar,
    detail::cmul_scalar,
    detail::cmul_pair_scalar,
    detail::fft_radix2_scalar,
    detail::fft_radix4_scalar,
};

std::atomic<const simd_kernels*> g_active{nullptr};

const simd_kernels* resolve_from_environment() {
    const char* env = std::getenv("GPF_SIMD");
    const simd_env_request req = simd_parse_env(env);
    if (req.native) return simd_kernels_for(simd_detected_isa());
    if (!req.known) {
        log(log_level::warning)
            << "GPF_SIMD='" << env
            << "' is not scalar|avx2|avx512|neon|native; using scalar kernels";
        return &scalar_table;
    }
    if (const simd_kernels* table = simd_kernels_for(req.isa)) return table;
    log(log_level::warning)
        << "GPF_SIMD=" << env
        << " is not supported on this host; using scalar kernels";
    return &scalar_table;
}

} // namespace

simd_env_request simd_parse_env(const char* value) {
    simd_env_request req;
    if (value == nullptr || *value == '\0' || std::strcmp(value, "native") == 0) {
        req.native = true;
        req.known = true;
        return req;
    }
    const struct {
        const char* name;
        simd_isa isa;
    } table[] = {
        {"scalar", simd_isa::scalar},
        {"avx2", simd_isa::avx2},
        {"avx512", simd_isa::avx512},
        {"neon", simd_isa::neon},
    };
    for (const auto& entry : table) {
        if (std::strcmp(value, entry.name) == 0) {
            req.known = true;
            req.isa = entry.isa;
            return req;
        }
    }
    return req; // unknown: known == false, dispatcher warns and runs scalar
}

const simd_kernels* simd_kernels_for(simd_isa isa) {
    switch (isa) {
        case simd_isa::scalar: return &scalar_table;
        case simd_isa::avx2: return detail::simd_avx2_table();
        case simd_isa::neon: return detail::simd_neon_table();
        case simd_isa::avx512: return detail::simd_avx512_table();
    }
    return nullptr;
}

simd_isa simd_detected_isa() {
    if (detail::simd_avx512_table() != nullptr) return simd_isa::avx512;
    if (detail::simd_avx2_table() != nullptr) return simd_isa::avx2;
    if (detail::simd_neon_table() != nullptr) return simd_isa::neon;
    return simd_isa::scalar;
}

const simd_kernels& simd() {
    const simd_kernels* table = g_active.load(std::memory_order_acquire);
    if (table == nullptr) {
        // Benign race: every contender resolves to the same table.
        table = resolve_from_environment();
        g_active.store(table, std::memory_order_release);
    }
    return *table;
}

simd_isa simd_active_isa() { return simd().isa; }

bool simd_set_isa(simd_isa isa) {
    const simd_kernels* table = simd_kernels_for(isa);
    if (table == nullptr) return false;
    g_active.store(table, std::memory_order_release);
    return true;
}

const char* simd_isa_name(simd_isa isa) {
    switch (isa) {
        case simd_isa::scalar: return "scalar";
        case simd_isa::avx2: return "avx2";
        case simd_isa::neon: return "neon";
        case simd_isa::avx512: return "avx512";
    }
    return "?";
}

} // namespace gpf
