// Runtime-dispatched SIMD kernels for the flat inner loops of the
// placement hot path: FFT butterflies, the spectral pointwise product,
// CG axpy/dot/SpMV row products (single and x/y-paired), and the bulk
// density-grid accumulation.
//
// Dispatch model: one kernel table per instruction set (scalar always;
// AVX2/AVX-512 when the translation units were compiled for x86 and the
// CPU reports support; NEON on aarch64). The active table is selected
// once, at first use, from the best supported ISA — overridable with the
// GPF_SIMD environment variable (scalar | avx2 | avx512 | neon |
// native). An unknown or unsupported request logs a warning and falls
// back to scalar rather than aborting, so a pinned CI value stays safe
// on any runner (simd_parse_env exposes the parse for tests).
//
// Determinism contract (the load-bearing part): every kernel produces
// BITWISE identical results on every ISA, so placements are reproducible
// across GPF_SIMD settings exactly as they are across GPF_THREADS
// (DESIGN.md §13):
//
//   * Elementwise kernels (axpy, xpby, accumulate, scale, cmul, FFT
//     butterflies) evaluate the same per-element expression with plain
//     IEEE multiplies and adds. FMA contraction is disabled in every
//     kernel translation unit (-ffp-contract=off and no -mfma), because
//     a fused multiply-add rounds once where mul+add rounds twice.
//   * Reductions (dot, dot_gather, dot_gather_pair) are defined over
//     simd_reduce_lanes fixed logical lanes: lane l accumulates elements
//     i ≡ l (mod 4) over the 4-aligned prefix, lanes merge as
//     (l0+l2)+(l1+l3), and the tail is added serially — the same
//     slab-and-fixed-merge discipline as deterministic_sum
//     (util/thread_pool.hpp). A 2-lane ISA (NEON) emulates the 4-lane
//     shape with two vector accumulators; the scalar path runs four named
//     accumulators. Identical trees, identical bits.
//
// Thread-safety: the active-table pointer is a single atomic. Resolution
// happens once; simd_set_isa() (tests, tools) must not race a parallel
// region that is concurrently reading kernels — swap only between
// placements, as the equivalence tests do.
#pragma once

#include <complex>
#include <cstddef>
#include <cstdint>

namespace gpf {

enum class simd_isa {
    scalar = 0, ///< portable reference kernels (always available)
    avx2 = 1,   ///< x86-64 AVX2 (256-bit, 4 doubles)
    neon = 2,   ///< aarch64 NEON (128-bit, 2 doubles; 4-lane emulated)
    avx512 = 3, ///< x86-64 AVX-512F (512-bit, 8 doubles; 4-lane reductions)
};

/// Logical lane count of every reduction kernel, identical on all ISAs.
inline constexpr std::size_t simd_reduce_lanes = 4;

/// Flat kernel table. All pointers are non-null in every table.
struct simd_kernels {
    simd_isa isa;
    const char* name;

    /// y[i] += alpha * x[i]
    void (*axpy)(double alpha, const double* x, double* y, std::size_t n);
    /// p[i] = z[i] + beta * p[i]
    void (*xpby)(const double* z, double beta, double* p, std::size_t n);
    /// dst[i] += src[i]
    void (*accumulate)(const double* src, double* dst, std::size_t n);
    /// dst[i] += c (the full-bin span add of the density row-run stamper)
    void (*add_scalar)(double* dst, double c, std::size_t n);
    /// p[i] *= s
    void (*scale)(double* p, double s, std::size_t n);
    /// sum_i a[i] * b[i], fixed 4-lane reduction (see header comment)
    double (*dot)(const double* a, const double* b, std::size_t n);
    /// sum_k v[k] * x[idx[k]], fixed 4-lane reduction (CSR row product)
    double (*dot_gather)(const double* v, const std::uint32_t* idx,
                         const double* x, std::size_t n);
    /// Paired CSR row products over rows [begin, end) of one pattern shared
    /// by two matrices (the x and y axes of a paired CG solve): for each
    /// row i, ox[i] = sum_k vx[k] * px[idx[k]] and oy[i] likewise with
    /// vy/py, k over [row_ptr[i], row_ptr[i+1]) — each bitwise the
    /// dot_gather of that row, reading the indices once for both axes.
    void (*dot_gather_pair)(const std::size_t* row_ptr, const std::uint32_t* idx,
                            const double* vx, const double* vy, const double* px,
                            const double* py, std::size_t begin, std::size_t end,
                            double* ox, double* oy);
    /// w[i] *= s[i] (complex pointwise product of the spectral convolver)
    void (*cmul)(std::complex<double>* w, const std::complex<double>* s,
                 std::size_t n);
    /// Dual pointwise product against two cached spectra with one sweep
    /// over the shared input: q[i] = w[i] * t[i], then w[i] *= s[i]. This
    /// is the Hermitian (half-spectrum) product of the packed real
    /// convolver: w holds the r2c data spectrum, s/t the two kernel
    /// spectra, and both outputs stay on the half grid.
    void (*cmul_pair)(std::complex<double>* w, std::complex<double>* q,
                      const std::complex<double>* s, const std::complex<double>* t,
                      std::size_t n);
    /// One radix-2 butterfly stage of size `len` over [a, a+n): for every
    /// block of len and k < len/2, (u, t) = (a[k], a[k+len/2] * w[k]) →
    /// a[k] = u + t, a[k+len/2] = u - t.
    void (*fft_radix2)(std::complex<double>* a, std::size_t n, std::size_t len,
                       const std::complex<double>* w);
    /// Fused pair of butterfly stages (len = block/2 then len = block) as
    /// one radix-4 pass over [a, a+n). wa/wb are the twiddle slices of the
    /// two fused stages (block/4 and block/2 entries); the cross twiddle
    /// w_b[k + block/4] is applied as an exact ∓i rotation of w_b[k].
    void (*fft_radix4)(std::complex<double>* a, std::size_t n,
                       std::size_t block, const std::complex<double>* wa,
                       const std::complex<double>* wb, bool inverse);
};

/// Active kernel table (resolved once from the best supported ISA and the
/// GPF_SIMD override; see header comment for the swap contract).
const simd_kernels& simd();

/// ISA of the active table.
simd_isa simd_active_isa();

/// Best ISA compiled in and supported by this CPU (what "native" means).
simd_isa simd_detected_isa();

/// Swap the active table (test/tool hook). Returns false — leaving the
/// active table unchanged — when the requested ISA is not compiled in or
/// not supported by the CPU. Must not race a running parallel kernel.
bool simd_set_isa(simd_isa isa);

/// "scalar", "avx2", "neon", "avx512".
const char* simd_isa_name(simd_isa isa);

/// Table for an explicit ISA, or nullptr when unsupported on this host.
/// The scalar table is always available.
const simd_kernels* simd_kernels_for(simd_isa isa);

/// Parsed GPF_SIMD override. `native` means "use the detected best ISA"
/// (unset, empty, or the literal "native"); `known == false` means the
/// string named no recognized ISA and the dispatcher must warn and run
/// scalar. `isa` is meaningful only when known and not native.
struct simd_env_request {
    bool native = false;
    bool known = false;
    simd_isa isa = simd_isa::scalar;
};

/// Pure parse of a GPF_SIMD value (nullptr allowed). Exposed separately
/// from the dispatcher so the env handling is testable without forking:
/// the active table is resolved (and cached) at first simd() use, but
/// the parse itself has no state.
simd_env_request simd_parse_env(const char* value);

} // namespace gpf
