// Radix-4/radix-2 complex FFT and 2-D real convolution on wrap-around
// (cyclic) grids, with runtime-dispatched SIMD butterflies.
//
// The force field of eq. (9) in the paper is a discrete convolution of the
// density map with the free-space Green's-function kernel; with m² grid
// bins the FFT evaluates it in O(m² log m) instead of O(m⁴).
//
// Butterfly passes run through the kernel table of util/simd.hpp: stages
// are fused pairwise into radix-4 passes (one complex multiply saved per
// four outputs and half the memory sweeps), with a single radix-2 pass
// first when log2(n) is odd. Every ISA produces bitwise-identical output
// (see the determinism contract in util/simd.hpp), so transforms — and
// hence placements — are reproducible across GPF_SIMD as well as
// GPF_THREADS.
//
// The "same"-shaped linear convolution with a centered (2n-1)-tap kernel
// is evaluated *exactly* on a cyclic grid of next_power_of_two(2n-1) per
// dimension — 2n for power-of-two n — by scattering kernel tap m to index
// (m mod P): because P >= 2n-1, no aliased tap lands on an offset the
// linear convolution uses, and output (i, j) reads directly at padded
// position (i, j). This halves each padded dimension relative to the
// classic 4n zero-padding (a 4x smaller transform area).
//
// Transform plans (bit-reversal permutation and per-stage twiddle tables)
// are cached per size in a process-wide table; see fft_plan_cache_stats()
// for the cache's observability hook and the locking contract below.
// `spectral_convolver` goes further and caches the *kernel spectra* of the
// force-field convolution across placement transformations (DESIGN.md §7).
#pragma once

#include <complex>
#include <cstddef>
#include <vector>

namespace gpf {

/// True when n is a power of two (n >= 1).
bool is_power_of_two(std::size_t n);

/// Smallest power of two >= n (n >= 1).
std::size_t next_power_of_two(std::size_t n);

/// In-place iterative FFT (radix-4 with one radix-2 stage for odd log2).
/// a.size() must be a power of two. The inverse transform includes the
/// 1/N normalization. Twiddle factors come from the per-size plan cache;
/// inputs must be finite.
void fft(std::vector<std::complex<double>>& a, bool inverse);

/// Pointer variant of fft() for transforming a slice in place (n must be a
/// power of two).
void fft(std::complex<double>* a, std::size_t n, bool inverse);

/// In-place 2-D FFT over a row-major n0 x n1 array (both powers of two).
/// Row and column passes run on the worker pool; results are bitwise
/// identical for any thread count (each 1-D transform owns its slice).
void fft_2d(std::vector<std::complex<double>>& a, std::size_t n0, std::size_t n1,
            bool inverse);

/// Counters of the process-wide FFT plan cache (test/observability hook).
///
/// The cache is bounded by construction — one slot per power-of-two size
/// up to 2^40, never evicted — and lock-free on the hit path: each slot is
/// an atomic pointer published with release ordering after the plan is
/// fully built. Only the first request of each size takes the build mutex;
/// concurrent first requests of *different* sizes serialize on it but
/// every later lookup is a single acquire load. Counter updates are
/// relaxed atomics; only the thread that actually builds a plan counts a
/// miss (a lookup that loses the build race counts a hit), so the totals
/// satisfy misses == plans and hits + misses == lookups even under
/// concurrent first requests — though a reader racing a builder may
/// transiently observe `misses` ahead of `plans`/`bytes`.
struct fft_cache_stats {
    std::size_t hits = 0;   ///< lookups served from an already-built plan
    std::size_t misses = 0; ///< lookups that built a plan (== plans ever built)
    std::size_t plans = 0;  ///< distinct sizes currently cached
    std::size_t bytes = 0;  ///< approximate resident bytes of all plans
};

/// Snapshot of the plan-cache counters since process start.
fft_cache_stats fft_plan_cache_stats();

/// Packed real-to-complex 2-D FFT of a row-major n0 x n1 real array (both
/// powers of two). Returns the half spectrum: n0 x (n1/2 + 1) complex
/// values, row-major with row stride n1/2 + 1. The dropped columns are
/// redundant by Hermitian symmetry of real input,
///
///   F[i, j] = conj(F[(n0 - i) mod n0, (n1 - j) mod n1]),
///
/// so column j > n1/2 is recoverable as conj(F[(n0-i) mod n0, n1-j]).
/// Rows transform pairwise through one complex FFT each (the classic
/// two-reals-in-one-complex trick), then the n1/2 + 1 retained columns
/// get a full complex pass — about half the transform work of a complex
/// 2-D FFT of the same grid.
std::vector<std::complex<double>> fft_2d_r2c(const std::vector<double>& data,
                                             std::size_t n0, std::size_t n1);

/// Inverse of fft_2d_r2c: consumes an n0 x (n1/2 + 1) half spectrum
/// (modified in place as scratch) and returns the n0 x n1 real array,
/// normalized by 1/(n0·n1). The input must carry the Hermitian symmetry
/// of a real signal (as fft_2d_r2c output does); the reconstruction
/// mirrors columns j > n1/2 from the retained half before each packed
/// row inverse, so no full-width spectrum is ever materialized.
std::vector<double> fft_2d_c2r(std::vector<std::complex<double>>& half,
                               std::size_t n0, std::size_t n1);

/// Linear (non-cyclic) 2-D convolution of a row-major n0 x n1 real array
/// with a centered kernel of size (2*n0-1) x (2*n1-1):
///
///   out(i,j) = sum_{k,l} data(k,l) * kernel(i-k + n0-1, j-l + n1-1)
///
/// Kernel index (n0-1, n1-1) is the zero-offset tap. Output has the same
/// n0 x n1 shape as data. Evaluated on the wrap-around grid described in
/// the header comment.
std::vector<double> convolve_2d(const std::vector<double>& data, std::size_t n0,
                                std::size_t n1, const std::vector<double>& kernel);

/// Iteration-persistent spectral engine for the pair of "same"-shaped
/// linear convolutions the force field needs each placement transformation
/// (data ⊛ kernel_x, data ⊛ kernel_y with one shared real input).
///
/// Construction pays the kernel cost exactly once: both centered
/// (2n0-1) x (2n1-1) kernels are scattered wrap-around (tap offset m to
/// index m mod P per dimension) into one cyclic complex grid as kx + i·ky,
/// forward-transformed in a single 2-D FFT, and split back into the two
/// real-kernel *half spectra* Kx, Ky (columns 0..p1/2 only — the rest is
/// the conjugate mirror, Hermitian symmetry of real input).
///
/// convolve_pair() then runs entirely on the half grid:
///   - forward r2c of the real data: packed-pair row transforms (two real
///     rows per complex length-p1 FFT) over the n0 data rows only,
///   - per batch of adjacent retained columns (p1/2 + 1 in all), one
///     cache-resident sweep: the forward column transform, one dual
///     Hermitian pointwise product (SIMD cmul_pair: D·Kx and D·Ky from
///     one read of the data spectrum) and both inverse column transforms,
///   - one packed complex row inverse per *output* row (n0 rows, not
///     p0), with Re = data ⊛ kernel_x and Im = data ⊛ kernel_y riding
///     the two channels.
/// Relative to the PR-8 full-spectrum path this removes ~30% of the
/// transform work and halves the pointwise memory traffic.
///
/// All scratch buffers are reused across calls and hold only the n0 data
/// rows; the zero padding band is written straight into each column
/// batch's transform scratch. The arithmetic schedule depends only on (n0, n1), so
/// results are bitwise identical for any thread count, and a fresh
/// convolver produces bitwise identical output to a reused one — the
/// cache contract tests/test_transform_cache.cpp locks in.
class spectral_convolver {
public:
    /// kernel_x / kernel_y: centered (2n0-1) x (2n1-1) taps, laid out as in
    /// convolve_2d.
    spectral_convolver(std::size_t n0, std::size_t n1,
                       const std::vector<double>& kernel_x,
                       const std::vector<double>& kernel_y);

    std::size_t n0() const { return n0_; }
    std::size_t n1() const { return n1_; }

    /// out_x = data ⊛ kernel_x, out_y = data ⊛ kernel_y ("same" shape,
    /// n0 x n1). data.size() must be n0 * n1. Outputs are resized.
    void convolve_pair(const std::vector<double>& data, std::vector<double>& out_x,
                       std::vector<double>& out_y);

    /// Convolves the affinely transformed grid (data[i] + shift) * scale
    /// without materializing it: the transform is applied inside the r2c
    /// row gather, so the density map feeds the forward transform directly
    /// (no intermediate real grid, no read-back sweep). Because IEEE
    /// a - b == a + (-b) bit for bit, convolve_pair_affine(demand,
    /// -supply, area) is bitwise identical to convolve_pair of the
    /// explicitly assembled (demand - supply) * area grid.
    void convolve_pair_affine(const std::vector<double>& data, double shift,
                              double scale, std::vector<double>& out_x,
                              std::vector<double>& out_y);

private:
    void run(const double* data, bool affine, double shift, double scale,
             std::vector<double>& out_x, std::vector<double>& out_y);

    std::size_t n0_, n1_; ///< data shape
    std::size_t p0_, p1_; ///< cyclic transform shape (powers of two)
    std::size_t hw_;      ///< half-spectrum width, p1/2 + 1
    std::vector<std::complex<double>> spec_xb_;  ///< Kx half spectrum, batch-interleaved
    std::vector<std::complex<double>> spec_yb_;  ///< Ky half spectrum, batch-interleaved
    std::vector<std::complex<double>> col_tw4_fwd_; ///< column twiddles ×4 lanes
    std::vector<std::complex<double>> col_tw4_inv_; ///< column twiddles ×4 lanes
    std::vector<std::complex<double>> row_spec_; ///< r2c row spectra, n0 rows
    std::vector<std::complex<double>> spec_d_;   ///< D·Kx, the n0 output rows
    std::vector<std::complex<double>> spec_q_;   ///< D·Ky, the n0 output rows
};

} // namespace gpf
