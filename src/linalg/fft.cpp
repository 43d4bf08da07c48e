#include "linalg/fft.hpp"

#include <array>
#include <atomic>
#include <cmath>
#include <limits>
#include <mutex>

#include "util/check.hpp"
#include "util/fault.hpp"
#include "util/profiler.hpp"
#include "util/simd.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace gpf {

bool is_power_of_two(std::size_t n) { return n >= 1 && (n & (n - 1)) == 0; }

std::size_t next_power_of_two(std::size_t n) {
    GPF_CHECK(n >= 1);
    std::size_t p = 1;
    while (p < n) p <<= 1;
    return p;
}

namespace {

/// Precomputed per-size transform plan: the bit-reversal permutation and
/// the twiddle factors of every butterfly stage, for both directions.
/// Twiddles for stage `len` live at offset len/2 - 1 (len/2 entries), the
/// flat layout of sum_{len=2,4,...} len/2 = n - 1 values. The radix-4
/// passes read the stage tables of both fused stages from this same
/// layout (offsets block/4 - 1 and block/2 - 1).
struct fft_plan {
    std::size_t n = 0;
    std::size_t log2 = 0;
    std::vector<std::uint32_t> bitrev;
    std::vector<std::complex<double>> forward;
    std::vector<std::complex<double>> inverse;
};

// Plan cache counters (see fft_plan_cache_stats in the header). Relaxed:
// the totals are exact, ordering between counters is not promised.
std::atomic<std::size_t> g_cache_hits{0};
std::atomic<std::size_t> g_cache_misses{0};
std::atomic<std::size_t> g_cache_plans{0};
std::atomic<std::size_t> g_cache_bytes{0};

fft_plan* build_plan(std::size_t n, std::size_t log2) {
    auto* plan = new fft_plan;
    plan->n = n;
    plan->log2 = log2;

    plan->bitrev.resize(n);
    for (std::size_t i = 1, j = 0; i < n; ++i) {
        std::size_t bit = n >> 1;
        for (; j & bit; bit >>= 1) j ^= bit;
        j ^= bit;
        plan->bitrev[i] = static_cast<std::uint32_t>(j);
    }

    plan->forward.resize(n - 1);
    plan->inverse.resize(n - 1);
    for (int dir = 0; dir < 2; ++dir) {
        auto& table = dir == 0 ? plan->forward : plan->inverse;
        for (std::size_t len = 2; len <= n; len <<= 1) {
            // Direct evaluation per entry: full trig accuracy for the
            // large stages, unlike a running-product recurrence whose
            // rounding error compounds over len/2 steps.
            const double step =
                (dir == 0 ? -2.0 : 2.0) * M_PI / static_cast<double>(len);
            for (std::size_t k = 0; k < len / 2; ++k) {
                const double angle = step * static_cast<double>(k);
                table[len / 2 - 1 + k] = {std::cos(angle), std::sin(angle)};
            }
        }
    }
    return plan;
}

/// Lock-free lookup of the cached plan for size n = 2^k; the first request
/// of each size builds the tables under a mutex. Bounded by construction:
/// one slot per power of two, never evicted.
const fft_plan& plan_for(std::size_t n) {
    constexpr std::size_t kMaxLog2 = 40;
    static std::atomic<fft_plan*> slots[kMaxLog2] = {};
    static std::mutex build_mutex;

    std::size_t log2 = 0;
    while ((std::size_t{1} << log2) < n) ++log2;
    GPF_CHECK_MSG(log2 < kMaxLog2, "fft size too large");

    fft_plan* plan = slots[log2].load(std::memory_order_acquire);
    if (plan == nullptr) {
        std::lock_guard<std::mutex> lock(build_mutex);
        plan = slots[log2].load(std::memory_order_relaxed);
        if (plan == nullptr) {
            // Only the thread that actually builds counts the miss —
            // concurrent first requests of the same size that lose the
            // build race find the slot populated and count a hit below,
            // keeping misses == plans and hits + misses == lookups even
            // under contention.
            g_cache_misses.fetch_add(1, std::memory_order_relaxed);
            plan = build_plan(n, log2);
            g_cache_plans.fetch_add(1, std::memory_order_relaxed);
            g_cache_bytes.fetch_add(
                sizeof(fft_plan) + n * sizeof(std::uint32_t) +
                    2 * (n - 1) * sizeof(std::complex<double>),
                std::memory_order_relaxed);
            slots[log2].store(plan, std::memory_order_release);
        } else {
            g_cache_hits.fetch_add(1, std::memory_order_relaxed);
        }
    } else {
        g_cache_hits.fetch_add(1, std::memory_order_relaxed);
    }
    return *plan;
}

/// Shared transform core: bit-reversal permutation, then the butterfly
/// stages fused pairwise into radix-4 passes through the active SIMD
/// kernel table. An odd stage count opens with one radix-2 pass at len 2
/// so the remaining stages pair up. Every kernel table produces bitwise
/// identical results (util/simd.hpp), so the transform is reproducible
/// across GPF_SIMD exactly as it is across GPF_THREADS.
void fft_with_plan(std::complex<double>* a, std::size_t n, bool inverse,
                   const fft_plan& plan) {
    for (std::size_t i = 1; i < n; ++i) {
        const std::size_t j = plan.bitrev[i];
        if (i < j) std::swap(a[i], a[j]);
    }

    const simd_kernels& kern = simd();
    const std::complex<double>* table =
        (inverse ? plan.inverse : plan.forward).data();

    std::size_t stage = 2;
    if ((plan.log2 & 1U) != 0) {
        kern.fft_radix2(a, n, 2, table);
        stage = 4;
    }
    // Each radix-4 pass computes the fused stage pair (stage, 2*stage)
    // over blocks of 2*stage; the next unprocessed stage is then 4*stage.
    while (2 * stage <= n) {
        const std::size_t block = 2 * stage;
        kern.fft_radix4(a, n, block, table + (block / 4 - 1),
                        table + (block / 2 - 1), inverse);
        stage = 4 * stage;
    }

    if (inverse) {
        kern.scale(reinterpret_cast<double*>(a),
                   1.0 / static_cast<double>(n), 2 * n);
    }
}

/// Butterfly stages of `batch` interleaved length-n transforms in lockstep
/// (element (row i, lane c) at b[i * batch + c]); the caller applies the
/// bit-reversal row permutation (the forward gather scatters through it,
/// the inverse swaps lane groups in place). Each logical stage of size
/// `len` is exactly a stock stage of size batch*len over the interleaved
/// array when fed the lane-replicated twiddle table `tw` (entry t of the
/// plan table repeated batch times at offset batch*t): block offsets and
/// butterfly partners scale by `batch`, and lane c walks the identical
/// per-column expression chain — so each lane's result is bitwise the
/// per-column transform's, on every ISA, while every pass runs on the
/// kernels' wide vector paths (no small-block or shuffle fallbacks).
void fft_batched_passes(std::complex<double>* b, std::size_t n,
                        std::size_t batch, bool inverse, const fft_plan& plan,
                        const std::complex<double>* tw) {
    const simd_kernels& kern = simd();
    std::size_t stage = 2;
    if ((plan.log2 & 1U) != 0) {
        kern.fft_radix2(b, batch * n, batch * 2, tw);
        stage = 4;
    }
    while (2 * stage <= n) {
        const std::size_t block = 2 * stage;
        kern.fft_radix4(b, batch * n, batch * block,
                        tw + batch * (block / 4 - 1),
                        tw + batch * (block / 2 - 1), inverse);
        stage = 4 * stage;
    }
    if (inverse) {
        kern.scale(reinterpret_cast<double*>(b),
                   1.0 / static_cast<double>(n), 2 * batch * n);
    }
}

/// Row pass of the 2-D transform: each row is contiguous and transforms in
/// place on its own slice.
void fft_rows(std::complex<double>* a, std::size_t n0, std::size_t n1,
              bool inverse, const fft_plan& plan) {
    parallel_for_chunks(n0, [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
            fft_with_plan(a + i * n1, n1, inverse, plan);
        }
    });
}

/// Adjacent columns gathered per scratch block of the column pass: four
/// complex doubles are one cache line, so the strided row walk pays one
/// line fetch for four columns instead of four fetches of one.
constexpr std::size_t kColBatch = 4;

/// Column pass over columns [col_begin, col_end) of a row-major grid with
/// row stride `stride`: gather kColBatch adjacent columns into contiguous
/// scratch, transform each, scatter to dst (which may alias src for an
/// in-place pass — batches own disjoint column ranges either way). The
/// chunk schedule depends only on the column count, and every 1-D
/// transform owns its scratch, so results are bitwise identical for any
/// thread count.
///
/// Rows >= src_rows are promised all +0.0 in src (the zero padding band
/// below the data rows); the gather stops at src_rows and writes the +0.0
/// fill directly — the same bits the strided loads would fetch, minus the
/// memory traffic of sweeping the padding half of the grid.
void fft_cols_strided(const std::complex<double>* src, std::complex<double>* dst,
                      std::size_t rows, std::size_t stride, std::size_t col_begin,
                      std::size_t col_end, bool inverse, const fft_plan& plan,
                      std::size_t src_rows = static_cast<std::size_t>(-1)) {
    const std::size_t cols = col_end - col_begin;
    const std::size_t batches = (cols + kColBatch - 1) / kColBatch;
    const std::size_t nread = std::min(rows, src_rows);
    parallel_for_chunks(batches, [&](std::size_t begin, std::size_t end) {
        std::vector<std::complex<double>> scratch(kColBatch * rows);
        for (std::size_t b = begin; b < end; ++b) {
            const std::size_t j0 = col_begin + b * kColBatch;
            const std::size_t jn = std::min(col_end - j0, kColBatch);
            for (std::size_t i = 0; i < nread; ++i) {
                const std::complex<double>* row = src + i * stride + j0;
                for (std::size_t c = 0; c < jn; ++c) scratch[c * rows + i] = row[c];
            }
            for (std::size_t c = 0; c < jn; ++c) {
                std::fill(scratch.begin() + static_cast<std::ptrdiff_t>(c * rows + nread),
                          scratch.begin() + static_cast<std::ptrdiff_t>((c + 1) * rows),
                          std::complex<double>{0.0, 0.0});
                fft_with_plan(scratch.data() + c * rows, rows, inverse, plan);
            }
            for (std::size_t i = 0; i < rows; ++i) {
                std::complex<double>* row = dst + i * stride + j0;
                for (std::size_t c = 0; c < jn; ++c) row[c] = scratch[c * rows + i];
            }
        }
    });
}

/// Column pass of the full-width complex 2-D transform.
void fft_cols(std::complex<double>* a, std::size_t n0, std::size_t n1,
              bool inverse, const fft_plan& plan) {
    fft_cols_strided(a, a, n0, n1, 0, n1, inverse, plan);
}

/// Packed-pair r2c row pass: forward-transforms `rows` real rows of
/// `width` samples each (zero-padded to transform length p1) and stores
/// the retained half spectrum — columns 0..p1/2 — of every row into
/// `out`, row-major with stride p1/2 + 1. Rows go pairwise through one
/// complex transform each: FFT(r0 + i·r1) recovers both spectra via the
/// conjugate symmetry of real input,
///   FFT(r0)[k] = (Z[k] + conj(Z[-k])) / 2
///   FFT(r1)[k] = (Z[k] - conj(Z[-k])) / 2i .
/// The schedule depends only on (rows, p1), so the pass is bitwise
/// reproducible at any thread count.
///
/// `load(i, j)` supplies sample j of row i — either a plain array read or
/// the affine density pack of convolve_pair_affine, applied here so the
/// source grid never materializes.
///
/// Rows in [zero_begin, zero_end) are promised all +0.0 by the caller
/// (the wrap-around padding band of a scattered kernel). A pair — or odd
/// tail row — entirely inside the band skips its transform: the FFT of an
/// all-+0 input is all +0 bitwise (every butterfly computes ±0-signed
/// products, and +0 plus-or-minus any signed zero rounds back to +0
/// under round-to-nearest), so the unpack below reduces to the constants
/// out0[k] = (+0, +0) and out1[k] = (+0, -0) — exactly what transforming
/// the zeros would store. Mixed pairs transform normally.
template <class Load>
void r2c_rows_load(Load&& load, std::size_t rows, std::size_t width,
                   std::size_t p1, std::complex<double>* out,
                   const fft_plan& plan, std::size_t zero_begin,
                   std::size_t zero_end) {
    const std::size_t hw = p1 / 2 + 1;
    const std::size_t pairs = (rows + 1) / 2;
    parallel_for_chunks(pairs, [&](std::size_t begin, std::size_t end) {
        std::vector<std::complex<double>> row(p1);
        for (std::size_t r = begin; r < end; ++r) {
            const std::size_t i0 = 2 * r;
            const std::size_t i1 = i0 + 1;
            if (i1 < rows) {
                std::complex<double>* out0 = out + i0 * hw;
                std::complex<double>* out1 = out + i1 * hw;
                if (i0 >= zero_begin && i1 < zero_end) {
                    for (std::size_t k = 0; k < hw; ++k) {
                        out0[k] = {0.0, 0.0};
                        out1[k] = {0.0, -0.0};
                    }
                    continue;
                }
                for (std::size_t j = 0; j < width; ++j) {
                    row[j] = {load(i0, j), load(i1, j)};
                }
                std::fill(row.begin() + static_cast<std::ptrdiff_t>(width),
                          row.end(), std::complex<double>{0.0, 0.0});
                fft_with_plan(row.data(), p1, false, plan);
                for (std::size_t k = 0; k < hw; ++k) {
                    const std::size_t km = (p1 - k) & (p1 - 1);
                    const double ar = row[k].real();
                    const double ai = row[k].imag();
                    const double br = row[km].real();
                    const double bi = -row[km].imag(); // conj(Z[-k])
                    out0[k] = {0.5 * (ar + br), 0.5 * (ai + bi)};
                    out1[k] = {0.5 * (ai - bi), -0.5 * (ar - br)};
                }
            } else {
                // Odd tail: a single real row transforms directly.
                std::complex<double>* out0 = out + i0 * hw;
                if (i0 >= zero_begin && i0 < zero_end) {
                    for (std::size_t k = 0; k < hw; ++k) out0[k] = {0.0, 0.0};
                    continue;
                }
                for (std::size_t j = 0; j < width; ++j) {
                    row[j] = {load(i0, j), 0.0};
                }
                std::fill(row.begin() + static_cast<std::ptrdiff_t>(width),
                          row.end(), std::complex<double>{0.0, 0.0});
                fft_with_plan(row.data(), p1, false, plan);
                for (std::size_t k = 0; k < hw; ++k) out0[k] = row[k];
            }
        }
    });
}

void r2c_rows(const double* data, std::size_t rows, std::size_t width,
              std::size_t p1, std::complex<double>* out, const fft_plan& plan,
              std::size_t zero_begin = 0, std::size_t zero_end = 0) {
    r2c_rows_load(
        [data, width](std::size_t i, std::size_t j) { return data[i * width + j]; },
        rows, width, p1, out, plan, zero_begin, zero_end);
}

/// Packed-pair c2r row pass, the inverse of r2c_rows: rebuilds each full
/// row spectrum from its retained half (columns k > p1/2 are the exact
/// conjugate mirror of the stored ones — Hermitian symmetry of a real
/// signal), rides two rows per complex inverse transform (z = H0 + i·H1
/// ⇒ ifft(z) = r0 + i·r1 with both real), and writes `width` samples per
/// row into `out` (row stride width). Includes the 1/p1 normalization.
void c2r_rows(const std::complex<double>* half, std::size_t rows, std::size_t p1,
              double* out, std::size_t width, const fft_plan& plan) {
    const std::size_t hw = p1 / 2 + 1;
    const std::size_t pairs = (rows + 1) / 2;
    parallel_for_chunks(pairs, [&](std::size_t begin, std::size_t end) {
        std::vector<std::complex<double>> row(p1);
        for (std::size_t r = begin; r < end; ++r) {
            const std::size_t i0 = 2 * r;
            const std::size_t i1 = i0 + 1;
            if (i1 < rows) {
                const std::complex<double>* h0 = half + i0 * hw;
                const std::complex<double>* h1 = half + i1 * hw;
                for (std::size_t k = 0; k < hw; ++k) {
                    // z[k] = H0[k] + i·H1[k]
                    row[k] = {h0[k].real() - h1[k].imag(),
                              h0[k].imag() + h1[k].real()};
                }
                for (std::size_t k = hw; k < p1; ++k) {
                    // z[k] = conj(H0[p1-k]) + i·conj(H1[p1-k])
                    const std::size_t km = p1 - k;
                    row[k] = {h0[km].real() + h1[km].imag(),
                              h1[km].real() - h0[km].imag()};
                }
                fft_with_plan(row.data(), p1, true, plan);
                for (std::size_t j = 0; j < width; ++j) {
                    out[i0 * width + j] = row[j].real();
                    out[i1 * width + j] = row[j].imag();
                }
            } else {
                const std::complex<double>* h0 = half + i0 * hw;
                for (std::size_t k = 0; k < hw; ++k) row[k] = h0[k];
                for (std::size_t k = hw; k < p1; ++k) {
                    row[k] = std::conj(h0[p1 - k]);
                }
                fft_with_plan(row.data(), p1, true, plan);
                for (std::size_t j = 0; j < width; ++j) {
                    out[i0 * width + j] = row[j].real();
                }
            }
        }
    });
}

/// Nominal flop count of one complex FFT of size n (the standard
/// 5 n log2 n model), for throughput reporting only.
double fft_flops(std::size_t n, std::size_t count = 1) {
    const double dn = static_cast<double>(n);
    return 5.0 * dn * std::log2(dn) * static_cast<double>(count);
}

} // namespace

fft_cache_stats fft_plan_cache_stats() {
    fft_cache_stats s;
    s.hits = g_cache_hits.load(std::memory_order_relaxed);
    s.misses = g_cache_misses.load(std::memory_order_relaxed);
    s.plans = g_cache_plans.load(std::memory_order_relaxed);
    s.bytes = g_cache_bytes.load(std::memory_order_relaxed);
    return s;
}

void fft(std::complex<double>* a, std::size_t n, bool inverse) {
    GPF_CHECK_MSG(is_power_of_two(n), "fft size must be a power of two");
    if (n == 1) return;
    fft_with_plan(a, n, inverse, plan_for(n));
}

void fft(std::vector<std::complex<double>>& a, bool inverse) {
    fft(a.data(), a.size(), inverse);
}

void fft_2d(std::vector<std::complex<double>>& a, std::size_t n0, std::size_t n1,
            bool inverse) {
    GPF_CHECK(a.size() == n0 * n1);
    // Each row (then each column) transform touches a disjoint slice, so
    // both passes parallelize with bitwise-identical results for any
    // thread count; only the barrier between the passes is ordered.
    const fft_plan& row_plan = plan_for(n1);
    const fft_plan& col_plan = plan_for(n0);
    fft_rows(a.data(), n0, n1, inverse, row_plan);
    fft_cols(a.data(), n0, n1, inverse, col_plan);
}

std::vector<std::complex<double>> fft_2d_r2c(const std::vector<double>& data,
                                             std::size_t n0, std::size_t n1) {
    GPF_CHECK(data.size() == n0 * n1);
    GPF_CHECK_MSG(is_power_of_two(n0) && is_power_of_two(n1),
                  "fft_2d_r2c dims must be powers of two");
    const std::size_t hw = n1 / 2 + 1;
    std::vector<std::complex<double>> half(n0 * hw);
    r2c_rows(data.data(), n0, n1, n1, half.data(), plan_for(n1));
    fft_cols_strided(half.data(), half.data(), n0, hw, 0, hw, false,
                     plan_for(n0));
    return half;
}

std::vector<double> fft_2d_c2r(std::vector<std::complex<double>>& half,
                               std::size_t n0, std::size_t n1) {
    GPF_CHECK_MSG(is_power_of_two(n0) && is_power_of_two(n1),
                  "fft_2d_c2r dims must be powers of two");
    const std::size_t hw = n1 / 2 + 1;
    GPF_CHECK(half.size() == n0 * hw);
    fft_cols_strided(half.data(), half.data(), n0, hw, 0, hw, true,
                     plan_for(n0)); // includes the 1/n0 factor
    std::vector<double> out(n0 * n1);
    c2r_rows(half.data(), n0, n1, out.data(), n1, plan_for(n1)); // and 1/n1
    return out;
}

std::vector<double> convolve_2d(const std::vector<double>& data, std::size_t n0,
                                std::size_t n1, const std::vector<double>& kernel) {
    GPF_CHECK(data.size() == n0 * n1);
    const std::size_t k0 = 2 * n0 - 1;
    const std::size_t k1 = 2 * n1 - 1;
    GPF_CHECK(kernel.size() == k0 * k1);

    // Cyclic grid: P >= 2n-1 per dimension makes the wrap-around
    // convolution agree exactly with the "same"-shaped linear one (no
    // kernel tap aliases onto an offset within reach of the data).
    const std::size_t p0 = next_power_of_two(k0);
    const std::size_t p1 = next_power_of_two(k1);
    const std::size_t hw = p1 / 2 + 1;
    const fft_plan& row_plan = plan_for(p1);
    const fft_plan& col_plan = plan_for(p0);

    // Both operands are real, so everything runs on the half spectrum:
    // r2c rows (zero-filled half rows for the data padding), a column
    // pass over the hw retained columns, a half-size pointwise product —
    // Hermitian × Hermitian is Hermitian — and a c2r inverse that only
    // materializes the n0 output rows.
    std::vector<std::complex<double>> da(p0 * hw);
    r2c_rows(data.data(), n0, n1, p1, da.data(), row_plan);
    // Data rows occupy [0, n0); the column pass gathers only those and
    // +0-fills the padding band (bitwise what the stored zeros hold).
    fft_cols_strided(da.data(), da.data(), p0, hw, 0, hw, false, col_plan, n0);

    // Scatter kernel tap (i, j) — offset (i - (n0-1), j - (n1-1)) — to its
    // wrap-around position (offset mod P), then transform it the same way.
    // Wrapped taps land in rows [0, n0) and [p0-n0+1, p0), so the band
    // [n0, p0-n0+1) is all zero — its row FFTs are pruned (see r2c_rows).
    std::vector<double> kb(p0 * p1, 0.0);
    for (std::size_t i = 0; i < k0; ++i) {
        const std::size_t wi = (i + p0 - n0 + 1) & (p0 - 1);
        for (std::size_t j = 0; j < k1; ++j) {
            const std::size_t wj = (j + p1 - n1 + 1) & (p1 - 1);
            kb[wi * p1 + wj] = kernel[i * k1 + j];
        }
    }
    std::vector<std::complex<double>> hb(p0 * hw);
    r2c_rows(kb.data(), p0, p1, p1, hb.data(), row_plan, n0, p0 - n0 + 1);
    fft_cols_strided(hb.data(), hb.data(), p0, hw, 0, hw, false, col_plan);

    std::complex<double>* const pa = da.data();
    const std::complex<double>* const pb = hb.data();
    const simd_kernels& kern = simd();
    parallel_for_chunks(
        da.size(),
        [&](std::size_t begin, std::size_t end) {
            kern.cmul(pa + begin, pb + begin, end - begin);
        },
        /*grain=*/4096);

    fft_cols_strided(da.data(), da.data(), p0, hw, 0, hw, true, col_plan);
    // On the cyclic grid output (i, j) sits at padded position (i, j), so
    // the inverse row pass only runs the n0 rows the output reads.
    std::vector<double> out(n0 * n1);
    c2r_rows(da.data(), n0, p1, out.data(), n1, row_plan);
    return out;
}

spectral_convolver::spectral_convolver(std::size_t n0, std::size_t n1,
                                       const std::vector<double>& kernel_x,
                                       const std::vector<double>& kernel_y)
    : n0_(n0), n1_(n1) {
    GPF_CHECK(n0 >= 1 && n1 >= 1);
    const std::size_t k0 = 2 * n0 - 1;
    const std::size_t k1 = 2 * n1 - 1;
    GPF_CHECK(kernel_x.size() == k0 * k1);
    GPF_CHECK(kernel_y.size() == k0 * k1);
    p0_ = next_power_of_two(k0);
    p1_ = next_power_of_two(k1);
    hw_ = p1_ / 2 + 1;

    // One forward transform digests both kernels: by linearity the
    // spectrum of kx + i·ky is Kx + i·Ky. Taps scatter to their
    // wrap-around positions (offset mod P per dimension), as in
    // convolve_2d.
    std::vector<std::complex<double>> packed(p0_ * p1_);
    for (std::size_t i = 0; i < k0; ++i) {
        const std::size_t wi = (i + p0_ - n0 + 1) & (p0_ - 1);
        for (std::size_t j = 0; j < k1; ++j) {
            const std::size_t wj = (j + p1_ - n1 + 1) & (p1_ - 1);
            packed[wi * p1_ + wj] = {kernel_x[i * k1 + j], kernel_y[i * k1 + j]};
        }
    }
    fft_2d(packed, p0_, p1_, false);

    // Unpack the two real-kernel half spectra from the packed transform
    // (the same conjugate-symmetry split the r2c row pass uses, applied
    // in 2-D: the mirror of (i, j) is ((p0-i) mod p0, (p1-j) mod p1)):
    //   Kx[i,j] = (F[i,j] + conj(F[-i,-j])) / 2
    //   Ky[i,j] = (F[i,j] - conj(F[-i,-j])) / 2i .
    // Only columns 0..p1/2 are kept; convolve_pair() never touches a
    // full-width spectrum again. They are stored batch-interleaved for
    // the column sweep: batch b covers columns [b*kColBatch, b*kColBatch
    // + kColBatch), and element (row i, lane c) lives at ((b * p0 + i) *
    // kColBatch + c) — the lockstep layout the batched column transform
    // works in. Lanes past the half-spectrum width stay zero (their
    // products are discarded).
    const std::size_t nbatch = (hw_ + kColBatch - 1) / kColBatch;
    spec_xb_.assign(nbatch * kColBatch * p0_, {0.0, 0.0});
    spec_yb_.assign(nbatch * kColBatch * p0_, {0.0, 0.0});
    for (std::size_t i = 0; i < p0_; ++i) {
        const std::size_t mi = (p0_ - i) & (p0_ - 1);
        for (std::size_t j = 0; j < hw_; ++j) {
            const std::size_t mj = (p1_ - j) & (p1_ - 1);
            const std::complex<double> a = packed[i * p1_ + j];
            const std::complex<double> b = packed[mi * p1_ + mj];
            const double ar = a.real(), ai = a.imag();
            const double br = b.real(), bi = -b.imag(); // conj(F[-i,-j])
            const std::size_t at =
                ((j / kColBatch) * p0_ + i) * kColBatch + j % kColBatch;
            spec_xb_[at] = {0.5 * (ar + br), 0.5 * (ai + bi)};
            spec_yb_[at] = {0.5 * (ai - bi), -0.5 * (ar - br)};
        }
    }

    // Lane-replicated column twiddle tables: every stage of the batched
    // column transform applies the same per-k twiddle to all kColBatch
    // lanes, so the plan's stage tables are stored with each entry
    // repeated kColBatch times (stage `len` at offset
    // kColBatch * (len/2 - 1)). A vector load of the repeated run is an
    // effective broadcast — the stock radix kernels then run the batched
    // stages unmodified, with every pass on their wide code paths.
    const fft_plan& col_plan = plan_for(p0_);
    col_tw4_fwd_.resize(kColBatch * (p0_ - 1));
    col_tw4_inv_.resize(kColBatch * (p0_ - 1));
    for (std::size_t t = 0; t + 1 < p0_; ++t) {
        for (std::size_t c = 0; c < kColBatch; ++c) {
            col_tw4_fwd_[t * kColBatch + c] = col_plan.forward[t];
            col_tw4_inv_[t * kColBatch + c] = col_plan.inverse[t];
        }
    }

    // Half-spectrum scratch of the n0 data rows: the column sweep writes
    // the zero padding band straight into its batch scratch.
    row_spec_.resize(n0_ * hw_);
    spec_d_.resize(n0_ * hw_);
    spec_q_.resize(n0_ * hw_);
}

void spectral_convolver::convolve_pair(const std::vector<double>& data,
                                       std::vector<double>& out_x,
                                       std::vector<double>& out_y) {
    GPF_CHECK(data.size() == n0_ * n1_);
    run(data.data(), /*affine=*/false, 0.0, 1.0, out_x, out_y);
}

void spectral_convolver::convolve_pair_affine(const std::vector<double>& data,
                                              double shift, double scale,
                                              std::vector<double>& out_x,
                                              std::vector<double>& out_y) {
    GPF_CHECK(data.size() == n0_ * n1_);
    run(data.data(), /*affine=*/true, shift, scale, out_x, out_y);
}

void spectral_convolver::run(const double* data, bool affine, double shift,
                             double scale, std::vector<double>& out_x,
                             std::vector<double>& out_y) {
    const fft_plan& row_plan = plan_for(p1_);
    const fft_plan& col_plan = plan_for(p0_);
    const double half_area = static_cast<double>(p0_ * hw_);
    const double fwd_flops = fft_flops(p1_, (n0_ + 1) / 2) + fft_flops(p0_, hw_);
    const double mul_flops = 12.0 * half_area;
    const double inv_flops =
        fft_flops(p0_, 2 * hw_) + fft_flops(p1_, n0_) + 2.0 * half_area;
    out_x.resize(n0_ * n1_);
    out_y.resize(n0_ * n1_);

    // The forward column transform, the pointwise kernel product and both
    // inverse column transforms run as ONE sweep per kColBatch-column
    // batch, entirely in L2-resident scratch. The batch is held in
    // lockstep-interleaved layout (row i of all kColBatch columns
    // adjacent) and transformed by fft_batched_passes, so each column
    // undergoes exactly a per-column transform's arithmetic — gather the
    // n0 spectrum rows (+0.0 for the padding band), length-p0 forward
    // FFT, the elementwise cmul_pair expression, two length-p0 inverse
    // FFTs — and columns are independent, so results are bitwise
    // identical at any thread count and on every ISA. Rows >= n0 of the
    // product spectra are never read by the inverse row pass, so only
    // the n0 output rows scatter back.
    //
    // Sub-phase attribution: batches time their forward/pointwise/
    // inverse sections into per-batch slots (no contention) which the
    // driving thread folds into the profiler after the join — the
    // profiler itself is never touched from a worker. The folded seconds
    // are summed across workers, i.e. CPU seconds; on the single-threaded
    // perf legs they equal wall clock.
    profiler& prof = profiler::instance();
    const bool profiling = prof.enabled();
    double t_rows_fwd = 0.0, t_rows_inv = 0.0;
    {
        // Forward r2c row pass: packed-pair transforms of the n0 data rows.
        // The affine pack — (d + shift) * scale, the density map's
        // (demand - supply) * bin_area source term — rides the gather, so
        // the source grid is never materialized.
        stopwatch sw;
        if (affine) {
            r2c_rows_load(
                [data, shift, scale, w = n1_](std::size_t i, std::size_t j) {
                    return (data[i * w + j] + shift) * scale;
                },
                n0_, n1_, p1_, row_spec_.data(), row_plan, 0, 0);
        } else {
            r2c_rows(data, n0_, n1_, p1_, row_spec_.data(), row_plan);
        }
        if (profiling) t_rows_fwd = sw.elapsed_seconds();
    }
    const std::size_t batches = (hw_ + kColBatch - 1) / kColBatch;
    std::vector<std::array<double, 3>> batch_s(profiling ? batches : 0);
    const std::uint32_t* const brev = col_plan.bitrev.data();
    parallel_for_chunks(batches, [&](std::size_t begin, std::size_t end) {
        std::vector<std::complex<double>> sd(kColBatch * p0_);
        std::vector<std::complex<double>> sq(kColBatch * p0_);
        const simd_kernels& kern = simd();
        for (std::size_t b = begin; b < end; ++b) {
            const std::size_t j0 = b * kColBatch;
            const std::size_t jn = std::min(hw_ - j0, kColBatch);
            stopwatch sw;
            double t_fwd = 0.0, t_mul = 0.0;
            // Gather through the bit-reversal permutation (the
            // batched passes take pre-permuted input); tail-batch
            // lanes >= jn and the zero padding band write +0.0.
            for (std::size_t i = 0; i < n0_; ++i) {
                const std::complex<double>* row = row_spec_.data() + i * hw_ + j0;
                std::complex<double>* g = sd.data() + kColBatch * brev[i];
                std::size_t c = 0;
                for (; c < jn; ++c) g[c] = row[c];
                for (; c < kColBatch; ++c) g[c] = {0.0, 0.0};
            }
            for (std::size_t i = n0_; i < p0_; ++i) {
                std::complex<double>* g = sd.data() + kColBatch * brev[i];
                for (std::size_t c = 0; c < kColBatch; ++c) g[c] = {0.0, 0.0};
            }
            fft_batched_passes(sd.data(), p0_, kColBatch, false, col_plan,
                               col_tw4_fwd_.data());
            if (profiling) t_fwd = sw.elapsed_seconds();
            kern.cmul_pair(sd.data(), sq.data(),
                           spec_xb_.data() + b * kColBatch * p0_,
                           spec_yb_.data() + b * kColBatch * p0_,
                           kColBatch * p0_);
            if (profiling) t_mul = sw.elapsed_seconds();
            // Inverse: bit-reverse the rows in place (lane-group
            // swaps), then the batched stages + 1/p0 scale.
            for (std::size_t i = 1; i < p0_; ++i) {
                const std::size_t j = brev[i];
                if (i < j) {
                    for (std::size_t c = 0; c < kColBatch; ++c) {
                        std::swap(sd[kColBatch * i + c], sd[kColBatch * j + c]);
                        std::swap(sq[kColBatch * i + c], sq[kColBatch * j + c]);
                    }
                }
            }
            fft_batched_passes(sd.data(), p0_, kColBatch, true, col_plan,
                               col_tw4_inv_.data());
            fft_batched_passes(sq.data(), p0_, kColBatch, true, col_plan,
                               col_tw4_inv_.data());
            for (std::size_t i = 0; i < n0_; ++i) {
                std::complex<double>* xr = spec_d_.data() + i * hw_ + j0;
                std::complex<double>* yr = spec_q_.data() + i * hw_ + j0;
                const std::complex<double>* gd = sd.data() + kColBatch * i;
                const std::complex<double>* gq = sq.data() + kColBatch * i;
                for (std::size_t c = 0; c < jn; ++c) {
                    xr[c] = gd[c];
                    yr[c] = gq[c];
                }
            }
            if (profiling) {
                batch_s[b] = {t_fwd, t_mul - t_fwd,
                              sw.elapsed_seconds() - t_mul};
            }
        }
    });
    // Inverse row pass: both product spectra are Hermitian (real ⊛ real),
    // so the row pass rides both results through one packed complex
    // inverse per output row — conj-mirrored to full width as z = X + i·Y,
    // so Re = data ⊛ kx, Im = data ⊛ ky. Only the n0 rows the output
    // reads are assembled (the cyclic grid puts output (i, j) at padded
    // position (i, j), no offset).
    {
        stopwatch sw;
        parallel_for_chunks(n0_, [&](std::size_t begin, std::size_t end) {
            std::vector<std::complex<double>> row(p1_);
            for (std::size_t i = begin; i < end; ++i) {
                const std::complex<double>* xr = spec_d_.data() + i * hw_;
                const std::complex<double>* yr = spec_q_.data() + i * hw_;
                for (std::size_t k = 0; k < hw_; ++k) {
                    // z[k] = X[k] + i·Y[k]
                    row[k] = {xr[k].real() - yr[k].imag(),
                              xr[k].imag() + yr[k].real()};
                }
                for (std::size_t k = hw_; k < p1_; ++k) {
                    // z[k] = conj(X[p1-k]) + i·conj(Y[p1-k])
                    const std::size_t km = p1_ - k;
                    row[k] = {xr[km].real() + yr[km].imag(),
                              yr[km].real() - xr[km].imag()};
                }
                fft_with_plan(row.data(), p1_, true, row_plan);
                for (std::size_t j = 0; j < n1_; ++j) {
                    out_x[i * n1_ + j] = row[j].real();
                    out_y[i * n1_ + j] = row[j].imag();
                }
            }
        });
        if (profiling) t_rows_inv = sw.elapsed_seconds();
    }
    if (profiling) {
        double s_fwd = 0.0, s_mul = 0.0, s_inv = 0.0;
        for (const auto& b : batch_s) {
            s_fwd += b[0];
            s_mul += b[1];
            s_inv += b[2];
        }
        prof.add_kernel_sample(profile_kernel::fft_forward,
                               t_rows_fwd + s_fwd, fwd_flops);
        prof.add_kernel_sample(profile_kernel::fft_pointwise, s_mul,
                               mul_flops);
        prof.add_kernel_sample(profile_kernel::fft_inverse,
                               s_inv + t_rows_inv, inv_flops);
    }

    // Injection site (util/fault.hpp): a corrupted frequency-domain
    // coefficient contaminates every spatial sample of the inverse
    // transform, so the emulation poisons the whole output plane.
    if (fault_fires(fault_site::fft_nonfinite)) {
        const double inf = std::numeric_limits<double>::infinity();
        for (double& v : out_x) v += inf;
    }
}

} // namespace gpf
