// Internal seam between the SIMD dispatcher (simd.cpp) and the AVX2
// kernel translation unit. The AVX2 TU always defines its accessor; it
// returns nullptr when the TU was compiled without AVX2 (wrong
// architecture, or GPF_ENABLE_SIMD=OFF), so the dispatcher can probe
// availability with a plain link-time call — no weak symbols, no
// preprocessor coupling between translation units.
//
// The scalar reference kernels live here too: the AVX2 TU reuses them
// verbatim for loop tails, which keeps "bitwise identical to scalar"
// true by construction there. Everything in this header is compiled with
// -ffp-contract=off in every kernel TU (see src/CMakeLists.txt).
#pragma once

#include "util/simd.hpp"

namespace gpf::detail {

/// nullptr unless compiled with AVX2 enabled (x86-64 only).
const simd_kernels* simd_avx2_table();

// --- scalar reference kernels (definitions in simd.cpp) -------------------

void axpy_scalar(double alpha, const double* x, double* y, std::size_t n);
void xpby_scalar(const double* z, double beta, double* p, std::size_t n);
void accumulate_scalar(const double* src, double* dst, std::size_t n);
void add_scalar_scalar(double* dst, double c, std::size_t n);
void scale_scalar(double* p, double s, std::size_t n);
double dot_scalar(const double* a, const double* b, std::size_t n);
double dot_gather_scalar(const double* v, const std::uint32_t* idx,
                         const double* x, std::size_t n);
void dot_gather_pair_scalar(const std::size_t* row_ptr, const std::uint32_t* idx,
                            const double* vx, const double* vy, const double* px,
                            const double* py, std::size_t begin, std::size_t end,
                            double* ox, double* oy);
void cmul_scalar(std::complex<double>* w, const std::complex<double>* s,
                 std::size_t n);
void cmul_pair_scalar(std::complex<double>* w, std::complex<double>* q,
                      const std::complex<double>* s,
                      const std::complex<double>* t, std::size_t n);
void fft_radix2_scalar(std::complex<double>* a, std::size_t n, std::size_t len,
                       const std::complex<double>* w);
void fft_radix4_scalar(std::complex<double>* a, std::size_t n,
                       std::size_t block, const std::complex<double>* wa,
                       const std::complex<double>* wb, bool inverse);

} // namespace gpf::detail
