// Spectral-engine micro-benchmark: per-size forward/inverse 2-D FFT and
// convolve_pair timings with effective GFLOP/s, plus the 256×256
// density+force acceptance pipeline (the per-transformation hot path of
// section 3.3 / eq. (9)) — all single-threaded, so the numbers isolate
// kernel throughput from pool scaling (micro_components sweeps threads).
//
// Emits BENCH_fft_kernels.json. Record schema note: these are kernel
// timings, not placements, so the gate-required positive "hpwl" field
// carries the constant placeholder 1.0; the quantities of interest are
// "seconds" per operation and the *_gflops / pipeline_* / stamp_* metrics.
//
// GPF_PIPELINE_BUDGET_MS, when set, turns the run into a hard wall-clock
// assertion: exit 1 if the 256×256 pipeline exceeds the budget. The
// perf-gate workflow uses it as an absolute bound on both the native and
// the GPF_SIMD=scalar legs, on top of the relative baseline comparison.
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "common.hpp"

namespace {

using namespace gpf;

constexpr double kPlaceholderHpwl = 1.0;

/// PR-2 reference of the cached 256×256 density+force pipeline at one
/// thread (bench history; see ISSUE/DESIGN §13) — the ≥3x acceptance bar.
constexpr double kPipelineBaselineMs = 66.0;

/// PR-8 reference of the same pipeline (full-spectrum convolver, scalar
/// stamping loop) — the packed r2c path must clear ≥1.5x against it.
constexpr double kPipelinePr8Ms = 14.5;

std::vector<std::complex<double>> random_grid(std::size_t n, prng& rng) {
    std::vector<std::complex<double>> a(n * n);
    for (auto& v : a) v = {rng.next_range(-1.0, 1.0), rng.next_range(-1.0, 1.0)};
    return a;
}

/// 5 N log2 N flop model of one complex FFT of N points.
double fft_flops(double n_points) {
    return 5.0 * n_points * std::log2(n_points);
}

/// Repetition count targeting ~0.3 s per measured op (min 5).
std::size_t reps_for(double seconds_estimate) {
    if (seconds_estimate <= 0.0) return 5;
    const double r = 0.3 / seconds_estimate;
    return r < 5.0 ? 5 : static_cast<std::size_t>(r);
}

struct fft_timing {
    double forward_seconds = 0.0;
    double inverse_seconds = 0.0;
    std::size_t reps = 0;
};

/// Times forward and inverse 2-D transforms as alternating pairs (the
/// round trip keeps magnitudes bounded over any repetition count).
fft_timing time_fft_2d(std::size_t n) {
    prng rng(2026);
    auto a = random_grid(n, rng);

    // One warm-up round trip: builds the plan-cache entries.
    fft_2d(a, n, n, false);
    fft_2d(a, n, n, true);

    stopwatch probe;
    fft_2d(a, n, n, false);
    const double estimate = probe.elapsed_seconds();
    fft_2d(a, n, n, true);

    fft_timing t;
    t.reps = reps_for(estimate);
    double fwd = 0.0, inv = 0.0;
    for (std::size_t r = 0; r < t.reps; ++r) {
        stopwatch wf;
        fft_2d(a, n, n, false);
        fwd += wf.elapsed_seconds();
        stopwatch wi;
        fft_2d(a, n, n, true);
        inv += wi.elapsed_seconds();
    }
    t.forward_seconds = fwd / static_cast<double>(t.reps);
    t.inverse_seconds = inv / static_cast<double>(t.reps);
    return t;
}

/// Times the packed r2c/c2r round trip on an n x n real grid (the data
/// half of the convolver's transform work).
fft_timing time_r2c_2d(std::size_t n) {
    prng rng(2027);
    std::vector<double> data(n * n);
    for (double& v : data) v = rng.next_range(-1.0, 1.0);

    auto half = fft_2d_r2c(data, n, n); // warm-up, plan build
    data = fft_2d_c2r(half, n, n);

    stopwatch probe;
    half = fft_2d_r2c(data, n, n);
    const double estimate = probe.elapsed_seconds();
    data = fft_2d_c2r(half, n, n);

    fft_timing t;
    t.reps = reps_for(estimate);
    double fwd = 0.0, inv = 0.0;
    for (std::size_t r = 0; r < t.reps; ++r) {
        stopwatch wf;
        half = fft_2d_r2c(data, n, n);
        fwd += wf.elapsed_seconds();
        stopwatch wi;
        data = fft_2d_c2r(half, n, n);
        inv += wi.elapsed_seconds();
    }
    t.forward_seconds = fwd / static_cast<double>(t.reps);
    t.inverse_seconds = inv / static_cast<double>(t.reps);
    return t;
}

/// Per-rep kernel milliseconds (stamp / fft_fwd / fft_mul / fft_inv)
/// accumulated by a phase_capture around a reps loop.
using kernel_split = std::array<double, num_profile_kernels>;

/// Divides the captured kernel totals by the rep count so the JSON
/// phase_ms entries describe one operation, matching "seconds".
kernel_split per_rep(const bench::method_result& captured, std::size_t reps) {
    kernel_split split{};
    for (std::size_t i = 0; i < num_profile_kernels; ++i) {
        split[i] = captured.kernel_ms[i] / static_cast<double>(reps);
    }
    return split;
}

struct convolve_timing {
    double seconds = 0.0;
    std::size_t reps = 0;
    kernel_split kernel_ms{};
};

convolve_timing time_convolve_pair(std::size_t n) {
    prng rng(1998);
    const std::size_t k = 2 * n - 1;
    std::vector<double> kx(k * k), ky(k * k), data(n * n);
    for (auto& v : kx) v = rng.next_range(-1.0, 1.0);
    for (auto& v : ky) v = rng.next_range(-1.0, 1.0);
    for (auto& v : data) v = rng.next_range(0.0, 1.0);

    spectral_convolver conv(n, n, kx, ky);
    std::vector<double> out_x, out_y;
    conv.convolve_pair(data, out_x, out_y); // warm-up

    stopwatch probe;
    conv.convolve_pair(data, out_x, out_y);
    const double estimate = probe.elapsed_seconds();

    convolve_timing t;
    t.reps = reps_for(estimate);
    bench::phase_capture capture;
    stopwatch w;
    for (std::size_t r = 0; r < t.reps; ++r) {
        conv.convolve_pair(data, out_x, out_y);
    }
    t.seconds = w.elapsed_seconds() / static_cast<double>(t.reps);
    bench::method_result captured;
    capture.finish(captured);
    t.kernel_ms = per_rep(captured, t.reps);
    return t;
}

/// Density stamping alone on the acceptance circuit: 8000 cell rects
/// row-run decomposed onto a 256×256 grid (isolates the vectorized stamp
/// inner loop from the spectral solve).
double time_stamp_256_ms(kernel_split& kernel_ms) {
    generator_options opt;
    opt.num_cells = 8000;
    opt.num_nets = 9000;
    opt.num_rows = 133;
    opt.num_pads = 64;
    opt.seed = 12345;
    const netlist nl = generate_circuit(opt);
    const placement pl = nl.initial_placement();

    compute_density_grid(nl, pl, 256, 256); // warm-up

    constexpr std::size_t kReps = 40;
    bench::phase_capture capture;
    stopwatch w;
    for (std::size_t r = 0; r < kReps; ++r) {
        compute_density_grid(nl, pl, 256, 256);
    }
    const double ms = w.elapsed_seconds() / static_cast<double>(kReps) * 1e3;
    bench::method_result captured;
    capture.finish(captured);
    kernel_ms = per_rep(captured, kReps);
    return ms;
}

/// The acceptance pipeline of micro_components, hand-timed: density
/// stamping + cached spectral force field on a 256×256 grid, one thread.
double time_pipeline_256_ms(kernel_split& kernel_ms) {
    generator_options opt;
    opt.num_cells = 8000;
    opt.num_nets = 9000;
    opt.num_rows = 133;
    opt.num_pads = 64;
    opt.seed = 12345;
    const netlist nl = generate_circuit(opt);
    const placement pl = nl.initial_placement();
    force_field_calculator calc(nl.region(), 256, 256);

    // Warm-up: plan caches, kernel spectra, allocator steady state.
    {
        const density_map d = compute_density_grid(nl, pl, 256, 256);
        calc.compute(d);
    }

    constexpr std::size_t kReps = 20;
    bench::phase_capture capture;
    stopwatch w;
    for (std::size_t r = 0; r < kReps; ++r) {
        const density_map d = compute_density_grid(nl, pl, 256, 256);
        calc.compute(d);
    }
    const double ms = w.elapsed_seconds() / static_cast<double>(kReps) * 1e3;
    bench::method_result captured;
    capture.finish(captured);
    kernel_ms = per_rep(captured, kReps);
    return ms;
}

bench::method_result make_record(double seconds, std::size_t reps,
                                 const kernel_split* kernel_ms = nullptr) {
    bench::method_result r;
    r.hpwl = kPlaceholderHpwl;
    r.seconds = seconds;
    r.iterations = reps;
    if (kernel_ms != nullptr) r.kernel_ms = *kernel_ms;
    r.ok = true;
    return r;
}

} // namespace

int main() {
    using namespace gpf;
    bench::print_preamble(
        "fft_kernels",
        "spectral engine throughput: radix-4 wrap-around transforms + SIMD "
        "kernels keep the density→force hot path in the single-digit-ms "
        "range on 256x256 grids");
    thread_pool::instance().set_num_threads(1);
    std::printf("simd: %s (detected %s)\n\n", simd().name,
                simd_isa_name(simd_detected_isa()));

    bench::json_report report("fft_kernels");

    std::printf("%8s %6s  %12s %9s  %12s %9s  %10s %10s  %12s\n", "grid",
                "reps", "fwd ms", "GFLOP/s", "inv ms", "GFLOP/s", "r2c ms",
                "c2r ms", "convolve ms");
    for (const std::size_t n : {std::size_t{64}, std::size_t{128},
                                std::size_t{256}, std::size_t{512},
                                std::size_t{1024}}) {
        const fft_timing t = time_fft_2d(n);
        const fft_timing tr = time_r2c_2d(n);
        const convolve_timing c = time_convolve_pair(n);
        const double flops = fft_flops(static_cast<double>(n * n));
        const double fwd_gfs = flops / t.forward_seconds * 1e-9;
        const double inv_gfs = flops / t.inverse_seconds * 1e-9;
        std::printf("%5zu^2 %6zu  %12.3f %9.2f  %12.3f %9.2f  %10.3f %10.3f  "
                    "%12.3f\n",
                    n, t.reps, t.forward_seconds * 1e3, fwd_gfs,
                    t.inverse_seconds * 1e3, inv_gfs, tr.forward_seconds * 1e3,
                    tr.inverse_seconds * 1e3, c.seconds * 1e3);

        const std::string grid = "grid_" + std::to_string(n);
        report.add(grid, "fft2d_forward", make_record(t.forward_seconds, t.reps));
        report.add(grid, "fft2d_inverse", make_record(t.inverse_seconds, t.reps));
        report.add(grid, "fft2d_r2c", make_record(tr.forward_seconds, tr.reps));
        report.add(grid, "fft2d_c2r", make_record(tr.inverse_seconds, tr.reps));
        report.add(grid, "convolve_pair",
                   make_record(c.seconds, c.reps, &c.kernel_ms));
        report.set_metric("fft2d_forward_" + std::to_string(n) + "_gflops",
                          fwd_gfs);
        report.set_metric("fft2d_inverse_" + std::to_string(n) + "_gflops",
                          inv_gfs);
        report.set_metric("fft2d_r2c_" + std::to_string(n) + "_ms",
                          tr.forward_seconds * 1e3);
        report.set_metric("fft2d_c2r_" + std::to_string(n) + "_ms",
                          tr.inverse_seconds * 1e3);
        report.set_metric("convolve_pair_" + std::to_string(n) + "_ms",
                          c.seconds * 1e3);
    }

    kernel_split stamp_kernels{};
    const double stamp_ms = time_stamp_256_ms(stamp_kernels);
    std::printf("\ndensity stamping (8000 cells onto 256x256, 1 thread): "
                "%.2f ms\n",
                stamp_ms);
    report.add("grid_256", "density_stamping",
               make_record(stamp_ms * 1e-3, 40, &stamp_kernels));
    report.set_metric("stamp_256_ms", stamp_ms);

    kernel_split pipeline_kernels{};
    const double pipeline_ms = time_pipeline_256_ms(pipeline_kernels);
    const double speedup = kPipelineBaselineMs / pipeline_ms;
    std::printf("density+force pipeline (256x256, cached kernels, 1 thread): "
                "%.2f ms  (%.2fx vs %.0f ms PR-2, %.2fx vs %.1f ms PR-8)\n",
                pipeline_ms, speedup, kPipelineBaselineMs,
                kPipelinePr8Ms / pipeline_ms, kPipelinePr8Ms);
    bench::method_result pipeline =
        make_record(pipeline_ms * 1e-3, 20, &pipeline_kernels);
    report.add("grid_256", "density_force_pipeline", pipeline);
    report.set_metric("pipeline_256_ms", pipeline_ms);
    report.set_metric("pipeline_256_speedup_vs_pr2", speedup);
    report.set_metric("pipeline_256_speedup_vs_pr8", kPipelinePr8Ms / pipeline_ms);

    const std::string path = report.write();
    std::printf("report: %s\n", path.c_str());

    if (const char* budget_env = std::getenv("GPF_PIPELINE_BUDGET_MS")) {
        const double budget = std::atof(budget_env);
        if (budget > 0.0 && pipeline_ms > budget) {
            std::fprintf(stderr,
                         "fft_kernels: pipeline %.2f ms exceeds "
                         "GPF_PIPELINE_BUDGET_MS=%.2f ms\n",
                         pipeline_ms, budget);
            return 1;
        }
    }
    return 0;
}
