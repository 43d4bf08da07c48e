// Lightweight phase profiler for the placement transformation loop.
//
// The placer wraps each hot-path phase (system assembly, density stamping,
// force-field convolution, solves, ...) in a phase_timer; the profiler
// accumulates wall-clock seconds and call counts per phase plus the CG
// iteration counts of each transformation. Collection is off by default
// and costs a single branch per phase when disabled.
//
// Enable via the environment (GPF_PROFILE=1 — also prints one trace line
// per transformation to stderr) or programmatically with set_enabled()
// (collection only, no trace lines), e.g. from benchmarks and tests.
#pragma once

#include <array>
#include <cstddef>
#include <string>

#include "util/stopwatch.hpp"

namespace gpf {

enum class profile_phase : std::size_t {
    assemble = 0, ///< quadratic system numeric refill
    density,      ///< density map stamping + finalize
    force_field,  ///< spectral convolution of the density
    move_force,   ///< per-cell field sampling + force scaling
    solve,        ///< hold-and-move CG solves (x and y)
    wire_relax,   ///< wire-relaxation CG solves
    spread_check, ///< stopping-criterion evaluation
    coarsen,      ///< multilevel hierarchy construction (outside transforms)
    interpolate,  ///< coarse→fine placement expansion (outside transforms)
    other,        ///< everything else inside a transformation
    count_,
};

inline constexpr std::size_t num_profile_phases =
    static_cast<std::size_t>(profile_phase::count_);

/// Name of a phase as printed in trace lines and summaries.
const char* profile_phase_name(profile_phase phase);

/// Sub-phase kernels of the density→force pipeline. Unlike phases,
/// kernel samples also carry a flop count, so trace lines and summaries
/// can report effective GFLOP/s per kernel. Together the five cover the
/// whole pipeline: stamp → fft_fwd → fft_mul → fft_inv, with readback
/// only appearing on the unfused (GPF_FUSED=0) path — the fused forward
/// path folds the source-grid read-back into the row transforms, so a
/// zero readback total in a report is the fusion win made visible.
enum class profile_kernel : std::size_t {
    fft_forward = 0, ///< forward transforms (packed data rows + columns)
    fft_pointwise,   ///< complex pointwise product against kernel spectra
    fft_inverse,     ///< inverse transforms
    stamp,           ///< density row-run stamping (add_rects bulk path)
    readback,        ///< staged source-grid assembly (density → src grid)
    count_,
};

inline constexpr std::size_t num_profile_kernels =
    static_cast<std::size_t>(profile_kernel::count_);

/// Name of a kernel as printed in trace lines and summaries.
const char* profile_kernel_name(profile_kernel kernel);

/// Process-wide profiler instance. Not thread-safe by design: phases are
/// recorded from the placer's driving thread only (worker threads run
/// inside a phase, never around one).
class profiler {
public:
    static profiler& instance();

    /// True when GPF_PROFILE is set to anything but "0"/empty, or after
    /// set_enabled(true).
    bool enabled() const { return enabled_; }
    void set_enabled(bool on) { enabled_ = on; }
    /// True only for environment activation; gates the per-transform
    /// stderr trace lines.
    bool trace() const { return trace_; }

    void add_sample(profile_phase phase, double seconds);
    /// Record one kernel invocation: wall-clock seconds plus the nominal
    /// flop count of the work performed (for throughput reporting).
    void add_kernel_sample(profile_kernel kernel, double seconds, double flops);
    /// Record the (x, y) CG iterations of one paired solve of the given
    /// kind: profile_phase::solve (the transformation's hold-and-move or
    /// accumulate solve) or profile_phase::wire_relax.
    void add_cg_iterations(profile_phase kind, std::size_t x_iters, std::size_t y_iters);

    /// Marks the end of one placement transformation; when tracing, emits
    ///   GPF_PROFILE transform=N assemble=... ... cg_x=N cg_y=N
    ///   cg_solve=N cg_relax=N total=...
    /// with per-phase seconds for this transformation only. Kernels with a
    /// flop model print ms/GFLOP/s, the others ms alone.
    void end_transform();

    std::size_t transforms() const { return transforms_; }
    double total_seconds(profile_phase phase) const;
    std::size_t calls(profile_phase phase) const;
    double kernel_seconds(profile_kernel kernel) const;
    double kernel_flops(profile_kernel kernel) const;
    std::size_t kernel_calls(profile_kernel kernel) const;
    /// CG iterations over both kinds of solve, per axis.
    std::size_t total_cg_x() const { return cg_x_total_; }
    std::size_t total_cg_y() const { return cg_y_total_; }
    /// CG iterations (x + y) of one solve kind (see add_cg_iterations).
    std::size_t total_cg(profile_phase kind) const;

    /// Multi-line human-readable summary of the accumulated totals.
    std::string summary() const;

    /// Zero all counters (keeps the enabled/trace flags).
    void reset();

private:
    profiler();

    struct phase_totals {
        double seconds = 0.0;
        std::size_t calls = 0;
    };

    struct kernel_totals {
        double seconds = 0.0;
        double flops = 0.0;
        std::size_t calls = 0;
    };

    bool enabled_ = false;
    bool trace_ = false;
    std::array<phase_totals, num_profile_phases> totals_{};
    std::array<double, num_profile_phases> current_{}; ///< this transform
    std::array<kernel_totals, num_profile_kernels> kernels_{};
    std::array<kernel_totals, num_profile_kernels> kernels_current_{};
    /// Per-kind (x + y) CG iteration counters: index 0 solve, 1 wire_relax.
    using cg_by_kind = std::array<std::size_t, 2>;

    std::size_t transforms_ = 0;
    std::size_t cg_x_total_ = 0, cg_y_total_ = 0;
    std::size_t cg_x_current_ = 0, cg_y_current_ = 0;
    cg_by_kind cg_kind_total_{}, cg_kind_current_{};
};

/// RAII phase scope: records elapsed wall-clock into the global profiler
/// on destruction. A disabled profiler reduces this to two branches.
class phase_timer {
public:
    explicit phase_timer(profile_phase phase)
        : phase_(phase), active_(profiler::instance().enabled()) {}
    ~phase_timer() {
        if (active_) {
            profiler::instance().add_sample(phase_, watch_.elapsed_seconds());
        }
    }
    phase_timer(const phase_timer&) = delete;
    phase_timer& operator=(const phase_timer&) = delete;

private:
    profile_phase phase_;
    bool active_;
    stopwatch watch_;
};

/// RAII kernel scope: records elapsed wall-clock and a nominal flop count
/// into the global profiler on destruction. The flop count may be set at
/// construction or adjusted before the scope closes.
class kernel_timer {
public:
    explicit kernel_timer(profile_kernel kernel, double flops = 0.0)
        : kernel_(kernel), flops_(flops),
          active_(profiler::instance().enabled()) {}
    ~kernel_timer() {
        if (active_) {
            profiler::instance().add_kernel_sample(kernel_, watch_.elapsed_seconds(),
                                                   flops_);
        }
    }
    kernel_timer(const kernel_timer&) = delete;
    kernel_timer& operator=(const kernel_timer&) = delete;

    void set_flops(double flops) { flops_ = flops; }

private:
    profile_kernel kernel_;
    double flops_;
    bool active_;
    stopwatch watch_;
};

} // namespace gpf
