// End-to-end placement benchmark (bench/e2e): definitions shared by the
// driver half (driver.cpp: process model, aggregation, reports) and the
// child half (workloads.cpp: one rep of one workload in a fresh process).
//
// The metric tables below are the benchmark's contract with BENCHMARK.json:
// the driver refuses to start when the two disagree on a name or a unit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace e2e {

struct metric_def {
    const char* name;
    const char* unit;
    bool lower_is_better;
};

/// End-to-end metrics, computed from the untraced reps.
inline constexpr metric_def kEndToEnd[] = {
    {"place_s", "s", true},
    {"place_cpu_s", "s", true},
    {"setup_s", "s", true},
    {"hpwl_legal", "layout_units", true},
    {"peak_rss_mb", "MiB", true},
};

/// Per-layer metrics, from the traced reps (README.md has the layer map).
/// A metric that does not apply to a workload reads 0.
inline constexpr metric_def kPerLayer[] = {
    // linalg (CG)
    {"prof.wire_relax_s", "s", true},
    {"prof.solve_s", "s", true},
    {"core.cg_iters", "count", true},
    {"prof.cg_x_iters", "count", true},
    {"prof.cg_y_iters", "count", true},
    {"core.initial_solve_s", "s", true},
    {"core.cg_unconverged_frac", "ratio", true},
    // model
    {"prof.assemble_s", "s", true},
    {"core.ctor_s", "s", true},
    // cluster
    {"cluster.coarse_s", "s", true},
    {"prof.coarsen_s", "s", true},
    {"prof.interpolate_s", "s", true},
    // core
    {"core.global_s", "s", true},
    {"core.transforms", "count", true},
    {"core.transform_ms.p50", "ms", true},
    {"core.transform_ms.p90", "ms", true},
    {"core.loop_ms.p50", "ms", true},
    {"core.overflow_final", "ratio", true},
    {"core.hpwl_global", "layout_units", true},
    {"core.converged", "ratio", false},
    {"core.recovery_events", "count", true},
    // density
    {"prof.density_s", "s", true},
    {"prof.force_field_s", "s", true},
    {"prof.move_force_s", "s", true},
    {"prof.spread_check_s", "s", true},
    {"prof.kernel.stamp_cpu_s", "s", true},
    {"prof.kernel.fft_cpu_s", "s", true},
    {"prof.kernel.fft_gflop", "GFLOP", true},
    // legal
    {"legal.legalize_s", "s", true},
    {"legal.hpwl_ratio", "ratio", true},
    {"legal.refine_moves", "count", true},
    {"legal.refine_gain", "ratio", false},
    // eco
    {"eco.seed_s", "s", true},
    {"eco.incremental_s", "s", true},
    {"eco.disp_mean", "layout_units", true},
    // netlist
    {"netlist.generate_s", "s", true},
    {"netlist.write_s", "s", true},
    // verify / host / trace diagnostics
    {"verify.legal_s", "s", true},
    {"host.calib_ms", "ms", true},
    {"trace.overhead_frac", "ratio", true},
    {"trace.coverage_frac", "ratio", false},
};

enum class flow { flat, eco };

/// One benchmark workload; its inputs are generated from the run seed
/// (workloads.cpp). A flat workload with max_iterations N and levels L
/// places what `gpf_place --cells <cells> --levels L --iterations N` does.
struct workload {
    const char* name;
    const char* why;
    flow kind;
    std::size_t cells;
    std::size_t levels;          ///< placer_options::coarsen_levels
    std::size_t max_iterations;  ///< placer_options::max_iterations
    /// Generator seed of a fixed design (the ECO base, or the design of a
    /// flat workload whose work depends on where the design stops); 0:
    /// flat child k places design k of the run seed.
    std::uint64_t fixed_seed;
    bool single_thread;          ///< else min(4, available cores)
    /// Children per round. Flat child k places design k, so the reported
    /// HPWL averages over several circuits instead of resting on one draw
    /// of the generator; every ECO child edits the same base design.
    std::size_t children;
    std::size_t requests;        ///< requests per child
    /// Workloads of one group place identical inputs with identical
    /// options, so their placement digests must agree.
    const char* digest_group;
};

inline constexpr workload kWorkloads[] = {
    {"flat20k_1t",
     "20k-cell designs, 40 flat transformations on 1 thread: CG dominates; isolates arithmetic from threading",
     flow::flat, 20000, 0, 40, 0, true, 4, 1, "flat20k"},
    {"flat20k_4t",
     "same inputs and placements as flat20k_1t on up to 4 threads: the gap is parallel efficiency",
     flow::flat, 20000, 0, 40, 0, false, 4, 1, "flat20k"},
    {"flat20k_full",
     "the ROADMAP request gpf_place --cells 20000 --seed 1998 with default stop rules, up to 4 threads: shows convergence-rate changes",
     flow::flat, 20000, 0, 200, 1998, false, 1, 1, "flat20k_full"},
    {"ml50k",
     "50k cells, 2-level V-cycle: largest working set, exercises coarsening, interpolation and assembly",
     flow::flat, 50000, 2, 60, 0, false, 6, 1, "ml50k"},
    {"eco20k",
     "ECO edits on a placed 20k design: little CG, legalization and placer setup dominate",
     flow::eco, 20000, 2, 200, 1998, false, 2, 10, "eco20k"},
};

/// Cells added by one ECO request (2% of the base design).
inline constexpr std::size_t kEcoNewCells = 400;

/// The descriptor a child writes its record to; the parent puts the write
/// end of a pipe there before it re-executes the binary.
inline constexpr int kRecordFd = 3;

/// Child half: set up and run one rep, writing its record to kRecordFd
/// (see workloads.cpp for the line protocol). Returns the process exit code.
int run_child(const workload& w, std::uint64_t seed, std::size_t design,
              bool traced, const std::string& work_dir);

} // namespace e2e
