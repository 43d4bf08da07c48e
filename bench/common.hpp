// Shared machinery for the experiment harness (one binary per table of the
// paper). Each bench instantiates the synthetic MCNC-class suite, runs the
// placers under identical conditions (same legalization pipeline, same
// metrics) and prints a paper-style table plus a CSV next to the binary.
//
// Environment knobs:
//   GPF_SCALE=<0..1>   circuit size scale (default 0.08; 1.0 = published sizes)
//   GPF_SEED=<n>       generator seed (default 1998)
//   GPF_MAX_CIRCUITS=n run only the n smallest circuits
//   GPF_ANNEAL_MPC=n   annealer moves per cell per temperature (default 6)
#pragma once

#include <string>
#include <vector>

#include "gpf.hpp"

namespace gpf::bench {

double suite_scale();
std::uint64_t suite_seed();
std::size_t max_circuits();

/// The suite circuits to run (smallest first, truncated by GPF_MAX_CIRCUITS).
std::vector<suite_circuit> selected_suite();

netlist instantiate(const suite_circuit& descriptor);

struct method_result {
    double hpwl = 0.0;          ///< legalized + refined HPWL
    double seconds = 0.0;       ///< wall clock incl. final placement (like the paper)
    std::size_t iterations = 0; ///< global-placement transformations (0 if n/a)
    /// Wall-clock milliseconds per transformation-loop phase, indexed by
    /// profile_phase; filled by phase_capture when the profiler collects.
    std::array<double, num_profile_phases> phase_ms{};
    /// Wall-clock milliseconds per density→force kernel (stamp, fft_fwd,
    /// fft_mul, fft_inv), indexed by profile_kernel; filled by
    /// phase_capture alongside phase_ms and merged into the same
    /// "phase_ms" JSON object (names never collide with phase names).
    std::array<double, num_profile_kernels> kernel_ms{};
    bool ok = false;
    /// The run completed but through the recovery ladder or a resource
    /// guard (placer::degraded()); its numbers describe the best-so-far
    /// placement and must not be compared against clean baselines. The
    /// JSON report always carries this flag explicitly — a degraded or
    /// aborted run must never masquerade as "hpwl": 0.
    bool degraded = false;
};

/// Snapshot-diff around one method run: records the process-wide profiler
/// totals at construction, finish() stores the per-phase deltas (in ms)
/// into a method_result. Collection must be on (print_preamble enables it).
class phase_capture {
public:
    phase_capture();
    void finish(method_result& result) const;

private:
    std::array<double, num_profile_phases> start_seconds_{};
    std::array<double, num_profile_kernels> kernel_start_seconds_{};
};

/// Machine-readable companion to the ascii table + CSV: accumulates one
/// record per (circuit, method) measurement and writes BENCH_<name>.json
/// next to the CSV (current directory). Written on destruction unless
/// write() already ran.
class json_report {
public:
    explicit json_report(std::string name);
    ~json_report();
    json_report(const json_report&) = delete;
    json_report& operator=(const json_report&) = delete;

    void add(const std::string& circuit, const std::string& method,
             const method_result& result);
    /// Extra experiment-level number (e.g. "speedup": 1.62).
    void set_metric(const std::string& key, double value);
    /// Emits BENCH_<name>.json; returns the path written.
    std::string write();

private:
    struct record {
        std::string circuit, method;
        method_result result;
    };
    std::string name_;
    std::vector<record> records_;
    std::vector<std::pair<std::string, double>> metrics_;
    bool written_ = false;
};

/// Kraftwerk (this paper): K = 0.2 standard, K = 1.0 fast. Fast mode also
/// shortens the iteration budget (the paper's fast mode trades quality for
/// roughly a third of the runtime).
method_result run_kraftwerk(const netlist& nl, double k_force = 0.2);

/// Timing configuration with the layout unit scaled so the die has its
/// full-scale physical size: at GPF_SCALE < 1 the synthetic die shrinks by
/// sqrt(scale), which would make wire delay vanish next to gate delay and
/// leave no optimization potential to measure.
timing_config scaled_timing_config();

/// GORDIAN-style baseline.
method_result run_gordian(const netlist& nl);

/// TimberWolf-style annealing baseline.
method_result run_annealer(const netlist& nl);

/// Geometric-mean helper used in the "average" table rows.
double geometric_mean(const std::vector<double>& values);
double arithmetic_mean(const std::vector<double>& values);

/// Standard header printed by every bench: experiment id + configuration.
void print_preamble(const std::string& experiment, const std::string& paper_claim);

} // namespace gpf::bench
