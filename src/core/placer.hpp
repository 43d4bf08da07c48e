// The Kraftwerk global placer (section 4 of the paper).
//
// A `placement transformation` (section 4.1) takes an arbitrary input
// placement and produces a new one:
//   1. compute the density D of the current placement,
//   2. derive the force field of eq. (9) and scale it so the strongest
//      cell force equals a net of length K·(W+H),
//   3. accumulate the sampled per-cell forces into the constant force
//      vector e,
//   4. assemble the (linearized) quadratic system and solve
//      C p + d + e = 0 with preconditioned CG.
//
// The iterative algorithm (section 4.2) starts with all movable cells at
// the region center and zero forces, applies transformations until no
// empty square larger than four times the average cell area remains, and
// exposes the per-iteration history for the experiment harness.
//
// Extra density sources (congestion maps, heat maps — section 5) hook in
// through `density_hook`, which may deposit additional demand before the
// force field is computed.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "density/density_map.hpp"
#include "linalg/cg_solver.hpp"
#include "model/net_models.hpp"
#include "model/quadratic_system.hpp"
#include "netlist/netlist.hpp"

namespace gpf {

class force_field_calculator;

struct placer_options {
    /// The paper's K: 0.2 standard mode, 1.0 fast mode.
    double force_scale_k = 0.2;
    /// How the proportionality constant k of eq. (5) is chosen (see
    /// DESIGN.md §5). `local_gain` (default) converts the field into the
    /// displacement that shrinks the density error by the factor K per
    /// transformation: Δe_i = −K · C_ii · f(x_i) / max(1, coverage(x_i)).
    /// `paper_normalized` is the literal prescription — one global k per
    /// transformation such that the strongest force equals the pull of a
    /// net of length K(W+H); it converges far more slowly (constant-
    /// magnitude kicks) and is kept for the ablation benchmark.
    enum class force_scaling { local_gain, paper_normalized };
    force_scaling scaling = force_scaling::local_gain;
    /// Force bookkeeping across transformations.
    /// `hold_and_move` (default): every transformation recomputes a hold
    /// force e_hold = −(C p + d) that makes the current placement the
    /// equilibrium and adds the move force from the current field on top;
    /// the solve then distributes the spreading displacement so that the
    /// added quadratic wire length is minimal. This is the numerically
    /// robust formulation of the paper's fixed point (errors cannot
    /// accumulate in e).
    /// `accumulate`: the paper's literal bookkeeping e ← e + k·f. Kept for
    /// the ablation benchmark; converges only for small gains and drifts
    /// on the soft translational mode.
    enum class force_mode { hold_and_move, accumulate };
    force_mode mode = force_mode::hold_and_move;
    /// Per-transformation displacement cap as a fraction of (W+H); the
    /// trust region that keeps strong near-pile fields from throwing cells
    /// across the chip in one step (hold_and_move mode only).
    double max_step_fraction = 0.03;
    /// Wire relaxation: every `wire_relax_interval` transformations solve
    ///   (C + β·W̃) p = −d + β·W̃·p_cur ,  W̃ = diag(C), β = wire_relax_weight
    /// — the full quadratic wire objective with per-cell anchors at the
    /// current positions. This re-tightens wire length that spreading
    /// stretched, while the anchors approximately preserve the density
    /// distribution (the next density steps correct any damage). 0
    /// disables (ECO flows must, to stay local).
    std::size_t wire_relax_interval = 1;
    double wire_relax_weight = 0.05;
    std::size_t max_iterations = 200;
    std::size_t density_bins = 4096;     ///< target total bin count
    /// Multilevel coarse levels historically ratio-scaled density_bins by
    /// the coarse/fine movable-cell ratio to keep per-convolve FFT cost
    /// bounded. With the packed r2c spectral path a convolution at up to
    /// this many bins is under budget (256×256 runs in single-digit ms
    /// single-threaded), so coarse levels keep the full grid — better
    /// force resolution for bulk spreading — and only ratio-scale when
    /// density_bins exceeds this limit. 0 restores the old always-scale
    /// behavior.
    std::size_t coarse_full_bin_limit = std::size_t{1} << 16;
    double spread_factor = 4.0;          ///< stop: empty square area <= factor * avg cell area
    double empty_threshold = 0.05;       ///< bin demand below this counts as empty
    std::size_t min_iterations = 2;      ///< run at least this many transformations
    /// Secondary stop: end the run when the density overflow has not
    /// improved by `plateau_tolerance` (relative) for `plateau_window`
    /// consecutive transformations. 0 disables. Global placement then ends
    /// with small residual overlaps for the final placer to resolve, the
    /// same contract partitioning-based global placers (GORDIAN) have.
    std::size_t plateau_window = 20;
    double plateau_tolerance = 2e-3;
    bool clamp_to_region = true;         ///< project cell centers back into the core
    /// Iteration-persistent caches threaded through the transformation
    /// loop (DESIGN.md §7): the spectral force-field kernels are built
    /// once per grid, the density stamped for the stopping criterion seeds
    /// the next transformation's input density, and solver workspaces
    /// persist. Placements are bitwise identical with the cache on or off
    /// (tests/test_transform_cache.cpp); the switch exists for that
    /// equivalence test and as a safety valve.
    bool iteration_cache = true;
    /// Warm-start the hold-and-move displacement solves from the previous
    /// transformation's displacement instead of zero. Deterministic for
    /// any thread count, but the CG iterate trajectory differs from a
    /// cold start, so placements are *not* bitwise comparable to the
    /// default cold-start path; off by default.
    bool warm_start_cg = false;

    // --- Multilevel V-cycle (DESIGN.md §11) -------------------------------
    /// Number of coarsening levels. 0 (default) runs today's flat loop —
    /// bitwise identical to builds without the multilevel engine. With
    /// N > 0 the netlist is clustered up to N times (heavy-edge matching,
    /// src/cluster/), the full transformation loop runs on each coarse
    /// netlist with a proportionally coarser density grid and a looser
    /// stopping criterion, and cluster positions interpolate down to seed
    /// the next finer level; the finest level runs with the exact flat
    /// options. Deterministic for any GPF_THREADS value.
    std::size_t coarsen_levels = 0;
    /// Cluster area cap: a merge may not exceed this multiple of the
    /// level's average movable-cell area.
    double cluster_max_area_ratio = 4.0;
    /// Coarsening stops once a level has at most this many movable cells.
    std::size_t min_coarse_cells = 500;

    // --- Recovery engine (DESIGN.md §9) -----------------------------------
    // After every transformation a health check runs: finite coordinates,
    // CG progress, no runaway overflow. The checks are pure reads and the
    // ladder below engages only when one fails, so a healthy run is
    // bitwise identical — at every thread count — to a build without the
    // recovery layer.
    /// Rung 1: re-run an unhealthy transformation this many times with
    /// Jacobi preconditioning forced on and max_step_fraction halved.
    std::size_t max_retries = 1;
    /// Rung 2: after failed retries, restore the most recent healthy
    /// snapshot with force_scale_k halved; at most this many times per
    /// run. Rung 3 (stop, return the best-so-far placement) follows.
    std::size_t max_rollbacks = 2;
    /// Keep every `snapshot_interval`-th healthy placement, at most
    /// `snapshot_depth` of them, as rollback targets.
    std::size_t snapshot_interval = 1;
    std::size_t snapshot_depth = 3;
    /// Unhealthy when the overflow area exceeds the previous healthy
    /// iteration's by this factor (and is non-trivial in absolute terms).
    double overflow_spike_factor = 8.0;
    /// A non-converged CG solve counts as an incident only when its
    /// relative residual is at least this (no real progress) or is
    /// non-finite; merely-loose solves log a warning and continue.
    double cg_stall_residual = 0.5;
    /// Wall-clock budget for run()/run_from() in seconds; when exceeded
    /// the run ends through the best-so-far path. 0 = unlimited.
    double time_budget = 0.0;
    /// Per-transformation watchdog: a transformation that takes longer
    /// than this many seconds is treated as a recovery incident — a
    /// profiler-tagged warning is logged and the ladder engages, tightened
    /// retry first (DESIGN.md §14). 0 = off.
    double max_transform_seconds = 0.0;

    // --- Crash safety (DESIGN.md §14) -------------------------------------
    /// Durable checkpoint file. When non-empty, the flat transformation
    /// loop atomically persists its full resumable state (placement, force
    /// state, recovery-ladder state, history, best-so-far bookkeeping)
    /// every `checkpoint_interval` accepted transformations; the previous
    /// generation is rotated to `<path>.prev`. A run resumed with
    /// placer::resume() is bitwise identical to the uninterrupted run at
    /// every GPF_THREADS/GPF_SIMD setting. Checkpointing is pure
    /// observation — trajectories are identical with it on or off — and
    /// is not supported inside the multilevel V-cycle (silently disabled
    /// there; the flat loop is the resumable unit).
    std::string checkpoint_path;
    /// Accepted transformations between checkpoint writes (1 = every).
    std::size_t checkpoint_interval = 1;
    /// Liveness file for the supervisor (util/supervisor.hpp): a counter
    /// bumped before every transformation attempt. "" = no heartbeat.
    std::string heartbeat_path;
    /// Cooperative stop request (SIGINT/SIGTERM in gpf_place): when the
    /// pointed-to flag becomes true, the run flushes a final checkpoint,
    /// records a stop_best recovery event and returns the best-so-far
    /// placement (degraded, exit code 2) instead of dying mid-write.
    const std::atomic<bool>* stop_flag = nullptr;

    net_model_options net_model;
    cg_options cg;
};

/// One rung of the recovery ladder having engaged (DESIGN.md §9).
enum class recovery_action {
    retry_tightened, ///< transformation re-run, Jacobi + halved step cap
    rollback,        ///< restored a healthy snapshot, halved force_scale_k
    stop_best,       ///< run ended, best-so-far placement returned
    level_fallback,  ///< a coarse level failed; continuing at the finer level
};

/// Canonical name ("retry_tightened", "rollback", "stop_best").
const char* recovery_action_name(recovery_action action);

struct recovery_event {
    recovery_action action;
    std::size_t iteration = 0; ///< transformation index of the incident
    std::string reason;        ///< what the health check (or guard) saw
};

struct iteration_stats {
    std::size_t iteration = 0;
    double hpwl = 0.0;
    double overflow_area = 0.0;
    double largest_empty_square = 0.0;
    double max_force = 0.0;    ///< scaled maximum additional force this step
    double cg_residual = 0.0;  ///< worse of the x/y solves
    /// CG iterations spent in this transformation (x + y solves, wire
    /// relaxation included).
    std::size_t cg_iterations = 0;
    /// All CG solves of this transformation (x, y and wire relaxation)
    /// reached the residual tolerance; false is logged as a warning and —
    /// when the residual shows no real progress — treated as an incident
    /// by the recovery engine.
    bool cg_converged = true;
    /// Paper stopping criterion evaluated on the output placement: no
    /// empty square larger than spread_factor times the average cell area.
    bool spread = false;
    /// Recovery-ladder actions that concluded at this transformation
    /// (empty on a healthy iteration).
    std::vector<recovery_event> recovery;
};

/// One level of a multilevel run, coarsest first; level 0 is the full
/// netlist (the final refinement pass).
struct level_summary {
    std::size_t level = 0;       ///< 0 = finest/full netlist
    std::size_t movable_cells = 0;
    std::size_t nets = 0;
    std::size_t iterations = 0;  ///< transformations spent at this level
    double hpwl = 0.0;           ///< HPWL of the level's final placement
    double seconds = 0.0;        ///< wall clock of the level (incl. interpolation)
    bool degraded = false;       ///< the level's run needed the recovery ladder
    bool fell_back = false;      ///< level failed; its result was discarded
};

class placer {
public:
    explicit placer(const netlist& nl, placer_options options = {});
    ~placer();

    /// Full algorithm from the paper's initialization (all movable cells at
    /// the region center, e = 0). With options.coarsen_levels > 0 this is
    /// the multilevel V-cycle entry: coarse levels first, then the flat
    /// loop on the full netlist from the interpolated placement.
    placement run();

    /// Full algorithm from a given placement. reset_forces=false keeps the
    /// accumulated force vector, which is what ECO / timing continuation
    /// flows want.
    placement run_from(placement current, bool reset_forces = true);

    /// Continue a run from a checkpoint written by a placer constructed
    /// with identical options over the identical netlist (enforced by a
    /// state digest stored in the file). Falls back to
    /// `<checkpoint_path>.prev` when the newest generation is torn. The
    /// resumed run is bitwise identical to the uninterrupted run at every
    /// thread count. Throws checkpoint_error on a missing/torn/foreign
    /// checkpoint; flat loop only (options.coarsen_levels must be 0).
    placement resume(const std::string& checkpoint_path);

    /// Digest binding checkpoints to this placer's options + netlist
    /// identity (time-based guards and file paths excluded — those may
    /// legitimately differ between the original and the resumed process).
    std::uint64_t checkpoint_digest() const { return digest_; }

    /// One placement transformation.
    placement transform(const placement& current);

    /// Per-iteration statistics of the last run (or all transforms so far).
    const std::vector<iteration_stats>& history() const { return history_; }

    /// Invoked after every transformation; returning false stops the run
    /// early (used by the timing-requirement mode).
    using step_callback = std::function<bool(const iteration_stats&, const placement&)>;
    void set_step_callback(step_callback cb) { step_callback_ = std::move(cb); }

    /// Invoked between density stamping and finalize(); may add demand
    /// (congestion, heat, ECO deviation sources).
    using density_hook = std::function<void(density_map&, const placement&)>;
    void set_density_hook(density_hook hook) { density_hook_ = std::move(hook); }

    /// Invoked before each transformation's assemble step (timing-driven
    /// net weight adaption per section 5).
    using weight_hook = std::function<void(const placement&)>;
    void set_weight_hook(weight_hook hook) { weight_hook_ = std::move(hook); }

    /// Reset the accumulated force vector e to zero (also clears the
    /// calibrated force constant k).
    void reset_forces();

    quadratic_system& system() { return system_; }
    const quadratic_system& system() const { return system_; }
    const placer_options& options() const { return options_; }
    const netlist& circuit() const { return nl_; }

    /// True when the spread criterion held at the last transformation.
    bool converged() const { return converged_; }

    /// True when the last run needed the recovery ladder or a resource
    /// guard: the returned placement is valid but degraded (gpf_place
    /// maps this to exit code 2).
    bool degraded() const { return degraded_; }

    /// Every recovery action of the last run, in the order taken (the
    /// same events are attached to the iteration_stats they concluded at).
    const std::vector<recovery_event>& recovery_log() const { return recovery_log_; }

    /// Per-level record of the last multilevel run (coarsest first, the
    /// full-netlist pass last); empty after a flat run.
    const std::vector<level_summary>& level_log() const { return level_log_; }

    /// Average movable-cell area (the stopping criterion's yardstick).
    double average_cell_area() const;

private:
    /// One rollback target of recovery rung 2.
    struct snapshot_state {
        placement pl;
        double force_scale_k = 0.0;
        std::vector<double> force_x, force_y;
    };
    /// Everything the transformation loop carries between iterations that
    /// is not already a placer member — exactly the state a checkpoint
    /// must persist for a resumed run to be bitwise identical.
    struct run_state {
        placement current;
        std::size_t next_iteration = 0; ///< loop index of the next transformation
        placement best;
        double best_score = 0.0;
        bool have_best = false;
        double norm_overflow = 0.0;
        double norm_hpwl = 0.0;
        double prev_overflow = 0.0;
        std::size_t rollbacks_used = 0;
        double plateau_overflow = 0.0;
        std::size_t stalled = 0;
        std::vector<snapshot_state> snapshots;
        std::vector<recovery_event> pending;
    };

    /// The cluster V-cycle behind run() when coarsen_levels > 0.
    placement run_multilevel();
    /// The guarded transformation loop shared by run_from() and resume().
    placement run_loop(run_state& st);
    void record_recovery(run_state& st, recovery_action action,
                         const std::string& why);
    /// Serialize / restore the full resumable state (run_state + the
    /// iteration-carried placer members). The payload format is versioned
    /// by the checkpoint envelope (util/checkpoint.hpp).
    std::string serialize_state(const run_state& st) const;
    void restore_state(const std::string& payload, run_state& st);
    /// Atomic checkpoint write; an I/O failure degrades to a warning (a
    /// full disk must never kill a run that is making progress).
    void write_checkpoint(const run_state& st);
    void bump_heartbeat();
    std::uint64_t compute_digest() const;
    std::pair<std::size_t, std::size_t> density_dims() const;
    /// Relaxation solve on a system assembled at pl; returns the (x, y) CG
    /// results.
    std::pair<cg_result, cg_result> wire_relax(placement& pl);
    /// Health check of one completed transformation: "" when healthy,
    /// otherwise the reason. Pure reads — never touches placer state.
    std::string health_check(const iteration_stats& stats, const placement& pl,
                             double prev_overflow) const;
    /// Fill cell_rects_ with the non-pad cell rectangles under pl, in the
    /// same order compute_density_grid stamps them.
    void build_cell_rects(const placement& pl);

    const netlist& nl_;
    placer_options options_;
    quadratic_system system_;
    std::vector<double> force_x_; ///< accumulated e, x part, per variable
    std::vector<double> force_y_;
    double force_constant_ = 0.0; ///< calibrated k of eq. (5); 0 = not yet set
    std::vector<iteration_stats> history_;
    step_callback step_callback_;
    density_hook density_hook_;
    weight_hook weight_hook_;
    bool converged_ = false;
    bool degraded_ = false;
    std::vector<recovery_event> recovery_log_;
    std::vector<level_summary> level_log_;
    std::uint64_t digest_ = 0;          ///< checkpoint binding digest
    std::uint64_t heartbeat_counter_ = 0;

    // Iteration-persistent caches (placer_options::iteration_cache) and
    // solver workspaces. The caches never change results: the calculator
    // is bitwise equivalent to a fresh one, and next_density_ holds the
    // exact demand a fresh stamping of the same placement would produce
    // (guarded by a value comparison against last_output_).
    std::unique_ptr<force_field_calculator> field_calc_;
    std::optional<density_map> next_density_; ///< unfinalized, hook-free demand of last output
    placement last_output_;
    std::vector<rect> cell_rects_;            ///< stamping workspace
    std::vector<double> move_x_, move_y_;     ///< move-target workspaces
    std::vector<double> rhs_x_, rhs_y_;       ///< solve rhs workspaces
    std::vector<double> full_diag_x_, full_diag_y_; ///< diag(C) + shift
    std::vector<double> shift_x_, shift_y_;   ///< wire-relax anchor β·diag(C)
    std::vector<double> delta_x_, delta_y_;   ///< displacement (warm-start state)
};

} // namespace gpf
