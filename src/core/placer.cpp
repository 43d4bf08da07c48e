#include "core/placer.hpp"

#include <algorithm>
#include <cmath>
#include <csignal>
#include <cstdlib>
#include <limits>
#include <mutex>
#include <optional>
#include <sstream>
#include <tuple>
#include <utility>

#include "cluster/coarsen.hpp"
#include "core/metrics.hpp"
#include "density/empty_square.hpp"
#include "density/force_field.hpp"
#include "util/check.hpp"
#include "util/checkpoint.hpp"
#include "util/fault.hpp"
#include "util/logging.hpp"
#include "util/profiler.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"
#include "verify/verify.hpp"

namespace gpf {

namespace {

/// Normalization floor of the best-so-far score terms.
constexpr double kTiny = 1e-12;

/// Wire relaxation's CG stops once an update moves no cell by more than
/// this fraction of the smaller density-bin side (cg_options::step_bound):
/// the next transformation re-spreads the placement at bin resolution
/// anyway. Only where relaxation runs every transformation; hold-and-move
/// keeps the residual rule (DESIGN.md, "Stopping rules").
constexpr double kWireRelaxStepFraction = 0.01;

std::string fmt_value(double v) {
    std::ostringstream os;
    os << v;
    return os.str();
}

/// Worst of two relative residuals, where any non-finite value dominates
/// (std::max would silently discard a NaN in its second argument).
double worse_residual(double a, double b) {
    if (!std::isfinite(a)) return a;
    if (!std::isfinite(b)) return b;
    return std::max(a, b);
}

/// Scoped tightening of the options for a rung-1 retry: the trust region
/// halved.
class tighten_guard {
public:
    explicit tighten_guard(placer_options& opt)
        : opt_(opt), saved_step_(opt.max_step_fraction) {
        opt_.max_step_fraction *= 0.5;
    }
    ~tighten_guard() { opt_.max_step_fraction = saved_step_; }
    tighten_guard(const tighten_guard&) = delete;
    tighten_guard& operator=(const tighten_guard&) = delete;

private:
    placer_options& opt_;
    double saved_step_;
};

} // namespace

const char* recovery_action_name(recovery_action action) {
    switch (action) {
        case recovery_action::retry_tightened: return "retry_tightened";
        case recovery_action::rollback: return "rollback";
        case recovery_action::stop_best: return "stop_best";
        case recovery_action::level_fallback: return "level_fallback";
    }
    return "unknown";
}

placer::placer(const netlist& nl, placer_options options)
    : nl_(nl), options_(options), system_(nl, options.net_model) {
    GPF_CHECK(options_.force_scale_k > 0.0);
    GPF_CHECK(options_.density_bins >= 16);
    force_x_.assign(system_.num_vars(), 0.0);
    force_y_.assign(system_.num_vars(), 0.0);
    // Computed from the construction-time options: rollback rungs mutate
    // force_scale_k mid-run, and that mutated value is checkpointed as
    // *state*, not identity.
    digest_ = compute_digest();
}

placer::~placer() = default;

void placer::build_cell_rects(const placement& pl) {
    cell_rects_.clear();
    cell_rects_.reserve(nl_.num_cells());
    for (cell_id i = 0; i < nl_.num_cells(); ++i) {
        const cell& c = nl_.cell_at(i);
        if (c.kind == cell_kind::pad) continue;
        cell_rects_.push_back(rect::from_center(pl[i], c.width, c.height));
    }
}

double placer::average_cell_area() const {
    const std::size_t m = nl_.num_movable();
    return m == 0 ? 0.0 : nl_.movable_area() / static_cast<double>(m);
}

std::pair<std::size_t, std::size_t> placer::density_dims() const {
    const rect region = nl_.region();
    const double aspect = region.width() / region.height();
    double ny = std::sqrt(static_cast<double>(options_.density_bins) / aspect);
    double nx = aspect * ny;
    const auto clampdim = [](double v) {
        return std::max<std::size_t>(4, static_cast<std::size_t>(std::llround(v)));
    };
    return {clampdim(nx), clampdim(ny)};
}

void placer::reset_forces() {
    std::fill(force_x_.begin(), force_x_.end(), 0.0);
    std::fill(force_y_.begin(), force_y_.end(), 0.0);
    force_constant_ = 0.0;
}

std::pair<cg_result, cg_result> placer::wire_relax(placement& pl) {
    const std::vector<point> vp = system_.variable_positions(pl);
    const double beta = options_.wire_relax_weight;
    const std::size_t n = system_.num_vars();

    // (C + β·W̃) p = −d + β·W̃·p_cur with W̃ = diag(C): the anchor is the
    // diagonal shift s = β·diag(C). The move-target workspaces double as
    // the solution vectors here (they are dead between transformations).
    const auto setup = [&](const std::vector<double>& b, const std::vector<double>& diag,
                           bool is_x, std::vector<double>& shift,
                           std::vector<double>& full_diag, std::vector<double>& rhs,
                           std::vector<double>& x) {
        shift.resize(n);
        full_diag.resize(n);
        rhs.resize(n);
        x.resize(n);
        for (std::size_t v = 0; v < n; ++v) {
            const double cur = is_x ? vp[v].x : vp[v].y;
            shift[v] = beta * diag[v];
            full_diag[v] = diag[v] * (1.0 + beta);
            rhs[v] = -b[v] + beta * diag[v] * cur;
            x[v] = cur;
        }
    };
    setup(system_.rhs_x(), system_.diagonal_x(), true, shift_x_, full_diag_x_, rhs_x_,
          move_x_);
    setup(system_.rhs_y(), system_.diagonal_y(), false, shift_y_, full_diag_y_, rhs_y_,
          move_y_);
    // A sparser cadence (the V-cycle's levels) keeps the exact solve: there
    // the inexact one moved where the per-level stops land, and the 20k
    // V-cycle of seed 1998 ran 125 transformations instead of 90.
    cg_options cg = options_.cg;
    if (options_.wire_relax_interval == 1) {
        const rect region = nl_.region();
        const auto [nx, ny] = density_dims();
        cg.step_bound = kWireRelaxStepFraction *
                        std::min(region.width() / static_cast<double>(nx),
                                 region.height() / static_cast<double>(ny));
    }
    const auto results = cg_solve_pair(
        system_.pattern(), {system_.values_x(), shift_x_, full_diag_x_, rhs_x_, move_x_},
        {system_.values_y(), shift_y_, full_diag_y_, rhs_y_, move_y_}, cg);
    for (std::size_t v = 0; v < system_.num_movable(); ++v) {
        pl[system_.cell_of_var(v)] = point(move_x_[v], move_y_[v]);
    }
    return results;
}

placement placer::transform(const placement& current) {
    GPF_CHECK(current.size() == nl_.num_cells());
    profiler& prof = profiler::instance();

    // 1. Net weight adaption hook ("before each placement transformation",
    //    section 5) and system assembly — the matrix diagonal feeds the
    //    local-gain force scaling below.
    {
        phase_timer timer(profile_phase::assemble);
        if (weight_hook_) weight_hook_(current);
        system_.assemble(current);
    }

    // 2. Density of the current placement (+ hooked-in extra sources).
    //    When the input is the placement the previous transformation
    //    produced (the steady state of run_from), its hook-free demand was
    //    already stamped for the stopping criterion — reuse it instead of
    //    stamping every cell again.
    const auto [nx, ny] = density_dims();
    density_map density(nl_.region(), nx, ny);
    {
        phase_timer timer(profile_phase::density);
        const bool reuse = next_density_.has_value() && next_density_->nx() == nx &&
                           next_density_->ny() == ny && current == last_output_;
        if (reuse) {
            density = *next_density_;
        } else {
            build_cell_rects(current);
            density.add_rects(cell_rects_);
        }
        if (density_hook_) density_hook_(density, current);
        density.finalize();
    }

    // 3. Force field of eq. (9). The calculator caches the kernel spectra
    //    across transformations; a fresh one is bitwise identical by
    //    construction.
    const force_field field = [&] {
        phase_timer timer(profile_phase::force_field);
        if (!field_calc_ || !field_calc_->matches(density)) {
            field_calc_ = std::make_unique<force_field_calculator>(nl_.region(),
                                                                   density.nx(),
                                                                   density.ny());
        }
        return field_calc_->compute(density);
    }();

    // 4. The move force of this transformation.
    const rect region = nl_.region();
    double max_increment = 0.0;
    {
        phase_timer timer(profile_phase::move_force);
        move_x_.assign(system_.num_vars(), 0.0);
        move_y_.assign(system_.num_vars(), 0.0);
        // step(v) writes cell v's move and returns its magnitude. Cells
        // run in parallel; the largest magnitude is exact in any order.
        const auto move_force_loop = [&](const auto& step) {
            std::mutex max_mutex;
            double max_mag = 0.0;
            parallel_for_chunks(system_.num_movable(), [&](std::size_t begin,
                                                           std::size_t end) {
                double local = 0.0;
                for (std::size_t v = begin; v < end; ++v) local = std::max(local, step(v));
                const std::lock_guard<std::mutex> lock(max_mutex);
                max_mag = std::max(max_mag, local);
            }, 2048);
            return max_mag;
        };
        if (options_.scaling == placer_options::force_scaling::paper_normalized) {
            // Literal eq. (5): one global k, strongest force = pull of a
            // net of length K(W+H).
            const double target =
                options_.force_scale_k * (region.width() + region.height());
            const double max_mag = field.max_magnitude();
            const double k = max_mag > 0.0 ? target / max_mag : 0.0;
            force_constant_ = k;
            max_increment = move_force_loop([&](std::size_t v) {
                const point f = field.sample(current[system_.cell_of_var(v)]);
                move_x_[v] = -k * f.x;
                move_y_[v] = -k * f.y;
                return k * std::hypot(f.x, f.y);
            });
        } else {
            // Local gain (DESIGN.md §5): each cell gets a *move spring*
            // pulling it to the target x̃ = x + u with u = K·f(x) clipped
            // to the trust region. The solve below blends staying (wire
            // springs + hold) and moving (target springs) — a convex
            // combination that cannot overshoot, unlike constant move
            // forces, which make strongly intra-connected clusters
            // overshoot by the ratio of internal to external stiffness.
            // The field magnitude decays with the density error, providing
            // the damping.
            const double max_step =
                options_.max_step_fraction * (region.width() + region.height());
            max_increment = move_force_loop([&](std::size_t v) {
                const point pos = current[system_.cell_of_var(v)];
                const point f = field.sample(pos);
                double ux = options_.force_scale_k * f.x;
                double uy = options_.force_scale_k * f.y;
                const double mag = std::hypot(ux, uy);
                if (mag > max_step) {
                    ux *= max_step / mag;
                    uy *= max_step / mag;
                }
                // Stored as the target *offset*; converted to spring
                // forces in the solve step.
                move_x_[v] = ux;
                move_y_[v] = uy;
                return mag;
            });
            force_constant_ = options_.force_scale_k;
        }
    }

    // 5. Solve. hold_and_move uses *move springs*: each movable cell gets
    //    a spring of weight w̃ = C_vv to its target x̃ = x + u, on top of
    //    the hold force e_hold = −(C p + d) that makes the current
    //    placement the equilibrium. Expressed in the displacement δ:
    //
    //        (C + W̃) δ = W̃ u
    //
    //    so δ is a wire-metric-smoothed, never-overshooting step toward
    //    the targets (constant move *forces* instead would make strongly
    //    intra-connected clusters overshoot by their internal/external
    //    stiffness ratio). The accumulate mode is the paper-literal
    //    e ← e + e_move with a full re-solve.
    cg_result res_x;
    cg_result res_y;
    placement next;
    {
        phase_timer timer(profile_phase::solve);
        if (options_.mode == placer_options::force_mode::hold_and_move) {
            const std::vector<double>& diag_x = system_.diagonal_x();
            const std::vector<double>& diag_y = system_.diagonal_y();
            rhs_x_.assign(system_.num_vars(), 0.0);
            rhs_y_.assign(system_.num_vars(), 0.0);
            for (std::size_t v = 0; v < system_.num_movable(); ++v) {
                rhs_x_[v] = diag_x[v] * move_x_[v];
                rhs_y_[v] = diag_y[v] * move_y_[v];
                force_x_[v] = rhs_x_[v]; // exposed as this step's move force
                force_y_[v] = rhs_y_[v];
            }
            // w̃ = C_vv: the move springs are the diagonal shift s = diag(C),
            // and the Jacobi diagonal is C_vv + w̃_v.
            const std::size_t n = system_.num_vars();
            full_diag_x_.resize(n);
            full_diag_y_.resize(n);
            for (std::size_t v = 0; v < n; ++v) {
                full_diag_x_[v] = 2.0 * diag_x[v];
                full_diag_y_[v] = 2.0 * diag_y[v];
            }
            // Each solve starts from a zero displacement.
            delta_x_.assign(n, 0.0);
            delta_y_.assign(n, 0.0);
            std::tie(res_x, res_y) = cg_solve_pair(
                system_.pattern(), {system_.values_x(), diag_x, full_diag_x_, rhs_x_, delta_x_},
                {system_.values_y(), diag_y, full_diag_y_, rhs_y_, delta_y_}, options_.cg);
            next = current;
            for (std::size_t v = 0; v < system_.num_movable(); ++v) {
                const cell_id id = system_.cell_of_var(v);
                next[id].x += delta_x_[v];
                next[id].y += delta_y_[v];
            }
        } else {
            for (std::size_t v = 0; v < system_.num_vars(); ++v) {
                force_x_[v] += move_x_[v];
                force_y_[v] += move_y_[v];
            }
            next = system_.solve(current, force_x_, force_y_, options_.cg, &res_x, &res_y);
        }
    }
    bool cg_converged = res_x.converged && res_y.converged;
    double cg_residual = worse_residual(res_x.residual, res_y.residual);
    if (prof.enabled()) {
        prof.add_cg_iterations(profile_phase::solve, res_x.iterations, res_y.iterations);
        prof.add_cg_stop(profile_phase::solve, res_x.stop, res_x.residual);
        prof.add_cg_stop(profile_phase::solve, res_y.stop, res_y.residual);
    }
    std::size_t cg_iterations = res_x.iterations + res_y.iterations;

    // Periodic wire relaxation (see placer_options::wire_relax_interval),
    // on a system re-assembled at the solved placement.
    if (options_.mode == placer_options::force_mode::hold_and_move &&
        options_.wire_relax_interval > 0 &&
        (history_.size() + 1) % options_.wire_relax_interval == 0) {
        {
            phase_timer timer(profile_phase::assemble);
            system_.assemble(next);
        }
        phase_timer timer(profile_phase::wire_relax);
        const auto [rx, ry] = wire_relax(next);
        if (prof.enabled()) {
            prof.add_cg_iterations(profile_phase::wire_relax, rx.iterations, ry.iterations);
            prof.add_cg_stop(profile_phase::wire_relax, rx.stop, rx.residual);
            prof.add_cg_stop(profile_phase::wire_relax, ry.stop, ry.residual);
        }
        cg_iterations += rx.iterations + ry.iterations;
        cg_converged = cg_converged && rx.converged && ry.converged;
        cg_residual = worse_residual(cg_residual, worse_residual(rx.residual, ry.residual));
    }

    if (options_.clamp_to_region) {
        for (std::size_t v = 0; v < system_.num_movable(); ++v) {
            const cell_id id = system_.cell_of_var(v);
            const cell& c = nl_.cell_at(id);
            const double hw = std::min(c.width / 2, region.width() / 2);
            const double hh = std::min(c.height / 2, region.height() / 2);
            next[id].x = std::clamp(next[id].x, region.xlo + hw, region.xhi - hw);
            next[id].y = std::clamp(next[id].y, region.ylo + hh, region.yhi - hh);
        }
    }

    iteration_stats stats;
    stats.iteration = history_.size();
    stats.max_force = max_increment;
    stats.cg_residual = cg_residual;
    stats.cg_converged = cg_converged;
    stats.cg_iterations = cg_iterations;
    if (!cg_converged) {
        log(log_level::warning) << "cg did not converge at transformation "
                                << stats.iteration << " (relative residual "
                                << cg_residual << " after " << stats.cg_iterations
                                << " iterations)";
    }
    {
        phase_timer timer(profile_phase::other);
        stats.hpwl = total_hpwl(nl_, next);
        stats.overflow_area = density.overflow_area();
        stats.largest_empty_square =
            largest_empty_square_side(density, options_.empty_threshold);
    }

    // Stopping criterion on the *output* placement. The stamped demand is
    // kept (unfinalized, hook-free) so the next transformation's density
    // step can reuse it; only the finalize runs on a copy.
    {
        phase_timer timer(profile_phase::spread_check);
        build_cell_rects(next);
        if (next_density_.has_value() && next_density_->nx() == nx &&
            next_density_->ny() == ny) {
            next_density_->clear();
        } else {
            next_density_.emplace(nl_.region(), nx, ny);
        }
        next_density_->add_rects(cell_rects_);
        last_output_ = next;
        density_map check = *next_density_;
        check.finalize();
        stats.spread = placement_is_spread(check, average_cell_area(),
                                           options_.spread_factor,
                                           options_.empty_threshold);
    }

    history_.push_back(stats);
    if (prof.enabled()) prof.end_transform();

    // Optional invariant checkpoint (GPF_VERIFY=1): every transformation
    // must hand the next stage finite coordinates, untouched fixed cells
    // and — when clamping is on — centers inside the region.
    if (verify_checkpoints_enabled()) {
        verify_options vopt;
        vopt.check_in_region = options_.clamp_to_region;
        checkpoint_global_placement(nl_, next, "placer::transform", vopt);
    }
    return next;
}

placement placer::run() {
    level_log_.clear();
    if (options_.coarsen_levels > 0) return run_multilevel();
    return run_from(nl_.centered_placement(), /*reset_forces=*/true);
}

placement placer::run_multilevel() {
    stopwatch total_clock;
    coarsen_options copt;
    copt.max_area_ratio = options_.cluster_max_area_ratio;
    copt.min_coarse_cells = options_.min_coarse_cells;
    cluster_hierarchy hierarchy;
    {
        phase_timer timer(profile_phase::coarsen);
        hierarchy = build_hierarchy(nl_, options_.coarsen_levels, copt);
    }
    if (hierarchy.empty()) {
        log(log_level::info) << "multilevel: coarsening found no level to build ("
                             << nl_.num_movable()
                             << " movable cells); running the flat loop";
        return run_from(nl_.centered_placement(), /*reset_forces=*/true);
    }

    const double fine_movable = static_cast<double>(nl_.num_movable());
    std::vector<recovery_event> level_events;
    bool any_degraded = false;
    bool any_fallback = false;

    // Coarsest level first. `carried` always holds a placement of the
    // netlist the upcoming level places (interpolated from below, or
    // nothing for the coarsest, which starts from the paper init).
    std::optional<placement> carried;
    for (std::size_t li = hierarchy.depth(); li-- > 0;) {
        const cluster_level& lvl = hierarchy.levels[li];
        const netlist& coarse_nl = lvl.coarse;
        const netlist& finer_nl = li == 0 ? nl_ : hierarchy.levels[li - 1].coarse;
        stopwatch level_clock;
        level_summary summary;
        summary.level = li + 1;
        summary.movable_cells = coarse_nl.num_movable();
        summary.nets = coarse_nl.num_nets();

        // Coarse levels run the full transformation loop with a
        // proportionally coarser density/FFT grid and a looser stopping
        // criterion — their only job is bulk spreading; precision belongs
        // to the finer levels.
        placer_options sub = options_;
        sub.coarsen_levels = 0;
        // The flat loop is the resumable unit (DESIGN.md §14): a coarse
        // sub-placer must never overwrite the caller's checkpoint with a
        // level whose options digest differs. Heartbeats stay on — the
        // V-cycle is alive the whole time.
        sub.checkpoint_path.clear();
        // Ratio-scale the density grid only past coarse_full_bin_limit:
        // below it a full-resolution convolution is under the per-level
        // spectral budget (the r2c path, DESIGN.md §13), and coarse
        // levels spread better against the full grid.
        if (options_.density_bins > options_.coarse_full_bin_limit) {
            const double ratio = static_cast<double>(coarse_nl.num_movable()) /
                                 std::max(1.0, fine_movable);
            sub.density_bins = std::max<std::size_t>(
                256, static_cast<std::size_t>(std::llround(
                         static_cast<double>(options_.density_bins) * ratio)));
        }
        sub.spread_factor = options_.spread_factor * 2.0;
        if (options_.plateau_window > 0) {
            sub.plateau_window = std::max<std::size_t>(4, options_.plateau_window / 4);
        }
        sub.max_iterations = std::max<std::size_t>(20, options_.max_iterations / 3);
        // Wire relaxation is the most expensive phase of a transformation
        // and exists to re-tighten wire length — pointless precision at a
        // level whose placement survives only as an interpolation seed.
        if (options_.wire_relax_interval > 0) {
            sub.wire_relax_interval = options_.wire_relax_interval * 4;
        }
        if (options_.time_budget > 0.0) {
            sub.time_budget =
                std::max(0.01, options_.time_budget - total_clock.elapsed_seconds());
        }

        const placement start =
            carried.has_value() ? std::move(*carried) : coarse_nl.centered_placement();
        placement out;
        bool ok = true;
        std::string reason;
        try {
            if (verify_checkpoints_enabled()) {
                verify_coarsening(finer_nl, coarse_nl, lvl.parent)
                    .require("placer::multilevel coarsen level " +
                             std::to_string(li + 1));
            }
            placer sub_placer(coarse_nl, sub);
            out = sub_placer.run_from(start, /*reset_forces=*/!carried.has_value());
            summary.iterations = sub_placer.history().size();
            summary.degraded = sub_placer.degraded();
            for (recovery_event ev : sub_placer.recovery_log()) {
                ev.reason = "level " + std::to_string(li + 1) + ": " + ev.reason;
                level_events.push_back(std::move(ev));
            }
            for (cell_id i = 0; i < coarse_nl.num_cells() && ok; ++i) {
                if (!std::isfinite(out[i].x) || !std::isfinite(out[i].y)) {
                    ok = false;
                    reason = "non-finite coarse placement";
                }
            }
            // A level that hit the ladder's final rung almost immediately
            // produced nothing better than its starting clump; such a
            // seed would silently cost every finer level a full run, so
            // the level falls back instead of being interpolated.
            if (ok && sub_placer.degraded() && sub_placer.history().size() < 5) {
                for (const recovery_event& ev : sub_placer.recovery_log()) {
                    if (ev.action == recovery_action::stop_best) {
                        ok = false;
                        reason = "coarse level stopped degraded after " +
                                 std::to_string(sub_placer.history().size()) +
                                 " transformations";
                        break;
                    }
                }
            }
            if (ok && verify_checkpoints_enabled()) {
                verify_options vopt;
                vopt.check_in_region = options_.clamp_to_region;
                verify_global_placement(coarse_nl, out, vopt)
                    .require("placer::multilevel level " + std::to_string(li + 1));
                // ∫D ≈ 0 on the level's own grid: finalize() balances
                // supply against demand, so any residual integral means
                // the coarse netlist's areas and region disagree.
                const density_map check =
                    compute_density(coarse_nl, out, sub.density_bins);
                double integral = 0.0;
                for (const double d : check.demand()) integral += d - check.supply_level();
                integral *= check.bin_area();
                GPF_CHECK_MSG(std::abs(integral) <=
                                  1e-6 * std::max(1.0, coarse_nl.movable_area()),
                              "level " << li + 1 << " density does not integrate to "
                                       << "zero (got " << integral << ")");
            }
        } catch (const check_error& e) {
            ok = false;
            reason = e.what();
        }
        if (ok) {
            summary.hpwl = total_hpwl(coarse_nl, out);
            any_degraded = any_degraded || summary.degraded;
        } else {
            // Recovery: a failed coarse level is discarded and the finer
            // level starts from whatever placement this level started
            // from — degraded but never fatal.
            summary.fell_back = true;
            any_degraded = true;
            any_fallback = true;
            recovery_event ev{recovery_action::level_fallback, 0,
                              "level " + std::to_string(li + 1) + ": " + reason};
            log(log_level::warning)
                << "recovery: level_fallback — coarse level " << li + 1
                << " failed (" << reason << "); continuing at the finer level";
            level_events.push_back(std::move(ev));
            out = start;
        }
        {
            phase_timer timer(profile_phase::interpolate);
            carried = interpolate(finer_nl, lvl, out);
        }
        summary.seconds = level_clock.elapsed_seconds();
        log(log_level::info) << "multilevel level " << li + 1 << ": "
                             << summary.movable_cells << " movable cells, "
                             << summary.iterations << " transformations, hpwl="
                             << summary.hpwl << (summary.fell_back ? " (fell back)" : "")
                             << " in " << summary.seconds << " s";
        level_log_.push_back(summary);
    }

    // Final pass: the flat loop on the full netlist, seeded by the
    // interpolated placement. reset_forces=false — a fresh hold-and-move
    // run would replace the seed with the unconstrained wire-length
    // optimum and throw the V-cycle away. When every level held, the seed
    // arrives near-converged (spread and tightened by the V-cycle), so
    // this is a refinement pass: the overflow plateau confirms in half
    // the window, wire relaxation runs at half the cadence (the seed's
    // wire length is already relaxed), and the transformation count is
    // capped at a quarter of the flat budget — the remaining descent is
    // the same trust-region-limited tail grind the flat loop ends in, and
    // a healthy seed reaches flat-termination quality well inside the
    // cap (spread/plateau stops stay active below it). If any level fell
    // back the seed is untrusted and the pass runs with the full caller
    // options. Quality is guarded by the acceptance gate (multilevel HPWL
    // within 5% of flat, tests/test_cluster.cpp); the caller's options
    // are restored on exit.
    stopwatch final_clock;
    history_.clear();
    const std::size_t saved_plateau = options_.plateau_window;
    const std::size_t saved_relax = options_.wire_relax_interval;
    const std::size_t saved_max_it = options_.max_iterations;
    // Checkpointing stays off through the final pass too: its options
    // (plateau/relax/iteration caps below) differ from the caller's, so a
    // checkpoint written here could not be resumed by a placer built with
    // the caller's options.
    const std::string saved_ckpt = std::move(options_.checkpoint_path);
    options_.checkpoint_path.clear();
    if (!any_fallback) {
        if (options_.plateau_window > 0) {
            options_.plateau_window = std::max<std::size_t>(8, saved_plateau / 2);
        }
        if (options_.wire_relax_interval > 0) {
            options_.wire_relax_interval = saved_relax * 2;
        }
        options_.max_iterations = std::max<std::size_t>(
            std::max<std::size_t>(25, options_.min_iterations), saved_max_it / 4);
    }
    placement final_pl = run_from(std::move(*carried), /*reset_forces=*/false);
    options_.plateau_window = saved_plateau;
    options_.wire_relax_interval = saved_relax;
    options_.max_iterations = saved_max_it;
    options_.checkpoint_path = saved_ckpt;
    // run_from cleared the recovery state; fold the level events back in.
    const bool final_degraded = degraded_;
    recovery_log_.insert(recovery_log_.begin(), level_events.begin(),
                         level_events.end());
    degraded_ = degraded_ || any_degraded;
    level_summary fine;
    fine.level = 0;
    fine.movable_cells = nl_.num_movable();
    fine.nets = nl_.num_nets();
    fine.iterations = history_.size();
    fine.hpwl = history_.empty() ? total_hpwl(nl_, final_pl) : history_.back().hpwl;
    fine.seconds = final_clock.elapsed_seconds();
    fine.degraded = final_degraded;
    level_log_.push_back(fine);
    return final_pl;
}

std::string placer::health_check(const iteration_stats& stats, const placement& pl,
                                 double prev_overflow) const {
    for (std::size_t v = 0; v < system_.num_movable(); ++v) {
        const point& p = pl[system_.cell_of_var(v)];
        if (!std::isfinite(p.x) || !std::isfinite(p.y)) {
            return "non-finite coordinates (cell '" +
                   nl_.cell_at(system_.cell_of_var(v)).name + "' at (" +
                   fmt_value(p.x) + ", " + fmt_value(p.y) + "))";
        }
    }
    if (!std::isfinite(stats.hpwl) || !std::isfinite(stats.overflow_area) ||
        !std::isfinite(stats.max_force)) {
        return "non-finite iteration statistics (hpwl " + fmt_value(stats.hpwl) +
               ", overflow " + fmt_value(stats.overflow_area) + ", max force " +
               fmt_value(stats.max_force) + ")";
    }
    // A loose-but-progressing solve is a warning (see transform()); only a
    // solve that made no real dent in the residual, or a poisoned one, is
    // an incident worth re-running.
    if (!stats.cg_converged && (!std::isfinite(stats.cg_residual) ||
                                stats.cg_residual >= options_.cg_stall_residual)) {
        return "cg solve stalled (relative residual " + fmt_value(stats.cg_residual) +
               ")";
    }
    // Overflow must trend down-ish; a jump by the spike factor over the
    // previous healthy iteration (and past a noise floor of 1% of the
    // movable area) means a force blast threw cells into a pile.
    if (std::isfinite(prev_overflow) && prev_overflow > 0.0 &&
        stats.overflow_area > prev_overflow * options_.overflow_spike_factor &&
        stats.overflow_area > 0.01 * nl_.movable_area()) {
        return "density overflow spike (" + fmt_value(stats.overflow_area) +
               " after " + fmt_value(prev_overflow) + ")";
    }
    return {};
}


placement placer::run_from(placement current, bool reset_forces) {
    GPF_CHECK(current.size() == nl_.num_cells());
    // Garbage in cannot be recovered from: reject non-finite starting
    // coordinates with a typed error before they contaminate the system.
    for (cell_id i = 0; i < nl_.num_cells(); ++i) {
        GPF_CHECK_MSG(std::isfinite(current[i].x) && std::isfinite(current[i].y),
                      "run_from: non-finite start position of cell '"
                          << nl_.cell_at(i).name << "'");
    }

    degraded_ = false;
    recovery_log_.clear();
    run_state st;

    const auto movable_finite = [&](const placement& pl) {
        for (std::size_t v = 0; v < system_.num_movable(); ++v) {
            const point& p = pl[system_.cell_of_var(v)];
            if (!std::isfinite(p.x) || !std::isfinite(p.y)) return false;
        }
        return true;
    };

    if (reset_forces) {
        this->reset_forces();
        history_.clear();
        if (options_.mode == placer_options::force_mode::hold_and_move) {
            // Fresh runs start from the unconstrained wire-length optimum
            // (the literal algorithm's first transformation with e = 0);
            // hold-and-move would otherwise preserve the arbitrary start.
            if (weight_hook_) weight_hook_(current);
            system_.assemble(current);
            cg_result init_x, init_y;
            placement solved = system_.solve(current, {}, {}, options_.cg,
                                             &init_x, &init_y);
            const auto solve_ok = [&](const cg_result& r) {
                return std::isfinite(r.residual) &&
                       (r.converged || r.residual < options_.cg_stall_residual);
            };
            if (movable_finite(solved) && solve_ok(init_x) && solve_ok(init_y)) {
                current = std::move(solved);
            } else {
                // The initial solve failed; re-solve once (a transient
                // fault clears), and as the last resort keep the caller's
                // start placement — slower to spread, but finite.
                record_recovery(
                    st, recovery_action::retry_tightened,
                    "initial wire-length solve unhealthy (residual " +
                        fmt_value(worse_residual(init_x.residual, init_y.residual)) +
                        ")");
                solved = system_.solve(current, {}, {}, options_.cg, &init_x, &init_y);
                if (movable_finite(solved) && solve_ok(init_x) && solve_ok(init_y)) {
                    current = std::move(solved);
                } else {
                    record_recovery(st, recovery_action::rollback,
                                    "tightened initial solve still unhealthy; "
                                    "keeping the start placement");
                }
            }
        }
    }
    converged_ = false;

    // Best-so-far by a combined overflow + wire-length score, both terms
    // normalized by the first healthy iteration (overflow weighted 4:1 —
    // a global placement's job is to spread). Snapshots are the rollback
    // targets of ladder rung 2.
    st.best = current;
    st.current = std::move(current);
    st.best_score = std::numeric_limits<double>::infinity();
    st.have_best = false;
    st.norm_overflow = kTiny;
    st.norm_hpwl = kTiny;
    st.prev_overflow = std::numeric_limits<double>::quiet_NaN();
    st.plateau_overflow = std::numeric_limits<double>::infinity();
    return run_loop(st);
}

void placer::record_recovery(run_state& st, recovery_action action,
                             const std::string& why) {
    degraded_ = true;
    recovery_event ev{action, history_.size(), why};
    log(log_level::warning) << "recovery: " << recovery_action_name(action)
                            << " at transformation " << ev.iteration << " — "
                            << why;
    recovery_log_.push_back(ev);
    st.pending.push_back(std::move(ev));
}

// The guarded transformation loop (DESIGN.md §9/§14), shared by run_from()
// and resume(). Everything it carries between iterations lives in `st` or
// in the iteration-carried placer members — exactly the payload of
// serialize_state() — so a run restored from a checkpoint re-enters here
// and is bitwise identical to the run that was never interrupted. The
// checkpoint is written as the *last* statement of the loop body, after
// every stop decision (each `break` path skips it): no checkpoint ever
// captures a would-stop state, so resuming from the k-th write replays
// the exact tail the original run executed after it, stop decisions
// included.
placement placer::run_loop(run_state& st) {
    stopwatch run_clock;

    // One guarded transformation attempt: run transform(), health-check
    // the result, and on failure unwind every side effect (history entry,
    // accumulate-mode force state) so the attempt never happened. Sets
    // `reason` when returning nullopt.
    std::string reason;
    const auto attempt = [&](const placement& input,
                             bool tightened) -> std::optional<placement> {
        bump_heartbeat();
        const std::size_t h0 = history_.size();
        std::vector<double> saved_fx, saved_fy;
        const bool accumulate =
            options_.mode == placer_options::force_mode::accumulate;
        if (accumulate) {
            saved_fx = force_x_;
            saved_fy = force_y_;
        }
        try {
            stopwatch step_clock;
            placement out;
            if (tightened) {
                tighten_guard guard(options_);
                out = transform(input);
            } else {
                out = transform(input);
            }
            double took = step_clock.elapsed_seconds();
            if (options_.max_transform_seconds > 0.0 &&
                fault_fires(fault_site::transform_stall)) {
                took = options_.max_transform_seconds * 64.0;
            }
            reason = health_check(history_.back(), out, st.prev_overflow);
            // Per-transformation watchdog (DESIGN.md §14): a blown budget
            // is a recovery incident. Warn with the profiler tag
            // (GPF_PROFILE=1 yields the per-phase breakdown), then fail
            // the attempt so the ladder engages — tightened retry first,
            // and best-so-far stop when the budget cannot be met at all.
            if (reason.empty() && options_.max_transform_seconds > 0.0 &&
                took > options_.max_transform_seconds) {
                const iteration_stats& stats = history_.back();
                const profiler& prof = profiler::instance();
                std::ostringstream tag;
                if (prof.enabled()) {
                    tag << "; accumulated phase totals:";
                    for (std::size_t ph = 0; ph < num_profile_phases; ++ph) {
                        const profile_phase phase = static_cast<profile_phase>(ph);
                        tag << ' ' << profile_phase_name(phase) << '='
                            << prof.total_seconds(phase) << 's';
                    }
                } else {
                    tag << "; GPF_PROFILE=1 for the phase breakdown";
                }
                log(log_level::warning)
                    << "[watchdog] transformation " << stats.iteration << " took "
                    << took << " s (budget " << options_.max_transform_seconds
                    << " s, " << stats.cg_iterations << " cg iterations"
                    << tag.str() << ")";
                reason = "transformation watchdog: " + fmt_value(took) +
                         " s against a budget of " +
                         fmt_value(options_.max_transform_seconds) + " s";
            }
            if (reason.empty()) return out;
        } catch (const check_error& e) {
            reason = std::string("transformation threw: ") + e.what();
        }
        while (history_.size() > h0) history_.pop_back();
        if (accumulate) {
            force_x_ = std::move(saved_fx);
            force_y_ = std::move(saved_fy);
        }
        return std::nullopt;
    };

    bool stopped_best = false;
    const char* stop_cause = "iteration cap"; // unless the loop breaks earlier
    for (std::size_t it = st.next_iteration; it < options_.max_iterations; ++it) {
        // Crash drill (util/fault.hpp): die exactly as a SIGKILL'd worker
        // would — no unwinding, no flushing — so the supervisor's
        // restart-and-resume path is exercised against a true abrupt
        // death, not a polite exception.
        if (fault_fires(fault_site::process_abort)) {
            log(log_level::warning) << "fault injection: raising SIGKILL before "
                                    << "transformation " << history_.size();
            std::raise(SIGKILL);
        }

        // Cooperative stop (SIGINT/SIGTERM in gpf_place): flush a final
        // checkpoint so a later --resume continues exactly here, then end
        // through the same best-so-far path as ladder rung 3.
        if (options_.stop_flag != nullptr &&
            options_.stop_flag->load(std::memory_order_relaxed)) {
            st.next_iteration = it;
            if (!options_.checkpoint_path.empty()) write_checkpoint(st);
            record_recovery(st, recovery_action::stop_best,
                            "stop requested after " +
                                std::to_string(history_.size()) +
                                " transformations");
            stopped_best = true;
            break;
        }

        // Resource guard: wall-clock budget ends the run through the same
        // best-so-far path the ladder's final rung uses.
        if (options_.time_budget > 0.0 &&
            run_clock.elapsed_seconds() >= options_.time_budget) {
            record_recovery(st, recovery_action::stop_best,
                            "wall-clock budget of " + fmt_value(options_.time_budget) +
                                " s exhausted after " +
                                std::to_string(history_.size()) +
                                " transformations");
            stopped_best = true;
            break;
        }

        std::optional<placement> next = attempt(st.current, /*tightened=*/false);
        if (!next.has_value()) {
            // Rung 1: tightened retries from the same input.
            for (std::size_t r = 0; r < options_.max_retries && !next.has_value();
                 ++r) {
                record_recovery(st, recovery_action::retry_tightened, reason);
                next = attempt(st.current, /*tightened=*/true);
            }
        }
        if (!next.has_value()) {
            // Rung 2: roll back to the most recent healthy snapshot with a
            // halved force constant; the snapshot is consumed so repeated
            // rollbacks walk further into the past.
            if (st.rollbacks_used < options_.max_rollbacks && !st.snapshots.empty()) {
                ++st.rollbacks_used;
                record_recovery(st, recovery_action::rollback, reason);
                snapshot_state snap = std::move(st.snapshots.back());
                st.snapshots.pop_back();
                st.current = std::move(snap.pl);
                options_.force_scale_k = snap.force_scale_k * 0.5;
                force_x_ = std::move(snap.force_x);
                force_y_ = std::move(snap.force_y);
                continue;
            }
            // Rung 3: stop; the best-so-far placement is returned below.
            record_recovery(st, recovery_action::stop_best, reason);
            stopped_best = true;
            break;
        }

        st.current = std::move(*next);
        iteration_stats& stats = history_.back();
        if (!st.pending.empty()) {
            stats.recovery = std::move(st.pending);
            st.pending.clear();
        }

        // Healthy-iteration bookkeeping: trend reference, best-so-far,
        // rollback snapshot.
        st.prev_overflow = stats.overflow_area;
        if (!st.have_best) {
            st.norm_overflow = std::max(stats.overflow_area, kTiny);
            st.norm_hpwl = std::max(stats.hpwl, kTiny);
        }
        const double score = 4.0 * stats.overflow_area / st.norm_overflow +
                             stats.hpwl / st.norm_hpwl;
        if (!st.have_best || score < st.best_score) {
            st.best_score = score;
            st.best = st.current;
            st.have_best = true;
        }
        if (options_.snapshot_depth > 0 &&
            (options_.snapshot_interval <= 1 ||
             stats.iteration % options_.snapshot_interval == 0)) {
            if (st.snapshots.size() >= options_.snapshot_depth) {
                st.snapshots.erase(st.snapshots.begin());
            }
            st.snapshots.push_back(
                {st.current, options_.force_scale_k, force_x_, force_y_});
        }

        log(log_level::debug) << "iteration " << stats.iteration << " hpwl=" << stats.hpwl
                              << " empty_square=" << stats.largest_empty_square
                              << " overflow=" << stats.overflow_area;

        // Paper stopping criterion, evaluated on the *new* placement
        // inside transform() (where the stamped density doubles as the
        // next iteration's input density).
        if (it + 1 >= options_.min_iterations && stats.spread) {
            converged_ = true;
        }
        if (step_callback_ && !step_callback_(stats, st.current)) {
            stop_cause = "step callback";
            break;
        }
        if (converged_) break;

        // Secondary stop: overflow plateau.
        if (options_.plateau_window > 0) {
            if (stats.overflow_area < st.plateau_overflow * (1.0 - options_.plateau_tolerance)) {
                st.plateau_overflow = stats.overflow_area;
                st.stalled = 0;
            } else if (++st.stalled >= options_.plateau_window) {
                log(log_level::info) << "placer stopped on overflow plateau after "
                                     << history_.size() << " transformations";
                stop_cause = "overflow plateau";
                break;
            }
        }

        // Durable checkpoint — kept the last statement of the body so
        // that no checkpoint captures a state the loop was about to stop
        // on. Pure observation: trajectories are bitwise identical with
        // checkpointing on or off.
        st.next_iteration = it + 1;
        if (!options_.checkpoint_path.empty() &&
            (options_.checkpoint_interval <= 1 ||
             history_.size() % options_.checkpoint_interval == 0)) {
            write_checkpoint(st);
        }
    }

    if (stopped_best) {
        // Rung 3 / resource guard: hand back the best-so-far placement.
        // Events with no later iteration to live on attach to the last
        // accepted entry.
        if (!history_.empty() && !st.pending.empty()) {
            iteration_stats& last = history_.back();
            last.recovery.insert(last.recovery.end(), st.pending.begin(),
                                 st.pending.end());
        }
        st.pending.clear();
        if (st.have_best) st.current = st.best;
        log(log_level::warning)
            << "placer degraded stop after " << history_.size()
            << " transformations; returning best-so-far placement (hpwl="
            << total_hpwl(nl_, st.current) << ")";
    }

    log(log_level::info) << "placer finished after " << history_.size()
                         << " transformations, hpwl="
                         << (history_.empty() ? 0.0 : history_.back().hpwl)
                         << " ("
                         << (converged_     ? "spread criterion met"
                             : stopped_best ? "degraded stop"
                                            : stop_cause)
                         << ")";
    return std::move(st.current);
}

// --- crash safety (DESIGN.md §14) -------------------------------------------

namespace {

void put_placement(byte_writer& w, const placement& pl) {
    w.put_u64(pl.size());
    for (const point& p : pl) {
        w.put_f64(p.x);
        w.put_f64(p.y);
    }
}

placement get_placement(byte_reader& r, std::size_t expect) {
    const std::uint64_t n = r.get_u64();
    if (n != expect) {
        throw checkpoint_error("checkpoint payload: placement of " +
                               std::to_string(n) + " cells does not match the " +
                               std::to_string(expect) + "-cell netlist");
    }
    placement pl(static_cast<std::size_t>(n));
    for (point& p : pl) {
        p.x = r.get_f64();
        p.y = r.get_f64();
    }
    return pl;
}

void put_events(byte_writer& w, const std::vector<recovery_event>& events) {
    w.put_u64(events.size());
    for (const recovery_event& e : events) {
        w.put_u8(static_cast<std::uint8_t>(e.action));
        w.put_u64(e.iteration);
        w.put_string(e.reason);
    }
}

std::vector<recovery_event> get_events(byte_reader& r) {
    const std::uint64_t n = r.get_u64();
    std::vector<recovery_event> events;
    for (std::uint64_t i = 0; i < n; ++i) {
        recovery_event e;
        const std::uint8_t action = r.get_u8();
        if (action > static_cast<std::uint8_t>(recovery_action::level_fallback)) {
            throw checkpoint_error(
                "checkpoint payload: unknown recovery action " +
                std::to_string(action));
        }
        e.action = static_cast<recovery_action>(action);
        e.iteration = static_cast<std::size_t>(r.get_u64());
        e.reason = r.get_string();
        events.push_back(std::move(e));
    }
    return events;
}

std::vector<double> get_force_vector(byte_reader& r, std::size_t expect,
                                     const char* what) {
    std::vector<double> v = r.get_f64_vector();
    if (v.size() != expect) {
        throw checkpoint_error("checkpoint payload: " + std::string(what) +
                               " has " + std::to_string(v.size()) +
                               " entries, expected " + std::to_string(expect));
    }
    return v;
}

} // namespace

std::string placer::serialize_state(const run_state& st) const {
    byte_writer w;
    put_placement(w, st.current);
    w.put_u64(st.next_iteration);
    put_placement(w, st.best);
    w.put_f64(st.best_score);
    w.put_u8(st.have_best ? 1 : 0);
    w.put_f64(st.norm_overflow);
    w.put_f64(st.norm_hpwl);
    w.put_f64(st.prev_overflow);
    w.put_u64(st.rollbacks_used);
    w.put_f64(st.plateau_overflow);
    w.put_u64(st.stalled);
    w.put_u64(st.snapshots.size());
    for (const snapshot_state& s : st.snapshots) {
        put_placement(w, s.pl);
        w.put_f64(s.force_scale_k);
        w.put_f64_vector(s.force_x);
        w.put_f64_vector(s.force_y);
    }
    put_events(w, st.pending);
    // Iteration-carried placer members. force_scale_k is serialized as
    // state because rollback rungs halve it mid-run; the construction-time
    // value is what the digest binds.
    w.put_f64(options_.force_scale_k);
    w.put_f64(force_constant_);
    w.put_f64_vector(force_x_);
    w.put_f64_vector(force_y_);
    w.put_u8(converged_ ? 1 : 0);
    w.put_u8(degraded_ ? 1 : 0);
    w.put_u64(history_.size());
    for (const iteration_stats& s : history_) {
        w.put_u64(s.iteration);
        w.put_f64(s.hpwl);
        w.put_f64(s.overflow_area);
        w.put_f64(s.largest_empty_square);
        w.put_f64(s.max_force);
        w.put_f64(s.cg_residual);
        w.put_u64(s.cg_iterations);
        w.put_u8(s.cg_converged ? 1 : 0);
        w.put_u8(s.spread ? 1 : 0);
        put_events(w, s.recovery);
    }
    put_events(w, recovery_log_);
    return w.take();
}

void placer::restore_state(const std::string& payload, run_state& st) {
    byte_reader r(payload);
    st.current = get_placement(r, nl_.num_cells());
    st.next_iteration = static_cast<std::size_t>(r.get_u64());
    st.best = get_placement(r, nl_.num_cells());
    st.best_score = r.get_f64();
    st.have_best = r.get_u8() != 0;
    st.norm_overflow = r.get_f64();
    st.norm_hpwl = r.get_f64();
    st.prev_overflow = r.get_f64();
    st.rollbacks_used = static_cast<std::size_t>(r.get_u64());
    st.plateau_overflow = r.get_f64();
    st.stalled = static_cast<std::size_t>(r.get_u64());
    const std::uint64_t num_snapshots = r.get_u64();
    st.snapshots.clear();
    for (std::uint64_t i = 0; i < num_snapshots; ++i) {
        snapshot_state s;
        s.pl = get_placement(r, nl_.num_cells());
        s.force_scale_k = r.get_f64();
        s.force_x = get_force_vector(r, system_.num_vars(), "snapshot force_x");
        s.force_y = get_force_vector(r, system_.num_vars(), "snapshot force_y");
        st.snapshots.push_back(std::move(s));
    }
    st.pending = get_events(r);
    options_.force_scale_k = r.get_f64();
    force_constant_ = r.get_f64();
    force_x_ = get_force_vector(r, system_.num_vars(), "force_x");
    force_y_ = get_force_vector(r, system_.num_vars(), "force_y");
    converged_ = r.get_u8() != 0;
    degraded_ = r.get_u8() != 0;
    const std::uint64_t num_history = r.get_u64();
    history_.clear();
    for (std::uint64_t i = 0; i < num_history; ++i) {
        iteration_stats s;
        s.iteration = static_cast<std::size_t>(r.get_u64());
        s.hpwl = r.get_f64();
        s.overflow_area = r.get_f64();
        s.largest_empty_square = r.get_f64();
        s.max_force = r.get_f64();
        s.cg_residual = r.get_f64();
        s.cg_iterations = static_cast<std::size_t>(r.get_u64());
        s.cg_converged = r.get_u8() != 0;
        s.spread = r.get_u8() != 0;
        s.recovery = get_events(r);
        history_.push_back(std::move(s));
    }
    recovery_log_ = get_events(r);
    if (!r.exhausted()) {
        throw checkpoint_error("checkpoint payload: " +
                               std::to_string(r.remaining()) +
                               " trailing bytes after the state");
    }
    // Resumption starts with cold caches. The caches are bitwise
    // equivalent to fresh computation (tests/test_transform_cache.cpp),
    // so rebuilding them does not perturb the trajectory.
    field_calc_.reset();
    next_density_.reset();
    last_output_.clear();
}

void placer::write_checkpoint(const run_state& st) {
    try {
        write_checkpoint_file(options_.checkpoint_path, digest_,
                              serialize_state(st));
    } catch (const io_error& e) {
        // A full disk must never kill a run that is making progress; the
        // run continues and the previous generation stays authoritative.
        log(log_level::warning) << "checkpoint write failed (run continues): "
                                << e.what();
    }
}

void placer::bump_heartbeat() {
    if (options_.heartbeat_path.empty()) return;
    write_heartbeat(options_.heartbeat_path, ++heartbeat_counter_);
}

std::uint64_t placer::compute_digest() const {
    state_digest d;
    d.mix_string("gpf-placer-state-v1");
    // Every option that steers the trajectory. Deliberately excluded:
    // time_budget and max_transform_seconds (wall-clock guards that may
    // legitimately differ between the original and the resuming process),
    // checkpoint/heartbeat paths and checkpoint_interval (observation
    // only), and stop_flag (supervision plumbing).
    d.mix_f64(options_.force_scale_k);
    d.mix_u64(static_cast<std::uint64_t>(options_.scaling));
    d.mix_u64(static_cast<std::uint64_t>(options_.mode));
    d.mix_f64(options_.max_step_fraction);
    d.mix_u64(options_.wire_relax_interval);
    d.mix_f64(options_.wire_relax_weight);
    d.mix_u64(options_.max_iterations);
    d.mix_u64(options_.density_bins);
    d.mix_u64(options_.coarse_full_bin_limit);
    d.mix_f64(options_.spread_factor);
    d.mix_f64(options_.empty_threshold);
    d.mix_u64(options_.min_iterations);
    d.mix_u64(options_.plateau_window);
    d.mix_f64(options_.plateau_tolerance);
    d.mix_u64(options_.clamp_to_region ? 1 : 0);
    d.mix_u64(options_.coarsen_levels);
    d.mix_f64(options_.cluster_max_area_ratio);
    d.mix_u64(options_.min_coarse_cells);
    d.mix_u64(options_.max_retries);
    d.mix_u64(options_.max_rollbacks);
    d.mix_u64(options_.snapshot_interval);
    d.mix_u64(options_.snapshot_depth);
    d.mix_f64(options_.overflow_spike_factor);
    d.mix_f64(options_.cg_stall_residual);
    d.mix_u64(static_cast<std::uint64_t>(options_.net_model.kind));
    d.mix_u64(options_.net_model.star_threshold);
    d.mix_u64(options_.net_model.linearize ? 1 : 0);
    d.mix_f64(options_.net_model.min_length_fraction);
    d.mix_f64(options_.cg.tolerance);
    d.mix_u64(options_.cg.max_iterations);
    // Netlist identity: region, geometry and connectivity. Names are
    // omitted — they appear in diagnostics, never in the trajectory.
    const rect region = nl_.region();
    d.mix_f64(region.xlo);
    d.mix_f64(region.ylo);
    d.mix_f64(region.xhi);
    d.mix_f64(region.yhi);
    d.mix_f64(nl_.row_height());
    d.mix_u64(nl_.num_cells());
    for (cell_id i = 0; i < nl_.num_cells(); ++i) {
        const cell& c = nl_.cell_at(i);
        d.mix_f64(c.width);
        d.mix_f64(c.height);
        d.mix_u64(static_cast<std::uint64_t>(c.kind));
        d.mix_u64(c.fixed ? 1 : 0);
        if (c.fixed || c.kind == cell_kind::pad) {
            d.mix_f64(c.position.x);
            d.mix_f64(c.position.y);
        }
    }
    d.mix_u64(nl_.num_nets());
    for (const net& n : nl_.nets()) {
        d.mix_f64(n.weight);
        d.mix_u64(n.pins.size());
        d.mix_u64(n.driver == no_driver ? UINT64_MAX : n.driver);
        for (const pin& p : n.pins) {
            d.mix_u64(p.cell);
            d.mix_f64(p.offset.x);
            d.mix_f64(p.offset.y);
        }
    }
    return d.hash;
}

placement placer::resume(const std::string& checkpoint_path) {
    GPF_CHECK_MSG(options_.coarsen_levels == 0,
                  "resume: the flat transformation loop is the resumable unit "
                  "(options.coarsen_levels must be 0)");
    std::string loaded_from;
    checkpoint_blob blob = read_checkpoint_with_fallback(checkpoint_path,
                                                         &loaded_from);
    if (blob.digest != digest_) {
        std::ostringstream os;
        os << "checkpoint '" << loaded_from
           << "' was written under a different configuration or netlist "
              "(state digest 0x"
           << std::hex << blob.digest << " != 0x" << digest_ << ")";
        throw checkpoint_error(os.str());
    }
    run_state st;
    restore_state(blob.payload, st);
    level_log_.clear();
    log(log_level::info) << "resuming from checkpoint '" << loaded_from
                         << "' at transformation " << st.next_iteration << " ("
                         << history_.size() << " accepted so far)";
    return run_loop(st);
}

} // namespace gpf
