#include "model/quadratic_system.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>

#include "util/check.hpp"

namespace gpf {

namespace {

/// Per-dimension linearization clamp: lengths below eps count as eps.
double linear_weight(double base, double length, double eps) {
    return base / std::max(eps, std::abs(length));
}

} // namespace

quadratic_system::quadratic_system(const netlist& nl, net_model_options options)
    : nl_(nl), options_(options) {
    var_of_.assign(nl.num_cells(), invalid_var);
    for (cell_id i = 0; i < nl.num_cells(); ++i) {
        if (!nl.cell_at(i).fixed) {
            var_of_[i] = movable_.size();
            movable_.push_back(i);
        }
    }
    num_vars_ = movable_.size();
    collect_edges();
    find_floating_variables();
    build_symbolic();
}

void quadratic_system::find_floating_variables() {
    // Union-find over variables; components containing a fixed endpoint are
    // grounded, the rest float and need an anchor.
    std::vector<std::size_t> parent(num_vars_);
    for (std::size_t v = 0; v < num_vars_; ++v) parent[v] = v;
    const std::function<std::size_t(std::size_t)> find = [&](std::size_t v) {
        while (parent[v] != v) {
            parent[v] = parent[parent[v]];
            v = parent[v];
        }
        return v;
    };
    std::vector<char> grounded(num_vars_, 0);
    for (const edge& e : edges_) {
        if (e.var_a != invalid_var && e.var_b != invalid_var) {
            parent[find(e.var_a)] = find(e.var_b);
        } else if (e.var_a != invalid_var) {
            grounded[e.var_a] = 1;
        } else if (e.var_b != invalid_var) {
            grounded[e.var_b] = 1;
        }
    }
    std::vector<char> root_grounded(num_vars_, 0);
    for (std::size_t v = 0; v < num_vars_; ++v) {
        if (grounded[v]) root_grounded[find(v)] = 1;
    }
    floating_.assign(num_vars_, 0);
    for (std::size_t v = 0; v < num_vars_; ++v) {
        if (!root_grounded[find(v)]) floating_[v] = 1;
    }
}

void quadratic_system::add_edge_between_pins(const net& n, std::size_t pa,
                                             std::size_t pb, double weight, net_id ni) {
    const pin& a = n.pins[pa];
    const pin& b = n.pins[pb];
    edge e{};
    e.weight = weight;
    e.source_net = ni;
    e.var_a = var_of_[a.cell];
    e.var_b = var_of_[b.cell];
    const cell& ca = nl_.cell_at(a.cell);
    const cell& cb = nl_.cell_at(b.cell);
    if (e.var_a == invalid_var) {
        e.fixed_ax = ca.position.x + a.offset.x;
        e.fixed_ay = ca.position.y + a.offset.y;
    } else {
        e.off_ax = a.offset.x;
        e.off_ay = a.offset.y;
    }
    if (e.var_b == invalid_var) {
        e.fixed_bx = cb.position.x + b.offset.x;
        e.fixed_by = cb.position.y + b.offset.y;
    } else {
        e.off_bx = b.offset.x;
        e.off_by = b.offset.y;
    }
    // Edges between two fixed endpoints only add a constant to the
    // objective; skip them.
    if (e.var_a == invalid_var && e.var_b == invalid_var) return;
    edges_.push_back(e);
}

void quadratic_system::collect_edges() {
    for (net_id ni = 0; ni < nl_.num_nets(); ++ni) {
        const net& n = nl_.net_at(ni);
        const std::size_t k = n.degree();
        if (k < 2) continue;

        if (!use_star_model(options_, k)) {
            // Clique: k(k-1)/2 edges of weight w/k (paper, section 2.1).
            // The structural 1/k factor is stored; the (mutable) net weight
            // is read live in assemble() so timing-driven weight updates
            // take effect without re-collecting edges.
            const double w = clique_edge_weight(1.0, k);
            for (std::size_t a = 0; a < k; ++a) {
                for (std::size_t b = a + 1; b < k; ++b) {
                    add_edge_between_pins(n, a, b, w, ni);
                }
            }
        } else {
            // Star: one virtual center, k edges of weight w. Eliminating
            // the center reproduces the clique with weight w/k.
            const std::size_t center = num_vars_++;
            star_net_of_var_.push_back(ni);
            for (std::size_t a = 0; a < k; ++a) {
                const pin& p = n.pins[a];
                edge e{};
                e.weight = 1.0;
                e.source_net = ni;
                e.var_a = var_of_[p.cell];
                if (e.var_a == invalid_var) {
                    const cell& c = nl_.cell_at(p.cell);
                    e.fixed_ax = c.position.x + p.offset.x;
                    e.fixed_ay = c.position.y + p.offset.y;
                } else {
                    e.off_ax = p.offset.x;
                    e.off_ay = p.offset.y;
                }
                e.var_b = center;
                edges_.push_back(e);
            }
        }
    }
}

void quadratic_system::build_symbolic() {
    // The sparsity pattern is fixed by the edge topology: every edge
    // touches its endpoint diagonals and, when both endpoints are movable,
    // the symmetric off-diagonal pair. Collect the distinct (i, j)
    // positions once, freeze them as the shared x/y CSR pattern, and
    // record the value slot of every edge contribution so the numeric
    // refill is a flat accumulation loop.
    // (row, col) pairs pack into 64 bits, and columns into the pattern's
    // 32-bit indices.
    check_rows_fit_u32(num_vars_);
    std::vector<std::uint64_t> positions;
    positions.reserve(4 * edges_.size() + num_vars_);
    const auto pack = [](std::size_t i, std::size_t j) {
        return (static_cast<std::uint64_t>(i) << 32) | static_cast<std::uint64_t>(j);
    };
    for (std::size_t v = 0; v < num_vars_; ++v) positions.push_back(pack(v, v));
    for (const edge& e : edges_) {
        if (e.var_a != invalid_var && e.var_b != invalid_var) {
            positions.push_back(pack(e.var_a, e.var_b));
            positions.push_back(pack(e.var_b, e.var_a));
        }
    }
    std::sort(positions.begin(), positions.end());
    positions.erase(std::unique(positions.begin(), positions.end()), positions.end());

    std::vector<std::size_t> row_ptr(num_vars_ + 1, 0);
    std::vector<std::uint32_t> col_idx(positions.size());
    for (std::size_t k = 0; k < positions.size(); ++k) {
        const std::size_t i = static_cast<std::size_t>(positions[k] >> 32);
        col_idx[k] = static_cast<std::uint32_t>(positions[k] & 0xffffffffu);
        row_ptr[i + 1] = k + 1;
    }
    // Rows without entries inherit the previous row's end.
    for (std::size_t i = 1; i <= num_vars_; ++i) {
        row_ptr[i] = std::max(row_ptr[i], row_ptr[i - 1]);
    }

    pattern_ = csr_pattern(std::move(row_ptr), std::move(col_idx));
    ax_.assign(pattern_.nonzeros(), 0.0);
    ay_.assign(pattern_.nonzeros(), 0.0);

    diag_slot_.resize(num_vars_);
    for (std::size_t v = 0; v < num_vars_; ++v) diag_slot_[v] = pattern_.slot(v, v);

    edge_slots_.resize(edges_.size());
    for (std::size_t k = 0; k < edges_.size(); ++k) {
        const edge& e = edges_[k];
        edge_slots& s = edge_slots_[k];
        if (e.var_a != invalid_var && e.var_b != invalid_var) {
            s.aa = diag_slot_[e.var_a];
            s.bb = diag_slot_[e.var_b];
            s.ab = pattern_.slot(e.var_a, e.var_b);
            s.ba = pattern_.slot(e.var_b, e.var_a);
        } else {
            const std::size_t v = e.var_a != invalid_var ? e.var_a : e.var_b;
            s.aa = diag_slot_[v];
            s.bb = s.ab = s.ba = csr_pattern::npos;
        }
    }
}

void quadratic_system::compute_variable_positions(const placement& pl,
                                                  std::vector<point>& out) const {
    out.resize(num_vars_);
    for (std::size_t v = 0; v < movable_.size(); ++v) out[v] = pl[movable_[v]];
    for (std::size_t sv = 0; sv < star_net_of_var_.size(); ++sv) {
        const net& n = nl_.net_at(star_net_of_var_[sv]);
        point c;
        for (const pin& p : n.pins) c += pin_position(nl_, pl, p);
        c *= 1.0 / static_cast<double>(n.degree());
        out[movable_.size() + sv] = c;
    }
}

void quadratic_system::assemble(const placement& current) {
    GPF_CHECK(current.size() == nl_.num_cells());

    // Current position of every variable (star centers at their net's pin
    // centroid) — needed only for the linearization lengths.
    compute_variable_positions(current, var_pos_);

    const double eps =
        options_.min_length_fraction * (nl_.region().width() + nl_.region().height());

    // Numeric refill of the fixed symbolic pattern: zero the value arrays,
    // accumulate every edge in collection order (a serial loop — the
    // summation order is part of the determinism contract), then add the
    // anchors. Net weights are read live so timing-driven weight updates
    // take effect without re-collecting edges.
    std::vector<double>& vx = ax_;
    std::vector<double>& vy = ay_;
    std::fill(vx.begin(), vx.end(), 0.0);
    std::fill(vy.begin(), vy.end(), 0.0);
    bx_.assign(num_vars_, 0.0);
    by_.assign(num_vars_, 0.0);

    // Stiffness yardstick for the floating-component anchor, computed from
    // the *nets* (clique-equivalent total 2·w·(k−1) per net touching a
    // movable cell), never from the decomposed edges: the star and clique
    // forms of the same netlist must produce bitwise-identical anchors, or
    // the exact model equivalence (star center eliminated == 1/k clique)
    // breaks for floating components.
    double stiffness_acc = 0.0;
    for (net_id ni = 0; ni < nl_.num_nets(); ++ni) {
        const net& n = nl_.net_at(ni);
        if (n.degree() < 2) continue;
        bool touches_movable = false;
        for (const pin& p : n.pins) {
            if (!nl_.cell_at(p.cell).fixed) {
                touches_movable = true;
                break;
            }
        }
        if (!touches_movable) continue;
        stiffness_acc += 2.0 * n.weight * static_cast<double>(n.degree() - 1);
    }

    for (std::size_t k = 0; k < edges_.size(); ++k) {
        const edge& e = edges_[k];
        const edge_slots& s = edge_slots_[k];

        // Endpoint positions for the linearization length.
        const point pa = e.var_a == invalid_var
                             ? point(e.fixed_ax, e.fixed_ay)
                             : var_pos_[e.var_a] + point(e.off_ax, e.off_ay);
        const point pb = e.var_b == invalid_var
                             ? point(e.fixed_bx, e.fixed_by)
                             : var_pos_[e.var_b] + point(e.off_bx, e.off_by);

        const double base = e.weight * nl_.net_at(e.source_net).weight;
        double wx = base;
        double wy = base;
        if (options_.linearize) {
            wx = linear_weight(base, pa.x - pb.x, eps);
            wy = linear_weight(base, pa.y - pb.y, eps);
        }

        if (e.var_a != invalid_var && e.var_b != invalid_var) {
            vx[s.aa] += wx;
            vx[s.bb] += wx;
            vx[s.ab] -= wx;
            vx[s.ba] -= wx;
            vy[s.aa] += wy;
            vy[s.bb] += wy;
            vy[s.ab] -= wy;
            vy[s.ba] -= wy;
            const double dx = e.off_ax - e.off_bx;
            const double dy = e.off_ay - e.off_by;
            bx_[e.var_a] += wx * dx;
            bx_[e.var_b] -= wx * dx;
            by_[e.var_a] += wy * dy;
            by_[e.var_b] -= wy * dy;
        } else {
            // Exactly one endpoint movable.
            const bool a_movable = e.var_a != invalid_var;
            const std::size_t v = a_movable ? e.var_a : e.var_b;
            const double off_x = a_movable ? e.off_ax : e.off_bx;
            const double off_y = a_movable ? e.off_ay : e.off_by;
            const double fixed_x = a_movable ? e.fixed_bx : e.fixed_ax;
            const double fixed_y = a_movable ? e.fixed_by : e.fixed_ay;
            vx[s.aa] += wx;
            vy[s.aa] += wy;
            bx_[v] += wx * (off_x - fixed_x);
            by_[v] += wy * (off_y - fixed_y);
        }
    }

    // Cell variables in floating components (no fixed endpoint reachable)
    // get a weak anchor to the region center so their equilibrium is well
    // defined; everything else gets a tiny regularization for positive
    // definiteness. Star centers are never anchored: a floating center is
    // held by its edges to the (anchored) cells of its component, and an
    // anchor on the center would perturb the eliminated system away from
    // the exact 1/k clique.
    constexpr double kRegularization = 1e-9;
    const point center = nl_.region().center();
    const double mean = movable_.empty()
                            ? 0.0
                            : stiffness_acc / static_cast<double>(movable_.size());
    const double anchor = 1e-3 * std::max(1e-9, mean);
    for (std::size_t v = 0; v < num_vars_; ++v) {
        if (floating_[v] && v < movable_.size()) {
            vx[diag_slot_[v]] += anchor;
            vy[diag_slot_[v]] += anchor;
            bx_[v] += anchor * -center.x;
            by_[v] += anchor * -center.y;
        } else {
            vx[diag_slot_[v]] += kRegularization;
            vy[diag_slot_[v]] += kRegularization;
        }
    }

    diag_x_.resize(num_vars_);
    diag_y_.resize(num_vars_);
    for (std::size_t v = 0; v < num_vars_; ++v) {
        diag_x_[v] = vx[diag_slot_[v]];
        diag_y_[v] = vy[diag_slot_[v]];
    }
    assembled_ = true;
}

const std::vector<double>& quadratic_system::diagonal_x() const {
    GPF_CHECK_MSG(assembled_, "assemble() must be called before diagonal_x()");
    return diag_x_;
}

const std::vector<double>& quadratic_system::diagonal_y() const {
    GPF_CHECK_MSG(assembled_, "assemble() must be called before diagonal_y()");
    return diag_y_;
}

placement quadratic_system::solve(const placement& start, const std::vector<double>& ex,
                                  const std::vector<double>& ey,
                                  const cg_options& options, cg_result* result_x,
                                  cg_result* result_y) const {
    GPF_CHECK_MSG(assembled_, "assemble() must be called before solve()");
    GPF_CHECK(start.size() == nl_.num_cells());
    GPF_CHECK(ex.empty() || ex.size() == num_vars_);
    GPF_CHECK(ey.empty() || ey.size() == num_vars_);

    // rhs = -(b + e)
    std::vector<double> rx(num_vars_), ry(num_vars_);
    for (std::size_t v = 0; v < num_vars_; ++v) {
        rx[v] = -(bx_[v] + (ex.empty() ? 0.0 : ex[v]));
        ry[v] = -(by_[v] + (ey.empty() ? 0.0 : ey[v]));
    }

    // Warm start from the current placement.
    std::vector<point> vp;
    compute_variable_positions(start, vp);
    std::vector<double> xs(num_vars_), ys(num_vars_);
    for (std::size_t v = 0; v < num_vars_; ++v) {
        xs[v] = vp[v].x;
        ys[v] = vp[v].y;
    }

    const auto [res_x, res_y] = cg_solve_pair(
        pattern_, {ax_, {}, diag_x_, rx, xs}, {ay_, {}, diag_y_, ry, ys}, options);
    if (result_x) *result_x = res_x;
    if (result_y) *result_y = res_y;

    placement out = start;
    for (std::size_t v = 0; v < movable_.size(); ++v) {
        out[movable_[v]] = point(xs[v], ys[v]);
    }
    return out;
}

double quadratic_system::objective(const placement& pl) const {
    GPF_CHECK_MSG(assembled_, "assemble() must be called before objective()");
    // Var positions including star centroids.
    std::vector<point> var_pos;
    compute_variable_positions(pl, var_pos);

    const double eps =
        options_.min_length_fraction * (nl_.region().width() + nl_.region().height());
    double acc = 0.0;
    for (const edge& e : edges_) {
        const point pa = e.var_a == invalid_var
                             ? point(e.fixed_ax, e.fixed_ay)
                             : var_pos[e.var_a] + point(e.off_ax, e.off_ay);
        const point pb = e.var_b == invalid_var
                             ? point(e.fixed_bx, e.fixed_by)
                             : var_pos[e.var_b] + point(e.off_bx, e.off_by);
        const double base = e.weight * nl_.net_at(e.source_net).weight;
        double wx = base;
        double wy = base;
        if (options_.linearize) {
            wx = linear_weight(base, pa.x - pb.x, eps);
            wy = linear_weight(base, pa.y - pb.y, eps);
        }
        acc += wx * (pa.x - pb.x) * (pa.x - pb.x) + wy * (pa.y - pb.y) * (pa.y - pb.y);
    }
    return acc;
}

std::vector<point> quadratic_system::variable_positions(const placement& pl) const {
    GPF_CHECK(pl.size() == nl_.num_cells());
    std::vector<point> pos;
    compute_variable_positions(pl, pos);
    return pos;
}

double quadratic_system::mean_stiffness() const {
    if (num_vars_ == 0) return 0.0;
    double acc = 0.0;
    for (const edge& e : edges_) {
        const double w = e.weight * nl_.net_at(e.source_net).weight;
        const int movable_ends =
            (e.var_a != invalid_var ? 1 : 0) + (e.var_b != invalid_var ? 1 : 0);
        acc += w * movable_ends;
    }
    return acc / static_cast<double>(num_vars_);
}

} // namespace gpf
