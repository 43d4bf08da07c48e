#include "model/quadratic_system.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "util/check.hpp"
#include "util/thread_pool.hpp"

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
    // Variables, edges and pattern slots are 32-bit indices; edges leave
    // two bits for the incidence role.
    check_rows_fit_u32(num_vars_);
    GPF_CHECK_MSG(edges_.size() < (std::size_t{1} << 30),
                  "placement system of " << edges_.size() << " edges is too large");
    find_floating_variables();
    build_symbolic();
}

void quadratic_system::find_floating_variables() {
    // Union-find over variables; components containing a fixed endpoint are
    // grounded, the rest float and need an anchor.
    std::vector<std::uint32_t> parent(num_vars_);
    for (std::size_t v = 0; v < num_vars_; ++v) parent[v] = static_cast<std::uint32_t>(v);
    const auto find = [&parent](std::uint32_t v) {
        while (parent[v] != v) {
            parent[v] = parent[parent[v]];
            v = parent[v];
        }
        return v;
    };
    std::vector<char> grounded(num_vars_, 0);
    for (const edge& e : edges_) {
        if (e.var_b == fixed_end) {
            grounded[e.var_a] = 1;
        } else {
            parent[find(e.var_a)] = find(e.var_b);
        }
    }
    std::vector<char> root_grounded(num_vars_, 0);
    for (std::uint32_t v = 0; v < num_vars_; ++v) {
        if (grounded[v]) root_grounded[find(v)] = 1;
    }
    floating_.assign(num_vars_, 0);
    for (std::uint32_t v = 0; v < num_vars_; ++v) {
        if (!root_grounded[find(v)]) floating_[v] = 1;
    }
}

void quadratic_system::add_edge(std::size_t var_a, point pos_a, std::size_t var_b,
                                point pos_b, double weight, net_id ni) {
    // Edges between two fixed endpoints only add a constant to the
    // objective; skip them. A single movable endpoint always goes to a:
    // swapping the ends negates dx and dy exactly, so the weights, the
    // objective and the rhs term (below) keep their bits.
    if (var_a == invalid_var && var_b == invalid_var) return;
    if (var_a == invalid_var) {
        std::swap(var_a, var_b);
        std::swap(pos_a, pos_b);
    }
    edge e{};
    e.var_a = static_cast<std::uint32_t>(var_a);
    e.var_b = var_b == invalid_var ? fixed_end : static_cast<std::uint32_t>(var_b);
    e.source_net = ni;
    e.ax = pos_a.x;
    e.ay = pos_a.y;
    e.bx = pos_b.x;
    e.by = pos_b.y;
    e.weight = weight;
    edges_.push_back(e);
}

void quadratic_system::collect_edges() {
    // A movable pin contributes its offset, a fixed one its absolute
    // position.
    const auto pin_end = [this](const pin& p) {
        const std::size_t v = var_of_[p.cell];
        return v == invalid_var ? nl_.cell_at(p.cell).position + p.offset : p.offset;
    };
    for (net_id ni = 0; ni < nl_.num_nets(); ++ni) {
        const net& n = nl_.net_at(ni);
        const std::size_t k = n.degree();
        if (k < 2) continue;
        const bool touches_movable = std::any_of(
            n.pins.begin(), n.pins.end(),
            [this](const pin& p) { return var_of_[p.cell] != invalid_var; });
        if (touches_movable) stiffness_nets_.push_back(ni);

        if (!use_star_model(options_, k)) {
            // Clique: k(k-1)/2 edges of weight w/k (paper, section 2.1).
            // The structural 1/k factor is stored; the (mutable) net weight
            // is read live in assemble() so timing-driven weight updates
            // take effect without re-collecting edges.
            const double w = clique_edge_weight(1.0, k);
            for (std::size_t a = 0; a < k; ++a) {
                for (std::size_t b = a + 1; b < k; ++b) {
                    add_edge(var_of_[n.pins[a].cell], pin_end(n.pins[a]),
                             var_of_[n.pins[b].cell], pin_end(n.pins[b]), w, ni);
                }
            }
        } else {
            // Star: one virtual center, k edges of weight w. Eliminating
            // the center reproduces the clique with weight w/k.
            const std::size_t center = num_vars_++;
            star_net_of_var_.push_back(ni);
            for (const pin& p : n.pins) {
                add_edge(var_of_[p.cell], pin_end(p), center, point(), 1.0, ni);
            }
        }
    }
}

void quadratic_system::build_symbolic() {
    // The sparsity pattern is fixed by the edge topology: every edge
    // touches its endpoint diagonals and, when both endpoints are distinct
    // variables, the symmetric off-diagonal pair. The row incidence index
    // lists each variable's edges in edge order (a counting sort); each
    // row's pattern is then {v} ∪ its neighbours, sorted and unique, and
    // the numeric refill reads its value slots from the index.
    const std::size_t n = num_vars_;
    incidence_ptr_.assign(n + 1, 0);
    for (const edge& e : edges_) {
        ++incidence_ptr_[e.var_a + 1];
        if (e.var_b != fixed_end && e.var_b != e.var_a) ++incidence_ptr_[e.var_b + 1];
    }
    for (std::size_t v = 0; v < n; ++v) incidence_ptr_[v + 1] += incidence_ptr_[v];

    // Fill in edge order. Until the pattern exists, an end entry's slot
    // field holds the other endpoint.
    incidence_.resize(incidence_ptr_[n]);
    std::vector<std::size_t> cursor(incidence_ptr_.begin(), incidence_ptr_.end() - 1);
    for (std::size_t k = 0; k < edges_.size(); ++k) {
        const edge& e = edges_[k];
        const auto key = static_cast<std::uint32_t>(k << 2);
        if (e.var_b == fixed_end) {
            incidence_[cursor[e.var_a]++] = {key | role_single, 0};
        } else if (e.var_b == e.var_a) {
            incidence_[cursor[e.var_a]++] = {key | role_self, 0};
        } else {
            incidence_[cursor[e.var_a]++] = {key | role_end_a, e.var_b};
            incidence_[cursor[e.var_b]++] = {key | role_end_b, e.var_a};
        }
    }

    // Per row, sorted unique columns into a workspace of the row's
    // entry count + 1 (the diagonal), at offset incidence_ptr_[v] + v.
    const auto is_end = [](const incidence& in) {
        const std::uint32_t role = in.key & 3u;
        return role == role_end_a || role == role_end_b;
    };
    std::vector<std::uint32_t> cols(incidence_.size() + n);
    std::vector<std::size_t> row_ptr(n + 1, 0);
    constexpr std::size_t kRowGrain = 512;
    parallel_for_chunks(n, [&](std::size_t begin, std::size_t end) {
        for (std::size_t v = begin; v < end; ++v) {
            std::uint32_t* const row = cols.data() + incidence_ptr_[v] + v;
            std::uint32_t* out = row;
            *out++ = static_cast<std::uint32_t>(v);
            for (std::size_t i = incidence_ptr_[v]; i < incidence_ptr_[v + 1]; ++i) {
                if (is_end(incidence_[i])) *out++ = incidence_[i].slot;
            }
            std::sort(row, out);
            row_ptr[v + 1] = static_cast<std::size_t>(std::unique(row, out) - row);
        }
    }, kRowGrain);
    for (std::size_t v = 0; v < n; ++v) row_ptr[v + 1] += row_ptr[v];
    GPF_CHECK_MSG(row_ptr[n] < (std::size_t{1} << 32),
                  "placement system of " << row_ptr[n] << " nonzeros is too large");

    // Compact the rows and resolve every slot by binary search in its row.
    std::vector<std::uint32_t> col_idx(row_ptr[n]);
    diag_slot_.resize(n);
    parallel_for_chunks(n, [&](std::size_t begin, std::size_t end) {
        for (std::size_t v = begin; v < end; ++v) {
            const std::uint32_t* const row = cols.data() + incidence_ptr_[v] + v;
            const std::size_t len = row_ptr[v + 1] - row_ptr[v];
            std::copy(row, row + len, col_idx.begin() + static_cast<std::ptrdiff_t>(row_ptr[v]));
            const auto slot_of = [&](std::uint32_t col) {
                return row_ptr[v] + static_cast<std::size_t>(
                                        std::lower_bound(row, row + len, col) - row);
            };
            diag_slot_[v] = slot_of(static_cast<std::uint32_t>(v));
            for (std::size_t i = incidence_ptr_[v]; i < incidence_ptr_[v + 1]; ++i) {
                incidence& in = incidence_[i];
                if (is_end(in)) in.slot = static_cast<std::uint32_t>(slot_of(in.slot));
            }
        }
    }, kRowGrain);

    pattern_ = csr_pattern(std::move(row_ptr), std::move(col_idx));
    ax_.assign(pattern_.nonzeros(), 0.0);
    ay_.assign(pattern_.nonzeros(), 0.0);
}

void quadratic_system::compute_variable_positions(const placement& pl,
                                                  std::vector<point>& out) const {
    out.resize(num_vars_);
    const std::size_t num_movable = movable_.size();
    parallel_for_chunks(num_vars_, [&](std::size_t begin, std::size_t end) {
        for (std::size_t v = begin; v < end; ++v) {
            if (v < num_movable) {
                out[v] = pl[movable_[v]];
                continue;
            }
            const net& n = nl_.net_at(star_net_of_var_[v - num_movable]);
            point c;
            for (const pin& p : n.pins) c += pin_position(nl_, pl, p);
            c *= 1.0 / static_cast<double>(n.degree());
            out[v] = c;
        }
    }, 4096);
}

void quadratic_system::assemble(const placement& current) {
    GPF_CHECK(current.size() == nl_.num_cells());

    // Current position of every variable (star centers at their net's pin
    // centroid) — needed only for the linearization lengths.
    compute_variable_positions(current, var_pos_);

    const double eps =
        options_.min_length_fraction * (nl_.region().width() + nl_.region().height());

    // Pass 1, over edges: linearized weights and rhs terms. Net weights
    // are read live so timing-driven weight updates take effect without
    // re-collecting edges.
    edge_terms_.resize(4 * edges_.size());
    parallel_for_chunks(edges_.size(), [&](std::size_t begin, std::size_t end) {
        for (std::size_t k = begin; k < end; ++k) {
            const edge& e = edges_[k];
            const point pa = var_pos_[e.var_a] + point(e.ax, e.ay);
            const point pb = e.var_b == fixed_end ? point(e.bx, e.by)
                                                  : var_pos_[e.var_b] + point(e.bx, e.by);
            const double base = e.weight * nl_.net_at(e.source_net).weight;
            double wx = base;
            double wy = base;
            if (options_.linearize) {
                wx = linear_weight(base, pa.x - pb.x, eps);
                wy = linear_weight(base, pa.y - pb.y, eps);
            }
            double* const t = edge_terms_.data() + 4 * k;
            t[0] = wx;
            t[1] = wy;
            t[2] = wx * (e.ax - e.bx);
            t[3] = wy * (e.ay - e.by);
        }
    }, 4096);

    // Stiffness yardstick for the floating-component anchor, computed from
    // the *nets* (clique-equivalent total 2·w·(k−1) per net touching a
    // movable cell), never from the decomposed edges: the star and clique
    // forms of the same netlist must produce bitwise-identical anchors, or
    // the exact model equivalence (star center eliminated == 1/k clique)
    // breaks for floating components.
    double stiffness_acc = 0.0;
    for (const net_id ni : stiffness_nets_) {
        const net& n = nl_.net_at(ni);
        stiffness_acc += 2.0 * n.weight * static_cast<double>(n.degree() - 1);
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

    // Pass 2, over rows: each row owns its value slots, rhs and diagonal
    // and sums its edges in edge order from +0.0, anchor last — the same
    // addends in the same order as a serial edge-order scatter, so the
    // bits do not depend on the thread count. A self-edge replays the
    // scatter's four diagonal updates (+w, +w, −w, −w) and its rhs pair.
    bx_.resize(num_vars_);
    by_.resize(num_vars_);
    diag_x_.resize(num_vars_);
    diag_y_.resize(num_vars_);
    const std::vector<std::size_t>& row_ptr = pattern_.row_ptr;
    parallel_for_chunks(num_vars_, [&](std::size_t begin, std::size_t end) {
        for (std::size_t v = begin; v < end; ++v) {
            std::fill(ax_.begin() + static_cast<std::ptrdiff_t>(row_ptr[v]),
                      ax_.begin() + static_cast<std::ptrdiff_t>(row_ptr[v + 1]), 0.0);
            std::fill(ay_.begin() + static_cast<std::ptrdiff_t>(row_ptr[v]),
                      ay_.begin() + static_cast<std::ptrdiff_t>(row_ptr[v + 1]), 0.0);
            double dx = 0.0;
            double dy = 0.0;
            double rx = 0.0;
            double ry = 0.0;
            for (std::size_t i = incidence_ptr_[v]; i < incidence_ptr_[v + 1]; ++i) {
                const incidence in = incidence_[i];
                const double* const t = edge_terms_.data() + 4 * (in.key >> 2);
                const std::uint32_t role = in.key & 3u;
                if (role == role_self) {
                    dx += t[0];
                    dx += t[0];
                    dx -= t[0];
                    dx -= t[0];
                    dy += t[1];
                    dy += t[1];
                    dy -= t[1];
                    dy -= t[1];
                    rx += t[2];
                    rx -= t[2];
                    ry += t[3];
                    ry -= t[3];
                    continue;
                }
                dx += t[0];
                dy += t[1];
                if (role != role_single) {
                    ax_[in.slot] -= t[0];
                    ay_[in.slot] -= t[1];
                }
                if (role == role_end_b) {
                    rx -= t[2];
                    ry -= t[3];
                } else {
                    rx += t[2];
                    ry += t[3];
                }
            }
            if (floating_[v] && v < movable_.size()) {
                dx += anchor;
                dy += anchor;
                rx += anchor * -center.x;
                ry += anchor * -center.y;
            } else {
                dx += kRegularization;
                dy += kRegularization;
            }
            ax_[diag_slot_[v]] = dx;
            ay_[diag_slot_[v]] = dy;
            diag_x_[v] = dx;
            diag_y_[v] = dy;
            bx_[v] = rx;
            by_[v] = ry;
        }
    }, 256);
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
        const point pa = var_pos[e.var_a] + point(e.ax, e.ay);
        const point pb = e.var_b == fixed_end ? point(e.bx, e.by)
                                              : var_pos[e.var_b] + point(e.bx, e.by);
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
        const int movable_ends = e.var_b == fixed_end ? 1 : 2;
        acc += w * movable_ends;
    }
    return acc / static_cast<double>(num_vars_);
}

} // namespace gpf
