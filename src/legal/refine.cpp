#include "legal/refine.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "core/metrics.hpp"
#include "legal/rows.hpp"
#include "util/check.hpp"
#include "verify/verify.hpp"

namespace gpf {

namespace {

/// The nets incident to one cell, with what a move of that cell needs: for
/// each net (cell_nets() order, which lists a net once per cell) the
/// bounding box over the pins of all *other* cells, and the offsets of the
/// cell's own pins. hpwl() extends each box by the cell's pins at a
/// candidate position. Min and max are exact, so every extended box has
/// the bounds of the box over all pins, and the half-perimeters are summed
/// in net order: the result is the same double a from-scratch sum over
/// the incident nets gives. gather() can also leave out a second cell
/// (the left cell of a swap): nets shared with it then carry a second box
/// over the pins of neither. The buffers are reused across moves.
struct cell_boxes {
    struct net_box {
        net_id net;
        bool shared;           ///< the net has a pin of the other cell
        rect rest;             ///< over the pins of all other cells
        rect rest_of_pair;     ///< over the pins of neither cell
        std::uint32_t pin_begin; ///< this net's range of `offsets`
        std::uint32_t pin_end;
    };
    cell_id cell = invalid_cell;
    std::vector<net_box> nets;
    std::vector<point> offsets;

    void gather(const netlist& nl, const placement& pl, cell_id c,
                cell_id other = invalid_cell) {
        cell = c;
        nets.clear();
        offsets.clear();
        const auto& all_nets = nl.nets();
        for (const net_id ni : nl.cell_nets()[c]) {
            const net& n = all_nets[ni];
            // A degree-1 net contributes an exact +0.0; skipping it leaves
            // the sum unchanged.
            if (n.degree() < 2) continue;
            net_box e{ni, false, rect{}, rect{}, static_cast<std::uint32_t>(offsets.size()), 0};
            for (const pin& p : n.pins) {
                if (p.cell == c) {
                    offsets.push_back(p.offset);
                    continue;
                }
                // pin_position() without its bounds check: add_net
                // validated p.cell and pl holds one point per cell.
                const point q = pl[p.cell] + p.offset;
                e.rest.expand_to(q);
                if (p.cell == other) {
                    e.shared = true;
                } else {
                    e.rest_of_pair.expand_to(q);
                }
            }
            e.pin_end = static_cast<std::uint32_t>(offsets.size());
            nets.push_back(e);
        }
    }

    /// The box of net entry `k` grown by the cell's pins at `p`.
    void extend(rect& box, std::size_t k, const point& p) const {
        for (std::uint32_t i = nets[k].pin_begin; i < nets[k].pin_end; ++i) {
            box.expand_to(p + offsets[i]);
        }
    }

    /// Σ HPWL of the cell's nets with the cell at `p`.
    double hpwl(const point& p) const {
        double acc = 0.0;
        for (std::size_t k = 0; k < nets.size(); ++k) {
            rect box = nets[k].rest;
            extend(box, k, p);
            acc += box.half_perimeter();
        }
        return acc;
    }
};

/// Net boxes for the swap sweep along one row. A pair (a, b) sums a's nets
/// in order, then b's nets not shared with a: the order of a from-scratch
/// sum over {a, b} that counts a shared net once. Consecutive pairs share
/// a cell, so the right cell's boxes become the next pair's left boxes;
/// when the pair swaps, only the nets a shares with b need new boxes.
class swap_boxes {
public:
    /// Start a row: no cached left cell.
    void reset() { left_.cell = invalid_cell; }

    void load(const netlist& nl, const placement& pl, cell_id a, cell_id b) {
        if (left_.cell != a) left_.gather(nl, pl, a);
        right_.gather(nl, pl, b, a);
        match_.clear();
        for (const cell_boxes::net_box& e : left_.nets) {
            std::size_t j = 0;
            while (j < right_.nets.size() && right_.nets[j].net != e.net) ++j;
            match_.push_back(j < right_.nets.size() ? j : kNone);
        }
    }

    /// Σ HPWL of the pair's nets with a at `pa` and b at `pb`.
    double hpwl(const point& pa, const point& pb) const {
        double acc = 0.0;
        for (std::size_t k = 0; k < left_.nets.size(); ++k) {
            const std::size_t j = match_[k];
            rect box = j == kNone ? left_.nets[k].rest : right_.nets[j].rest_of_pair;
            left_.extend(box, k, pa);
            if (j != kNone) right_.extend(box, j, pb);
            acc += box.half_perimeter();
        }
        for (std::size_t j = 0; j < right_.nets.size(); ++j) {
            if (right_.nets[j].shared) continue;
            rect box = right_.nets[j].rest;
            right_.extend(box, j, pb);
            acc += box.half_perimeter();
        }
        return acc;
    }

    /// The pair was swapped with b now at `pb`; a is the next pair's left
    /// cell, and its shared nets now see b's pins at their new place.
    void swapped(const point& pb) {
        for (std::size_t k = 0; k < left_.nets.size(); ++k) {
            const std::size_t j = match_[k];
            if (j == kNone) continue;
            rect box = right_.nets[j].rest_of_pair;
            right_.extend(box, j, pb);
            left_.nets[k].rest = box;
        }
    }

    /// The pair was kept; b is the next pair's left cell.
    void kept() { std::swap(left_, right_); }

private:
    static constexpr std::size_t kNone = static_cast<std::size_t>(-1);
    cell_boxes left_;
    cell_boxes right_;
    std::vector<std::size_t> match_; ///< per left net: right entry or kNone
};

struct row_order {
    std::vector<std::vector<cell_id>> cells; ///< per row, sorted by x
};

row_order build_row_order(const netlist& nl, const placement& pl,
                          const row_model& rows) {
    row_order order;
    order.cells.resize(rows.num_rows());
    for (cell_id i = 0; i < nl.num_cells(); ++i) {
        const cell& c = nl.cell_at(i);
        if (c.fixed || c.kind != cell_kind::standard) continue;
        order.cells[rows.nearest_row(pl[i].y)].push_back(i);
    }
    for (auto& row : order.cells) {
        std::sort(row.begin(), row.end(),
                  [&](cell_id a, cell_id b) { return pl[a].x < pl[b].x; });
    }
    return order;
}

struct gap {
    double xlo;
    double xhi;
    double width() const { return xhi - xlo; }
};

/// Free intervals of one row (its segments minus its cells), into `gaps`.
void row_gaps(const netlist& nl, const placement& pl, const placement_row& row_geom,
              const std::vector<cell_id>& row_cells, std::vector<gap>& gaps) {
    gaps.clear();
    const auto& cells = nl.cells();
    for (const row_segment& seg : row_geom.segments) {
        double cursor = seg.xlo;
        for (const cell_id id : row_cells) {
            const cell& c = cells[id];
            const double lo = pl[id].x - c.width / 2;
            const double hi = pl[id].x + c.width / 2;
            if (hi <= seg.xlo || lo >= seg.xhi) continue;
            if (lo > cursor) gaps.push_back({cursor, lo});
            cursor = std::max(cursor, hi);
        }
        if (cursor < seg.xhi) gaps.push_back({cursor, seg.xhi});
    }
}

} // namespace

refine_result refine_detailed(const netlist& nl, placement& pl,
                              const refine_options& options) {
    GPF_CHECK(pl.size() == nl.num_cells());
    refine_result result;
    result.hpwl_before = total_hpwl(nl, pl);

    const row_model rows(nl, pl, /*treat_blocks_as_obstacles=*/true);
    row_order order = build_row_order(nl, pl, rows);
    constexpr double kEps = 1e-9;
    const auto& cells = nl.cells();
    swap_boxes pair;
    cell_boxes mover;
    std::vector<std::vector<gap>> gaps(order.cells.size());
    std::vector<cell_id> snapshot;

    for (std::size_t pass = 0; pass < options.max_passes; ++pass) {
        bool improved = false;

        // --- adjacent swaps -------------------------------------------------
        if (options.enable_swaps) {
            for (std::size_t ri = 0; ri < order.cells.size(); ++ri) {
                auto& row = order.cells[ri];
                const placement_row& geom = rows.row(ri);
                pair.reset();
                for (std::size_t i = 0; i + 1 < row.size(); ++i) {
                    const cell_id a = row[i];
                    const cell_id b = row[i + 1];
                    const cell& ca = cells[a];
                    const cell& cb = cells[b];
                    const double a_lo = pl[a].x - ca.width / 2;
                    const double b_hi = pl[b].x + cb.width / 2;
                    // The re-packed pair spans [a_lo, b_hi]; it must lie in
                    // one free segment, otherwise the swap would push a
                    // cell into a blockage between the two.
                    bool in_one_segment = false;
                    for (const row_segment& seg : geom.segments) {
                        if (a_lo >= seg.xlo - 1e-9 && b_hi <= seg.xhi + 1e-9) {
                            in_one_segment = true;
                            break;
                        }
                    }
                    if (!in_one_segment) continue;
                    const double gap_w = (pl[b].x - cb.width / 2) - (pl[a].x + ca.width / 2);
                    // Re-packed swap: b first, then the original gap, then a.
                    const point new_b(a_lo + cb.width / 2, pl[b].y);
                    const point new_a(a_lo + cb.width + gap_w + ca.width / 2, pl[a].y);
                    pair.load(nl, pl, a, b);
                    const double before = pair.hpwl(pl[a], pl[b]);
                    const double after = pair.hpwl(new_a, new_b);
                    if (after < before - kEps) {
                        pl[a] = new_a;
                        pl[b] = new_b;
                        std::swap(row[i], row[i + 1]);
                        pair.swapped(new_b);
                        ++result.swaps;
                        improved = true;
                    } else {
                        pair.kept();
                    }
                }
            }
        }

        // --- relocations into free gaps -------------------------------------
        if (options.enable_relocation) {
            const double window_x = options.window_width * nl.row_height();
            // Each row's gaps are computed once per pass; an accepted
            // relocation only changes its source and destination rows.
            for (std::size_t r = 0; r < order.cells.size(); ++r) {
                row_gaps(nl, pl, rows.row(r), order.cells[r], gaps[r]);
            }
            for (std::size_t r = 0; r < order.cells.size(); ++r) {
                // Iterate over a snapshot; relocation edits the row lists.
                snapshot = order.cells[r];
                for (const cell_id id : snapshot) {
                    const cell& c = cells[id];
                    const point old_pos = pl[id];
                    // Most cells have no gap that fits within the window, so
                    // the net boxes are gathered at the first candidate.
                    bool gathered = false;
                    double before = 0.0;

                    double best_delta = -kEps;
                    point best_pos = old_pos;
                    std::size_t best_row = r;

                    const std::size_t rlo =
                        r >= options.window_rows ? r - options.window_rows : 0;
                    const std::size_t rhi =
                        std::min(order.cells.size() - 1, r + options.window_rows);
                    for (std::size_t rr = rlo; rr <= rhi; ++rr) {
                        const double row_y = rows.row_center(rr);
                        // The gaps were taken with the cell at its real
                        // position, so it never opens phantom free space
                        // over itself or other cells.
                        for (const gap& g : gaps[rr]) {
                            if (g.width() < c.width) continue;
                            const double x = std::clamp(old_pos.x, g.xlo + c.width / 2,
                                                        g.xhi - c.width / 2);
                            if (std::abs(x - old_pos.x) > window_x) continue;
                            if (!gathered) {
                                mover.gather(nl, pl, id);
                                before = mover.hpwl(old_pos);
                                gathered = true;
                            }
                            const point candidate(x, row_y);
                            const double delta = mover.hpwl(candidate) - before;
                            if (delta < best_delta) {
                                best_delta = delta;
                                best_pos = candidate;
                                best_row = rr;
                            }
                        }
                    }
                    if (best_row != r || !(best_pos == old_pos)) {
                        if (best_delta < -kEps) {
                            pl[id] = best_pos;
                            // Update row order structures.
                            auto& from = order.cells[r];
                            from.erase(std::find(from.begin(), from.end(), id));
                            auto& to = order.cells[best_row];
                            to.insert(std::upper_bound(to.begin(), to.end(), id,
                                                       [&](cell_id lhs, cell_id rhs) {
                                                           return pl[lhs].x < pl[rhs].x;
                                                       }),
                                      id);
                            row_gaps(nl, pl, rows.row(r), from, gaps[r]);
                            row_gaps(nl, pl, rows.row(best_row), to, gaps[best_row]);
                            ++result.relocations;
                            improved = true;
                        }
                    }
                }
            }
        }

        ++result.passes;
        if (!improved) break;
    }

    result.hpwl_after = total_hpwl(nl, pl);
    // Refinement postcondition (GPF_VERIFY=1): every accepted swap or
    // relocation must have preserved legality.
    checkpoint_legal_placement(nl, pl, "refine_detailed");
    return result;
}

} // namespace gpf
