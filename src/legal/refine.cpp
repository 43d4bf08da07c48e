#include "legal/refine.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>

#include "core/metrics.hpp"
#include "legal/rows.hpp"
#include "util/check.hpp"
#include "verify/verify.hpp"

namespace gpf {

namespace {

/// The connectivity refinement reads, flattened once per call: for each
/// cell its nets of degree >= 2 in cell_nets() order (a CSR), for each net
/// its pin range as pointers into the netlist's own pin vector, and each
/// cell's width. A net's pins are read in place rather than copied, which
/// keeps the index at a few bytes per pin and the call's peak memory flat.
class pin_index {
public:
    explicit pin_index(const netlist& nl) {
        const auto& adjacency = nl.cell_nets();
        const auto& all_nets = nl.nets();
        pins_.reserve(all_nets.size());
        for (const net& n : all_nets) {
            pins_.push_back({n.pins.data(), n.pins.data() + n.pins.size()});
        }
        first_.reserve(nl.num_cells() + 1);
        nets_.reserve(nl.num_pins());
        widths_.reserve(nl.num_cells());
        first_.push_back(0);
        for (cell_id c = 0; c < nl.num_cells(); ++c) {
            // A degree-1 net contributes an exact +0.0 to every sum;
            // leaving it out leaves the sums unchanged.
            for (const net_id ni : adjacency[c]) {
                if (pins_[ni].end - pins_[ni].begin >= 2) nets_.push_back(ni);
            }
            first_.push_back(static_cast<std::uint32_t>(nets_.size()));
            widths_.push_back(nl.cells()[c].width);
        }
    }

    std::span<const net_id> nets_of(cell_id c) const {
        return {nets_.data() + first_[c], nets_.data() + first_[c + 1]};
    }
    std::span<const pin> pins_of(net_id n) const { return {pins_[n].begin, pins_[n].end}; }
    double width(cell_id c) const { return widths_[c]; }

private:
    struct pin_range {
        const pin* begin;
        const pin* end;
    };
    std::vector<std::uint32_t> first_; ///< per cell + 1: start in nets_
    std::vector<net_id> nets_;
    std::vector<pin_range> pins_;      ///< per net
    std::vector<double> widths_;       ///< per cell
};

/// A box opened at (+inf, +inf, -inf, -inf): the first grow() makes it the
/// degenerate box at that point, as expand_to() does for an empty rect.
rect open_box() {
    constexpr double inf = std::numeric_limits<double>::infinity();
    return {inf, inf, -inf, -inf};
}

/// expand_to() on a box that holds a point, without its empty() branch.
void grow(rect& box, const point& q) {
    box.xlo = std::min(box.xlo, q.x);
    box.ylo = std::min(box.ylo, q.y);
    box.xhi = std::max(box.xhi, q.x);
    box.yhi = std::max(box.yhi, q.y);
}

/// half_perimeter() of a box that holds a point (every box a move sums
/// holds the moving cell's pins), without the empty() tests.
double half_perimeter(const rect& box) { return (box.xhi - box.xlo) + (box.yhi - box.ylo); }

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

    void gather(const pin_index& index, const placement& pl, cell_id c,
                cell_id other = invalid_cell) {
        cell = c;
        nets.clear();
        offsets.clear();
        for (const net_id ni : index.nets_of(c)) {
            net_box& e = nets.emplace_back(ni, false, open_box(), open_box(),
                                           static_cast<std::uint32_t>(offsets.size()), 0u);
            for (const pin& p : index.pins_of(ni)) {
                if (p.cell == c) {
                    offsets.push_back(p.offset);
                    continue;
                }
                // pin_position() without its bounds check: add_net
                // validated p.cell and pl holds one point per cell.
                const point q = pl[p.cell] + p.offset;
                grow(e.rest, q);
                if (p.cell == other) {
                    e.shared = true;
                } else {
                    grow(e.rest_of_pair, q);
                }
            }
            e.pin_end = static_cast<std::uint32_t>(offsets.size());
        }
    }

    /// The box of net entry `k` grown by the cell's pins at `p`.
    void extend(rect& box, std::size_t k, const point& p) const {
        for (std::uint32_t i = nets[k].pin_begin; i < nets[k].pin_end; ++i) {
            grow(box, p + offsets[i]);
        }
    }

    /// Σ HPWL of the cell's nets with the cell at `p`.
    double hpwl(const point& p) const {
        double acc = 0.0;
        for (std::size_t k = 0; k < nets.size(); ++k) {
            rect box = nets[k].rest;
            extend(box, k, p);
            acc += half_perimeter(box);
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

    void load(const pin_index& index, const placement& pl, cell_id a, cell_id b) {
        if (left_.cell != a) left_.gather(index, pl, a);
        right_.gather(index, pl, b, a);
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
            acc += half_perimeter(box);
        }
        for (std::size_t j = 0; j < right_.nets.size(); ++j) {
            if (right_.nets[j].shared) continue;
            rect box = right_.nets[j].rest;
            right_.extend(box, j, pb);
            acc += half_perimeter(box);
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
/// The segments are ascending and disjoint, and within one segment the
/// cursor only moves right, so the gaps come out ascending and disjoint.
void row_gaps(const pin_index& index, const placement& pl, const placement_row& row_geom,
              const std::vector<cell_id>& row_cells, std::vector<gap>& gaps) {
    gaps.clear();
    for (const row_segment& seg : row_geom.segments) {
        double cursor = seg.xlo;
        for (const cell_id id : row_cells) {
            const double w = index.width(id);
            const double lo = pl[id].x - w / 2;
            const double hi = pl[id].x + w / 2;
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
    const pin_index index(nl);
    constexpr double kEps = 1e-9;
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
                    const double wa = index.width(a);
                    const double wb = index.width(b);
                    const double a_lo = pl[a].x - wa / 2;
                    const double b_hi = pl[b].x + wb / 2;
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
                    const double gap_w = (pl[b].x - wb / 2) - (pl[a].x + wa / 2);
                    // Re-packed swap: b first, then the original gap, then a.
                    const point new_b(a_lo + wb / 2, pl[b].y);
                    const point new_a(a_lo + wb + gap_w + wa / 2, pl[a].y);
                    pair.load(index, pl, a, b);
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
            // Only gaps within window_x + margin of the cell can pass the
            // window test. A gap beyond that reach puts every candidate
            // more than window_x + margin from the cell, so the exact test
            // would reject it too; the margin (one row height) lies far
            // above the rounding of the reach's own sum.
            const double reach = window_x + nl.row_height();
            // Each row's gaps are computed once per pass; an accepted
            // relocation only changes its source and destination rows.
            for (std::size_t r = 0; r < order.cells.size(); ++r) {
                row_gaps(index, pl, rows.row(r), order.cells[r], gaps[r]);
            }
            for (std::size_t r = 0; r < order.cells.size(); ++r) {
                // Iterate over a snapshot; relocation edits the row lists.
                snapshot = order.cells[r];
                for (const cell_id id : snapshot) {
                    const double w = index.width(id);
                    const point old_pos = pl[id];
                    const double reach_lo = old_pos.x - reach;
                    const double reach_hi = old_pos.x + reach;
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
                        // over itself or other cells. They are ascending
                        // and disjoint: skip those that end left of the
                        // reach, stop at the first that starts right of it.
                        const std::vector<gap>& row = gaps[rr];
                        auto it = std::partition_point(
                            row.begin(), row.end(),
                            [&](const gap& g) { return g.xhi < reach_lo; });
                        for (; it != row.end() && !(it->xlo > reach_hi); ++it) {
                            const gap& g = *it;
                            if (g.width() < w) continue;
                            const double x = std::clamp(old_pos.x, g.xlo + w / 2, g.xhi - w / 2);
                            if (std::abs(x - old_pos.x) > window_x) continue;
                            if (!gathered) {
                                mover.gather(index, pl, id);
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
                            row_gaps(index, pl, rows.row(r), from, gaps[r]);
                            row_gaps(index, pl, rows.row(best_row), to, gaps[best_row]);
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
