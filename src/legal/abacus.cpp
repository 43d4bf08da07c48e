#include "legal/abacus.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/check.hpp"

namespace gpf {

namespace {

struct seg_cell {
    cell_id id;
    double target; ///< desired left edge from the global placement
    double width;
    double weight;
};

struct seg_cluster {
    double e = 0.0; ///< total weight
    double q = 0.0; ///< Σ w_i (target_i − offset_i)
    double w = 0.0; ///< total width
    double x = 0.0; ///< left edge
    std::size_t first = 0; ///< first cell index in the segment order
};

struct segment_state {
    double xlo = 0.0;
    double xhi = 0.0;
    double used = 0.0;
    std::vector<seg_cell> cells;
    std::vector<seg_cluster> clusters;
};

/// Where appending a cell at the right end of a segment (cells arrive in x
/// order) leaves its cluster stack: clusters [0, keep) are untouched and
/// `tail` replaces the rest. The classic Abacus collapse only ever merges
/// the last cluster into its predecessor, so the trial reads the stack
/// without copying it; commit() then applies the result.
struct tail_insertion {
    seg_cluster tail;
    std::size_t keep = 0;
    double center = 0.0; ///< final center x of the appended cell
};

/// Merge cluster `c` into its predecessor `prev`.
void merge_into(seg_cluster& prev, const seg_cluster& c) {
    prev.q += c.q - c.e * prev.w;
    prev.e += c.e;
    prev.w += c.w;
}

tail_insertion insert_at_tail(const segment_state& seg, const seg_cell& c) {
    tail_insertion t;
    t.tail.e = c.weight;
    t.tail.q = c.weight * c.target;
    t.tail.w = c.width;
    t.tail.x = c.target;
    t.tail.first = seg.cells.size();
    t.keep = seg.clusters.size();
    // Overlapping the last cluster: merge with it immediately.
    if (t.keep > 0 &&
        seg.clusters[t.keep - 1].x + seg.clusters[t.keep - 1].w > c.target) {
        seg_cluster prev = seg.clusters[--t.keep];
        merge_into(prev, t.tail);
        t.tail = prev;
    }
    // Clamp into the segment and merge backwards while the tail overlaps
    // its predecessor.
    for (;;) {
        t.tail.x = std::clamp(t.tail.q / t.tail.e, seg.xlo, seg.xhi - t.tail.w);
        if (t.keep == 0) break;
        seg_cluster prev = seg.clusters[t.keep - 1];
        if (prev.x + prev.w <= t.tail.x) break;
        merge_into(prev, t.tail);
        t.tail = prev;
        --t.keep;
    }
    // The appended cell is the last one of the tail cluster.
    t.center = t.tail.x + t.tail.w - c.width + c.width / 2;
    return t;
}

void commit(segment_state& seg, const seg_cell& c, const tail_insertion& t) {
    seg.cells.push_back(c);
    seg.used += c.width;
    seg.clusters.resize(t.keep);
    seg.clusters.push_back(t.tail);
}

} // namespace

placement abacus_legalize(const netlist& nl, const placement& global,
                          const abacus_options& options) {
    GPF_CHECK(global.size() == nl.num_cells());
    const row_model rows(nl, global, /*treat_blocks_as_obstacles=*/true);

    std::vector<std::vector<segment_state>> state(rows.num_rows());
    for (std::size_t r = 0; r < rows.num_rows(); ++r) {
        for (const row_segment& seg : rows.row(r).segments) {
            segment_state s;
            s.xlo = seg.xlo;
            s.xhi = seg.xhi;
            state[r].push_back(std::move(s));
        }
    }

    std::vector<cell_id> order;
    for (cell_id i = 0; i < nl.num_cells(); ++i) {
        const cell& c = nl.cell_at(i);
        if (!c.fixed && c.kind == cell_kind::standard) order.push_back(i);
    }
    std::sort(order.begin(), order.end(), [&](cell_id a, cell_id b) {
        return global[a].x < global[b].x;
    });

    placement out = global;
    for (const cell_id id : order) {
        const cell& c = nl.cell_at(id);
        seg_cell sc;
        sc.id = id;
        sc.target = global[id].x - c.width / 2;
        sc.width = c.width;
        sc.weight = options.weight_by_area ? std::max(1e-6, c.area()) : 1.0;

        const std::size_t home = rows.nearest_row(global[id].y);
        double best_cost = std::numeric_limits<double>::infinity();
        std::size_t best_row = 0;
        std::size_t best_seg = 0;
        tail_insertion best;

        for (std::size_t dist = 0; dist < rows.num_rows(); ++dist) {
            if (dist > options.row_search_span &&
                best_cost < std::numeric_limits<double>::infinity()) {
                break;
            }
            for (const std::ptrdiff_t dir : {+1, -1}) {
                if (dist == 0 && dir < 0) continue;
                const std::ptrdiff_t rr = static_cast<std::ptrdiff_t>(home) +
                                          dir * static_cast<std::ptrdiff_t>(dist);
                if (rr < 0 || rr >= static_cast<std::ptrdiff_t>(rows.num_rows())) continue;
                const auto r = static_cast<std::size_t>(rr);
                const double dy = rows.row_center(r) - global[id].y;
                if (dy * dy >= best_cost) continue;
                for (std::size_t s = 0; s < state[r].size(); ++s) {
                    const segment_state& seg = state[r][s];
                    if (seg.used + c.width > seg.xhi - seg.xlo) continue;
                    const tail_insertion trial = insert_at_tail(seg, sc);
                    const double dx = trial.center - global[id].x;
                    const double cost = dx * dx + dy * dy;
                    if (cost < best_cost) {
                        best_cost = cost;
                        best_row = r;
                        best_seg = s;
                        best = trial;
                    }
                }
            }
        }

        GPF_CHECK_MSG(best_cost < std::numeric_limits<double>::infinity(),
                      "abacus legalizer ran out of row capacity for cell "
                          << nl.cell_at(id).name);
        commit(state[best_row][best_seg], sc, best);
        out[id].y = rows.row_center(best_row);
    }

    // Realize final x positions: each cluster's cells run from its first
    // up to the next cluster's first (or the end of the segment).
    for (std::size_t r = 0; r < rows.num_rows(); ++r) {
        for (const segment_state& seg : state[r]) {
            for (std::size_t k = 0; k < seg.clusters.size(); ++k) {
                const std::size_t end = k + 1 < seg.clusters.size()
                                            ? seg.clusters[k + 1].first
                                            : seg.cells.size();
                double x = seg.clusters[k].x;
                for (std::size_t i = seg.clusters[k].first; i < end; ++i) {
                    const seg_cell& sc = seg.cells[i];
                    out[sc.id].x = x + sc.width / 2;
                    x += sc.width;
                }
            }
        }
    }
    return out;
}

} // namespace gpf
