// Abacus row legalization and detailed refinement against frozen copies of
// the implementations they replaced. The live code evaluates Abacus trial
// insertions read-only against the cluster stack's tail and refinement
// moves against per-net boxes over the non-moving pins plus a per-row gap
// cache; every accepted and rejected move, and so every coordinate and
// every refine_result field, must stay bit for bit what the from-scratch
// evaluation produced. Designs cover flat rows, rows split into several
// segments by blocks, degree-1 nets, a cell with two pins on one net and
// an ECO-edited design; option sets cover every relocation window shape,
// narrow and wide, and each move type alone. Hand-built rows put gap
// edges exactly on the relocation window's bounds.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <initializer_list>
#include <limits>
#include <string>
#include <vector>

#include "core/metrics.hpp"
#include "core/placer.hpp"
#include "eco/eco.hpp"
#include "legal/abacus.hpp"
#include "legal/blocks.hpp"
#include "legal/legalize.hpp"
#include "legal/refine.hpp"
#include "legal/rows.hpp"
#include "netlist/generator.hpp"
#include "util/check.hpp"
#include "util/prng.hpp"

namespace gpf {
namespace {

// --- bitwise oracle ---------------------------------------------------------
//
// Permanent copies of abacus_legalize (cluster-stack copy per trial, O(n²)
// realization) and refine_detailed (full net boxes per candidate, row gaps
// rescanned per candidate row). Do not "simplify" them into the library's
// code: their value is that they are an independent statement of the
// arithmetic the placements were built on. The only omission is the
// GPF_VERIFY legality checkpoint, which does not touch the placement.
namespace frozen {

struct seg_cell {
    cell_id id;
    double target;
    double width;
    double weight;
};

struct seg_cluster {
    double e = 0.0;
    double q = 0.0;
    double w = 0.0;
    double x = 0.0;
    std::size_t first = 0;
};

struct segment_state {
    double xlo = 0.0;
    double xhi = 0.0;
    double used = 0.0;
    std::vector<seg_cell> cells;
    std::vector<seg_cluster> clusters;
};

void collapse(segment_state& seg) {
    for (;;) {
        seg_cluster& c = seg.clusters.back();
        c.x = std::clamp(c.q / c.e, seg.xlo, seg.xhi - c.w);
        if (seg.clusters.size() < 2) return;
        seg_cluster& prev = seg.clusters[seg.clusters.size() - 2];
        if (prev.x + prev.w <= c.x) return;
        prev.q += c.q - c.e * prev.w;
        prev.e += c.e;
        prev.w += c.w;
        seg.clusters.pop_back();
    }
}

double append_cell(segment_state& seg, const seg_cell& c) {
    seg.cells.push_back(c);
    seg.used += c.width;
    seg_cluster nc;
    nc.e = c.weight;
    nc.q = c.weight * c.target;
    nc.w = c.width;
    nc.x = c.target;
    nc.first = seg.cells.size() - 1;
    const bool overlaps = !seg.clusters.empty() &&
                          seg.clusters.back().x + seg.clusters.back().w > c.target;
    seg.clusters.push_back(nc);
    if (overlaps) {
        seg_cluster last = seg.clusters.back();
        seg.clusters.pop_back();
        seg_cluster& prev = seg.clusters.back();
        prev.q += last.q - last.e * prev.w;
        prev.e += last.e;
        prev.w += last.w;
    }
    collapse(seg);
    const seg_cluster& cl = seg.clusters.back();
    return cl.x + cl.w - c.width + c.width / 2;
}

placement abacus_legalize(const netlist& nl, const placement& global,
                          const abacus_options& options) {
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
                    segment_state& seg = state[r][s];
                    if (seg.used + c.width > seg.xhi - seg.xlo) continue;
                    segment_state trial;
                    trial.xlo = seg.xlo;
                    trial.xhi = seg.xhi;
                    trial.used = seg.used;
                    trial.clusters = seg.clusters;
                    trial.cells.reserve(1);
                    const double cx = append_cell(trial, sc);
                    const double dx = cx - global[id].x;
                    const double cost = dx * dx + dy * dy;
                    if (cost < best_cost) {
                        best_cost = cost;
                        best_row = r;
                        best_seg = s;
                    }
                }
            }
        }
        GPF_CHECK(best_cost < std::numeric_limits<double>::infinity());
        append_cell(state[best_row][best_seg], sc);
        out[id].y = rows.row_center(best_row);
    }

    for (std::size_t r = 0; r < rows.num_rows(); ++r) {
        for (const segment_state& seg : state[r]) {
            for (const seg_cluster& cl : seg.clusters) {
                double x = cl.x;
                std::size_t end = seg.cells.size();
                for (const seg_cluster& other : seg.clusters) {
                    if (other.first > cl.first) end = std::min(end, other.first);
                }
                for (std::size_t i = cl.first; i < end; ++i) {
                    const seg_cell& sc = seg.cells[i];
                    out[sc.id].x = x + sc.width / 2;
                    x += sc.width;
                }
            }
        }
    }
    return out;
}

double local_hpwl(const netlist& nl, const placement& pl,
                  std::initializer_list<cell_id> cells) {
    const auto& adjacency = nl.cell_nets();
    double acc = 0.0;
    std::vector<net_id> seen;
    for (const cell_id id : cells) {
        for (const net_id ni : adjacency[id]) {
            if (std::find(seen.begin(), seen.end(), ni) != seen.end()) continue;
            seen.push_back(ni);
            acc += net_hpwl(nl, pl, nl.net_at(ni));
        }
    }
    return acc;
}

std::vector<std::vector<cell_id>> build_row_order(const netlist& nl, const placement& pl,
                                                  const row_model& rows) {
    std::vector<std::vector<cell_id>> order(rows.num_rows());
    for (cell_id i = 0; i < nl.num_cells(); ++i) {
        const cell& c = nl.cell_at(i);
        if (c.fixed || c.kind != cell_kind::standard) continue;
        order[rows.nearest_row(pl[i].y)].push_back(i);
    }
    for (auto& row : order) {
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

std::vector<gap> row_gaps(const netlist& nl, const placement& pl,
                          const placement_row& row_geom,
                          const std::vector<cell_id>& row_cells) {
    std::vector<gap> gaps;
    for (const row_segment& seg : row_geom.segments) {
        double cursor = seg.xlo;
        for (const cell_id id : row_cells) {
            const cell& c = nl.cell_at(id);
            const double lo = pl[id].x - c.width / 2;
            const double hi = pl[id].x + c.width / 2;
            if (hi <= seg.xlo || lo >= seg.xhi) continue;
            if (lo > cursor) gaps.push_back({cursor, lo});
            cursor = std::max(cursor, hi);
        }
        if (cursor < seg.xhi) gaps.push_back({cursor, seg.xhi});
    }
    return gaps;
}

refine_result refine_detailed(const netlist& nl, placement& pl,
                              const refine_options& options) {
    refine_result result;
    result.hpwl_before = total_hpwl(nl, pl);
    const row_model rows(nl, pl, /*treat_blocks_as_obstacles=*/true);
    auto order = build_row_order(nl, pl, rows);
    constexpr double kEps = 1e-9;

    for (std::size_t pass = 0; pass < options.max_passes; ++pass) {
        bool improved = false;
        if (options.enable_swaps) {
            for (std::size_t ri = 0; ri < order.size(); ++ri) {
                auto& row = order[ri];
                const placement_row& geom = rows.row(ri);
                for (std::size_t i = 0; i + 1 < row.size(); ++i) {
                    const cell_id a = row[i];
                    const cell_id b = row[i + 1];
                    const cell& ca = nl.cell_at(a);
                    const cell& cb = nl.cell_at(b);
                    const double a_lo = pl[a].x - ca.width / 2;
                    const double b_hi = pl[b].x + cb.width / 2;
                    bool in_one_segment = false;
                    for (const row_segment& seg : geom.segments) {
                        if (a_lo >= seg.xlo - 1e-9 && b_hi <= seg.xhi + 1e-9) {
                            in_one_segment = true;
                            break;
                        }
                    }
                    if (!in_one_segment) continue;
                    const double gap_w = (pl[b].x - cb.width / 2) - (pl[a].x + ca.width / 2);
                    const point old_a = pl[a];
                    const point old_b = pl[b];
                    const double before = local_hpwl(nl, pl, {a, b});
                    pl[b].x = a_lo + cb.width / 2;
                    pl[a].x = a_lo + cb.width + gap_w + ca.width / 2;
                    const double after = local_hpwl(nl, pl, {a, b});
                    if (after < before - kEps) {
                        std::swap(row[i], row[i + 1]);
                        ++result.swaps;
                        improved = true;
                    } else {
                        pl[a] = old_a;
                        pl[b] = old_b;
                    }
                }
            }
        }
        if (options.enable_relocation) {
            const double window_x = options.window_width * nl.row_height();
            for (std::size_t r = 0; r < order.size(); ++r) {
                const std::vector<cell_id> snapshot = order[r];
                for (const cell_id id : snapshot) {
                    const cell& c = nl.cell_at(id);
                    const point old_pos = pl[id];
                    const double before = local_hpwl(nl, pl, {id});
                    double best_delta = -kEps;
                    point best_pos = old_pos;
                    std::size_t best_row = r;
                    const std::size_t rlo =
                        r >= options.window_rows ? r - options.window_rows : 0;
                    const std::size_t rhi = std::min(order.size() - 1, r + options.window_rows);
                    for (std::size_t rr = rlo; rr <= rhi; ++rr) {
                        pl[id] = old_pos;
                        const auto gaps = row_gaps(nl, pl, rows.row(rr), order[rr]);
                        for (const gap& g : gaps) {
                            if (g.width() < c.width) continue;
                            const double x = std::clamp(old_pos.x, g.xlo + c.width / 2,
                                                        g.xhi - c.width / 2);
                            if (std::abs(x - old_pos.x) > window_x) continue;
                            pl[id] = point(x, rows.row_center(rr));
                            const double delta = local_hpwl(nl, pl, {id}) - before;
                            if (delta < best_delta) {
                                best_delta = delta;
                                best_pos = pl[id];
                                best_row = rr;
                            }
                        }
                    }
                    pl[id] = old_pos;
                    if (best_row != r || !(best_pos == old_pos)) {
                        if (best_delta < -kEps) {
                            pl[id] = best_pos;
                            auto& from = order[r];
                            from.erase(std::find(from.begin(), from.end(), id));
                            auto& to = order[best_row];
                            to.insert(std::upper_bound(to.begin(), to.end(), id,
                                                       [&](cell_id lhs, cell_id rhs) {
                                                           return pl[lhs].x < pl[rhs].x;
                                                       }),
                                      id);
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
    return result;
}

} // namespace frozen

// --- designs ----------------------------------------------------------------

struct design {
    netlist nl;
    placement global; ///< globally placed, blocks already legalized
};

netlist generated(std::size_t cells, std::size_t blocks) {
    generator_options opt;
    opt.num_cells = cells;
    opt.num_nets = cells + cells / 10;
    opt.num_rows = static_cast<std::size_t>(std::sqrt(static_cast<double>(cells)) / 1.5);
    opt.num_pads = 48;
    opt.num_blocks = blocks;
    opt.block_area_fraction = blocks > 0 ? 0.25 : 0.0;
    opt.target_utilization = 0.8;
    opt.seed = 4242 + cells + blocks;
    return generate_circuit(opt);
}

design placed(netlist nl) {
    placer_options popt;
    popt.max_iterations = 25;
    design d{std::move(nl), {}};
    placer p(d.nl, popt);
    d.global = p.run();
    legalize_blocks(d.nl, d.global);
    return d;
}

/// A placed 2k design with nets added after placement: degree-1 nets, nets
/// on which one cell has two pins (with and without other cells), and a
/// net made only of two pins of one cell.
design odd_nets() {
    design d = placed(generated(2000, 0));
    std::vector<cell_id> movable;
    for (cell_id i = 0; i < d.nl.num_cells(); ++i) {
        if (!d.nl.cell_at(i).fixed) movable.push_back(i);
    }
    for (std::size_t k = 0; k < 300; ++k) {
        const cell_id c = movable[(k * 37) % movable.size()];
        const cell_id o = movable[(k * 53 + 11) % movable.size()];
        net n;
        n.name = "odd" + std::to_string(k);
        switch (k % 3) {
            case 0: // degree 1
                n.pins = {{c, point(0.25, 0.0)}};
                break;
            case 1: // two pins of c plus another cell
                n.pins = {{c, point(-0.5, 0.25)}, {o, point()}, {c, point(0.5, -0.25)}};
                break;
            default: // only two pins of c
                n.pins = {{c, point(-0.5, 0.0)}, {c, point(0.5, 0.0)}};
                break;
        }
        d.nl.add_net(std::move(n));
    }
    return d;
}

/// A placed and legalized 2k design after an ECO edit: 100 new 2x1 cells
/// (5%), each on a new net with up to three pre-existing cells, seeded by
/// seed_new_cells and moved by incremental_place. Legalization pushes
/// the new cells and their neighbours far from where refinement wants
/// them, so the input is heavy in relocations.
design eco_edited() {
    const design base = placed(generated(2000, 0));
    placement base_legal;
    legalize(base.nl, base.global, base_legal);

    design d{base.nl, {}};
    const std::size_t n0 = d.nl.num_cells();
    prng rng(2024);
    for (std::size_t i = 0; i < 100; ++i) {
        cell c;
        c.name = "eco" + std::to_string(i);
        c.width = 2.0;
        c.height = 1.0;
        const cell_id id = d.nl.add_cell(std::move(c));
        net n;
        n.name = "eco_net" + std::to_string(i);
        n.pins.push_back({id, {}});
        for (int k = 0; k < 3; ++k) {
            const auto target = static_cast<cell_id>(rng.next_below(n0));
            const bool dup = std::any_of(n.pins.begin(), n.pins.end(),
                                         [&](const pin& q) { return q.cell == target; });
            if (!dup) n.pins.push_back({target, {}});
        }
        n.driver = 0;
        d.nl.add_net(std::move(n));
    }
    d.nl.invalidate_adjacency();
    d.global = incremental_place(d.nl, seed_new_cells(d.nl, base_legal, n0), n0).pl;
    legalize_blocks(d.nl, d.global);
    return d;
}

// --- comparisons ------------------------------------------------------------

::testing::AssertionResult bitwise_equal(const placement& expected, const placement& got) {
    if (expected.size() != got.size()) {
        return ::testing::AssertionFailure() << "size " << got.size() << " vs "
                                             << expected.size();
    }
    for (std::size_t i = 0; i < expected.size(); ++i) {
        if (std::memcmp(&expected[i], &got[i], sizeof(point)) != 0) {
            return ::testing::AssertionFailure()
                   << "cell " << i << ": (" << got[i].x << ", " << got[i].y
                   << ") vs frozen (" << expected[i].x << ", " << expected[i].y << ")";
        }
    }
    return ::testing::AssertionSuccess();
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

struct option_set {
    const char* name;
    refine_options options;
};

std::vector<option_set> option_sets() {
    const auto with = [](auto edit) {
        refine_options o;
        edit(o);
        return o;
    };
    return {
        {"default", {}},
        {"window_rows=0", with([](refine_options& o) { o.window_rows = 0; })},
        {"window_rows=1", with([](refine_options& o) { o.window_rows = 1; })},
        {"window_rows=3", with([](refine_options& o) { o.window_rows = 3; })},
        {"window_width=0.5", with([](refine_options& o) { o.window_width = 0.5; })},
        {"window_width=2", with([](refine_options& o) { o.window_width = 2.0; })},
        {"swaps only", with([](refine_options& o) { o.enable_relocation = false; })},
        {"relocation only", with([](refine_options& o) { o.enable_swaps = false; })},
    };
}

/// Abacus on the design, then every refinement option set, each against
/// its frozen copy.
void check_against_frozen(const design& d) {
    const abacus_options aopt;
    const placement expected_legal = frozen::abacus_legalize(d.nl, d.global, aopt);
    const placement legal = abacus_legalize(d.nl, d.global, aopt);
    ASSERT_TRUE(bitwise_equal(expected_legal, legal)) << "abacus_legalize";

    for (const option_set& set : option_sets()) {
        SCOPED_TRACE(set.name);
        placement expected = legal;
        placement got = legal;
        const refine_result e = frozen::refine_detailed(d.nl, expected, set.options);
        const refine_result r = refine_detailed(d.nl, got, set.options);
        EXPECT_TRUE(bitwise_equal(expected, got));
        EXPECT_EQ(r.passes, e.passes);
        EXPECT_EQ(r.swaps, e.swaps);
        EXPECT_EQ(r.relocations, e.relocations);
        EXPECT_TRUE(same_bits(r.hpwl_before, e.hpwl_before));
        EXPECT_TRUE(same_bits(r.hpwl_after, e.hpwl_after));
        // The comparison means something only if moves were made.
        if (set.options.enable_swaps) {
            EXPECT_GT(e.swaps, 0u);
        }
        if (set.options.enable_relocation) {
            EXPECT_GT(e.relocations, 0u);
        }
    }
}

TEST(LegalizationOracle, Flat2k) { check_against_frozen(placed(generated(2000, 0))); }

TEST(LegalizationOracle, Flat8k) { check_against_frozen(placed(generated(8000, 0))); }

TEST(LegalizationOracle, BlocksSplitRowsIntoSegments) {
    const design d = placed(generated(2000, 6));
    const row_model rows(d.nl, d.global, /*treat_blocks_as_obstacles=*/true);
    std::size_t split_rows = 0;
    for (const placement_row& row : rows.rows()) split_rows += row.segments.size() > 1;
    ASSERT_GT(split_rows, 0u);
    check_against_frozen(d);
}

TEST(LegalizationOracle, DegreeOneNetsAndRepeatedCellPins) { check_against_frozen(odd_nets()); }

TEST(LegalizationOracle, EcoEditedDesign) { check_against_frozen(eco_edited()); }

/// One row, region x in [-40, 40]: a movable cell of width `w` at
/// `sign * x0`, a fixed standard cell blocking [sign * (x0 + w/2 + lead),
/// sign * edge], and on the cell's only net a pad at sign * (edge + w/2).
/// The one gap beyond the blockage starts at sign * edge and runs to the
/// region's end, so the cell's only improving candidate is the gap's near
/// end, on the pad. With sign = -1 the design is the mirror image, and
/// the gap ends, not starts, at the window's bound.
design edge_row(double sign, double x0, double w, double lead, double edge) {
    design d;
    d.nl.set_region(rect(-40.0, 0.0, 40.0, 1.0));
    d.nl.set_row_height(1.0);
    cell mover;
    mover.name = "mover";
    mover.width = w;
    const cell_id m = d.nl.add_cell(std::move(mover));
    // Chosen so that from_center() puts the edges exactly where stated.
    const double block_lo = x0 + w / 2 + lead;
    cell block;
    block.name = "block";
    block.width = edge - block_lo;
    block.fixed = true;
    block.position = point(sign * (block_lo + edge) / 2, 0.5);
    d.nl.add_cell(std::move(block));
    cell pad;
    pad.name = "pad";
    pad.kind = cell_kind::pad;
    pad.fixed = true;
    pad.position = point(sign * (edge + w / 2), 0.5);
    const cell_id p = d.nl.add_cell(std::move(pad));
    net n;
    n.name = "pull";
    n.pins = {{m, point()}, {p, point()}};
    d.nl.add_net(std::move(n));
    d.global = d.nl.initial_placement();
    d.global[m] = point(sign * x0, 0.5);

    const row_model rows(d.nl, d.global, /*treat_blocks_as_obstacles=*/true);
    const std::vector<row_segment>& segs = rows.row(0).segments;
    EXPECT_EQ(segs.size(), 2u);
    if (segs.size() == 2) {
        EXPECT_EQ(sign > 0 ? segs[1].xlo : -segs[0].xhi, edge);
        EXPECT_EQ(sign > 0 ? segs[0].xhi : -segs[1].xlo, block_lo);
    }
    return d;
}

/// Gap edges on the relocation window's bounds (default window: 16 row
/// heights of 1.0). The window test accepts a candidate at exactly
/// window_x, so each design's cell relocates once, into the gap whose
/// edge sits on the bound; a scan that drops any gap the exact test would
/// accept changes the result.
TEST(LegalizationOracle, GapEdgesOnWindowBounds) {
    constexpr double u = 0x1p-48; // spacing of doubles in [16, 32)
    struct edge_case {
        const char* name;
        double x0;
        double w;
        double lead;
        double edge;
    };
    const edge_case cases[] = {
        // A unit cell at 10 whose nearest fit lies at exactly 10 + 16.
        {"unit cell", 10.0, 1.0, 0.0, 25.5},
        // A cell narrower than the doubles' spacing near the bound. The
        // gap starts one spacing past fl(x0 + 16), the cell's nearest fit
        // is the gap's start, and fl(edge - x0) rounds back to exactly 16:
        // the exact test accepts a gap that starts beyond the rounded
        // window bound, which only the scan's margin keeps in reach.
        {"sub-spacing cell", 2.5 * u, 0x1p-50, 0.375 * u, 16.0 + 3 * u},
    };
    for (const edge_case& c : cases) {
        for (const double sign : {1.0, -1.0}) {
            SCOPED_TRACE(std::string(c.name) + (sign > 0 ? " right" : " left"));
            const design d = edge_row(sign, c.x0, c.w, c.lead, c.edge);
            placement expected = d.global;
            placement got = d.global;
            const refine_result e = frozen::refine_detailed(d.nl, expected, {});
            const refine_result r = refine_detailed(d.nl, got, {});
            EXPECT_EQ(e.relocations, 1u);
            EXPECT_EQ(expected[0].x, sign * (c.edge + c.w / 2));
            EXPECT_TRUE(bitwise_equal(expected, got));
            EXPECT_EQ(r.relocations, e.relocations);
            EXPECT_EQ(r.passes, e.passes);
            EXPECT_TRUE(same_bits(r.hpwl_after, e.hpwl_after));
        }
    }
}

} // namespace
} // namespace gpf
