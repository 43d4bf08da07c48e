#include <gtest/gtest.h>

#include <cmath>

#include "core/metrics.hpp"
#include "core/placer.hpp"
#include "legal/legalize.hpp"
#include "util/check.hpp"
#include "util/stopwatch.hpp"
#include "netlist/generator.hpp"

namespace gpf {
namespace {

netlist circuit_for_legalization(std::size_t cells = 300, std::size_t blocks = 0) {
    generator_options opt;
    opt.num_cells = cells;
    opt.num_nets = cells + cells / 10;
    opt.num_rows = 10;
    opt.num_pads = 24;
    opt.num_blocks = blocks;
    opt.block_area_fraction = blocks > 0 ? 0.2 : 0.0;
    opt.target_utilization = 0.75;
    opt.seed = 77;
    return generate_circuit(opt);
}

/// Row-legality check: every movable standard cell sits on a row center,
/// inside the region, and no two cells in a row overlap.
::testing::AssertionResult is_row_legal(const netlist& nl, const placement& pl) {
    const double h = nl.row_height();
    const rect region = nl.region();
    std::vector<std::pair<double, double>> spans; // per cell: row index + x-interval
    std::vector<std::vector<std::pair<double, double>>> rows(nl.num_rows());
    for (cell_id i = 0; i < nl.num_cells(); ++i) {
        const cell& c = nl.cell_at(i);
        if (c.fixed || c.kind != cell_kind::standard) continue;
        const double bottom = pl[i].y - c.height / 2 - region.ylo;
        const double row_f = bottom / h;
        if (std::abs(row_f - std::round(row_f)) > 1e-6) {
            return ::testing::AssertionFailure()
                   << c.name << " not row-aligned (y=" << pl[i].y << ")";
        }
        const auto row = static_cast<std::size_t>(std::llround(row_f));
        if (row >= rows.size()) {
            return ::testing::AssertionFailure() << c.name << " outside rows";
        }
        if (pl[i].x - c.width / 2 < region.xlo - 1e-6 ||
            pl[i].x + c.width / 2 > region.xhi + 1e-6) {
            return ::testing::AssertionFailure() << c.name << " outside region in x";
        }
        rows[row].push_back({pl[i].x - c.width / 2, pl[i].x + c.width / 2});
    }
    for (auto& row : rows) {
        std::sort(row.begin(), row.end());
        for (std::size_t k = 1; k < row.size(); ++k) {
            if (row[k].first < row[k - 1].second - 1e-6) {
                return ::testing::AssertionFailure()
                       << "overlap in a row: [" << row[k - 1].first << ","
                       << row[k - 1].second << ") vs [" << row[k].first << ","
                       << row[k].second << ")";
            }
        }
    }
    return ::testing::AssertionSuccess();
}

class RowLegalizers : public ::testing::TestWithParam<row_legalizer> {};

TEST_P(RowLegalizers, ProducesLegalRows) {
    const netlist nl = circuit_for_legalization();
    placer p(nl, {});
    const placement global = p.run();

    legalize_options opt;
    opt.algorithm = GetParam();
    opt.run_refinement = false;
    placement legal;
    legalize(nl, global, legal, opt);
    EXPECT_TRUE(is_row_legal(nl, legal));
}

TEST_P(RowLegalizers, KeepsHpwlReasonable) {
    const netlist nl = circuit_for_legalization();
    placer p(nl, {});
    const placement global = p.run();

    legalize_options opt;
    opt.algorithm = GetParam();
    opt.run_refinement = false;
    placement legal;
    const legalize_result res = legalize(nl, global, legal, opt);
    // Legalization should cost at most ~60% extra wire length.
    EXPECT_LT(res.hpwl_legal, res.hpwl_global * 1.6);
}

INSTANTIATE_TEST_SUITE_P(Both, RowLegalizers,
                         ::testing::Values(row_legalizer::tetris, row_legalizer::abacus));

TEST(Legalize, AbacusDisplacesLessThanTetris) {
    const netlist nl = circuit_for_legalization();
    placer p(nl, {});
    const placement global = p.run();

    const placement tetris = tetris_legalize(nl, global);
    const placement abacus = abacus_legalize(nl, global);
    double disp_t = 0.0;
    double disp_a = 0.0;
    for (cell_id i = 0; i < nl.num_cells(); ++i) {
        if (nl.cell_at(i).fixed) continue;
        disp_t += distance(tetris[i], global[i]);
        disp_a += distance(abacus[i], global[i]);
    }
    EXPECT_LT(disp_a, disp_t * 1.05); // abacus at least on par, usually better
}

TEST(Legalize, RefinementNeverWorsensHpwl) {
    const netlist nl = circuit_for_legalization();
    placer p(nl, {});
    const placement global = p.run();
    placement legal = abacus_legalize(nl, global);
    const double before = total_hpwl(nl, legal);
    const refine_result r = refine_detailed(nl, legal);
    EXPECT_DOUBLE_EQ(r.hpwl_before, before);
    EXPECT_LE(r.hpwl_after, before + 1e-6);
    EXPECT_TRUE(is_row_legal(nl, legal));
}

TEST(Legalize, RefinementImprovesTypicalPlacements) {
    const netlist nl = circuit_for_legalization();
    placer p(nl, {});
    const placement global = p.run();
    placement legal = tetris_legalize(nl, global);
    const refine_result r = refine_detailed(nl, legal);
    EXPECT_GT(r.swaps + r.relocations, 0u);
    EXPECT_LT(r.hpwl_after, r.hpwl_before);
}

TEST(Legalize, FullPipelineEndsOverlapFree) {
    const netlist nl = circuit_for_legalization();
    placer p(nl, {});
    const placement global = p.run();
    placement legal;
    legalize(nl, global, legal);
    EXPECT_NEAR(total_overlap_area(nl, legal), 0.0, 1e-6);
    EXPECT_TRUE(is_row_legal(nl, legal));
}

TEST(Legalize, ReportsHpwlOfRowLegalAndFinalPlacements) {
    const netlist nl = circuit_for_legalization();
    placer p(nl, {});
    const placement global = p.run();

    legalize_options no_refine;
    no_refine.run_refinement = false;
    placement row_legal;
    const legalize_result rows_only = legalize(nl, global, row_legal, no_refine);
    EXPECT_EQ(rows_only.hpwl_legal, total_hpwl(nl, row_legal));
    EXPECT_EQ(rows_only.hpwl_refined, rows_only.hpwl_legal);

    placement refined;
    const legalize_result full = legalize(nl, global, refined);
    ASSERT_GT(full.refine.swaps + full.refine.relocations, 0u);
    EXPECT_EQ(full.hpwl_global, total_hpwl(nl, global));
    EXPECT_EQ(full.hpwl_legal, total_hpwl(nl, row_legal));
    EXPECT_EQ(full.hpwl_refined, total_hpwl(nl, refined));
}

TEST(Legalize, ReportsLayerSecondsWithinCallerWallTime) {
    const netlist nl = circuit_for_legalization();
    placer p(nl, {});
    const placement global = p.run();
    placement legal;
    const stopwatch sw;
    const legalize_result res = legalize(nl, global, legal);
    const double wall = sw.elapsed_seconds();
    EXPECT_GE(res.row_seconds, 0.0);
    EXPECT_GE(res.refine_seconds, 0.0);
    EXPECT_LE(res.row_seconds + res.refine_seconds, wall);

    legalize_options no_refine;
    no_refine.run_refinement = false;
    EXPECT_EQ(legalize(nl, global, legal, no_refine).refine_seconds, 0.0);
}

TEST(Legalize, MixedDesignSeparatesBlocks) {
    const netlist nl = circuit_for_legalization(300, 4);
    placer p(nl, {});
    const placement global = p.run();
    placement legal;
    const legalize_result res = legalize(nl, global, legal);
    EXPECT_NEAR(res.blocks.residual_overlap, 0.0, 1e-6);
    EXPECT_TRUE(is_row_legal(nl, legal));
    // Standard cells must not overlap the blocks either.
    EXPECT_NEAR(total_overlap_area(nl, legal), 0.0, 1e-6);
}

TEST(Legalize, BlockLegalizerIdempotentWhenSeparated) {
    const netlist nl = circuit_for_legalization(100, 3);
    placement pl = nl.centered_placement();
    // Manually separate blocks.
    double x = 5.0;
    for (cell_id i = 0; i < nl.num_cells(); ++i) {
        const cell& c = nl.cell_at(i);
        if (c.kind != cell_kind::block) continue;
        pl[i] = point(x, c.height / 2 + 1.0);
        x += c.width + 5.0;
    }
    const placement before = pl;
    const block_legalize_result res = legalize_blocks(nl, pl);
    EXPECT_NEAR(res.residual_overlap, 0.0, 1e-9);
    for (cell_id i = 0; i < nl.num_cells(); ++i) {
        const cell& c = nl.cell_at(i);
        if (c.kind != cell_kind::block) continue;
        EXPECT_NEAR(distance(pl[i], before[i]), 0.0, 1.0); // row snap only
    }
}

TEST(Legalize, ThrowsWhenCapacityExhausted) {
    // A region too small for the cells must be reported, not silently
    // mangled.
    netlist nl;
    nl.set_region(rect(0, 0, 4, 2));
    nl.set_row_height(1.0);
    for (int i = 0; i < 6; ++i) {
        cell c;
        c.name = "c" + std::to_string(i);
        c.width = 2.0;
        nl.add_cell(c);
    }
    const placement global(6, point(2, 1));
    EXPECT_THROW(tetris_legalize(nl, global), check_error);
    EXPECT_THROW(abacus_legalize(nl, global), check_error);
}

TEST(RowModel, SubtractsObstacles) {
    netlist nl;
    nl.set_region(rect(0, 0, 10, 3));
    nl.set_row_height(1.0);
    cell blocker;
    blocker.name = "blk";
    blocker.width = 2.0;
    blocker.height = 2.0;
    blocker.kind = cell_kind::block;
    blocker.fixed = true;
    blocker.position = point(5, 1); // covers rows 0 and 1, x in [4,6]
    nl.add_cell(blocker);

    const row_model rows(nl, nl.initial_placement(), true);
    ASSERT_EQ(rows.num_rows(), 3u);
    EXPECT_EQ(rows.row(0).segments.size(), 2u);
    EXPECT_EQ(rows.row(1).segments.size(), 2u);
    EXPECT_EQ(rows.row(2).segments.size(), 1u);
    EXPECT_DOUBLE_EQ(rows.row(0).segments[0].xhi, 4.0);
    EXPECT_DOUBLE_EQ(rows.row(0).segments[1].xlo, 6.0);
    EXPECT_DOUBLE_EQ(rows.total_free_width(0), 8.0);
    EXPECT_DOUBLE_EQ(rows.total_free_width(2), 10.0);
}

TEST(RowModel, NearestRowClamps) {
    netlist nl;
    nl.set_region(rect(0, 0, 10, 4));
    nl.set_row_height(1.0);
    cell c;
    c.name = "c";
    nl.add_cell(c);
    const row_model rows(nl, nl.initial_placement(), true);
    EXPECT_EQ(rows.nearest_row(-5.0), 0u);
    EXPECT_EQ(rows.nearest_row(0.5), 0u);
    EXPECT_EQ(rows.nearest_row(2.5), 2u);
    EXPECT_EQ(rows.nearest_row(100.0), 3u);
    EXPECT_DOUBLE_EQ(rows.row_center(1), 1.5);
}

} // namespace
} // namespace gpf
