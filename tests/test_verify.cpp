#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <limits>

#include "core/placer.hpp"
#include "legal/legalize.hpp"
#include "netlist/generator.hpp"
#include "netlist/suite.hpp"
#include "util/check.hpp"
#include "verify/fuzz.hpp"
#include "verify/verify.hpp"
#include "test_paths.hpp"

namespace gpf {
namespace {

// Keep the pipeline invariant checkpoints active for the ENTIRE test
// binary (the acceptance contract "GPF_VERIFY=1 ctest passes"): every
// placer::transform, legalize() and refine_detailed() call anywhere in
// the suite now runs its validator.
const bool g_checkpoints_on = [] {
    force_verify_checkpoints(true);
    return true;
}();

netlist small_circuit(std::uint64_t seed = 3, std::size_t blocks = 0) {
    generator_options opt;
    opt.num_cells = 160;
    opt.num_nets = 180;
    opt.num_pads = 12;
    opt.num_rows = 6;
    opt.num_blocks = blocks;
    opt.block_area_fraction = blocks > 0 ? 0.15 : 0.0;
    opt.seed = seed;
    return generate_circuit(opt);
}

// --- netlist validator --------------------------------------------------

TEST(VerifyNetlist, AcceptsEverySuiteCircuit) {
    for (const suite_circuit& desc : mcnc_suite()) {
        const netlist nl = make_suite_circuit(desc, /*scale=*/0.03);
        const verify_report report = verify_netlist(nl);
        EXPECT_TRUE(report.ok()) << desc.name << ": " << report.to_string();
    }
}

TEST(VerifyNetlist, AcceptsGeneratedCircuits) {
    for (std::uint64_t seed : {1, 2, 3}) {
        const netlist nl = small_circuit(seed, seed == 2 ? 2 : 0);
        const verify_report report = verify_netlist(nl);
        EXPECT_TRUE(report.ok()) << report.to_string();
    }
}

TEST(VerifyNetlist, RejectsOutOfRangePinIndex) {
    netlist nl = small_circuit();
    nl.net_at(0).pins[0].cell = static_cast<cell_id>(nl.num_cells() + 7);
    const verify_report report = verify_netlist(nl);
    ASSERT_FALSE(report.ok());
    EXPECT_NE(report.to_string().find("unknown cell index"), std::string::npos);
}

TEST(VerifyNetlist, RejectsDuplicatePinAndBadDriver) {
    netlist nl = small_circuit();
    net& n = nl.net_at(0);
    n.pins.push_back(n.pins[0]); // duplicate cell on the net
    nl.net_at(1).driver = 99;    // out of range for any generated degree
    const verify_report report = verify_netlist(nl);
    ASSERT_FALSE(report.ok());
    const std::string s = report.to_string();
    EXPECT_NE(s.find("duplicate pin"), std::string::npos) << s;
    EXPECT_NE(s.find("driver index 99"), std::string::npos) << s;
}

TEST(VerifyNetlist, RejectsNonPositiveDimensionsAndWeight) {
    netlist nl = small_circuit();
    nl.cell_at(0).width = -1.0;
    nl.net_at(0).weight = 0.0;
    const verify_report report = verify_netlist(nl);
    ASSERT_FALSE(report.ok());
    const std::string s = report.to_string();
    EXPECT_NE(s.find("non-positive or non-finite dimensions"), std::string::npos) << s;
    EXPECT_NE(s.find("weight"), std::string::npos) << s;
}

TEST(VerifyNetlist, FeasibilityFlagGatesOverfullRegion) {
    netlist nl = small_circuit();
    nl.set_region(rect(0, 0, 2, 2)); // far smaller than the cell area
    verify_options strict;
    EXPECT_FALSE(verify_netlist(nl, strict).ok());
    verify_options relaxed;
    relaxed.check_feasibility = false;
    EXPECT_TRUE(verify_netlist(nl, relaxed).ok())
        << verify_netlist(nl, relaxed).to_string();
}

TEST(VerifyNetlist, RejectsFixedCellOutsideRegion) {
    netlist nl = small_circuit();
    // Turn a movable standard cell into a fixed one parked far outside.
    cell& c = nl.cell_at(0);
    c.fixed = true;
    c.position = point(-1e4, -1e4);
    const verify_report report = verify_netlist(nl);
    ASSERT_FALSE(report.ok());
    EXPECT_NE(report.to_string().find("outside the region"), std::string::npos);
}

// --- placement validators ----------------------------------------------

TEST(VerifyPlacement, GlobalAcceptsPlacerOutput) {
    const netlist nl = small_circuit();
    placer_options popt;
    popt.max_iterations = 6;
    placer p(nl, popt);
    const placement global = p.run();
    const verify_report report = verify_global_placement(nl, global);
    EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(VerifyPlacement, GlobalRejectsNaNOutOfRegionAndMovedFixed) {
    const netlist nl = small_circuit();
    placement pl = nl.centered_placement();
    pl[0].x = std::numeric_limits<double>::quiet_NaN();
    pl[1] = point(nl.region().xhi + 100.0, 0.0);
    // First pad (fixed) dragged off its constraint position.
    cell_id pad = invalid_cell;
    for (cell_id i = 0; i < nl.num_cells(); ++i) {
        if (nl.cell_at(i).fixed) { pad = i; break; }
    }
    ASSERT_NE(pad, invalid_cell);
    pl[pad] += point(1.0, 1.0);
    const verify_report report = verify_global_placement(nl, pl);
    ASSERT_FALSE(report.ok());
    const std::string s = report.to_string();
    EXPECT_NE(s.find("non-finite position"), std::string::npos) << s;
    EXPECT_NE(s.find("outside region"), std::string::npos) << s;
    EXPECT_NE(s.find("fixed cell moved"), std::string::npos) << s;
}

TEST(VerifyPlacement, GlobalRejectsSizeMismatch) {
    const netlist nl = small_circuit();
    placement pl = nl.centered_placement();
    pl.pop_back();
    EXPECT_FALSE(verify_global_placement(nl, pl).ok());
}

TEST(VerifyPlacement, LegalAcceptsBothLegalizersAndBlocks) {
    for (std::size_t blocks : {std::size_t{0}, std::size_t{2}}) {
        const netlist nl = small_circuit(5, blocks);
        placer_options popt;
        popt.max_iterations = 5;
        placer p(nl, popt);
        const placement global = p.run();
        for (row_legalizer alg : {row_legalizer::tetris, row_legalizer::abacus}) {
            legalize_options lopt;
            lopt.algorithm = alg;
            placement legal;
            legalize(nl, global, legal, lopt);
            const verify_report report = verify_legal_placement(nl, legal);
            EXPECT_TRUE(report.ok())
                << "blocks=" << blocks
                << " alg=" << (alg == row_legalizer::tetris ? "tetris" : "abacus")
                << ": " << report.to_string();
        }
    }
}

TEST(VerifyPlacement, LegalRejectsMisalignmentOverlapAndEscape) {
    const netlist nl = small_circuit();
    placer_options popt;
    popt.max_iterations = 5;
    placer p(nl, popt);
    placement legal;
    legalize(nl, p.run(), legal);
    ASSERT_TRUE(verify_legal_placement(nl, legal).ok());

    {
        placement bad = legal;
        bad[0].y += 0.37 * nl.row_height(); // off-row
        const verify_report report = verify_legal_placement(nl, bad);
        ASSERT_FALSE(report.ok());
        EXPECT_NE(report.to_string().find("not aligned to a row"), std::string::npos);
    }
    {
        placement bad = legal;
        bad[0] = bad[1]; // two movable cells stacked
        EXPECT_FALSE(verify_legal_placement(nl, bad).ok());
        EXPECT_NE(verify_legal_placement(nl, bad).to_string().find("overlaps"),
                  std::string::npos);
    }
    {
        placement bad = legal;
        bad[0].x = nl.region().xhi + 5.0; // escaped the region
        EXPECT_FALSE(verify_legal_placement(nl, bad).ok());
    }
}

// --- checkpoints --------------------------------------------------------

TEST(VerifyCheckpoints, EnabledForTheTestBinary) {
    EXPECT_TRUE(verify_checkpoints_enabled());
}

TEST(VerifyCheckpoints, ThrowCheckErrorOnViolation) {
    const netlist nl = small_circuit();
    placement bad = nl.centered_placement();
    bad[0].x = std::numeric_limits<double>::infinity();
    EXPECT_THROW(checkpoint_global_placement(nl, bad, "test stage"), check_error);
    EXPECT_THROW(checkpoint_legal_placement(nl, bad, "test stage"), check_error);
    try {
        checkpoint_global_placement(nl, bad, "test stage");
        FAIL() << "expected check_error";
    } catch (const check_error& e) {
        EXPECT_NE(std::string(e.what()).find("test stage"), std::string::npos);
    }
}

TEST(VerifyCheckpoints, FullPipelineRunsCleanWithCheckpointsActive) {
    const netlist nl = small_circuit(9, 1);
    placer_options popt;
    popt.max_iterations = 8;
    placer p(nl, popt);
    placement legal;
    // Any checkpoint violation inside transform/legalize/refine throws.
    EXPECT_NO_THROW(legalize(nl, p.run(), legal));
}

// --- fuzz harness -------------------------------------------------------

TEST(VerifyFuzz, BookshelfIoSmoke) {
    fuzz_options opt;
    opt.iterations = 300;
    opt.seed = 42;
    opt.work_dir = testing::unique_temp_base("gpf_fuzz_io");
    const fuzz_result result = fuzz_bookshelf_io(opt);
    EXPECT_EQ(result.iterations, 300u);
    EXPECT_TRUE(result.ok()) << result.failures.size() << " contract breaches; first: "
                             << (result.failures.empty()
                                     ? ""
                                     : result.failures.front().mutation + " -> " +
                                           result.failures.front().what);
    EXPECT_EQ(result.rejected_check, 0u);
    // The mutation engine must actually exercise both outcomes.
    EXPECT_GT(result.rejected, 0u);
    EXPECT_GT(result.accepted, 0u);
    std::filesystem::remove_all(opt.work_dir);
}

TEST(VerifyFuzz, DeterministicForSameSeed) {
    fuzz_options opt;
    opt.iterations = 60;
    opt.seed = 7;
    opt.work_dir = testing::unique_temp_base("gpf_fuzz_io");
    const fuzz_result a = fuzz_bookshelf_io(opt);
    const fuzz_result b = fuzz_bookshelf_io(opt);
    EXPECT_EQ(a.rejected, b.rejected);
    EXPECT_EQ(a.accepted, b.accepted);
    EXPECT_EQ(a.failures.size(), b.failures.size());
    std::filesystem::remove_all(opt.work_dir);
}

} // namespace
} // namespace gpf
