#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <sstream>

#include "test_paths.hpp"
#include "core/placer.hpp"
#include "legal/legalize.hpp"
#include "netlist/bookshelf.hpp"
#include "netlist/generator.hpp"
#include "netlist/stats.hpp"

namespace gpf {
namespace {

class BookshelfTest : public ::testing::Test {
protected:
    void SetUp() override {
        base_ = testing::unique_temp_base("gpf_bookshelf_test");
    }
    void TearDown() override {
        for (const char* ext : {".nodes", ".nets", ".pl", ".scl"}) {
            std::filesystem::remove(base_ + ext);
        }
    }
    std::string base_;
};

TEST_F(BookshelfTest, RoundTripPreservesStructure) {
    generator_options opt;
    opt.num_cells = 120;
    opt.num_nets = 130;
    opt.num_rows = 6;
    opt.num_pads = 16;
    const netlist nl = generate_circuit(opt);
    const placement pl = nl.centered_placement();

    write_bookshelf(nl, pl, base_);
    const bookshelf_design design = read_bookshelf(base_);

    EXPECT_EQ(design.nl.num_cells(), nl.num_cells());
    EXPECT_EQ(design.nl.num_nets(), nl.num_nets());
    EXPECT_EQ(design.nl.num_pins(), nl.num_pins());
    EXPECT_EQ(design.nl.num_fixed(), nl.num_fixed());
    EXPECT_EQ(design.nl.num_rows(), nl.num_rows());
    EXPECT_NO_THROW(design.nl.validate());
}

TEST_F(BookshelfTest, RoundTripPreservesPositionsAndDimensions) {
    generator_options opt;
    opt.num_cells = 40;
    opt.num_nets = 45;
    opt.num_rows = 4;
    opt.num_pads = 8;
    const netlist nl = generate_circuit(opt);
    placement pl = nl.centered_placement();
    pl[0] = point(3.25, 1.5);

    write_bookshelf(nl, pl, base_);
    const bookshelf_design design = read_bookshelf(base_);

    for (cell_id i = 0; i < nl.num_cells(); ++i) {
        EXPECT_NEAR(design.nl.cell_at(i).width, nl.cell_at(i).width, 1e-6);
        EXPECT_NEAR(design.nl.cell_at(i).height, nl.cell_at(i).height, 1e-6);
        EXPECT_NEAR(design.pl[i].x, pl[i].x, 1e-6) << i;
        EXPECT_NEAR(design.pl[i].y, pl[i].y, 1e-6) << i;
    }
}

TEST_F(BookshelfTest, RoundTripPreservesDriversAndOffsets) {
    generator_options opt;
    opt.num_cells = 50;
    opt.num_nets = 60;
    opt.num_rows = 4;
    opt.num_pads = 8;
    const netlist nl = generate_circuit(opt);
    write_bookshelf(nl, nl.centered_placement(), base_);
    const bookshelf_design design = read_bookshelf(base_);

    ASSERT_EQ(design.nl.num_nets(), nl.num_nets());
    for (net_id i = 0; i < nl.num_nets(); ++i) {
        const net& a = nl.net_at(i);
        const net& b = design.nl.net_at(i);
        ASSERT_EQ(a.degree(), b.degree());
        EXPECT_EQ(a.driver, b.driver);
        for (std::size_t k = 0; k < a.pins.size(); ++k) {
            EXPECT_NEAR(a.pins[k].offset.x, b.pins[k].offset.x, 1e-6);
            EXPECT_NEAR(a.pins[k].offset.y, b.pins[k].offset.y, 1e-6);
        }
    }
}

TEST_F(BookshelfTest, ReaderToleratesCommentsAndBlankLines) {
    {
        std::ofstream nodes(base_ + ".nodes");
        nodes << "UCLA nodes 1.0\n# a comment\n\nNumNodes : 2\nNumTerminals : 1\n"
              << "  a 2 1\n  p 1 1 terminal\n";
        std::ofstream nets(base_ + ".nets");
        nets << "UCLA nets 1.0\nNumNets : 1\nNumPins : 2\n"
             << "NetDegree : 2  n0\n  a O : 0 0\n  p I : 0 0\n";
        std::ofstream pl(base_ + ".pl");
        pl << "UCLA pl 1.0\n# positions\na 1.0 2.0 : N\np 0 0 : N /FIXED\n";
    }
    const bookshelf_design design = read_bookshelf(base_);
    EXPECT_EQ(design.nl.num_cells(), 2u);
    EXPECT_EQ(design.nl.num_nets(), 1u);
    EXPECT_TRUE(design.nl.cell_at(1).fixed);
    EXPECT_EQ(design.nl.net_at(0).driver, 0u);
    // Bookshelf stores the lower-left corner; center = corner + w/2.
    EXPECT_NEAR(design.pl[0].x, 2.0, 1e-9);
    EXPECT_NEAR(design.pl[0].y, 2.5, 1e-9);
}

TEST_F(BookshelfTest, MissingFileThrowsIoError) {
    EXPECT_THROW(read_bookshelf(base_ + "_nonexistent"), io_error);
}

// --- malformed-input regression matrix ----------------------------------
// Each case below silently corrupted the netlist (or leaked a raw std::
// exception) before the parser hardening; now every one must surface as a
// typed parse_error carrying file/line context.

class MalformedBookshelfTest : public BookshelfTest {
protected:
    /// Writes a consistent three-node design, then lets a case override
    /// individual files.
    void write_valid() {
        write(".nodes",
              "UCLA nodes 1.0\nNumNodes : 3\nNumTerminals : 1\n"
              "  a 2 1\n  b 3 1\n  p 1 1 terminal\n");
        write(".nets",
              "UCLA nets 1.0\nNumNets : 2\nNumPins : 4\n"
              "NetDegree : 2  n0\n  a O : 0 0\n  b I : 0 0\n"
              "NetDegree : 2  n1\n  b O\n  p I\n");
        write(".pl", "UCLA pl 1.0\na 0 0 : N\nb 4 0 : N\np -1 0 : N /FIXED\n");
    }

    void write(const char* ext, const std::string& content) {
        std::ofstream out(base_ + ext);
        out << content;
    }
};

TEST_F(MalformedBookshelfTest, NetDegreeOvercountThrows) {
    write_valid();
    // Declares 3 pins, provides 2: before the fix the count was parsed
    // and thrown away, silently producing a 2-pin net.
    write(".nets",
          "UCLA nets 1.0\nNumNets : 2\nNumPins : 4\n"
          "NetDegree : 3  n0\n  a O : 0 0\n  b I : 0 0\n"
          "NetDegree : 2  n1\n  b O\n  p I\n");
    EXPECT_THROW(read_bookshelf(base_), parse_error);
}

TEST_F(MalformedBookshelfTest, NetDegreeUndercountThrows) {
    write_valid();
    write(".nets",
          "UCLA nets 1.0\nNumNets : 2\nNumPins : 4\n"
          "NetDegree : 1  n0\n  a O : 0 0\n  b I : 0 0\n"
          "NetDegree : 2  n1\n  b O\n  p I\n");
    EXPECT_THROW(read_bookshelf(base_), parse_error);
}

TEST_F(MalformedBookshelfTest, MalformedPinLineThrows) {
    write_valid();
    // "a" with no direction: the unchecked `ls >> node >> dir` used to
    // accept this and push a pin with a default direction.
    write(".nets",
          "UCLA nets 1.0\nNumNets : 1\nNumPins : 2\n"
          "NetDegree : 2  n0\n  a\n  b I : 0 0\n");
    EXPECT_THROW(read_bookshelf(base_), parse_error);
}

TEST_F(MalformedBookshelfTest, BadPinDirectionThrows) {
    write_valid();
    write(".nets",
          "UCLA nets 1.0\nNumNets : 1\nNumPins : 2\n"
          "NetDegree : 2  n0\n  a Q : 0 0\n  b I : 0 0\n");
    EXPECT_THROW(read_bookshelf(base_), parse_error);
}

TEST_F(MalformedBookshelfTest, MalformedPinOffsetThrows) {
    write_valid();
    // Previously ls.fail() was swallowed and the offset silently zeroed.
    write(".nets",
          "UCLA nets 1.0\nNumNets : 1\nNumPins : 2\n"
          "NetDegree : 2  n0\n  a O : 1.5 zz\n  b I : 0 0\n");
    EXPECT_THROW(read_bookshelf(base_), parse_error);
}

TEST_F(MalformedBookshelfTest, DuplicatePinOnNetThrows) {
    write_valid();
    write(".nets",
          "UCLA nets 1.0\nNumNets : 1\nNumPins : 2\n"
          "NetDegree : 2  n0\n  a O : 0 0\n  a I : 0 0\n");
    EXPECT_THROW(read_bookshelf(base_), parse_error);
}

TEST_F(MalformedBookshelfTest, UnknownNetNodeThrows) {
    write_valid();
    write(".nets",
          "UCLA nets 1.0\nNumNets : 1\nNumPins : 2\n"
          "NetDegree : 2  n0\n  ghost O : 0 0\n  b I : 0 0\n");
    EXPECT_THROW(read_bookshelf(base_), parse_error);
}

TEST_F(MalformedBookshelfTest, DuplicateNodeNameThrows) {
    // Before the fix the second "a" silently overwrote the first in the
    // name table, leaving a dangling cell and mis-wired nets.
    write_valid();
    write(".nodes",
          "UCLA nodes 1.0\nNumNodes : 3\nNumTerminals : 0\n"
          "  a 2 1\n  a 3 1\n  b 1 1\n");
    EXPECT_THROW(read_bookshelf(base_), parse_error);
}

TEST_F(MalformedBookshelfTest, NonPositiveNodeDimensionsThrow) {
    write_valid();
    write(".nodes",
          "UCLA nodes 1.0\nNumNodes : 3\nNumTerminals : 1\n"
          "  a 2 -1\n  b 3 1\n  p 1 1 terminal\n");
    EXPECT_THROW(read_bookshelf(base_), parse_error);
}

TEST_F(MalformedBookshelfTest, DeclaredCountMismatchesThrow) {
    write_valid();
    write(".nodes",
          "UCLA nodes 1.0\nNumNodes : 5\nNumTerminals : 1\n"
          "  a 2 1\n  b 3 1\n  p 1 1 terminal\n");
    EXPECT_THROW(read_bookshelf(base_), parse_error);

    write_valid();
    write(".nets",
          "UCLA nets 1.0\nNumNets : 7\nNumPins : 4\n"
          "NetDegree : 2  n0\n  a O : 0 0\n  b I : 0 0\n"
          "NetDegree : 2  n1\n  b O\n  p I\n");
    EXPECT_THROW(read_bookshelf(base_), parse_error);

    write_valid();
    write(".nets",
          "UCLA nets 1.0\nNumNets : 2\nNumPins : 9\n"
          "NetDegree : 2  n0\n  a O : 0 0\n  b I : 0 0\n"
          "NetDegree : 2  n1\n  b O\n  p I\n");
    EXPECT_THROW(read_bookshelf(base_), parse_error);
}

TEST_F(MalformedBookshelfTest, UnparseablePlacementLineThrows) {
    write_valid();
    // Before the fix unparseable .pl lines were silently skipped, leaving
    // the cell at the origin with no indication anything was dropped.
    write(".pl", "UCLA pl 1.0\na xx yy : N\nb 4 0 : N\np -1 0 : N /FIXED\n");
    EXPECT_THROW(read_bookshelf(base_), parse_error);
}

TEST_F(MalformedBookshelfTest, UnknownPlacementNodeThrows) {
    write_valid();
    write(".pl", "UCLA pl 1.0\nghost 0 0 : N\nb 4 0 : N\np -1 0 : N /FIXED\n");
    EXPECT_THROW(read_bookshelf(base_), parse_error);
}

TEST_F(MalformedBookshelfTest, MalformedSclHeaderThrowsParseErrorNotStd) {
    write_valid();
    // std::stod("abc") used to leak a raw std::invalid_argument straight
    // through read_bookshelf, violating the check_error/io_error contract.
    write(".scl",
          "UCLA scl 1.0\nNumRows : 1\nCoreRow Horizontal\n"
          "  Coordinate : abc\n  Height : 2\n"
          "  SubrowOrigin : 0  NumSites : 10\nEnd\n");
    try {
        read_bookshelf(base_);
        FAIL() << "expected parse_error";
    } catch (const parse_error& e) {
        EXPECT_NE(std::string(e.file()).find(".scl"), std::string::npos);
        EXPECT_GT(e.line(), 0u);
    } catch (const std::invalid_argument&) {
        FAIL() << "raw std::invalid_argument leaked from read_bookshelf";
    }
}

TEST_F(MalformedBookshelfTest, ParseErrorIsIoErrorWithContext) {
    write_valid();
    write(".nets",
          "UCLA nets 1.0\nNumNets : 1\nNumPins : 2\n"
          "NetDegree : 2  n0\n  a O : 0 0\n  ghost I : 0 0\n");
    try {
        read_bookshelf(base_);
        FAIL() << "expected parse_error";
    } catch (const io_error& e) { // parse_error derives from io_error
        const parse_error* pe = dynamic_cast<const parse_error*>(&e);
        ASSERT_NE(pe, nullptr);
        EXPECT_NE(pe->file().find(".nets"), std::string::npos);
        EXPECT_EQ(pe->line(), 6u);
        EXPECT_NE(std::string(e.what()).find("ghost"), std::string::npos);
    }
}

TEST_F(MalformedBookshelfTest, NegativeCoordinateRegionReconstruction) {
    // A design living entirely in negative coordinate space: before the
    // fix region_xhi/yhi were seeded at 0.0 (clamping the region to the
    // origin) and region_ylo was taken from the *first* row.
    write(".nodes",
          "UCLA nodes 1.0\nNumNodes : 2\nNumTerminals : 0\n"
          "  a 2 2\n  b 3 2\n");
    write(".nets",
          "UCLA nets 1.0\nNumNets : 1\nNumPins : 2\n"
          "NetDegree : 2  n0\n  a O : 0 0\n  b I : 0 0\n");
    write(".pl", "UCLA pl 1.0\na -28 -10 : N\nb -20 -8 : N\n");
    write(".scl",
          "UCLA scl 1.0\nNumRows : 2\n"
          "CoreRow Horizontal\n  Coordinate : -10\n  Height : 2\n"
          "  SubrowOrigin : -30  NumSites : 20\nEnd\n"
          "CoreRow Horizontal\n  Coordinate : -8\n  Height : 2\n"
          "  SubrowOrigin : -30  NumSites : 20\nEnd\n");
    const bookshelf_design design = read_bookshelf(base_);
    const rect region = design.nl.region();
    EXPECT_DOUBLE_EQ(region.xlo, -30.0);
    EXPECT_DOUBLE_EQ(region.xhi, -10.0);
    EXPECT_DOUBLE_EQ(region.ylo, -10.0);
    EXPECT_DOUBLE_EQ(region.yhi, -6.0);
    EXPECT_EQ(design.nl.num_rows(), 2u);
}

TEST_F(MalformedBookshelfTest, UnsortedRowsRegionUsesMinima) {
    // Rows listed top-to-bottom: region_ylo must be the minimum row
    // coordinate, not the first one seen.
    write(".nodes",
          "UCLA nodes 1.0\nNumNodes : 2\nNumTerminals : 0\n"
          "  a 2 2\n  b 3 2\n");
    write(".nets",
          "UCLA nets 1.0\nNumNets : 1\nNumPins : 2\n"
          "NetDegree : 2  n0\n  a O : 0 0\n  b I : 0 0\n");
    write(".pl", "UCLA pl 1.0\na 2 0 : N\nb 8 8 : N\n");
    write(".scl",
          "UCLA scl 1.0\nNumRows : 2\n"
          "CoreRow Horizontal\n  Coordinate : 8\n  Height : 2\n"
          "  SubrowOrigin : 0  NumSites : 20\nEnd\n"
          "CoreRow Horizontal\n  Coordinate : 0\n  Height : 2\n"
          "  SubrowOrigin : 0  NumSites : 20\nEnd\n");
    const bookshelf_design design = read_bookshelf(base_);
    const rect region = design.nl.region();
    EXPECT_DOUBLE_EQ(region.ylo, 0.0);
    EXPECT_DOUBLE_EQ(region.yhi, 10.0);
    EXPECT_DOUBLE_EQ(region.xlo, 0.0);
    EXPECT_DOUBLE_EQ(region.xhi, 20.0);
}

TEST_F(MalformedBookshelfTest, PinLineBeforeNetDegreeThrows) {
    write_valid();
    write(".nets",
          "UCLA nets 1.0\nNumNets : 1\nNumPins : 2\n"
          "  a O : 0 0\nNetDegree : 1  n0\n  b I : 0 0\n");
    EXPECT_THROW(read_bookshelf(base_), parse_error);
}

// --- byte-exact writer output --------------------------------------------
// The writer formats through std::to_chars; these pin its bytes against an
// iostream at setprecision(17), i.e. "%.17g".

/// The four files written through iostreams in the writer's layouts, in
/// .nodes, .nets, .pl, .scl order.
std::vector<std::string> iostream_reference(const netlist& nl, const placement& pl) {
    std::ostringstream nodes, nets, pls, scl;
    for (std::ostringstream* out : {&nodes, &nets, &pls, &scl}) {
        *out << std::setprecision(17);
    }
    nodes << "UCLA nodes 1.0\n";
    nodes << "NumNodes : " << nl.num_cells() << "\n";
    nodes << "NumTerminals : " << nl.num_fixed() << "\n";
    for (const cell& c : nl.cells()) {
        nodes << "  " << c.name << ' ' << c.width << ' ' << c.height;
        if (c.fixed) nodes << " terminal";
        nodes << '\n';
    }
    nets << "UCLA nets 1.0\n";
    nets << "NumNets : " << nl.num_nets() << "\n";
    nets << "NumPins : " << nl.num_pins() << "\n";
    for (const net& n : nl.nets()) {
        nets << "NetDegree : " << n.degree() << "  " << n.name << '\n';
        for (std::size_t k = 0; k < n.pins.size(); ++k) {
            const pin& p = n.pins[k];
            const char dir = (k == n.driver) ? 'O' : 'I';
            nets << "  " << nl.cell_at(p.cell).name << ' ' << dir << " : "
                 << p.offset.x << ' ' << p.offset.y << '\n';
        }
    }
    pls << "UCLA pl 1.0\n";
    for (cell_id i = 0; i < nl.num_cells(); ++i) {
        const cell& c = nl.cell_at(i);
        pls << c.name << ' ' << (pl[i].x - c.width / 2) << ' ' << (pl[i].y - c.height / 2)
            << " : N";
        if (c.fixed) pls << " /FIXED";
        pls << '\n';
    }
    const rect r = nl.region();
    scl << "UCLA scl 1.0\n";
    scl << "NumRows : " << nl.num_rows() << "\n";
    for (std::size_t row = 0; row < nl.num_rows(); ++row) {
        scl << "CoreRow Horizontal\n";
        scl << "  Coordinate : " << (r.ylo + static_cast<double>(row) * nl.row_height())
            << "\n";
        scl << "  Height : " << nl.row_height() << "\n";
        scl << "  SubrowOrigin : " << r.xlo << "  NumSites : "
            << static_cast<std::size_t>(r.width()) << "\n";
        scl << "End\n";
    }
    return {nodes.str(), nets.str(), pls.str(), scl.str()};
}

std::string slurp(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream content;
    content << in.rdbuf();
    return content.str();
}

class BookshelfBytesTest : public BookshelfTest {
protected:
    /// Writes the design and returns its four files, each asserted equal
    /// to the iostream reference.
    std::vector<std::string> expect_reference_bytes(const netlist& nl,
                                                    const placement& pl) {
        write_bookshelf(nl, pl, base_);
        const std::vector<std::string> expected = iostream_reference(nl, pl);
        std::vector<std::string> files;
        const char* exts[] = {".nodes", ".nets", ".pl", ".scl"};
        for (std::size_t f = 0; f < expected.size(); ++f) {
            files.push_back(slurp(base_ + exts[f]));
            EXPECT_EQ(files.back().size(), expected[f].size()) << exts[f];
            EXPECT_TRUE(files.back() == expected[f]) << exts[f] << " differs";
        }
        return files;
    }
};

TEST_F(BookshelfBytesTest, LegalizedDesignMatchesIostreamReference) {
    generator_options opt;
    opt.num_cells = 2000;
    opt.num_nets = 2200;
    opt.num_rows = 30;
    opt.num_pads = 64;
    opt.seed = 7;
    const netlist nl = generate_circuit(opt);
    placer_options popt;
    popt.max_iterations = 20;
    placer p(nl, popt);
    placement legal;
    legalize(nl, p.run(), legal);
    ASSERT_GT(nl.num_fixed(), 0u);
    expect_reference_bytes(nl, legal);
}

TEST_F(BookshelfBytesTest, FormatEdgeCasesMatchIostreamReference) {
    const double third = 1.0 / 3;
    netlist nl;
    nl.set_region(rect(-0.0, -2.5, 123456789012.5, -2.5 + 4 * third));
    nl.set_row_height(third);
    const double widths[] = {5e-324, 2.2250738585072014e-308, 1e-5, 0.1, third,
                             1e16, 1e17, 123456789012.5, 2.0};
    for (std::size_t i = 0; i < std::size(widths); ++i) {
        cell c;
        c.name = "c" + std::to_string(i);
        c.width = widths[i];
        c.height = widths[std::size(widths) - 1 - i];
        c.fixed = i % 3 == 0;
        nl.add_cell(c);
    }
    const double values[] = {-0.0, 5e-324, 2.2250738585072014e-308, 1e-5, 0.1, third,
                             1e16, 1e17, 123456789012.5, -2.5, 2.0};
    net n;
    n.name = "edges";
    for (cell_id i = 0; i < nl.num_cells(); ++i) {
        n.pins.push_back({i, point(values[i], values[std::size(values) - 1 - i])});
    }
    n.driver = 2;
    nl.add_net(n);
    placement pl(nl.num_cells());
    for (std::size_t i = 0; i < pl.size(); ++i) {
        pl[i] = point(values[i], values[(i + 4) % std::size(values)]);
    }
    const std::vector<std::string> files = expect_reference_bytes(nl, pl);
    // The "%.17g" spellings actually reach the files.
    EXPECT_NE(files[1].find("  c0 I : -0 2\n"), std::string::npos);
    EXPECT_NE(files[1].find("  c1 I : 4.9406564584124654e-324 -2.5\n"), std::string::npos);
    EXPECT_NE(files[1].find("  c2 O : 2.2250738585072014e-308 123456789012.5\n"),
              std::string::npos);
    EXPECT_NE(files[1].find("  c3 I : 1.0000000000000001e-05 1e+17\n"), std::string::npos);
    EXPECT_NE(files[1].find("  c4 I : 0.10000000000000001 10000000000000000\n"),
              std::string::npos);
    EXPECT_NE(files[1].find("  c5 I : 0.33333333333333331 0.33333333333333331\n"),
              std::string::npos);
    EXPECT_EQ(files[2].compare(12, 6, "c0 -0 "), 0) << files[2];
    EXPECT_NE(files[3].find("  SubrowOrigin : -0  NumSites : 123456789012\n"),
              std::string::npos);
}

TEST_F(BookshelfBytesTest, FilesLargerThanTheBufferMatchIostreamReference) {
    generator_options opt;
    opt.num_cells = 8000;
    opt.num_nets = 8800;
    opt.num_rows = 800;
    opt.num_pads = 64;
    opt.seed = 3;
    const netlist nl = generate_circuit(opt);
    // Full-precision coordinates spread over the region.
    const rect r = nl.region();
    placement pl = nl.initial_placement();
    for (cell_id i = 0; i < nl.num_cells(); ++i) {
        if (nl.cell_at(i).fixed) continue;
        double ip;
        pl[i] = point(r.xlo + r.width() * std::modf(i * 0.6180339887498949, &ip),
                      r.ylo + r.height() * std::modf(i * 0.4142135623730950, &ip));
    }
    for (const std::string& file : expect_reference_bytes(nl, pl)) {
        EXPECT_GT(file.size(), std::size_t{64} << 10); // every file drains mid-way
    }
}

TEST_F(BookshelfTest, TallMovableNodesBecomeBlocks) {
    {
        std::ofstream nodes(base_ + ".nodes");
        nodes << "UCLA nodes 1.0\nNumNodes : 2\nNumTerminals : 0\n"
              << "  a 2 1\n  macro 8 6\n";
        std::ofstream nets(base_ + ".nets");
        nets << "UCLA nets 1.0\nNumNets : 1\nNumPins : 2\n"
             << "NetDegree : 2 n\n  a O : 0 0\n  macro I : 0 0\n";
        std::ofstream pl(base_ + ".pl");
        pl << "UCLA pl 1.0\na 0 0 : N\nmacro 3 0 : N\n";
    }
    const bookshelf_design design = read_bookshelf(base_);
    EXPECT_EQ(design.nl.cell_at(0).kind, cell_kind::standard);
    EXPECT_EQ(design.nl.cell_at(1).kind, cell_kind::block);
}

} // namespace
} // namespace gpf
