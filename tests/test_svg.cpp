#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iterator>
#include <sstream>

#include "test_paths.hpp"
#include "core/metrics.hpp"
#include "netlist/generator.hpp"
#include "report/svg.hpp"
#include "util/check.hpp"

namespace gpf {
namespace {

std::string slurp(const std::string& path) {
    std::ifstream in(path);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
}

class SvgTest : public ::testing::Test {
protected:
    void SetUp() override {
        path_ = testing::unique_temp_base("gpf_svg_test") + ".svg";
    }
    void TearDown() override { std::filesystem::remove(path_); }
    std::string path_;
};

TEST_F(SvgTest, PlacementProducesWellFormedSvg) {
    generator_options opt;
    opt.num_cells = 50;
    opt.num_nets = 55;
    opt.num_rows = 4;
    opt.num_pads = 8;
    const netlist nl = generate_circuit(opt);
    write_placement_svg(nl, nl.centered_placement(), path_);

    const std::string svg = slurp(path_);
    EXPECT_NE(svg.find("<svg"), std::string::npos);
    EXPECT_NE(svg.find("</svg>"), std::string::npos);
    // One rect per cell at least (plus background and region).
    std::size_t rects = 0;
    for (std::size_t pos = svg.find("<rect"); pos != std::string::npos;
         pos = svg.find("<rect", pos + 1)) {
        ++rects;
    }
    EXPECT_GE(rects, nl.num_cells());
}

TEST_F(SvgTest, NetBoxesAreOptionalAndCapped) {
    generator_options opt;
    opt.num_cells = 40;
    opt.num_nets = 50;
    opt.num_rows = 4;
    opt.num_pads = 8;
    const netlist nl = generate_circuit(opt);

    svg_options so;
    so.draw_nets = true;
    so.max_net_boxes = 5;
    write_placement_svg(nl, nl.centered_placement(), path_, so);
    const std::string with_nets = slurp(path_);

    svg_options off;
    off.draw_nets = false;
    write_placement_svg(nl, nl.centered_placement(), path_, off);
    const std::string without = slurp(path_);

    EXPECT_GT(with_nets.size(), without.size());
}

TEST_F(SvgTest, HeatmapCoversAllBins) {
    const density_map grid(rect(0, 0, 8, 4), 8, 4);
    std::vector<double> values(8 * 4);
    for (std::size_t i = 0; i < values.size(); ++i) values[i] = static_cast<double>(i);
    write_heatmap_svg(grid, values, path_);
    const std::string svg = slurp(path_);
    std::size_t rects = 0;
    for (std::size_t pos = svg.find("<rect"); pos != std::string::npos;
         pos = svg.find("<rect", pos + 1)) {
        ++rects;
    }
    EXPECT_EQ(rects, 32u);
    // Hottest bin is red, coldest blue.
    EXPECT_NE(svg.find("#ff0000"), std::string::npos);
    EXPECT_NE(svg.find("#0000ff"), std::string::npos);
}

TEST_F(SvgTest, HeatmapRejectsWrongSize) {
    const density_map grid(rect(0, 0, 4, 4), 4, 4);
    EXPECT_THROW(write_heatmap_svg(grid, std::vector<double>(3), path_), check_error);
}

TEST_F(SvgTest, ConstantHeatmapDoesNotDivideByZero) {
    const density_map grid(rect(0, 0, 2, 2), 2, 2);
    EXPECT_NO_THROW(write_heatmap_svg(grid, std::vector<double>(4, 1.0), path_));
}

// --- iostream reference ------------------------------------------------------
//
// The writers as they were when they formatted through an ofstream at
// setprecision(8), into a string. The library's writers format through
// std::to_chars and must produce these bytes.

std::string reference_heat_color(double t) {
    t = std::clamp(t, 0.0, 1.0);
    int r = 0;
    int g = 0;
    int b = 0;
    if (t < 0.5) {
        const double u = t * 2.0;
        r = static_cast<int>(255 * u);
        g = static_cast<int>(255 * u);
        b = static_cast<int>(255 * (1.0 - u));
    } else {
        const double u = (t - 0.5) * 2.0;
        r = 255;
        g = static_cast<int>(255 * (1.0 - u));
        b = 0;
    }
    char buf[8];
    std::snprintf(buf, sizeof(buf), "#%02x%02x%02x", r, g, b);
    return buf;
}

std::string reference_placement_svg(const netlist& nl, const placement& pl,
                                    const svg_options& options) {
    const rect region = nl.region();
    const double s = options.pixels_per_unit;
    const double margin = 2.0;
    std::ostringstream out;
    out << std::setprecision(8);
    const double width = (region.width() + 2 * margin) * s;
    const double height = (region.height() + 2 * margin) * s;
    const auto sx = [&](double x) { return (x - region.xlo + margin) * s; };
    const auto sy = [&](double y) { return height - (y - region.ylo + margin) * s; };
    out << "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"" << width
        << "\" height=\"" << height << "\">\n";
    out << "<rect width=\"100%\" height=\"100%\" fill=\"white\"/>\n";
    out << "<rect x=\"" << sx(region.xlo) << "\" y=\"" << sy(region.yhi) << "\" width=\""
        << region.width() * s << "\" height=\"" << region.height() * s
        << "\" fill=\"#f8f8f8\" stroke=\"#444\"/>\n";
    for (std::size_t r = 1; r < nl.num_rows(); ++r) {
        const double y = region.ylo + static_cast<double>(r) * nl.row_height();
        out << "<line x1=\"" << sx(region.xlo) << "\" y1=\"" << sy(y) << "\" x2=\""
            << sx(region.xhi) << "\" y2=\"" << sy(y)
            << "\" stroke=\"#eee\" stroke-width=\"0.5\"/>\n";
    }
    if (options.draw_nets) {
        std::size_t drawn = 0;
        for (const net& n : nl.nets()) {
            if (drawn >= options.max_net_boxes) break;
            if (n.degree() < 2) continue;
            rect bbox;
            for (const pin& p : n.pins) bbox.expand_to(pin_position(nl, pl, p));
            out << "<rect x=\"" << sx(bbox.xlo) << "\" y=\"" << sy(bbox.yhi)
                << "\" width=\"" << bbox.width() * s << "\" height=\"" << bbox.height() * s
                << "\" fill=\"none\" stroke=\"#8fbf8f\" stroke-width=\"0.4\"/>\n";
            ++drawn;
        }
    }
    for (cell_id i = 0; i < nl.num_cells(); ++i) {
        const cell& c = nl.cell_at(i);
        const rect r = rect::from_center(pl[i], c.width, c.height);
        std::string fill = "#b0b0d8";
        if (options.color_by_kind) {
            switch (c.kind) {
                case cell_kind::standard: fill = "#b0b0d8"; break;
                case cell_kind::block: fill = "#6080c0"; break;
                case cell_kind::pad: fill = "#303030"; break;
            }
        }
        out << "<rect x=\"" << sx(r.xlo) << "\" y=\"" << sy(r.yhi) << "\" width=\""
            << r.width() * s << "\" height=\"" << r.height() * s << "\" fill=\"" << fill
            << "\" fill-opacity=\"0.8\" stroke=\"#555\" stroke-width=\"0.3\"/>\n";
    }
    out << "</svg>\n";
    return out.str();
}

std::string reference_heatmap_svg(const density_map& grid, const std::vector<double>& values,
                                  double pixels_per_unit) {
    double lo = values.empty() ? 0.0 : values[0];
    double hi = lo;
    for (const double v : values) {
        lo = std::min(lo, v);
        hi = std::max(hi, v);
    }
    const double span = hi > lo ? hi - lo : 1.0;
    const rect region = grid.region();
    const double s = pixels_per_unit;
    std::ostringstream out;
    out << std::setprecision(8);
    out << "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"" << region.width() * s
        << "\" height=\"" << region.height() * s << "\">\n";
    for (std::size_t ix = 0; ix < grid.nx(); ++ix) {
        for (std::size_t iy = 0; iy < grid.ny(); ++iy) {
            const double v = (values[ix * grid.ny() + iy] - lo) / span;
            const double x = static_cast<double>(ix) * grid.bin_width() * s;
            const double y =
                (region.height() - static_cast<double>(iy + 1) * grid.bin_height()) * s;
            out << "<rect x=\"" << x << "\" y=\"" << y << "\" width=\""
                << grid.bin_width() * s << "\" height=\"" << grid.bin_height() * s
                << "\" fill=\"" << reference_heat_color(v) << "\"/>\n";
        }
    }
    out << "</svg>\n";
    return out.str();
}

/// Doubles on the edges of "%.8g": signed zero, subnormal and tiny values,
/// the switch to exponent notation on either side, rounding that carries
/// into a new digit, and ties at the eighth digit.
const double kEdgeValues[] = {-0.0,        5e-324,       1e-5,        9.99999995e-5,
                              0.0001,      0.1,          1.0 / 3,     9.99999995,
                              12345678.5,  99999999.5,   1e8,         123456789012.5,
                              1e16,        -2.5,         -1e-7,       0.5};

/// A one-net design whose cells, pins and region put the values above
/// into the image's coordinates.
netlist edge_design(placement& pl) {
    const std::size_t n = std::size(kEdgeValues);
    netlist nl;
    nl.set_region(rect(-0.0, -2.5, 12345.678, 4.0 / 3));
    nl.set_row_height(1.0 / 3);
    net wire;
    wire.name = "edges";
    pl.clear();
    for (std::size_t i = 0; i < n; ++i) {
        cell c;
        c.name = "c" + std::to_string(i);
        c.width = std::max(std::abs(kEdgeValues[i]), 5e-324);
        c.height = std::max(std::abs(kEdgeValues[n - 1 - i]), 5e-324);
        c.kind = i % 5 == 1 ? cell_kind::block : i % 5 == 2 ? cell_kind::pad : cell_kind::standard;
        c.fixed = c.kind == cell_kind::pad;
        const cell_id id = nl.add_cell(c);
        wire.pins.push_back({id, point(kEdgeValues[(i + 3) % n], kEdgeValues[(i + 7) % n])});
        pl.push_back(point(kEdgeValues[i], kEdgeValues[(i + 5) % n]));
    }
    nl.add_net(wire);
    // Two-pin nets over pairs of cells, so several net boxes are drawn.
    for (std::size_t i = 0; i + 1 < n; i += 2) {
        net pair;
        pair.name = "pair" + std::to_string(i);
        pair.pins = {{static_cast<cell_id>(i), point()}, {static_cast<cell_id>(i + 1), point()}};
        nl.add_net(pair);
    }
    return nl;
}

TEST_F(SvgTest, PlacementBytesMatchIostreamReferenceOnFormatEdges) {
    placement pl;
    const netlist nl = edge_design(pl);
    for (const double scale : {8.0, 1.0 / 3, -1e-9}) {
        SCOPED_TRACE(scale);
        svg_options so;
        so.pixels_per_unit = scale;
        so.draw_nets = true;
        write_placement_svg(nl, pl, path_, so);
        const std::string got = slurp(path_);
        const std::string expected = reference_placement_svg(nl, pl, so);
        EXPECT_EQ(got.size(), expected.size());
        EXPECT_TRUE(got == expected) << got;
    }
    // The edge spellings reach the file.
    svg_options unit;
    unit.pixels_per_unit = 1.0;
    unit.draw_nets = true;
    write_placement_svg(nl, pl, path_, unit);
    const std::string svg = slurp(path_);
    EXPECT_TRUE(svg == reference_placement_svg(nl, pl, unit));
    EXPECT_NE(svg.find("\"1e+08\""), std::string::npos);
    EXPECT_NE(svg.find("\"12345678\""), std::string::npos);
    EXPECT_NE(svg.find("e-324\""), std::string::npos);
}

TEST_F(SvgTest, LargePlacementWithNetBoxesMatchesIostreamReference) {
    generator_options opt;
    opt.num_cells = 2000;
    opt.num_nets = 2200;
    opt.num_rows = 30;
    opt.num_pads = 64;
    opt.num_blocks = 4;
    opt.block_area_fraction = 0.1;
    opt.seed = 7;
    const netlist nl = generate_circuit(opt);
    const rect r = nl.region();
    placement pl = nl.initial_placement();
    for (cell_id i = 0; i < nl.num_cells(); ++i) {
        if (nl.cell_at(i).fixed) continue;
        double ip;
        pl[i] = point(r.xlo + r.width() * std::modf(i * 0.6180339887498949, &ip),
                      r.ylo + r.height() * std::modf(i * 0.4142135623730950, &ip));
    }
    svg_options so;
    so.draw_nets = true;
    write_placement_svg(nl, pl, path_, so);
    const std::string got = slurp(path_);
    EXPECT_GT(got.size(), std::size_t{64} << 10); // the buffer drains mid-way
    EXPECT_TRUE(got == reference_placement_svg(nl, pl, so));
}

TEST_F(SvgTest, HeatmapBytesMatchIostreamReferenceOnFormatEdges) {
    const density_map grid(rect(-0.0, 1e-7, 99999999.5, 1e-7 + 1.0), 7, 3);
    std::vector<double> values(grid.nx() * grid.ny());
    for (std::size_t i = 0; i < values.size(); ++i) {
        values[i] = kEdgeValues[i % std::size(kEdgeValues)];
    }
    for (const double scale : {8.0, 1.0 / 3, -0.5, 1e-9}) {
        SCOPED_TRACE(scale);
        write_heatmap_svg(grid, values, path_, scale);
        const std::string got = slurp(path_);
        EXPECT_TRUE(got == reference_heatmap_svg(grid, values, scale)) << got;
    }
    write_heatmap_svg(grid, values, path_, -0.5);
    EXPECT_NE(slurp(path_).find("<rect x=\"-0\""), std::string::npos);
}

} // namespace
} // namespace gpf
