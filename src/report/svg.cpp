#include "report/svg.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "core/metrics.hpp"
#include "util/check.hpp" // io_error
#include "util/text_buffer.hpp"

namespace gpf {

namespace {

std::ofstream open_svg(const std::string& path) {
    std::ofstream out(path);
    if (!out) throw io_error("cannot open '" + path + "' for writing");
    return out;
}

/// Coordinates print as "%.8g", what the writers' iostream at
/// setprecision(8) printed.
constexpr int kSvgPrecision = 8;

/// Map a [0,1] heat value onto a blue→yellow→red ramp.
std::string heat_color(double t) {
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

} // namespace

void write_placement_svg(const netlist& nl, const placement& pl,
                         const std::string& path, const svg_options& options) {
    GPF_CHECK(pl.size() == nl.num_cells());
    const rect region = nl.region();
    const double s = options.pixels_per_unit;
    const double margin = 2.0; // layout units around the core

    auto out = open_svg(path);
    text_buffer buf(kSvgPrecision);
    buf.attach(out);
    const double width = (region.width() + 2 * margin) * s;
    const double height = (region.height() + 2 * margin) * s;
    // SVG y grows downward; flip so the layout's y grows upward.
    const auto sx = [&](double x) { return (x - region.xlo + margin) * s; };
    const auto sy = [&](double y) { return height - (y - region.ylo + margin) * s; };

    buf << "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"" << width
        << "\" height=\"" << height << "\">\n";
    buf << "<rect width=\"100%\" height=\"100%\" fill=\"white\"/>\n";

    // Core region outline + row lines.
    buf << "<rect x=\"" << sx(region.xlo) << "\" y=\"" << sy(region.yhi) << "\" width=\""
        << region.width() * s << "\" height=\"" << region.height() * s
        << "\" fill=\"#f8f8f8\" stroke=\"#444\"/>\n";
    for (std::size_t r = 1; r < nl.num_rows(); ++r) {
        const double y = region.ylo + static_cast<double>(r) * nl.row_height();
        buf << "<line x1=\"" << sx(region.xlo) << "\" y1=\"" << sy(y) << "\" x2=\""
            << sx(region.xhi) << "\" y2=\"" << sy(y)
            << "\" stroke=\"#eee\" stroke-width=\"0.5\"/>";
        buf.end_line();
    }

    // Net bounding boxes (optional, capped).
    if (options.draw_nets) {
        std::size_t drawn = 0;
        for (const net& n : nl.nets()) {
            if (drawn >= options.max_net_boxes) break;
            if (n.degree() < 2) continue;
            rect bbox;
            for (const pin& p : n.pins) bbox.expand_to(pin_position(nl, pl, p));
            buf << "<rect x=\"" << sx(bbox.xlo) << "\" y=\"" << sy(bbox.yhi)
                << "\" width=\"" << bbox.width() * s << "\" height=\""
                << bbox.height() * s
                << "\" fill=\"none\" stroke=\"#8fbf8f\" stroke-width=\"0.4\"/>";
            buf.end_line();
            ++drawn;
        }
    }

    // Cells.
    for (cell_id i = 0; i < nl.num_cells(); ++i) {
        const cell& c = nl.cell_at(i);
        const rect r = rect::from_center(pl[i], c.width, c.height);
        const char* fill = "#b0b0d8";
        if (options.color_by_kind) {
            switch (c.kind) {
                case cell_kind::standard: fill = "#b0b0d8"; break;
                case cell_kind::block: fill = "#6080c0"; break;
                case cell_kind::pad: fill = "#303030"; break;
            }
        }
        buf << "<rect x=\"" << sx(r.xlo) << "\" y=\"" << sy(r.yhi) << "\" width=\""
            << r.width() * s << "\" height=\"" << r.height() * s << "\" fill=\"" << fill
            << "\" fill-opacity=\"0.8\" stroke=\"#555\" stroke-width=\"0.3\"/>";
        buf.end_line();
    }
    buf << "</svg>\n";
    buf.drain();
}

void write_heatmap_svg(const density_map& grid, const std::vector<double>& values,
                       const std::string& path, double pixels_per_unit) {
    GPF_CHECK(values.size() == grid.nx() * grid.ny());
    double lo = values.empty() ? 0.0 : values[0];
    double hi = lo;
    for (const double v : values) {
        lo = std::min(lo, v);
        hi = std::max(hi, v);
    }
    const double span = hi > lo ? hi - lo : 1.0;

    const rect region = grid.region();
    const double s = pixels_per_unit;
    auto out = open_svg(path);
    text_buffer buf(kSvgPrecision);
    buf.attach(out);
    buf << "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"" << region.width() * s
        << "\" height=\"" << region.height() * s << "\">\n";
    for (std::size_t ix = 0; ix < grid.nx(); ++ix) {
        for (std::size_t iy = 0; iy < grid.ny(); ++iy) {
            const double v = (values[ix * grid.ny() + iy] - lo) / span;
            const double x = static_cast<double>(ix) * grid.bin_width() * s;
            // Flip y so layout-up is image-up.
            const double y =
                (region.height() - static_cast<double>(iy + 1) * grid.bin_height()) * s;
            buf << "<rect x=\"" << x << "\" y=\"" << y << "\" width=\""
                << grid.bin_width() * s << "\" height=\"" << grid.bin_height() * s
                << "\" fill=\"" << heat_color(v) << "\"/>";
            buf.end_line();
        }
    }
    buf << "</svg>\n";
    buf.drain();
}

} // namespace gpf
