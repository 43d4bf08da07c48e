#include "core/metrics.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <vector>

#include "density/empty_square.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace gpf {

double net_hpwl(const netlist& nl, const placement& pl, const net& n) {
    if (n.degree() < 2) return 0.0;
    rect bbox;
    for (const pin& p : n.pins) bbox.expand_to(pin_position(nl, pl, p));
    return bbox.half_perimeter();
}

double total_hpwl(const netlist& nl, const placement& pl) {
    GPF_CHECK(pl.size() == nl.num_cells());
    // Per-net HPWL in parallel, summed serially in net order: the bits of
    // the serial loop for any thread count.
    const auto& nets = nl.nets();
    std::vector<double> per_net(nets.size());
    parallel_for_chunks(nets.size(), [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) per_net[i] = net_hpwl(nl, pl, nets[i]);
    }, 1024);
    double acc = 0.0;
    for (const double h : per_net) acc += h;
    return acc;
}

double weighted_hpwl(const netlist& nl, const placement& pl) {
    GPF_CHECK(pl.size() == nl.num_cells());
    double acc = 0.0;
    for (const net& n : nl.nets()) acc += n.weight * net_hpwl(nl, pl, n);
    return acc;
}

double total_overlap_area(const netlist& nl, const placement& pl) {
    GPF_CHECK(pl.size() == nl.num_cells());

    // Collect candidate rectangles (movable cells + fixed blocks).
    struct item {
        rect r;
    };
    std::vector<item> items;
    items.reserve(nl.num_cells());
    for (cell_id i = 0; i < nl.num_cells(); ++i) {
        const cell& c = nl.cell_at(i);
        if (c.kind == cell_kind::pad) continue;
        items.push_back({rect::from_center(pl[i], c.width, c.height)});
    }
    if (items.size() < 2) return 0.0;

    // Bucket by a grid sized to the average cell extent.
    rect extent;
    double avg_side = 0.0;
    for (const item& it : items) {
        extent = bounding_union(extent, it.r);
        avg_side += std::sqrt(std::max(1e-12, it.r.area()));
    }
    avg_side /= static_cast<double>(items.size());
    const double cell_size = std::max(avg_side * 2.0, 1e-9);
    const auto nx = static_cast<std::size_t>(
        std::max(1.0, std::ceil(extent.width() / cell_size)));
    const auto ny = static_cast<std::size_t>(
        std::max(1.0, std::ceil(extent.height() / cell_size)));

    std::vector<std::vector<std::size_t>> buckets(nx * ny);
    const auto bucket_range = [&](const rect& r) {
        const auto clampi = [](double v, std::size_t n) {
            return std::min(n - 1, static_cast<std::size_t>(std::max(0.0, v)));
        };
        const std::size_t x0 = clampi((r.xlo - extent.xlo) / cell_size, nx);
        const std::size_t x1 = clampi((r.xhi - extent.xlo) / cell_size, nx);
        const std::size_t y0 = clampi((r.ylo - extent.ylo) / cell_size, ny);
        const std::size_t y1 = clampi((r.yhi - extent.ylo) / cell_size, ny);
        return std::array<std::size_t, 4>{x0, x1, y0, y1};
    };

    for (std::size_t idx = 0; idx < items.size(); ++idx) {
        const auto [x0, x1, y0, y1] = bucket_range(items[idx].r);
        for (std::size_t bx = x0; bx <= x1; ++bx)
            for (std::size_t by = y0; by <= y1; ++by)
                buckets[bx * ny + by].push_back(idx);
    }

    // Pairwise overlap, deduplicated by only counting a pair in the bucket
    // containing the lower-left corner of its intersection.
    double acc = 0.0;
    for (std::size_t bx = 0; bx < nx; ++bx) {
        for (std::size_t by = 0; by < ny; ++by) {
            const auto& bucket = buckets[bx * ny + by];
            for (std::size_t a = 0; a < bucket.size(); ++a) {
                for (std::size_t b = a + 1; b < bucket.size(); ++b) {
                    const rect inter = intersect(items[bucket[a]].r, items[bucket[b]].r);
                    if (inter.empty() || inter.area() <= 0.0) continue;
                    const auto [cx0, cx1, cy0, cy1] = bucket_range(inter);
                    static_cast<void>(cx1);
                    static_cast<void>(cy1);
                    if (cx0 == bx && cy0 == by) acc += inter.area();
                }
            }
        }
    }
    return acc;
}

double in_region_fraction(const netlist& nl, const placement& pl) {
    GPF_CHECK(pl.size() == nl.num_cells());
    std::size_t inside = 0;
    std::size_t movable = 0;
    const rect region = nl.region();
    // Tolerance of one millionth of the region diagonal absorbs rounding.
    const double tol = 1e-6 * (region.width() + region.height());
    const rect grown(region.xlo - tol, region.ylo - tol, region.xhi + tol,
                     region.yhi + tol);
    for (cell_id i = 0; i < nl.num_cells(); ++i) {
        const cell& c = nl.cell_at(i);
        if (c.fixed) continue;
        ++movable;
        if (grown.contains(rect::from_center(pl[i], c.width, c.height))) ++inside;
    }
    return movable == 0 ? 1.0 : static_cast<double>(inside) / static_cast<double>(movable);
}

placement_quality evaluate_placement(const netlist& nl, const placement& pl,
                                     std::size_t density_bins) {
    placement_quality q;
    q.hpwl = total_hpwl(nl, pl);
    q.overlap_area = total_overlap_area(nl, pl);
    const density_map density = compute_density(nl, pl, density_bins);
    q.max_density = density.max_density();
    q.largest_empty_square = largest_empty_square_side(density);
    q.in_region = in_region_fraction(nl, pl);
    return q;
}

} // namespace gpf
