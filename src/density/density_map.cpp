#include "density/density_map.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"
#include "util/fault.hpp"
#include "util/profiler.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

namespace gpf {

density_map::density_map(const rect& region, std::size_t nx, std::size_t ny)
    : region_(region), nx_(nx), ny_(ny) {
    GPF_CHECK(!region.empty());
    GPF_CHECK(nx >= 1 && ny >= 1);
    bin_w_ = region.width() / static_cast<double>(nx);
    bin_h_ = region.height() / static_cast<double>(ny);
    demand_.assign(nx * ny, 0.0);
}

point density_map::bin_center(std::size_t ix, std::size_t iy) const {
    GPF_DCHECK(ix < nx_ && iy < ny_);
    return point(region_.xlo + (static_cast<double>(ix) + 0.5) * bin_w_,
                 region_.ylo + (static_cast<double>(iy) + 0.5) * bin_h_);
}

void density_map::clear() {
    std::fill(demand_.begin(), demand_.end(), 0.0);
    supply_ = 0.0;
    finalized_ = false;
}

void density_map::add_rect(const rect& r, double weight) {
    stamp(r, weight, demand_);
    finalized_ = false;
}

namespace {

/// Row-run decomposition of one axis of a clipped stamp: the covered bin
/// range [lo, hi], split into an optional partial head bin, a fully
/// covered interior span [full_lo, full_hi], and an optional partial tail
/// bin. Fractions are coverage ratios in [0, 1]; a bin whose boundary the
/// segment sits on bitwise is classified exactly — full coverage deposits
/// exactly the stamp weight (never area/area ≈ 1 ± ulp), zero coverage
/// deposits nothing at all.
struct axis_run {
    std::size_t lo = 0, hi = 0;           ///< covered bin range, inclusive
    std::size_t full_lo = 1, full_hi = 0; ///< full subrange (empty when lo > hi)
    double frac_lo = 0.0, frac_hi = 0.0;  ///< partial coverage of lo / hi
    bool lo_partial = false, hi_partial = false;
    bool empty = true;
};

axis_run decompose_axis(double seg_lo, double seg_hi, double origin, double bin,
                        std::size_t count) {
    axis_run run;
    const auto last = static_cast<std::ptrdiff_t>(count) - 1;
    const auto edge = [&](std::ptrdiff_t i) {
        return origin + static_cast<double>(i) * bin;
    };
    // First bin whose span the segment enters, and the last bin whose low
    // edge lies strictly below seg_hi (ceil - 1, so a segment ending
    // bitwise on an edge never claims the bin above it).
    const std::ptrdiff_t i0 =
        std::clamp(static_cast<std::ptrdiff_t>(std::floor((seg_lo - origin) / bin)),
                   std::ptrdiff_t{0}, last);
    const std::ptrdiff_t i1 =
        std::clamp(static_cast<std::ptrdiff_t>(std::ceil((seg_hi - origin) / bin)) - 1,
                   std::ptrdiff_t{0}, last);
    if (i1 < i0) return run;
    run.empty = false;
    run.lo = static_cast<std::size_t>(i0);
    run.hi = static_cast<std::size_t>(i1);

    // Boundary classification is bitwise: a segment end on (or beyond) the
    // computed bin edge means exact full coverage of the inner bin.
    const bool head_full = seg_lo <= edge(i0);
    const bool tail_full = seg_hi >= edge(i1 + 1);
    const auto clamp01 = [](double f) { return std::clamp(f, 0.0, 1.0); };

    if (i0 == i1) {
        if (head_full && tail_full) {
            run.full_lo = run.lo;
            run.full_hi = run.hi;
        } else {
            run.frac_lo = clamp01((seg_hi - seg_lo) / bin);
            run.lo_partial = run.frac_lo > 0.0;
            run.empty = !run.lo_partial;
        }
        return run;
    }

    run.full_lo = run.lo + (head_full ? 0 : 1);
    run.full_hi = run.hi - (tail_full ? 0 : 1);
    if (!head_full) {
        run.frac_lo = clamp01((edge(i0 + 1) - seg_lo) / bin);
        run.lo_partial = run.frac_lo > 0.0;
    }
    if (!tail_full) {
        run.frac_hi = clamp01((seg_hi - edge(i1)) / bin);
        run.hi_partial = run.frac_hi > 0.0;
    }
    return run;
}

} // namespace

void density_map::stamp_rows(const rect& r, double weight, std::vector<double>& out,
                             std::size_t row_begin, std::size_t row_end) const {
    const rect clipped = intersect(r, region_);
    // Degenerate (zero-area) rects carry nothing; strict comparisons also
    // reject the empty intersection.
    if (!(clipped.xlo < clipped.xhi) || !(clipped.ylo < clipped.yhi)) return;

    const axis_run xs =
        decompose_axis(clipped.xlo, clipped.xhi, region_.xlo, bin_w_, nx_);
    const axis_run ys =
        decompose_axis(clipped.ylo, clipped.yhi, region_.ylo, bin_h_, ny_);
    if (xs.empty || ys.empty) return;

    // Rows are contiguous in iy (index = ix * ny + iy): each covered ix
    // deposits a partial head bin, a constant full-coverage span through
    // the SIMD add_scalar kernel, and a partial tail bin. Full × full
    // bins receive exactly `weight`. Only rows in [row_begin, row_end)
    // deposit — the per-row arithmetic never depends on the restriction,
    // so a rect split across row chunks deposits each row identically.
    const simd_kernels& kern = simd();
    const std::size_t full_len =
        ys.full_hi >= ys.full_lo ? ys.full_hi - ys.full_lo + 1 : 0;
    const auto stamp_row = [&](std::size_t ix, double wx) {
        double* row = out.data() + ix * ny_;
        if (ys.lo_partial) row[ys.lo] += wx * ys.frac_lo;
        if (full_len != 0) kern.add_scalar(row + ys.full_lo, wx, full_len);
        if (ys.hi_partial) row[ys.hi] += wx * ys.frac_hi;
    };
    const auto owned = [&](std::size_t ix) {
        return ix >= row_begin && ix < row_end;
    };
    if (xs.lo_partial && owned(xs.lo)) stamp_row(xs.lo, weight * xs.frac_lo);
    if (xs.full_hi >= xs.full_lo && row_end > 0) {
        const std::size_t lo = std::max(xs.full_lo, row_begin);
        const std::size_t hi = std::min(xs.full_hi, row_end - 1);
        for (std::size_t ix = lo; ix <= hi; ++ix) stamp_row(ix, weight);
    }
    if (xs.hi_partial && owned(xs.hi)) stamp_row(xs.hi, weight * xs.frac_hi);
}

void density_map::stamp(const rect& r, double weight, std::vector<double>& out) const {
    stamp_rows(r, weight, out, 0, nx_);
}

void density_map::add_rects(const std::vector<rect>& rects, double weight) {
    const std::size_t n = rects.size();
    if (n == 0) return;
    finalized_ = false;
    // Bulk stamping is the pipeline's "stamp" kernel (timed from the
    // driving thread; the chunks below run inside the scope).
    kernel_timer timer(profile_kernel::stamp);

    // Row-ownership decomposition: the grid's ix rows split into
    // contiguous chunks, and each chunk deposits, in rect index order, the
    // rects that cover one of its rows — only into the rows it owns. Each
    // bin is written by exactly one chunk and accumulates its
    // contributions in rect index order — the same order the serial loop
    // uses — so the result is bitwise identical to repeated add_rect for
    // every chunk count. Unlike a scratch-grid reduction (whose merge tree
    // must be pinned to stay reproducible), the chunk count may therefore
    // follow the thread count freely, and there are no scratch grids to
    // allocate, zero, or merge: single-threaded bulk stamping is exactly
    // the plain serial loop.
    const std::size_t chunks =
        std::clamp<std::size_t>(thread_pool::instance().num_threads(), 1, nx_);
    if (chunks == 1) {
        for (const rect& r : rects) stamp(r, weight, demand_);
        return;
    }
    std::vector<std::uint32_t> owner(nx_); // the chunk owning each ix row
    for (std::size_t c = 0; c < chunks; ++c) {
        std::fill(owner.begin() + static_cast<std::ptrdiff_t>(nx_ * c / chunks),
                  owner.begin() + static_cast<std::ptrdiff_t>(nx_ * (c + 1) / chunks),
                  static_cast<std::uint32_t>(c));
    }

    // Bucket the rect indices per owning chunk, in index order, in two
    // passes over the same contiguous blocks of rects: the first runs each
    // rect's x decomposition (the one stamp_rows runs) and counts, per
    // block, the rects each chunk receives; the second writes every block's
    // indices at its offset, chunk-major and block-ordered, so each chunk's
    // bucket lists its rects in ascending index.
    thread_pool& pool = thread_pool::instance();
    const std::size_t blocks = chunks;
    std::vector<std::uint32_t> first(n), last(n); // owning chunks; first > last: none
    std::vector<std::size_t> offset(blocks * chunks, 0); // [block][chunk]
    pool.for_chunks(n, blocks, [&](std::size_t b, std::size_t begin, std::size_t end) {
        std::size_t* count = offset.data() + b * chunks;
        for (std::size_t i = begin; i < end; ++i) {
            first[i] = 1;
            last[i] = 0;
            const rect clipped = intersect(rects[i], region_);
            if (!(clipped.xlo < clipped.xhi) || !(clipped.ylo < clipped.yhi)) continue;
            const axis_run xs =
                decompose_axis(clipped.xlo, clipped.xhi, region_.xlo, bin_w_, nx_);
            if (xs.empty) continue;
            first[i] = owner[xs.lo];
            last[i] = owner[xs.hi];
            for (std::size_t c = first[i]; c <= last[i]; ++c) ++count[c];
        }
    });
    std::vector<std::size_t> bucket_begin(chunks + 1);
    std::size_t total = 0;
    for (std::size_t c = 0; c < chunks; ++c) {
        bucket_begin[c] = total;
        for (std::size_t b = 0; b < blocks; ++b) {
            const std::size_t count = offset[b * chunks + c];
            offset[b * chunks + c] = total;
            total += count;
        }
    }
    bucket_begin[chunks] = total;
    std::vector<std::uint32_t> bucket(total);
    pool.for_chunks(n, blocks, [&](std::size_t b, std::size_t begin, std::size_t end) {
        std::size_t* next = offset.data() + b * chunks;
        for (std::size_t i = begin; i < end; ++i) {
            for (std::size_t c = first[i]; c <= last[i]; ++c) {
                bucket[next[c]++] = static_cast<std::uint32_t>(i);
            }
        }
    });
    parallel_for(chunks, [&](std::size_t c) {
        const std::size_t r0 = nx_ * c / chunks;
        const std::size_t r1 = nx_ * (c + 1) / chunks;
        for (std::size_t k = bucket_begin[c]; k < bucket_begin[c + 1]; ++k) {
            stamp_rows(rects[bucket[k]], weight, demand_, r0, r1);
        }
    });
}

void density_map::add_point(const point& p, double area) {
    if (!region_.contains(p)) return;
    const auto ix = std::min(nx_ - 1, static_cast<std::size_t>(std::max(
                                          0.0, (p.x - region_.xlo) / bin_w_)));
    const auto iy = std::min(ny_ - 1, static_cast<std::size_t>(std::max(
                                          0.0, (p.y - region_.ylo) / bin_h_)));
    demand_[index(ix, iy)] += area / bin_area();
    finalized_ = false;
}

void density_map::add_field(const std::vector<double>& values, double weight) {
    GPF_CHECK(values.size() == demand_.size());
    simd().axpy(weight, values.data(), demand_.data(), demand_.size());
    finalized_ = false;
}

void density_map::finalize() {
    // Injection site (util/fault.hpp): a runaway stamp piles demand worth
    // 1000 placements into one bin — injected before the supply level is
    // computed so the overflow statistics see it. Scaled by the total
    // demand so the spike dwarfs any healthy overflow trend.
    if (fault_fires(fault_site::density_spike)) {
        double total = 1.0;
        for (const double d : demand_) total += d;
        demand_[fault_injector::instance().seed() % demand_.size()] += 1.0e3 * total;
    }
    double sum = 0.0;
    for (const double d : demand_) sum += d;
    supply_ = sum / static_cast<double>(demand_.size());
    finalized_ = true;
}

double density_map::demand_at(std::size_t ix, std::size_t iy) const {
    GPF_DCHECK(ix < nx_ && iy < ny_);
    return demand_[index(ix, iy)];
}

double density_map::demand_near(const point& p) const {
    const auto ix = std::clamp(
        static_cast<std::ptrdiff_t>(std::floor((p.x - region_.xlo) / bin_w_)),
        std::ptrdiff_t{0}, static_cast<std::ptrdiff_t>(nx_) - 1);
    const auto iy = std::clamp(
        static_cast<std::ptrdiff_t>(std::floor((p.y - region_.ylo) / bin_h_)),
        std::ptrdiff_t{0}, static_cast<std::ptrdiff_t>(ny_) - 1);
    return demand_[index(static_cast<std::size_t>(ix), static_cast<std::size_t>(iy))];
}

double density_map::density_at(std::size_t ix, std::size_t iy) const {
    GPF_DCHECK(finalized_);
    return demand_at(ix, iy) - supply_;
}

double density_map::max_density() const {
    GPF_CHECK(finalized_);
    double m = 0.0;
    for (const double d : demand_) m = std::max(m, d - supply_);
    return m;
}

double density_map::overflow_area() const {
    GPF_CHECK(finalized_);
    double acc = 0.0;
    for (const double d : demand_) acc += std::max(0.0, d - supply_);
    return acc * bin_area();
}

namespace {

std::pair<std::size_t, std::size_t> choose_grid(const rect& region,
                                                std::size_t target_bins) {
    const double aspect = region.width() / region.height();
    // nx * ny ~ target, nx/ny ~ aspect → square-ish bins.
    double ny = std::sqrt(static_cast<double>(target_bins) / aspect);
    double nx = aspect * ny;
    const auto clampdim = [](double v) {
        return std::max<std::size_t>(4, static_cast<std::size_t>(std::llround(v)));
    };
    return {clampdim(nx), clampdim(ny)};
}

} // namespace

density_map compute_density_grid(const netlist& nl, const placement& pl,
                                 std::size_t nx, std::size_t ny) {
    GPF_CHECK(pl.size() == nl.num_cells());
    density_map map(nl.region(), nx, ny);
    std::vector<rect> rects;
    rects.reserve(nl.num_cells());
    for (cell_id i = 0; i < nl.num_cells(); ++i) {
        const cell& c = nl.cell_at(i);
        if (c.kind == cell_kind::pad) continue;
        rects.push_back(rect::from_center(pl[i], c.width, c.height));
    }
    map.add_rects(rects);
    map.finalize();
    return map;
}

density_map compute_density(const netlist& nl, const placement& pl,
                            std::size_t target_bins) {
    const auto [nx, ny] = choose_grid(nl.region(), target_bins);
    return compute_density_grid(nl, pl, nx, ny);
}

} // namespace gpf
