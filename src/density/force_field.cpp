#include "density/force_field.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "linalg/fft.hpp"
#include "util/check.hpp"
#include "util/fault.hpp"
#include "util/thread_pool.hpp"

namespace gpf {

force_field::force_field(const rect& region, std::size_t nx, std::size_t ny)
    : region_(region), nx_(nx), ny_(ny) {
    GPF_CHECK(!region.empty());
    GPF_CHECK(nx >= 1 && ny >= 1);
    bin_w_ = region.width() / static_cast<double>(nx);
    bin_h_ = region.height() / static_cast<double>(ny);
    fx_.assign(nx * ny, 0.0);
    fy_.assign(nx * ny, 0.0);
}

point force_field::sample(const point& p) const {
    // Work in bin-center lattice coordinates; clamp to the border centers
    // so the interpolation never reads outside the grid.
    const double gx = (p.x - region_.xlo) / bin_w_ - 0.5;
    const double gy = (p.y - region_.ylo) / bin_h_ - 0.5;
    const double cx = std::clamp(gx, 0.0, static_cast<double>(nx_ - 1));
    const double cy = std::clamp(gy, 0.0, static_cast<double>(ny_ - 1));
    const auto ix0 = static_cast<std::size_t>(cx);
    const auto iy0 = static_cast<std::size_t>(cy);
    const std::size_t ix1 = std::min(ix0 + 1, nx_ - 1);
    const std::size_t iy1 = std::min(iy0 + 1, ny_ - 1);
    const double tx = cx - static_cast<double>(ix0);
    const double ty = cy - static_cast<double>(iy0);

    const auto lerp2 = [&](const std::vector<double>& f) {
        const double f00 = f[index(ix0, iy0)];
        const double f10 = f[index(ix1, iy0)];
        const double f01 = f[index(ix0, iy1)];
        const double f11 = f[index(ix1, iy1)];
        return (1 - tx) * ((1 - ty) * f00 + ty * f01) + tx * ((1 - ty) * f10 + ty * f11);
    };
    return point(lerp2(fx_), lerp2(fy_));
}

double force_field::max_magnitude() const {
    double m = 0.0;
    for (std::size_t i = 0; i < fx_.size(); ++i) {
        m = std::max(m, std::hypot(fx_[i], fy_[i]));
    }
    return m;
}

void force_field::scale(double s) {
    for (double& v : fx_) v *= s;
    for (double& v : fy_) v *= s;
}

namespace {

/// Per-bin source strength: D * bin_area (the discretized D(r')dr').
std::vector<double> source_terms(const density_map& d) {
    GPF_CHECK_MSG(d.finalized(), "density map must be finalized");
    std::vector<double> src(d.nx() * d.ny());
    const double area = d.bin_area();
    for (std::size_t ix = 0; ix < d.nx(); ++ix) {
        for (std::size_t iy = 0; iy < d.ny(); ++iy) {
            src[ix * d.ny() + iy] = d.density_at(ix, iy) * area;
        }
    }
    return src;
}

/// Kernel tap at offset (di, dj): K(Δ) = Δ / (2π |Δ|²) with Δ the
/// center-to-center displacement. The zero-offset tap is 0 (a bin exerts
/// no net force on itself by symmetry).
spectral_convolver build_kernel_spectra(std::size_t nx, std::size_t ny, double bw,
                                        double bh) {
    const std::size_t k0 = 2 * nx - 1;
    const std::size_t k1 = 2 * ny - 1;
    std::vector<double> kx(k0 * k1, 0.0);
    std::vector<double> ky(k0 * k1, 0.0);
    // Every kernel tap is an independent write — parallel over rows.
    parallel_for(k0, [&](std::size_t i) {
        const double dx = (static_cast<double>(i) - static_cast<double>(nx - 1)) * bw;
        for (std::size_t j = 0; j < k1; ++j) {
            const double dy = (static_cast<double>(j) - static_cast<double>(ny - 1)) * bh;
            const double r2 = dx * dx + dy * dy;
            if (r2 == 0.0) continue;
            const double inv = 1.0 / (2.0 * M_PI * r2);
            kx[i * k1 + j] = dx * inv;
            ky[i * k1 + j] = dy * inv;
        }
    });
    return spectral_convolver(nx, ny, kx, ky);
}

} // namespace

force_field_calculator::force_field_calculator(const rect& region, std::size_t nx,
                                               std::size_t ny)
    : region_(region),
      nx_(nx),
      ny_(ny),
      convolver_(build_kernel_spectra(nx, ny, region.width() / static_cast<double>(nx),
                                      region.height() / static_cast<double>(ny))) {
    GPF_CHECK(!region.empty());
    GPF_CHECK(nx >= 1 && ny >= 1);
}

bool force_field_calculator::matches(const density_map& density) const {
    const rect& r = density.region();
    return density.nx() == nx_ && density.ny() == ny_ && r.xlo == region_.xlo &&
           r.ylo == region_.ylo && r.xhi == region_.xhi && r.yhi == region_.yhi;
}

force_field force_field_calculator::compute(const density_map& density) {
    GPF_CHECK_MSG(matches(density), "density grid does not match calculator");
    GPF_CHECK_MSG(density.finalized(), "density map must be finalized");

    force_field field(region_, nx_, ny_);
    // The source term (demand - supply) * area is applied inside the r2c
    // row gather as (demand + (-supply)) * area — bitwise the same, IEEE
    // a - b == a + (-b) — so the density grid feeds the transform directly.
    convolver_.convolve_pair_affine(density.demand(), -density.supply_level(),
                                    density.bin_area(), field.fx(), field.fy());
    // Injection site (util/fault.hpp): a degenerate bin geometry divides
    // the kernel normalization by zero, which turns the whole field NaN —
    // the emulation does the same.
    if (fault_fires(fault_site::force_nonfinite)) {
        const double nan = std::numeric_limits<double>::quiet_NaN();
        for (double& v : field.fx()) v = nan;
    }
    return field;
}

force_field compute_force_field(const density_map& density) {
    force_field_calculator calc(density.region(), density.nx(), density.ny());
    return calc.compute(density);
}

force_field compute_force_field_direct(const density_map& density) {
    const std::size_t nx = density.nx();
    const std::size_t ny = density.ny();
    force_field field(density.region(), nx, ny);

    const std::vector<double> src = source_terms(density);

    for (std::size_t ix = 0; ix < nx; ++ix) {
        for (std::size_t iy = 0; iy < ny; ++iy) {
            const point r = density.bin_center(ix, iy);
            double fx = 0.0;
            double fy = 0.0;
            for (std::size_t jx = 0; jx < nx; ++jx) {
                for (std::size_t jy = 0; jy < ny; ++jy) {
                    if (jx == ix && jy == iy) continue;
                    const point rp = density.bin_center(jx, jy);
                    const double dx = r.x - rp.x;
                    const double dy = r.y - rp.y;
                    const double r2 = dx * dx + dy * dy;
                    const double w = src[jx * ny + jy] / (2.0 * M_PI * r2);
                    fx += dx * w;
                    fy += dy * w;
                }
            }
            field.fx()[ix * ny + iy] = fx;
            field.fy()[ix * ny + iy] = fy;
        }
    }
    return field;
}

} // namespace gpf
