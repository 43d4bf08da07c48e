// Force field derived from the density map (section 3.3 of the paper).
//
// Requirements 1-4 uniquely determine the forces as the gradient field of
// the Poisson potential with open boundary conditions, i.e. the free-space
// Green's-function integral (eq. 9):
//
//   f(r) = k * ∫∫ D(r') (r - r') / (2π |r - r'|²) dr'
//
// Discretized on the density grid this is a convolution with the kernel
// K(Δ) = Δ / (2π |Δ|²), which compute_force_field evaluates with FFTs in
// O(m² log m). compute_force_field_direct is the literal O(m⁴) sum used as
// a reference in tests and for very small grids.
#pragma once

#include <cstddef>
#include <vector>

#include "density/density_map.hpp"
#include "geometry/geometry.hpp"
#include "linalg/fft.hpp"

namespace gpf {

class force_field {
public:
    force_field(const rect& region, std::size_t nx, std::size_t ny);

    std::size_t nx() const { return nx_; }
    std::size_t ny() const { return ny_; }
    const rect& region() const { return region_; }

    double fx_at(std::size_t ix, std::size_t iy) const { return fx_[index(ix, iy)]; }
    double fy_at(std::size_t ix, std::size_t iy) const { return fy_[index(ix, iy)]; }

    std::vector<double>& fx() { return fx_; }
    std::vector<double>& fy() { return fy_; }
    const std::vector<double>& fx() const { return fx_; }
    const std::vector<double>& fy() const { return fy_; }

    /// Bilinearly interpolated force at an arbitrary point (clamped to the
    /// bin-center lattice at the borders).
    point sample(const point& p) const;

    /// Largest force magnitude over the bin lattice.
    double max_magnitude() const;

    /// Multiply both components by s.
    void scale(double s);

private:
    std::size_t index(std::size_t ix, std::size_t iy) const { return ix * ny_ + iy; }

    rect region_;
    std::size_t nx_;
    std::size_t ny_;
    double bin_w_;
    double bin_h_;
    std::vector<double> fx_;
    std::vector<double> fy_;
};

/// Iteration-persistent force-field engine: the Green's-function kernels
/// of eq. (9) depend only on the grid geometry, so their spectra are
/// computed once at construction and every compute() call pays only the
/// packed forward + inverse transform of the current density (DESIGN.md
/// §7). A fresh calculator produces bitwise identical fields to a reused
/// one, and results are bitwise identical for any thread count.
class force_field_calculator {
public:
    force_field_calculator(const rect& region, std::size_t nx, std::size_t ny);

    std::size_t nx() const { return nx_; }
    std::size_t ny() const { return ny_; }

    /// True when `density` lives on the grid this calculator was built for.
    bool matches(const density_map& density) const;

    /// FFT evaluation of eq. (9) against the cached kernel spectra. The
    /// map must be finalized and match this calculator's grid.
    force_field compute(const density_map& density);

private:
    rect region_;
    std::size_t nx_, ny_;
    spectral_convolver convolver_;
};

/// FFT evaluation of eq. (9) over the density grid. The field is computed
/// at bin centers from D = demand - supply; the map must be finalized.
/// Builds a fresh force_field_calculator per call — loops should hold a
/// calculator instead.
force_field compute_force_field(const density_map& density);

/// Literal quadruple-loop evaluation (reference implementation; O(m⁴)).
force_field compute_force_field_direct(const density_map& density);

} // namespace gpf
