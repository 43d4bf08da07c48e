// Assembly and solution of the placement equation system (sections 2.1-2.2):
//
//   objective  Φ(p) = Σ_edges w · dist²   →   A p + b = 0
//   with additional forces e:                 A p + b + e = 0
//
// A is the weighted connection Laplacian over the movable variables (x and
// y are separable; with linearization the two dimensions get different
// weights and hence different matrices). Fixed cells and pin offsets fold
// into the constant vector b. The star model appends one virtual variable
// per large net.
//
// Units: an edge of weight w stretched by length L pulls with force w·L,
// so entries of e are directly comparable to net forces — this is what the
// paper's force scaling ("equivalent to the force of a net with length
// K(W+H)") relies on.
#pragma once

#include <cstddef>
#include <limits>
#include <vector>

#include "linalg/cg_solver.hpp"
#include "linalg/csr_matrix.hpp"
#include "model/net_models.hpp"
#include "netlist/netlist.hpp"

namespace gpf {

inline constexpr std::size_t invalid_var = std::numeric_limits<std::size_t>::max();

class quadratic_system {
public:
    explicit quadratic_system(const netlist& nl, net_model_options options = {});

    /// Movable-cell variables (star variables, when present, come after).
    std::size_t num_movable() const { return movable_.size(); }
    std::size_t num_vars() const { return num_vars_; }

    /// Cell handled by variable v (v < num_movable()).
    cell_id cell_of_var(std::size_t v) const { return movable_[v]; }
    /// Variable of a movable cell; invalid_var for fixed cells.
    std::size_t var_of(cell_id id) const { return var_of_[id]; }

    /// Build A and b from the current placement (needed for linearization
    /// weights; ignored when options.linearize is false).
    ///
    /// Assembly is split into a one-time *symbolic* phase — the CSR
    /// sparsity pattern and the slot index of every edge contribution,
    /// fixed by the netlist topology and computed in the constructor — and
    /// a per-call *numeric* refill that accumulates the (live) linearized
    /// weights straight into the cached pattern. No sorting, no
    /// allocation: repeated calls are bitwise identical to assembling a
    /// freshly constructed system (tests/test_transform_cache.cpp).
    void assemble(const placement& current);

    bool assembled() const { return assembled_; }
    /// The CSR pattern shared by the x and y matrices (one 32-bit column
    /// index array for both), and each matrix's values over it.
    const csr_pattern& pattern() const { return pattern_; }
    const std::vector<double>& values_x() const { return ax_; }
    const std::vector<double>& values_y() const { return ay_; }
    /// Standalone copies of the assembled matrices (diagnostics, tests).
    csr_matrix matrix_x() const { return csr_matrix(pattern_, ax_); }
    csr_matrix matrix_y() const { return csr_matrix(pattern_, ay_); }
    const std::vector<double>& rhs_x() const { return bx_; }
    const std::vector<double>& rhs_y() const { return by_; }

    /// Main diagonals of the x/y matrices, cached by assemble() so
    /// per-solve callers (hold-and-move, wire relaxation, Jacobi/SSOR
    /// preconditioning) never walk the pattern for them.
    const std::vector<double>& diagonal_x() const;
    const std::vector<double>& diagonal_y() const;

    /// Solve A p + b + e = 0 starting from `start`. ex/ey must have
    /// num_vars() entries or be empty (treated as zero). Fixed cells keep
    /// their positions from `start`.
    placement solve(const placement& start, const std::vector<double>& ex,
                    const std::vector<double>& ey, const cg_options& options = {},
                    cg_result* result_x = nullptr, cg_result* result_y = nullptr) const;

    /// Quadratic objective value of a placement under the assembled
    /// weights (diagnostics / tests).
    double objective(const placement& pl) const;

    /// Positions of all variables under a placement: movable cells from
    /// the placement, star variables at their net's pin centroid.
    std::vector<point> variable_positions(const placement& pl) const;

    /// Mean diagonal of the (un-linearized) connectivity matrix — the
    /// average spring stiffness per variable. The placer calibrates the
    /// force constant k of eq. (5) against this scale: a displacement
    /// response of e/s̄ to a force e makes k = K·s̄ a unit-consistent gain.
    double mean_stiffness() const;

    const net_model_options& options() const { return options_; }

private:
    struct edge {
        // Endpoint variable or fixed absolute coordinate.
        std::size_t var_a; ///< invalid_var → fixed endpoint
        std::size_t var_b;
        double fixed_ax, fixed_ay; ///< absolute pin position when var_a fixed
        double fixed_bx, fixed_by;
        double off_ax, off_ay;     ///< pin offsets for movable endpoints
        double off_bx, off_by;
        double weight;             ///< base edge weight (before linearization)
        net_id source_net;
    };

    void collect_edges();
    void add_edge_between_pins(const net& n, std::size_t pa, std::size_t pb,
                               double weight, net_id ni);
    void find_floating_variables();
    void build_symbolic();
    void compute_variable_positions(const placement& pl,
                                    std::vector<point>& out) const;

    const netlist& nl_;
    net_model_options options_;
    std::vector<cell_id> movable_;
    std::vector<std::size_t> var_of_;
    std::vector<net_id> star_net_of_var_; ///< for vars >= num_movable()
    std::size_t num_vars_ = 0;
    std::vector<edge> edges_;

    /// Variables in connected components with no fixed endpoint anywhere:
    /// they get a weak anchor to the region center, otherwise their
    /// position would be decided by solver round-off.
    std::vector<char> floating_;

    /// Symbolic cache: slots into the shared x/y CSR pattern. For a
    /// two-movable edge all four of {aa, bb, ab, ba} are valid; for a
    /// single-movable edge only aa (the movable endpoint's diagonal).
    struct edge_slots {
        std::size_t aa, bb, ab, ba;
    };
    std::vector<edge_slots> edge_slots_; ///< parallel to edges_
    std::vector<std::size_t> diag_slot_; ///< per variable, slot of (v, v)

    csr_pattern pattern_;
    std::vector<double> ax_, ay_; ///< values over pattern_
    std::vector<double> bx_, by_;
    std::vector<double> diag_x_, diag_y_; ///< cached by assemble()
    std::vector<point> var_pos_;          ///< assemble() workspace
    bool assembled_ = false;
};

} // namespace gpf
