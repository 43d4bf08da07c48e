// Placement-system assembly against a frozen copy of the implementation it
// replaced. The live constructor derives the CSR pattern from a row
// incidence index, and assemble() builds every row from its own edges in
// parallel; the pattern, every matrix value, the rhs and the cached
// diagonals must stay bit for bit what the global-sort symbolic build and
// the serial edge-order scatter produced, at any thread count. Designs
// cover generated flat designs with pads, macro blocks, the star and hybrid
// net models, un-linearized weights, and a hand-built netlist with
// self-edges (two pins of one cell on a net), a pad-free component (the
// floating anchor), degree-1 nets and non-dyadic weights and offsets.
// Every case assembles twice with a net weight changed in between, so live
// weights and the stiffness anchor are covered too.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "core/metrics.hpp"
#include "model/quadratic_system.hpp"
#include "netlist/generator.hpp"
#include "util/check.hpp"
#include "util/prng.hpp"
#include "util/thread_pool.hpp"

namespace gpf {
namespace {

// --- bitwise oracle ---------------------------------------------------------
//
// A permanent copy of quadratic_system's constructor and assemble() as
// they were before row-owned assembly: a global sort of packed (row, col)
// positions, four binary-searched slots per edge, and a serial scatter in
// edge order. Do not "simplify" it into the library's code: its value is
// that it is an independent statement of the arithmetic the placements
// were built on.
namespace frozen {

double linear_weight(double base, double length, double eps) {
    return base / std::max(eps, std::abs(length));
}

class system {
public:
    system(const netlist& nl, net_model_options options) : nl_(nl), options_(options) {
        var_of_.assign(nl.num_cells(), invalid_var);
        for (cell_id i = 0; i < nl.num_cells(); ++i) {
            if (!nl.cell_at(i).fixed) {
                var_of_[i] = movable_.size();
                movable_.push_back(i);
            }
        }
        num_vars_ = movable_.size();
        collect_edges();
        find_floating_variables();
        build_symbolic();
    }

    void assemble(const placement& current);

    std::vector<std::size_t> row_ptr;
    std::vector<std::uint32_t> col_idx;
    std::vector<double> ax, ay, bx, by, diag_x, diag_y;

private:
    struct edge {
        std::size_t var_a;
        std::size_t var_b;
        double fixed_ax, fixed_ay;
        double fixed_bx, fixed_by;
        double off_ax, off_ay;
        double off_bx, off_by;
        double weight;
        net_id source_net;
    };
    struct edge_slots {
        std::size_t aa, bb, ab, ba;
    };

    void collect_edges();
    void add_edge_between_pins(const net& n, std::size_t pa, std::size_t pb, double weight,
                               net_id ni);
    void find_floating_variables();
    void build_symbolic();
    std::size_t slot(std::size_t i, std::size_t j) const {
        const auto begin = col_idx.begin() + static_cast<std::ptrdiff_t>(row_ptr[i]);
        const auto end = col_idx.begin() + static_cast<std::ptrdiff_t>(row_ptr[i + 1]);
        const auto it = std::lower_bound(begin, end, static_cast<std::uint32_t>(j));
        GPF_CHECK(it != end && *it == j);
        return static_cast<std::size_t>(it - col_idx.begin());
    }

    const netlist& nl_;
    net_model_options options_;
    std::vector<cell_id> movable_;
    std::vector<std::size_t> var_of_;
    std::vector<net_id> star_net_of_var_;
    std::size_t num_vars_ = 0;
    std::vector<edge> edges_;
    std::vector<char> floating_;
    std::vector<edge_slots> edge_slots_;
    std::vector<std::size_t> diag_slot_;
};

void system::find_floating_variables() {
    std::vector<std::size_t> parent(num_vars_);
    for (std::size_t v = 0; v < num_vars_; ++v) parent[v] = v;
    const std::function<std::size_t(std::size_t)> find = [&](std::size_t v) {
        while (parent[v] != v) {
            parent[v] = parent[parent[v]];
            v = parent[v];
        }
        return v;
    };
    std::vector<char> grounded(num_vars_, 0);
    for (const edge& e : edges_) {
        if (e.var_a != invalid_var && e.var_b != invalid_var) {
            parent[find(e.var_a)] = find(e.var_b);
        } else if (e.var_a != invalid_var) {
            grounded[e.var_a] = 1;
        } else if (e.var_b != invalid_var) {
            grounded[e.var_b] = 1;
        }
    }
    std::vector<char> root_grounded(num_vars_, 0);
    for (std::size_t v = 0; v < num_vars_; ++v) {
        if (grounded[v]) root_grounded[find(v)] = 1;
    }
    floating_.assign(num_vars_, 0);
    for (std::size_t v = 0; v < num_vars_; ++v) {
        if (!root_grounded[find(v)]) floating_[v] = 1;
    }
}

void system::add_edge_between_pins(const net& n, std::size_t pa, std::size_t pb,
                                   double weight, net_id ni) {
    const pin& a = n.pins[pa];
    const pin& b = n.pins[pb];
    edge e{};
    e.weight = weight;
    e.source_net = ni;
    e.var_a = var_of_[a.cell];
    e.var_b = var_of_[b.cell];
    const cell& ca = nl_.cell_at(a.cell);
    const cell& cb = nl_.cell_at(b.cell);
    if (e.var_a == invalid_var) {
        e.fixed_ax = ca.position.x + a.offset.x;
        e.fixed_ay = ca.position.y + a.offset.y;
    } else {
        e.off_ax = a.offset.x;
        e.off_ay = a.offset.y;
    }
    if (e.var_b == invalid_var) {
        e.fixed_bx = cb.position.x + b.offset.x;
        e.fixed_by = cb.position.y + b.offset.y;
    } else {
        e.off_bx = b.offset.x;
        e.off_by = b.offset.y;
    }
    if (e.var_a == invalid_var && e.var_b == invalid_var) return;
    edges_.push_back(e);
}

void system::collect_edges() {
    for (net_id ni = 0; ni < nl_.num_nets(); ++ni) {
        const net& n = nl_.net_at(ni);
        const std::size_t k = n.degree();
        if (k < 2) continue;
        if (!use_star_model(options_, k)) {
            const double w = clique_edge_weight(1.0, k);
            for (std::size_t a = 0; a < k; ++a) {
                for (std::size_t b = a + 1; b < k; ++b) add_edge_between_pins(n, a, b, w, ni);
            }
        } else {
            const std::size_t center = num_vars_++;
            star_net_of_var_.push_back(ni);
            for (std::size_t a = 0; a < k; ++a) {
                const pin& p = n.pins[a];
                edge e{};
                e.weight = 1.0;
                e.source_net = ni;
                e.var_a = var_of_[p.cell];
                if (e.var_a == invalid_var) {
                    const cell& c = nl_.cell_at(p.cell);
                    e.fixed_ax = c.position.x + p.offset.x;
                    e.fixed_ay = c.position.y + p.offset.y;
                } else {
                    e.off_ax = p.offset.x;
                    e.off_ay = p.offset.y;
                }
                e.var_b = center;
                edges_.push_back(e);
            }
        }
    }
}

void system::build_symbolic() {
    std::vector<std::uint64_t> positions;
    const auto pack = [](std::size_t i, std::size_t j) {
        return (static_cast<std::uint64_t>(i) << 32) | static_cast<std::uint64_t>(j);
    };
    for (std::size_t v = 0; v < num_vars_; ++v) positions.push_back(pack(v, v));
    for (const edge& e : edges_) {
        if (e.var_a != invalid_var && e.var_b != invalid_var) {
            positions.push_back(pack(e.var_a, e.var_b));
            positions.push_back(pack(e.var_b, e.var_a));
        }
    }
    std::sort(positions.begin(), positions.end());
    positions.erase(std::unique(positions.begin(), positions.end()), positions.end());

    row_ptr.assign(num_vars_ + 1, 0);
    col_idx.resize(positions.size());
    for (std::size_t k = 0; k < positions.size(); ++k) {
        const std::size_t i = static_cast<std::size_t>(positions[k] >> 32);
        col_idx[k] = static_cast<std::uint32_t>(positions[k] & 0xffffffffu);
        row_ptr[i + 1] = k + 1;
    }
    for (std::size_t i = 1; i <= num_vars_; ++i) row_ptr[i] = std::max(row_ptr[i], row_ptr[i - 1]);

    diag_slot_.resize(num_vars_);
    for (std::size_t v = 0; v < num_vars_; ++v) diag_slot_[v] = slot(v, v);
    edge_slots_.resize(edges_.size());
    for (std::size_t k = 0; k < edges_.size(); ++k) {
        const edge& e = edges_[k];
        edge_slots& s = edge_slots_[k];
        if (e.var_a != invalid_var && e.var_b != invalid_var) {
            s.aa = diag_slot_[e.var_a];
            s.bb = diag_slot_[e.var_b];
            s.ab = slot(e.var_a, e.var_b);
            s.ba = slot(e.var_b, e.var_a);
        } else {
            const std::size_t v = e.var_a != invalid_var ? e.var_a : e.var_b;
            s.aa = diag_slot_[v];
            s.bb = s.ab = s.ba = csr_pattern::npos;
        }
    }
}

void system::assemble(const placement& current) {
    std::vector<point> var_pos(num_vars_);
    for (std::size_t v = 0; v < movable_.size(); ++v) var_pos[v] = current[movable_[v]];
    for (std::size_t sv = 0; sv < star_net_of_var_.size(); ++sv) {
        const net& n = nl_.net_at(star_net_of_var_[sv]);
        point c;
        for (const pin& p : n.pins) c += pin_position(nl_, current, p);
        c *= 1.0 / static_cast<double>(n.degree());
        var_pos[movable_.size() + sv] = c;
    }
    const double eps =
        options_.min_length_fraction * (nl_.region().width() + nl_.region().height());

    ax.assign(col_idx.size(), 0.0);
    ay.assign(col_idx.size(), 0.0);
    bx.assign(num_vars_, 0.0);
    by.assign(num_vars_, 0.0);

    double stiffness_acc = 0.0;
    for (net_id ni = 0; ni < nl_.num_nets(); ++ni) {
        const net& n = nl_.net_at(ni);
        if (n.degree() < 2) continue;
        bool touches_movable = false;
        for (const pin& p : n.pins) {
            if (!nl_.cell_at(p.cell).fixed) {
                touches_movable = true;
                break;
            }
        }
        if (!touches_movable) continue;
        stiffness_acc += 2.0 * n.weight * static_cast<double>(n.degree() - 1);
    }

    for (std::size_t k = 0; k < edges_.size(); ++k) {
        const edge& e = edges_[k];
        const edge_slots& s = edge_slots_[k];
        const point pa = e.var_a == invalid_var ? point(e.fixed_ax, e.fixed_ay)
                                                : var_pos[e.var_a] + point(e.off_ax, e.off_ay);
        const point pb = e.var_b == invalid_var ? point(e.fixed_bx, e.fixed_by)
                                                : var_pos[e.var_b] + point(e.off_bx, e.off_by);
        const double base = e.weight * nl_.net_at(e.source_net).weight;
        double wx = base;
        double wy = base;
        if (options_.linearize) {
            wx = linear_weight(base, pa.x - pb.x, eps);
            wy = linear_weight(base, pa.y - pb.y, eps);
        }
        if (e.var_a != invalid_var && e.var_b != invalid_var) {
            ax[s.aa] += wx;
            ax[s.bb] += wx;
            ax[s.ab] -= wx;
            ax[s.ba] -= wx;
            ay[s.aa] += wy;
            ay[s.bb] += wy;
            ay[s.ab] -= wy;
            ay[s.ba] -= wy;
            const double dx = e.off_ax - e.off_bx;
            const double dy = e.off_ay - e.off_by;
            bx[e.var_a] += wx * dx;
            bx[e.var_b] -= wx * dx;
            by[e.var_a] += wy * dy;
            by[e.var_b] -= wy * dy;
        } else {
            const bool a_movable = e.var_a != invalid_var;
            const std::size_t v = a_movable ? e.var_a : e.var_b;
            const double off_x = a_movable ? e.off_ax : e.off_bx;
            const double off_y = a_movable ? e.off_ay : e.off_by;
            const double fixed_x = a_movable ? e.fixed_bx : e.fixed_ax;
            const double fixed_y = a_movable ? e.fixed_by : e.fixed_ay;
            ax[s.aa] += wx;
            ay[s.aa] += wy;
            bx[v] += wx * (off_x - fixed_x);
            by[v] += wy * (off_y - fixed_y);
        }
    }

    constexpr double kRegularization = 1e-9;
    const point center = nl_.region().center();
    const double mean =
        movable_.empty() ? 0.0 : stiffness_acc / static_cast<double>(movable_.size());
    const double anchor = 1e-3 * std::max(1e-9, mean);
    for (std::size_t v = 0; v < num_vars_; ++v) {
        if (floating_[v] && v < movable_.size()) {
            ax[diag_slot_[v]] += anchor;
            ay[diag_slot_[v]] += anchor;
            bx[v] += anchor * -center.x;
            by[v] += anchor * -center.y;
        } else {
            ax[diag_slot_[v]] += kRegularization;
            ay[diag_slot_[v]] += kRegularization;
        }
    }
    diag_x.resize(num_vars_);
    diag_y.resize(num_vars_);
    for (std::size_t v = 0; v < num_vars_; ++v) {
        diag_x[v] = ax[diag_slot_[v]];
        diag_y[v] = ay[diag_slot_[v]];
    }
}

double total_hpwl(const netlist& nl, const placement& pl) {
    double acc = 0.0;
    for (const net& n : nl.nets()) acc += net_hpwl(nl, pl, n);
    return acc;
}

} // namespace frozen

// --- designs ----------------------------------------------------------------

netlist generated(std::size_t cells, std::size_t blocks) {
    generator_options opt;
    opt.num_cells = cells;
    opt.num_nets = cells + cells / 8;
    opt.num_rows = std::max<std::size_t>(8, cells / 60);
    opt.num_pads = 64;
    opt.num_blocks = blocks;
    opt.block_area_fraction = blocks > 0 ? 0.2 : 0.0;
    opt.seed = 4242 + cells + blocks;
    return generate_circuit(opt);
}

/// Every odd case by hand, with non-dyadic weights, offsets and positions
/// so a reordered sum changes bits: a grounded part with a net holding two
/// pins of one cell plus another cell, a net made only of two pins of one
/// cell, degree-1 nets and one wide net (a star under the hybrid model),
/// and a pad-free component that takes the floating anchor.
netlist odd_netlist() {
    netlist nl;
    nl.set_region(rect(0, 0, 97.3, 61.7));
    const auto add = [&nl](const std::string& name, bool pad, point pos) {
        cell c;
        c.name = name;
        c.width = 1.3;
        c.height = 1.1;
        if (pad) {
            c.kind = cell_kind::pad;
            c.position = pos;
        }
        return nl.add_cell(c);
    };
    const cell_id p0 = add("p0", true, point(0.3, 7.1));
    const cell_id p1 = add("p1", true, point(95.7, 53.9));
    std::vector<cell_id> g;
    for (int i = 0; i < 6; ++i) g.push_back(add("g" + std::to_string(i), false, {}));
    std::vector<cell_id> f;
    for (int i = 0; i < 4; ++i) f.push_back(add("f" + std::to_string(i), false, {}));

    int count = 0;
    const auto add_net = [&nl, &count](double weight, std::vector<pin> pins) {
        net n;
        n.name = "n" + std::to_string(count++);
        n.weight = weight;
        n.pins = std::move(pins);
        nl.add_net(std::move(n));
    };
    add_net(1.3, {{p0, point(0.11, -0.07)}, {g[0], point(-0.29, 0.13)}});
    add_net(0.7, {{g[0], point(0.31, 0.17)}, {g[1], point(-0.23, 0.37)},
                  {g[0], point(-0.41, -0.19)}});
    add_net(2.9, {{g[1], point(0.43, -0.31)}, {g[1], point(-0.37, 0.29)}});
    add_net(1.1, {{g[2], point(0.07, 0.03)}});
    add_net(0.9, {{g[1], point(0.19, 0.23)}, {g[2], point(-0.13, 0.41)},
                  {g[3], point(0.27, -0.11)}, {p1, point(-0.17, 0.09)},
                  {g[4], point(0.33, 0.21)}, {g[5], point(-0.39, -0.27)}});
    add_net(1.7, {{g[5], point(0.21, 0.19)}, {g[3], point(-0.09, -0.33)},
                  {g[5], point(-0.47, 0.05)}, {p1, point(0.13, -0.21)}});
    add_net(0.3, {{p0, point()}, {p1, point()}});
    // Pad-free component: f0..f3, a self-edge on f1 and a degree-1 net.
    add_net(1.9, {{f[0], point(0.17, -0.23)}, {f[1], point(-0.31, 0.43)}});
    add_net(0.6, {{f[1], point(0.29, 0.11)}, {f[1], point(-0.19, -0.37)},
                  {f[2], point(0.23, 0.31)}});
    add_net(1.4, {{f[2], point(-0.11, 0.27)}, {f[3], point(0.39, -0.13)},
                  {f[0], point(0.03, 0.47)}, {f[1], point(-0.43, -0.09)},
                  {f[3], point(-0.21, 0.35)}});
    add_net(2.3, {{f[3], point(0.15, 0.25)}});
    return nl;
}

/// A generated design plus nets with two pins of one cell and degree-1
/// nets, so self-edges appear in many rows among ordinary edges.
netlist generated_with_odd_nets() {
    netlist nl = generated(2000, 0);
    std::vector<cell_id> movable;
    for (cell_id i = 0; i < nl.num_cells(); ++i) {
        if (!nl.cell_at(i).fixed) movable.push_back(i);
    }
    for (std::size_t k = 0; k < 300; ++k) {
        const cell_id c = movable[(k * 37) % movable.size()];
        const cell_id o = movable[(k * 53 + 11) % movable.size()];
        net n;
        n.name = "odd" + std::to_string(k);
        n.weight = 0.7 + 0.01 * static_cast<double>(k % 13);
        switch (k % 3) {
            case 0:
                n.pins = {{c, point(0.23, 0.0)}};
                break;
            case 1:
                n.pins = {{c, point(-0.37, 0.21)}, {o, point(0.13, -0.11)},
                          {c, point(0.41, -0.29)}};
                break;
            default:
                n.pins = {{c, point(-0.43, 0.17)}, {c, point(0.31, -0.07)}};
                break;
        }
        nl.add_net(std::move(n));
    }
    return nl;
}

/// Non-dyadic positions inside the region for every movable cell; fixed
/// cells keep theirs.
placement scattered(const netlist& nl, std::uint64_t seed) {
    placement pl = nl.initial_placement();
    prng rng(seed);
    const rect r = nl.region();
    for (cell_id i = 0; i < nl.num_cells(); ++i) {
        if (nl.cell_at(i).fixed) continue;
        pl[i] = point(r.xlo + r.width() * rng.next_double(),
                      r.ylo + r.height() * rng.next_double());
    }
    return pl;
}

// --- comparisons ------------------------------------------------------------

template <class T>
::testing::AssertionResult same_bits(const char* what, const std::vector<T>& expected,
                                     const std::vector<T>& got) {
    if (expected.size() != got.size()) {
        return ::testing::AssertionFailure()
               << what << ": size " << got.size() << " vs frozen " << expected.size();
    }
    for (std::size_t i = 0; i < expected.size(); ++i) {
        if (std::memcmp(&expected[i], &got[i], sizeof(T)) != 0) {
            return ::testing::AssertionFailure() << what << "[" << i << "]: " << got[i]
                                                 << " vs frozen " << expected[i];
        }
    }
    return ::testing::AssertionSuccess();
}

void expect_same(const frozen::system& expected, const quadratic_system& got) {
    EXPECT_TRUE(same_bits("row_ptr", expected.row_ptr, got.pattern().row_ptr));
    EXPECT_TRUE(same_bits("col_idx", expected.col_idx, got.pattern().col_idx));
    EXPECT_TRUE(same_bits("values_x", expected.ax, got.values_x()));
    EXPECT_TRUE(same_bits("values_y", expected.ay, got.values_y()));
    EXPECT_TRUE(same_bits("rhs_x", expected.bx, got.rhs_x()));
    EXPECT_TRUE(same_bits("rhs_y", expected.by, got.rhs_y()));
    EXPECT_TRUE(same_bits("diagonal_x", expected.diag_x, got.diagonal_x()));
    EXPECT_TRUE(same_bits("diagonal_y", expected.diag_y, got.diagonal_y()));
}

/// Restores the default pool size when a test ends, pass or fail.
struct thread_count_guard {
    ~thread_count_guard() { thread_pool::instance().set_num_threads(0); }
};

/// Two assembles per system: at one placement, then at another after
/// scaling the weights of a few nets (net 0, the middle and the last net).
/// The frozen system's two results are the reference for a live system
/// built and assembled at 1, 2, 4 and 8 threads.
void check_against_frozen(netlist& nl, net_model_options options) {
    const placement first = scattered(nl, 11);
    const placement second = scattered(nl, 12);
    const std::vector<net_id> reweighted = {0, static_cast<net_id>(nl.num_nets() / 2),
                                            static_cast<net_id>(nl.num_nets() - 1)};
    std::vector<double> original;
    for (const net_id ni : reweighted) original.push_back(nl.net_at(ni).weight);
    const auto reweight = [&](bool scaled) {
        for (std::size_t i = 0; i < reweighted.size(); ++i) {
            nl.net_at(reweighted[i]).weight = scaled ? original[i] * 1.37 : original[i];
        }
    };

    frozen::system expected_first(nl, options);
    expected_first.assemble(first);
    frozen::system expected_second = expected_first;
    reweight(true);
    expected_second.assemble(second);
    reweight(false);

    const thread_count_guard guard;
    for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
        SCOPED_TRACE("threads " + std::to_string(threads));
        thread_pool::instance().set_num_threads(threads);
        quadratic_system live(nl, options);
        live.assemble(first);
        expect_same(expected_first, live);
        reweight(true);
        live.assemble(second);
        reweight(false);
        expect_same(expected_second, live);
    }
}

net_model_options model(net_model_kind kind, std::size_t star_threshold = 16) {
    net_model_options options;
    options.kind = kind;
    options.star_threshold = star_threshold;
    return options;
}

TEST(AssemblyOracle, Flat2k) {
    netlist nl = generated(2000, 0);
    check_against_frozen(nl, {});
}

TEST(AssemblyOracle, Flat8k) {
    netlist nl = generated(8000, 0);
    check_against_frozen(nl, {});
}

TEST(AssemblyOracle, MixedBlocks) {
    netlist nl = generated(2000, 4);
    check_against_frozen(nl, {});
}

TEST(AssemblyOracle, StarModel) {
    netlist nl = generated(2000, 0);
    check_against_frozen(nl, model(net_model_kind::star));
}

TEST(AssemblyOracle, HybridModel) {
    netlist nl = generated(2000, 0);
    check_against_frozen(nl, model(net_model_kind::hybrid, 4));
}

TEST(AssemblyOracle, NotLinearized) {
    netlist nl = generated(2000, 0);
    net_model_options options;
    options.linearize = false;
    check_against_frozen(nl, options);
}

TEST(AssemblyOracle, SelfEdgesFloatingComponentAndDegreeOneNets) {
    netlist nl = odd_netlist();
    check_against_frozen(nl, {});
    check_against_frozen(nl, model(net_model_kind::star));
    check_against_frozen(nl, model(net_model_kind::hybrid, 4));
}

TEST(AssemblyOracle, SelfEdgesAmongGeneratedNets) {
    netlist nl = generated_with_odd_nets();
    check_against_frozen(nl, {});
    check_against_frozen(nl, model(net_model_kind::hybrid, 4));
}

TEST(AssemblyOracle, TotalHpwl) {
    const netlist nl = generated(8000, 2);
    const placement pl = scattered(nl, 5);
    const double expected = frozen::total_hpwl(nl, pl);
    const thread_count_guard guard;
    for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
        thread_pool::instance().set_num_threads(threads);
        const double got = total_hpwl(nl, pl);
        EXPECT_EQ(std::memcmp(&expected, &got, sizeof(double)), 0)
            << "threads " << threads << ": " << got << " vs frozen " << expected;
    }
}

} // namespace
} // namespace gpf
