// gpf_qor — paired, multi-seed QoR gate for changes that alter placements.
//
// Places a fixed list of generated designs per size class, the same
// circuits `gpf_place` builds for the equivalent command line, and records
// per design: legal (refined) HPWL, final overflow, transformations, CG
// iterations per solve kind and a digest of the legal placement.
//
//   gpf_qor --write bench/qor/table.json     # regenerate the committed table
//   gpf_qor --check bench/qor/table.json     # gate a candidate against it
//   gpf_qor --check OLD --write NEW          # both: gate, then refresh
//
// --check compares seed by seed and prints the paired table. It fails
// (exit 1) when the mean paired legal-HPWL difference exceeds +0.5%, or
// any single design exceeds +2%. A change that keeps placements bitwise
// shows every digest unchanged.
//
// Thread count follows GPF_THREADS; placements, and therefore the table,
// are identical for every thread count and SIMD tier.
//
// Exit codes: 0 pass, 1 QoR regression or missing row, 3 I/O or parse
// failure, 64 usage.
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "gpf.hpp"
#include "util/json.hpp"

namespace {

constexpr int kExitPass = 0;
constexpr int kExitFail = 1;
constexpr int kExitIo = 3;
constexpr int kExitUsage = 64;

/// Gate bounds on the paired legal-HPWL difference, in percent.
constexpr double kMeanBoundPct = 0.5;
constexpr double kDesignBoundPct = 2.0;

/// One design class: a gpf_place request shape and its fixed seeds.
struct qor_class {
    const char* name;
    std::size_t cells;       ///< generated flat design size (0: suite circuit)
    std::size_t levels;      ///< --levels
    std::size_t iterations;  ///< --iterations (0: default stop rules)
    std::vector<std::uint64_t> seeds;
};

const std::vector<qor_class>& classes() {
    static const std::vector<qor_class> list = {
        {"flat2k", 2000, 0, 0, {1, 2, 3, 4, 5}},
        {"flat8k", 8000, 0, 0, {11, 12, 13}},
        {"flat20k", 20000, 0, 0, {21, 22, 23}},
        {"ml50k", 50000, 2, 60, {31, 32}},
        {"industry3", 0, 0, 0, {41, 42, 43}},
    };
    return list;
}

/// The gpf_place command line a class and seed stand for.
std::string request_args(const qor_class& c, std::uint64_t seed) {
    std::string args = c.cells > 0 ? "--cells " + std::to_string(c.cells)
                                   : std::string("--suite industry3 --scale 0.25");
    args += " --seed " + std::to_string(seed);
    if (c.levels > 0) args += " --levels " + std::to_string(c.levels);
    if (c.iterations > 0) args += " --iterations " + std::to_string(c.iterations);
    return args;
}

/// gpf_place's circuit for the request (tools/gpf_place.cpp, load_circuit).
gpf::netlist make_circuit(const qor_class& c, std::uint64_t seed) {
    if (c.cells == 0) {
        return gpf::make_suite_circuit(gpf::suite_circuit_by_name("industry3"), 0.25, seed);
    }
    gpf::generator_options gen;
    gen.num_cells = c.cells;
    gen.num_nets = c.cells + c.cells / 8;
    gen.num_rows = std::max<std::size_t>(8, c.cells / 60);
    gen.num_pads = 64;
    gen.seed = seed;
    return gpf::generate_circuit(gen);
}

struct qor_row {
    std::string cls;
    std::uint64_t seed = 0;
    std::string args;
    double hpwl_legal = 0.0;
    double overflow_final = 0.0;
    std::size_t transforms = 0;
    std::size_t cg_hold_move = 0;
    std::size_t cg_wire_relax = 0;
    std::string digest;
    double seconds = 0.0; ///< wall clock; printed, never stored or gated
};

std::string hex64(std::uint64_t v) {
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
    return buf;
}

/// Place, legalize and measure one design, as gpf_place would.
qor_row run_design(const qor_class& c, std::uint64_t seed) {
    qor_row row;
    row.cls = c.name;
    row.seed = seed;
    row.args = request_args(c, seed);

    gpf::profiler& prof = gpf::profiler::instance();
    prof.set_enabled(true);
    prof.reset();
    gpf::stopwatch sw;
    const gpf::netlist nl = make_circuit(c, seed);
    gpf::placer_options popt;
    popt.force_scale_k = 0.2;
    if (c.iterations > 0) popt.max_iterations = c.iterations;
    popt.coarsen_levels = c.levels;
    gpf::placer p(nl, popt);
    const gpf::placement global = p.run();
    gpf::placement legal;
    const gpf::legalize_result lr = gpf::legalize(nl, global, legal);
    row.seconds = sw.elapsed_seconds();
    prof.set_enabled(false);

    const auto& hist = p.history();
    row.hpwl_legal = lr.hpwl_refined;
    row.overflow_final = hist.empty() ? 0.0 : hist.back().overflow_area / nl.movable_area();
    for (const gpf::level_summary& l : p.level_log()) row.transforms += l.iterations;
    if (p.level_log().empty()) row.transforms = hist.size();
    row.cg_hold_move = prof.total_cg(gpf::profile_phase::solve);
    row.cg_wire_relax = prof.total_cg(gpf::profile_phase::wire_relax);
    gpf::state_digest d;
    for (const gpf::point& pt : legal) {
        d.mix_f64(pt.x);
        d.mix_f64(pt.y);
    }
    row.digest = hex64(d.hash);
    return row;
}

void write_table(const std::string& path, const std::vector<qor_row>& rows) {
    std::ofstream out(path);
    if (!out) throw gpf::io_error("cannot write " + path);
    out << "{\n  \"schema\": \"gpf-qor-1\",\n  \"rows\": [\n";
    char buf[512];
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const qor_row& r = rows[i];
        std::snprintf(buf, sizeof buf,
                      "    {\"class\": \"%s\", \"seed\": %" PRIu64 ", \"args\": \"%s\", "
                      "\"hpwl_legal\": %.17g, \"overflow_final\": %.17g, "
                      "\"transforms\": %zu, \"cg_hold_move\": %zu, "
                      "\"cg_wire_relax\": %zu, \"digest\": \"%s\"}%s\n",
                      r.cls.c_str(), r.seed, r.args.c_str(), r.hpwl_legal,
                      r.overflow_final, r.transforms, r.cg_hold_move, r.cg_wire_relax,
                      r.digest.c_str(), i + 1 < rows.size() ? "," : "");
        out << buf;
    }
    out << "  ]\n}\n";
    if (!out.flush()) throw gpf::io_error("cannot write " + path);
}

std::vector<qor_row> read_table(const std::string& path) {
    const gpf::json_ptr doc = gpf::json_parse_file(path);
    const gpf::json_ptr rows = doc->get("rows");
    if (!rows || !rows->is_array()) throw gpf::io_error(path + ": no \"rows\" array");
    std::vector<qor_row> out;
    for (const gpf::json_ptr& item : rows->items()) {
        const auto field = [&](const char* key) {
            const gpf::json_ptr v = item->get(key);
            if (!v) throw gpf::io_error(path + ": row without \"" + key + "\"");
            return v;
        };
        qor_row r;
        r.cls = field("class")->as_string();
        r.seed = static_cast<std::uint64_t>(field("seed")->as_number());
        r.hpwl_legal = field("hpwl_legal")->as_number();
        r.overflow_final = field("overflow_final")->as_number();
        r.transforms = static_cast<std::size_t>(field("transforms")->as_number());
        r.cg_hold_move = static_cast<std::size_t>(field("cg_hold_move")->as_number());
        r.cg_wire_relax = static_cast<std::size_t>(field("cg_wire_relax")->as_number());
        r.digest = field("digest")->as_string();
        out.push_back(std::move(r));
    }
    return out;
}

/// Print the paired table and apply the gate. Returns true on pass.
bool check(const std::vector<qor_row>& base, const std::vector<qor_row>& cand) {
    std::printf("\n| class | seed | legal HPWL base | cand | Δ%% | overflow base → cand "
                "| transforms | CG hold-and-move | CG wire-relax | digest |\n"
                "|---|---|---|---|---|---|---|---|---|---|\n");
    bool ok = true;
    double sum = 0.0;
    std::size_t paired = 0;
    for (const qor_row& c : cand) {
        const auto it = std::find_if(base.begin(), base.end(), [&](const qor_row& b) {
            return b.cls == c.cls && b.seed == c.seed;
        });
        if (it == base.end()) {
            std::printf("| %s | %" PRIu64 " | missing from the table |\n", c.cls.c_str(),
                        c.seed);
            ok = false;
            continue;
        }
        const qor_row& b = *it;
        const double pct = 100.0 * (c.hpwl_legal - b.hpwl_legal) / b.hpwl_legal;
        const bool seed_ok = pct <= kDesignBoundPct;
        ok = ok && seed_ok;
        sum += pct;
        ++paired;
        std::printf("| %s | %" PRIu64 " | %.0f | %.0f | %+.2f%s | %.4f → %.4f | %zu → %zu "
                    "| %zu → %zu | %zu → %zu | %s |\n",
                    c.cls.c_str(), c.seed, b.hpwl_legal, c.hpwl_legal, pct,
                    seed_ok ? "" : " FAIL", b.overflow_final, c.overflow_final,
                    b.transforms, c.transforms, b.cg_hold_move, c.cg_hold_move,
                    b.cg_wire_relax, c.cg_wire_relax,
                    b.digest == c.digest ? "same" : "changed");
    }
    if (paired != base.size()) {
        std::printf("| the table holds %zu designs, %zu of them paired |\n", base.size(),
                    paired);
        ok = false;
    }
    const double mean = paired > 0 ? sum / static_cast<double>(paired) : 0.0;
    const bool mean_ok = mean <= kMeanBoundPct;
    std::printf("\nmean paired legal-HPWL difference %+.3f%% over %zu designs "
                "(bound %+.2f%%, per design %+.2f%%): %s\n",
                mean, paired, kMeanBoundPct, kDesignBoundPct,
                ok && mean_ok ? "PASS" : "FAIL");
    return ok && mean_ok;
}

void usage(std::FILE* to) {
    std::fprintf(to, "usage: gpf_qor [--check TABLE] [--write TABLE]\n");
}

} // namespace

int main(int argc, char** argv) {
    std::optional<std::string> write_path;
    std::optional<std::string> check_path;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool has_value = i + 1 < argc;
        if (arg == "--write" && has_value) {
            write_path = argv[++i];
        } else if (arg == "--check" && has_value) {
            check_path = argv[++i];
        } else if (arg == "--help" || arg == "-h") {
            usage(stdout);
            return kExitPass;
        } else {
            usage(stderr);
            return kExitUsage;
        }
    }
    if (!write_path && !check_path) {
        usage(stderr);
        return kExitUsage;
    }
    gpf::set_log_level(gpf::log_level::warning);

    try {
        std::vector<qor_row> base;
        if (check_path) base = read_table(*check_path);
        std::vector<qor_row> rows;
        for (const qor_class& c : classes()) {
            for (const std::uint64_t seed : c.seeds) {
                rows.push_back(run_design(c, seed));
                const qor_row& r = rows.back();
                std::printf("%-9s seed %-3" PRIu64 " legal HPWL %.0f  overflow %.4f  "
                            "%zu transformations  CG %zu + %zu  %.2fs\n",
                            r.cls.c_str(), r.seed, r.hpwl_legal, r.overflow_final,
                            r.transforms, r.cg_hold_move, r.cg_wire_relax, r.seconds);
                std::fflush(stdout);
            }
        }
        bool pass = true;
        if (check_path) pass = check(base, rows);
        if (write_path) {
            write_table(*write_path, rows);
            std::printf("wrote %s\n", write_path->c_str());
        }
        return pass ? kExitPass : kExitFail;
    } catch (const gpf::io_error& e) {
        std::fprintf(stderr, "error[io]: %s\n", e.what());
        return kExitIo;
    } catch (const gpf::check_error& e) { // a table field of the wrong kind
        std::fprintf(stderr, "error[io]: %s\n", e.what());
        return kExitIo;
    }
}
