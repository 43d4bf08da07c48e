// Child half of the end-to-end benchmark: one rep of one workload, run in
// a fresh process so every rep pays the cold caches a gpf_place user pays.
//
// The record goes to kRecordFd as text lines; fields are separated by
// single spaces and the failure text runs to the end of its line:
//   header <threads> <isa> <options_digest> <setup_s> <peak_rss_mb>
//   request <i> <place_s> <place_cpu_s> <hpwl_legal> <digest> <stop> <fail|->
//   layer <name> <value>                              (traced reps only)
//   span <i> <id> <parent> <name> <start_s> <end_s>   (traced reps only)
//   error <text>                                      (set-up failed)
//
// Traced reps enable the library profiler (collection only) and install a
// no-op weight hook and a step callback on the top-level placer; those
// hooks bound the per-transformation spans. Untraced reps install nothing.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "e2e.hpp"
#include "gpf.hpp"

namespace e2e {
namespace {

using gpf::placement;

using steady = std::chrono::steady_clock;

/// Input generations per flat child; set-up time is their median.
constexpr std::size_t kSetupRepeats = 5;

double cpu_seconds() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const auto secs = [](const timeval& tv) {
        return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return secs(ru.ru_utime) + secs(ru.ru_stime);
}

/// Peak resident set of this process image in MiB (VmHWM). Unlike
/// ru_maxrss, it excludes the parent's pages the child carried from fork()
/// to execve().
double peak_rss_mb() {
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
    }
    return 0.0;
}

/// Generator seed of design k of run seed s; k = 0 is s itself, so design
/// 0 of seed 1998 is the ROADMAP's `gpf_place --cells 20000 --seed 1998`.
std::uint64_t design_seed(std::uint64_t seed, std::size_t design) {
    return seed + static_cast<std::uint64_t>(design) * 0x9E3779B97F4A7C15ULL;
}

/// gpf_place's synthetic-circuit parameters for `--cells n --seed s`.
gpf::netlist generate(std::size_t cells, std::uint64_t seed) {
    gpf::generator_options gen;
    gen.num_cells = cells;
    gen.num_nets = cells + cells / 8;
    gen.num_rows = std::max<std::size_t>(8, cells / 60);
    gen.num_pads = 64;
    gen.seed = seed;
    return gpf::generate_circuit(gen);
}

/// In-memory spans of one child; times are seconds since the rep started.
class span_log {
public:
    struct span {
        int request;
        int parent;
        std::string name;
        double start;
        double end;
    };

    int open(int request, int parent, const char* name) {
        spans_.push_back({request, parent, name, now(), -1.0});
        return static_cast<int>(spans_.size()) - 1;
    }
    void close(int id) { spans_[static_cast<std::size_t>(id)].end = now(); }
    span& at(int id) { return spans_[static_cast<std::size_t>(id)]; }
    const std::vector<span>& spans() const { return spans_; }

    /// Durations in milliseconds of the spans called `name` under `request`.
    std::vector<double> durations_ms(int request, const std::string& name) const {
        std::vector<double> out;
        for (const span& s : spans_) {
            if (s.request == request && s.name == name) out.push_back((s.end - s.start) * 1e3);
        }
        return out;
    }

    /// Summed duration in seconds of the spans called `name` under `request`.
    double total_s(int request, const std::string& name) const {
        double total = 0.0;
        for (const double ms : durations_ms(request, name)) total += ms * 1e-3;
        return total;
    }

private:
    double now() const {
        return std::chrono::duration<double>(steady::now() - t0_).count();
    }

    steady::time_point t0_ = steady::now();
    std::vector<span> spans_;
};

/// Times one public call as a span of the traced rep; free when untraced.
class scope {
public:
    scope(span_log* log, int request, int parent, const char* name)
        : log_(log), id_(log ? log->open(request, parent, name) : -1) {}
    ~scope() {
        if (log_) log_->close(id_);
    }
    scope(const scope&) = delete;
    scope& operator=(const scope&) = delete;

    int id() const { return id_; }

private:
    span_log* log_;
    int id_;
};

struct request_out {
    double place_s = 0.0;
    double place_cpu_s = 0.0;
    double hpwl = 0.0;
    std::string digest = "-";
    std::string stop = "-";
    std::string fail;
    std::vector<std::pair<std::string, double>> layers;
};

/// Nearest-rank percentile (q in [0, 1]) of a sample; 0 when empty.
double percentile(std::vector<double> v, double q) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(q * static_cast<double>(v.size() - 1) + 0.5);
    return v[std::min(rank, v.size() - 1)];
}

std::string hex64(std::uint64_t v) {
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
    return buf;
}

/// FNV-1a over the legal coordinates' bit patterns.
std::string placement_digest(const placement& pl) {
    gpf::state_digest d;
    for (const gpf::point& p : pl) {
        d.mix_f64(p.x);
        d.mix_f64(p.y);
    }
    return hex64(d.hash);
}

void add_profile_layers(request_out& r) {
    const gpf::profiler& p = gpf::profiler::instance();
    using gpf::profile_kernel;
    using gpf::profile_phase;
    const auto phase = [&](const char* name, profile_phase ph) {
        r.layers.emplace_back(name, p.total_seconds(ph));
    };
    phase("prof.wire_relax_s", profile_phase::wire_relax);
    phase("prof.solve_s", profile_phase::solve);
    phase("prof.assemble_s", profile_phase::assemble);
    phase("prof.coarsen_s", profile_phase::coarsen);
    phase("prof.interpolate_s", profile_phase::interpolate);
    phase("prof.density_s", profile_phase::density);
    phase("prof.force_field_s", profile_phase::force_field);
    phase("prof.move_force_s", profile_phase::move_force);
    phase("prof.spread_check_s", profile_phase::spread_check);
    r.layers.emplace_back("prof.cg_x_iters", static_cast<double>(p.total_cg_x()));
    r.layers.emplace_back("prof.cg_y_iters", static_cast<double>(p.total_cg_y()));
    r.layers.emplace_back("prof.kernel.stamp_cpu_s", p.kernel_seconds(profile_kernel::stamp));
    double fft_s = 0.0;
    double fft_flops = 0.0;
    for (const profile_kernel k : {profile_kernel::fft_forward, profile_kernel::fft_pointwise,
                                   profile_kernel::fft_inverse}) {
        fft_s += p.kernel_seconds(k);
        fft_flops += p.kernel_flops(k);
    }
    r.layers.emplace_back("prof.kernel.fft_cpu_s", fft_s);
    r.layers.emplace_back("prof.kernel.fft_gflop", fft_flops * 1e-9);
}

/// Legalize (Abacus + refinement) and write the Bookshelf files: the tail
/// every request shares.
void legalize_and_write(const gpf::netlist& nl, const placement& global, placement& legal,
                        span_log* log, int request, int root, const std::string& out_base,
                        request_out& r) {
    gpf::legalize_result lr;
    {
        const scope s(log, request, root, "legal.legalize");
        lr = gpf::legalize(nl, global, legal);
    }
    {
        const scope s(log, request, root, "netlist.write");
        gpf::write_bookshelf(nl, legal, out_base);
    }
    r.hpwl = lr.hpwl_refined;
    if (log) {
        const std::size_t moves = lr.refine.swaps + lr.refine.relocations;
        r.layers.emplace_back("legal.hpwl_ratio", lr.hpwl_refined / lr.hpwl_global);
        r.layers.emplace_back("legal.refine_moves", static_cast<double>(moves));
        r.layers.emplace_back("legal.refine_gain",
                              1.0 - lr.refine.hpwl_after / lr.refine.hpwl_before);
        r.layers.emplace_back("core.hpwl_global", lr.hpwl_global);
        r.layers.emplace_back("legal.legalize_s", log->total_s(request, "legal.legalize"));
        r.layers.emplace_back("netlist.write_s", log->total_s(request, "netlist.write"));
    }
}

/// Untimed checks after a request: the legality verifier and the digest.
void check(const gpf::netlist& nl, const placement& legal, span_log* log, int request,
           request_out& r) {
    gpf::verify_report rep;
    {
        const scope s(log, request, -1, "verify.legal");
        rep = gpf::verify_legal_placement(nl, legal);
    }
    if (!rep.ok() && r.fail.empty()) {
        r.fail = "verify: " + rep.violations().front().where + ": " +
                 rep.violations().front().message;
    }
    r.digest = placement_digest(legal);
    if (log) r.layers.emplace_back("verify.legal_s", log->total_s(request, "verify.legal"));
}

/// Stop cause from public state. The final pass of a multilevel run caps
/// its transformations at max(25, max_iterations / 4) unless a level fell
/// back (placer::run_multilevel); the flat loop caps at max_iterations.
std::string stop_cause(const gpf::placer& p, const workload& w) {
    if (p.degraded()) return "degraded";
    if (p.converged()) return "spread";
    std::size_t cap = w.max_iterations;
    const auto& levels = p.level_log();
    const bool fell_back = std::any_of(levels.begin(), levels.end(),
                                       [](const gpf::level_summary& l) { return l.fell_back; });
    if (w.levels > 0 && !fell_back) {
        cap = std::max<std::size_t>(std::max<std::size_t>(25, p.options().min_iterations),
                                    w.max_iterations / 4);
    }
    return p.history().size() >= cap ? "cap" : "plateau";
}

/// One flat or multilevel request: placer construction + run() +
/// legalize() + write_bookshelf(), all inside place_s.
request_out place_design(const workload& w, const gpf::netlist& nl, span_log* log,
                         const std::string& out_base, std::uint64_t& options_digest) {
    request_out r;
    const int req = 0;
    gpf::placer_options popt;
    popt.coarsen_levels = w.levels;
    popt.max_iterations = w.max_iterations;
    gpf::profiler& prof = gpf::profiler::instance();
    if (log) {
        prof.set_enabled(true);
        prof.reset();
    }
    placement global;
    placement legal;
    std::unique_ptr<gpf::placer> p;
    // State of the tracing hooks installed on *p.
    int cur = -1;                 // open span of the transformation loop
    bool initial = w.levels == 0; // the next hook opens the initial solve
    try {
        const double cpu0 = cpu_seconds();
        const steady::time_point t0 = steady::now();
        const scope root(log, req, -1, "request");
        {
            const scope s(log, req, root.id(), "core.ctor");
            p = std::make_unique<gpf::placer>(nl, popt);
        }
        {
            const scope s(log, req, root.id(), "core.global");
            if (log) {
                // Everything before the first hook: the V-cycle on
                // multilevel runs, the start placement on flat ones. On a
                // flat run the first hook opens the initial solve.
                cur = log->open(req, s.id(), w.levels > 0 ? "cluster.vcycle" : "core.prelude");
                p->set_weight_hook([&, parent = s.id()](const placement&) {
                    log->close(cur);
                    cur = log->open(req, parent, initial ? "core.initial_solve" : "core.transform");
                    initial = false;
                });
                p->set_step_callback([&, parent = s.id()](const gpf::iteration_stats&,
                                                          const placement&) {
                    log->close(cur);
                    cur = log->open(req, parent, "core.loop");
                    return true;
                });
            }
            global = p->run();
            if (log) {
                prof.set_enabled(false);
                log->close(cur);
                if (log->at(cur).name == "core.loop") log->at(cur).name = "core.finish";
            }
        }
        legalize_and_write(nl, global, legal, log, req, root.id(), out_base, r);
        r.place_s = std::chrono::duration<double>(steady::now() - t0).count();
        r.place_cpu_s = cpu_seconds() - cpu0;
    } catch (const std::exception& e) {
        r.fail = std::string("threw: ") + e.what();
        return r;
    }
    options_digest = p->checkpoint_digest();
    r.stop = stop_cause(*p, w);
    if (p->degraded()) r.fail = "degraded";
    check(nl, legal, log, req, r);
    if (!log) return r;

    add_profile_layers(r);
    const auto& hist = p->history();
    std::size_t cg = 0;
    std::size_t unconverged = 0;
    for (const gpf::iteration_stats& h : hist) {
        cg += h.cg_iterations;
        unconverged += h.cg_converged ? 0 : 1;
    }
    double coarse_s = 0.0;
    for (const gpf::level_summary& l : p->level_log()) {
        if (l.level >= 1) coarse_s += l.seconds;
    }
    const std::vector<double> transform_ms = log->durations_ms(req, "core.transform");
    const auto n = static_cast<double>(std::max<std::size_t>(1, hist.size()));
    r.layers.emplace_back("core.ctor_s", log->total_s(req, "core.ctor"));
    r.layers.emplace_back("core.global_s", log->total_s(req, "core.global"));
    r.layers.emplace_back("core.initial_solve_s", log->total_s(req, "core.initial_solve"));
    r.layers.emplace_back("core.transforms", static_cast<double>(hist.size()));
    r.layers.emplace_back("core.cg_iters", static_cast<double>(cg));
    r.layers.emplace_back("core.cg_unconverged_frac", static_cast<double>(unconverged) / n);
    r.layers.emplace_back("core.transform_ms.p50", percentile(transform_ms, 0.5));
    r.layers.emplace_back("core.transform_ms.p90", percentile(transform_ms, 0.9));
    r.layers.emplace_back("core.loop_ms.p50",
                          percentile(log->durations_ms(req, "core.loop"), 0.5));
    r.layers.emplace_back("core.overflow_final",
                          hist.empty() ? 0.0 : hist.back().overflow_area / nl.movable_area());
    r.layers.emplace_back("core.converged", p->converged() ? 1.0 : 0.0);
    r.layers.emplace_back("core.recovery_events", static_cast<double>(p->recovery_log().size()));
    r.layers.emplace_back("cluster.coarse_s", coarse_s);
    return r;
}

/// The ECO edit of request `index`: kEcoNewCells 2x1 cells, each on a new
/// net with up to three distinct random pre-existing cells (as in
/// bench/ablation_eco.cpp), drawn from a stream seeded by (seed, index).
gpf::netlist eco_edit(const gpf::netlist& base, std::uint64_t seed, std::size_t index) {
    gpf::netlist nl = base;
    const std::size_t n0 = base.num_cells();
    gpf::prng rng(seed * 0x100000001B3ULL + index);
    for (std::size_t i = 0; i < kEcoNewCells; ++i) {
        gpf::cell c;
        c.name = "eco" + std::to_string(i);
        c.width = 2.0;
        c.height = 1.0;
        const gpf::cell_id id = nl.add_cell(std::move(c));
        gpf::net n;
        n.name = "eco_net" + std::to_string(i);
        n.pins.push_back({id, {}});
        for (int k = 0; k < 3; ++k) {
            const auto target = static_cast<gpf::cell_id>(rng.next_below(n0));
            const bool dup = std::any_of(n.pins.begin(), n.pins.end(),
                                         [&](const gpf::pin& q) { return q.cell == target; });
            if (!dup) n.pins.push_back({target, {}});
        }
        n.driver = 0;
        nl.add_net(std::move(n));
    }
    nl.invalidate_adjacency();
    return nl;
}

/// One ECO request: seed_new_cells + incremental_place + legalize() +
/// write_bookshelf(), all inside place_s. The edit itself is input
/// generation and stays outside.
request_out place_eco(const gpf::netlist& nl, std::size_t n0, const placement& base_legal,
                      int req, span_log* log, const std::string& out_base) {
    request_out r;
    gpf::profiler& prof = gpf::profiler::instance();
    placement legal;
    gpf::eco_result eco;
    try {
        const double cpu0 = cpu_seconds();
        const steady::time_point t0 = steady::now();
        const scope root(log, req, -1, "request");
        placement seeded;
        {
            const scope s(log, req, root.id(), "eco.seed");
            seeded = gpf::seed_new_cells(nl, base_legal, n0);
        }
        {
            const scope s(log, req, root.id(), "eco.incremental");
            if (log) {
                prof.set_enabled(true);
                prof.reset();
            }
            eco = gpf::incremental_place(nl, seeded, n0);
            prof.set_enabled(false);
        }
        legalize_and_write(nl, eco.pl, legal, log, req, root.id(), out_base, r);
        r.place_s = std::chrono::duration<double>(steady::now() - t0).count();
        r.place_cpu_s = cpu_seconds() - cpu0;
    } catch (const std::exception& e) {
        r.fail = std::string("threw: ") + e.what();
        return r;
    }
    check(nl, legal, log, req, r);
    if (!log) return r;

    add_profile_layers(r);
    r.layers.emplace_back("core.transforms", static_cast<double>(prof.transforms()));
    r.layers.emplace_back("core.cg_iters",
                          static_cast<double>(prof.total_cg_x() + prof.total_cg_y()));
    r.layers.emplace_back("eco.seed_s", log->total_s(req, "eco.seed"));
    r.layers.emplace_back("eco.incremental_s", log->total_s(req, "eco.incremental"));
    r.layers.emplace_back("eco.disp_mean", eco.mean_displacement);
    return r;
}

void write_all(int fd, const std::string& text) {
    std::size_t done = 0;
    while (done < text.size()) {
        const ssize_t n = ::write(fd, text.data() + done, text.size() - done);
        if (n <= 0) return;
        done += static_cast<std::size_t>(n);
    }
}

void emit_request(std::ostringstream& os, int index, const request_out& r) {
    os << "request " << index << ' ' << r.place_s << ' ' << r.place_cpu_s << ' ' << r.hpwl
       << ' ' << r.digest << ' ' << r.stop << ' ' << (r.fail.empty() ? "-" : r.fail) << '\n';
    for (const auto& [name, value] : r.layers) {
        os << "layer " << name << ' ' << value << '\n';
    }
}

} // namespace

int run_child(const workload& w, std::uint64_t seed, std::size_t design, bool traced,
              const std::string& work_dir) {
    gpf::set_log_level(gpf::log_level::warning);
    std::ostringstream os;
    os.precision(17);
    span_log spans;
    span_log* log = traced ? &spans : nullptr;
    const std::string out_base = work_dir + "/" + w.name + "." + std::to_string(::getpid());
    std::uint64_t options_digest = 0;
    double setup_s = 0.0;
    std::vector<request_out> requests;
    try {
        if (w.kind == flow::flat) {
            // Generation takes tens of milliseconds, too little to time
            // once; its median over a few repeats is the set-up time.
            gpf::netlist nl;
            std::vector<double> times;
            for (std::size_t k = 0; k < kSetupRepeats; ++k) {
                const steady::time_point t = steady::now();
                gpf::netlist fresh;
                {
                    const scope s(log, -1, -1, "netlist.generate");
                    fresh = generate(w.cells, w.fixed_seed != 0 ? w.fixed_seed
                                                                : design_seed(seed, design));
                }
                times.push_back(std::chrono::duration<double>(steady::now() - t).count());
                nl = std::move(fresh);
            }
            setup_s = percentile(times, 0.5);
            requests.push_back(place_design(w, nl, log, out_base, options_digest));
        } else {
            const steady::time_point t0 = steady::now();
            gpf::netlist base;
            {
                const scope s(log, -1, -1, "netlist.generate");
                base = generate(w.cells, w.fixed_seed);
            }
            placement base_legal;
            {
                const scope s(log, -1, -1, "eco.base");
                gpf::placer_options popt;
                popt.coarsen_levels = w.levels;
                popt.max_iterations = w.max_iterations;
                gpf::placer p(base, popt);
                const placement global = p.run();
                gpf::legalize(base, global, base_legal);
                options_digest = p.checkpoint_digest();
            }
            setup_s = std::chrono::duration<double>(steady::now() - t0).count();
            for (std::size_t i = 0; i < w.requests; ++i) {
                const gpf::netlist nl = eco_edit(base, seed, i);
                requests.push_back(place_eco(nl, base.num_cells(), base_legal,
                                             static_cast<int>(i), log, out_base));
            }
        }
    } catch (const std::exception& e) {
        os << "error set-up threw: " << e.what() << '\n';
        write_all(kRecordFd, os.str());
        return 1;
    }
    for (const char* ext : {".nodes", ".nets", ".pl", ".scl"}) {
        std::remove((out_base + ext).c_str());
    }

    os << "header " << gpf::thread_pool::instance().num_threads() << ' '
       << gpf::simd_isa_name(gpf::simd_active_isa()) << ' ' << hex64(options_digest) << ' '
       << setup_s << ' ' << peak_rss_mb() << '\n';
    for (std::size_t i = 0; i < requests.size(); ++i) {
        emit_request(os, static_cast<int>(i), requests[i]);
    }
    if (traced) {
        os << "layer netlist.generate_s "
           << percentile(spans.durations_ms(-1, "netlist.generate"), 0.5) * 1e-3 << '\n';
        const auto& all = spans.spans();
        for (std::size_t id = 0; id < all.size(); ++id) {
            const span_log::span& s = all[id];
            os << "span " << s.request << ' ' << id << ' ' << s.parent << ' ' << s.name << ' '
               << s.start << ' ' << s.end << '\n';
        }
    }
    write_all(kRecordFd, os.str());
    return 0;
}

} // namespace e2e
