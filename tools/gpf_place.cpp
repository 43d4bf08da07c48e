// gpf_place — command-line front end of the GPF placer.
//
//   gpf_place --cells 2000                    # synthetic circuit
//   gpf_place --bookshelf path/to/design      # reads design.{nodes,nets,pl[,scl]}
//   gpf_place --suite avq.small --scale 0.1   # MCNC-class synthetic suite
//
// Flow options:
//   --fast                 K = 1.0 instead of 0.2
//   --levels N             multilevel V-cycle with N coarsening levels
//                          (0 = flat loop, the default)
//   --net-model M          clique | star | hybrid net decomposition
//   --star-threshold N     hybrid: degree above which star is used
//   --timing               timing-driven net weighting
//   --congestion           RUDY congestion hook
//   --legalizer tetris|abacus
//   --out PREFIX           write PREFIX.{pl,nodes,nets,scl} and PREFIX.svg
//   --svg                  also write density/heat maps
//   --verify               validate the input netlist and enable the
//                          pipeline invariant checkpoints (like GPF_VERIFY=1)
//   --time-budget S        wall-clock budget for global placement; on expiry
//                          the placer returns its best-so-far placement
//   --max-iter-seconds S   per-transformation watchdog; a blown budget is a
//                          recovery incident (tightened retry, then the rest
//                          of the ladder)
//   --seed N, --iterations N, --quiet
//
// Crash safety (DESIGN.md §14):
//   --checkpoint PATH      atomically persist the resumable loop state
//   --checkpoint-interval N  every N accepted transformations (default 1)
//   --resume               continue from --checkpoint (falls back to
//                          PATH.prev when the newest generation is torn)
//   --heartbeat PATH       liveness counter file for the supervisor
//   --supervise            run the placement in a supervised child process:
//                          crashes and heartbeat stalls restart it (with
//                          exponential backoff) from the latest valid
//                          checkpoint; deterministic failures (3/4/64) are
//                          surfaced as-is
//   --max-restarts N       supervised restarts after the first attempt
//   --stall-seconds S      heartbeat silence that counts as a wedged child
//
// SIGINT/SIGTERM request a graceful stop: the loop flushes a final
// checkpoint, returns the best-so-far placement, the outputs are written
// and the process exits 2 (degraded-but-valid).
//
// Exit codes (stable interface — scripts and the CI fault matrix rely on it):
//   0   clean run
//   2   degraded-but-valid: the recovery ladder or a resource guard engaged,
//       a stop was requested, or supervision had to restart the run; the
//       outputs were still written and pass the pipeline invariants
//   3   I/O or parse failure (error[io]: on stderr) — includes a missing,
//       torn or foreign checkpoint under --resume
//   4   invariant/precondition violation (error[invariant]: on stderr)
//   5   any other failure (error[internal]: on stderr); also the supervisor's
//       verdict when every restart was exhausted
//   64  command-line usage error
#include <atomic>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "gpf.hpp"
#include "report/svg.hpp"

namespace {

constexpr int kExitClean = 0;
constexpr int kExitDegraded = 2;
constexpr int kExitIo = 3;
constexpr int kExitInvariant = 4;
constexpr int kExitInternal = 5;
constexpr int kExitUsage = 64;

struct cli_options {
    std::optional<std::string> bookshelf;
    std::optional<std::string> suite;
    double scale = 0.1;
    std::size_t cells = 1000;
    std::uint64_t seed = 1;
    bool fast = false;
    bool timing = false;
    bool congestion = false;
    bool svg = false;
    bool verify = false;
    bool quiet = false;
    std::size_t iterations = 0; // 0 = default
    std::size_t levels = 0;     // 0 = flat placement loop
    std::string net_model = "clique";
    std::size_t star_threshold = 0; // 0 = library default
    double time_budget = 0.0;       // 0 = unlimited
    double max_iter_seconds = 0.0;  // 0 = no watchdog
    std::string legalizer = "abacus";
    std::string out = "gpf_out";
    std::string checkpoint;         // "" = no checkpointing
    std::size_t checkpoint_interval = 1;
    bool resume = false;
    std::string heartbeat;          // "" = no heartbeat
    bool supervise = false;
    std::size_t max_restarts = 3;
    double stall_seconds = 120.0;
};

/// Set by the SIGINT/SIGTERM handler; the placer polls it between
/// transformations and ends through the best-so-far path.
std::atomic<bool> g_stop_requested{false};

extern "C" void request_stop(int) { g_stop_requested.store(true); }

void usage(const char* argv0, std::FILE* to) {
    std::fprintf(to,
                 "usage: %s [--cells N | --bookshelf BASE | --suite NAME]\n"
                 "          [--scale S] [--seed N] [--fast] [--timing]\n"
                 "          [--levels N] [--net-model clique|star|hybrid]\n"
                 "          [--star-threshold N] [--congestion]\n"
                 "          [--legalizer tetris|abacus]\n"
                 "          [--iterations N] [--time-budget S]\n"
                 "          [--max-iter-seconds S] [--out PREFIX] [--svg]\n"
                 "          [--checkpoint PATH] [--checkpoint-interval N]\n"
                 "          [--resume] [--heartbeat PATH] [--supervise]\n"
                 "          [--max-restarts N] [--stall-seconds S]\n"
                 "          [--verify] [--quiet]\n"
                 "exit codes: 0 clean, 2 degraded-but-valid, 3 I/O failure,\n"
                 "            4 invariant violation, 5 internal error, 64 usage\n",
                 argv0);
}

enum class parse_status { run, help, error };

/// Strict full-token numeric parsing: "-1", "3x" and "" are usage errors,
/// never a silent atoll() truncation (a negative --levels used to wrap to
/// a huge size_t and an unparseable --star-threshold read as 0).
bool parse_count(const char* text, std::size_t& out) {
    if (!text || *text == '\0') return false;
    char* end = nullptr;
    errno = 0;
    const long long v = std::strtoll(text, &end, 10);
    if (errno != 0 || end == text || *end != '\0' || v < 0) return false;
    out = static_cast<std::size_t>(v);
    return true;
}

bool parse_number(const char* text, double& out) {
    if (!text || *text == '\0') return false;
    char* end = nullptr;
    const double v = std::strtod(text, &end);
    if (end == text || *end != '\0' || !std::isfinite(v)) return false;
    out = v;
    return true;
}

parse_status parse(int argc, char** argv, cli_options& opt) {
    bool bad = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto next = [&]() -> const char* {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "missing value for %s\n", arg.c_str());
                bad = true;
                return nullptr;
            }
            return argv[++i];
        };
        // Every rejection below falls through to the usage() diagnostic at
        // the bottom — a usage error must always say what correct usage is.
        const auto reject = [&](const char* wants, const char* got) {
            std::fprintf(stderr, "%s wants %s, got '%s'\n", arg.c_str(), wants, got);
            bad = true;
        };
        if (arg == "--cells") {
            const char* v = next();
            if (!v) break;
            if (!parse_count(v, opt.cells)) reject("a non-negative integer", v);
        } else if (arg == "--bookshelf") {
            const char* v = next();
            if (!v) break;
            opt.bookshelf = v;
        } else if (arg == "--suite") {
            const char* v = next();
            if (!v) break;
            opt.suite = v;
        } else if (arg == "--scale") {
            const char* v = next();
            if (!v) break;
            if (!parse_number(v, opt.scale) || !(opt.scale > 0.0)) {
                reject("a positive scale factor", v);
            }
        } else if (arg == "--seed") {
            const char* v = next();
            if (!v) break;
            std::size_t seed = 0;
            if (!parse_count(v, seed)) {
                reject("a non-negative integer", v);
            } else {
                opt.seed = seed;
            }
        } else if (arg == "--iterations") {
            const char* v = next();
            if (!v) break;
            if (!parse_count(v, opt.iterations)) {
                reject("a non-negative integer", v);
            }
        } else if (arg == "--levels") {
            const char* v = next();
            if (!v) break;
            if (!parse_count(v, opt.levels)) {
                reject("a non-negative level count", v);
            }
        } else if (arg == "--net-model") {
            const char* v = next();
            if (!v) break;
            opt.net_model = v;
            if (opt.net_model != "clique" && opt.net_model != "star" &&
                opt.net_model != "hybrid") {
                reject("clique, star or hybrid", v);
            }
        } else if (arg == "--star-threshold") {
            const char* v = next();
            if (!v) break;
            if (!parse_count(v, opt.star_threshold) || opt.star_threshold < 2) {
                reject("a degree >= 2", v);
            }
        } else if (arg == "--time-budget") {
            const char* v = next();
            if (!v) break;
            if (!parse_number(v, opt.time_budget) || !(opt.time_budget > 0.0)) {
                reject("a positive number of seconds", v);
            }
        } else if (arg == "--max-iter-seconds") {
            const char* v = next();
            if (!v) break;
            if (!parse_number(v, opt.max_iter_seconds) ||
                !(opt.max_iter_seconds > 0.0)) {
                reject("a positive number of seconds", v);
            }
        } else if (arg == "--legalizer") {
            const char* v = next();
            if (!v) break;
            opt.legalizer = v;
        } else if (arg == "--checkpoint") {
            const char* v = next();
            if (!v) break;
            opt.checkpoint = v;
        } else if (arg == "--checkpoint-interval") {
            const char* v = next();
            if (!v) break;
            if (!parse_count(v, opt.checkpoint_interval) ||
                opt.checkpoint_interval == 0) {
                reject("a positive interval", v);
            }
        } else if (arg == "--heartbeat") {
            const char* v = next();
            if (!v) break;
            opt.heartbeat = v;
        } else if (arg == "--max-restarts") {
            const char* v = next();
            if (!v) break;
            if (!parse_count(v, opt.max_restarts)) {
                reject("a non-negative integer", v);
            }
        } else if (arg == "--stall-seconds") {
            const char* v = next();
            if (!v) break;
            if (!parse_number(v, opt.stall_seconds) || !(opt.stall_seconds > 0.0)) {
                reject("a positive number of seconds", v);
            }
        } else if (arg == "--resume") {
            opt.resume = true;
        } else if (arg == "--supervise") {
            opt.supervise = true;
        } else if (arg == "--out") {
            const char* v = next();
            if (!v) break;
            opt.out = v;
        } else if (arg == "--fast") {
            opt.fast = true;
        } else if (arg == "--timing") {
            opt.timing = true;
        } else if (arg == "--congestion") {
            opt.congestion = true;
        } else if (arg == "--svg") {
            opt.svg = true;
        } else if (arg == "--verify") {
            opt.verify = true;
        } else if (arg == "--quiet") {
            opt.quiet = true;
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0], stdout);
            return parse_status::help;
        } else {
            std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
            bad = true;
        }
    }
    // Cross-flag validation: a bad combination is a usage error here, not
    // a typed failure deep in the run.
    if (opt.resume && opt.checkpoint.empty()) {
        std::fprintf(stderr, "--resume needs --checkpoint PATH\n");
        bad = true;
    }
    if (opt.resume && opt.levels > 0) {
        std::fprintf(stderr,
                     "--resume works on the flat loop only (--levels 0); the "
                     "multilevel V-cycle is not a resumable unit\n");
        bad = true;
    }
    if (opt.timing && (opt.resume || !opt.checkpoint.empty())) {
        std::fprintf(stderr, "--timing does not support checkpoint/resume\n");
        bad = true;
    }
    if (bad) {
        usage(argv[0], stderr);
        return parse_status::error;
    }
    return parse_status::run;
}

/// Child command line for --supervise: this process's own arguments minus
/// the supervision flags, plus the checkpoint/heartbeat plumbing the
/// supervisor watches. `resume` additionally appends --resume.
std::vector<std::string> child_argv(int argc, char** argv,
                                    const std::string& checkpoint,
                                    const std::string& heartbeat, bool resume) {
    std::vector<std::string> child;
    child.push_back(argv[0]);
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--supervise" || arg == "--resume") continue;
        if (arg == "--max-restarts" || arg == "--stall-seconds" ||
            arg == "--checkpoint" || arg == "--heartbeat") {
            ++i; // drop the flag and its value; re-added canonically below
            continue;
        }
        child.push_back(arg);
    }
    child.push_back("--checkpoint");
    child.push_back(checkpoint);
    child.push_back("--heartbeat");
    child.push_back(heartbeat);
    if (resume) child.push_back("--resume");
    return child;
}

gpf::netlist load_circuit(const cli_options& opt) {
    if (opt.bookshelf) {
        gpf::bookshelf_design design = gpf::read_bookshelf(*opt.bookshelf);
        return std::move(design.nl);
    }
    if (opt.suite) {
        return gpf::make_suite_circuit(gpf::suite_circuit_by_name(*opt.suite),
                                       opt.scale, opt.seed);
    }
    gpf::generator_options gen;
    gen.num_cells = opt.cells;
    gen.num_nets = opt.cells + opt.cells / 8;
    gen.num_rows = std::max<std::size_t>(8, opt.cells / 60);
    gen.num_pads = 64;
    gen.seed = opt.seed;
    return gpf::generate_circuit(gen);
}

} // namespace

int main(int argc, char** argv) {
    cli_options cli;
    switch (parse(argc, argv, cli)) {
        case parse_status::help: return kExitClean;
        case parse_status::error: return kExitUsage;
        case parse_status::run: break;
    }
    gpf::set_log_level(cli.quiet ? gpf::log_level::warning : gpf::log_level::info);

    if (cli.supervise) {
        // Out-of-process mode: this process becomes the supervisor and the
        // actual placement runs in a child built from our own argv (minus
        // the supervision flags). Checkpoint and heartbeat default to
        // sibling files of the output prefix.
        const std::string checkpoint =
            cli.checkpoint.empty() ? cli.out + ".ckpt" : cli.checkpoint;
        const std::string heartbeat =
            cli.heartbeat.empty() ? cli.out + ".heartbeat" : cli.heartbeat;
        gpf::supervisor_options sopt;
        sopt.argv = child_argv(argc, argv, checkpoint, heartbeat, cli.resume);
        sopt.resume_argv = child_argv(argc, argv, checkpoint, heartbeat, true);
        sopt.checkpoint_path = checkpoint;
        sopt.heartbeat_path = heartbeat;
        sopt.max_restarts = cli.max_restarts;
        sopt.stall_seconds = cli.stall_seconds;
        const gpf::supervise_result res = gpf::supervise(sopt);
        if (res.succeeded() && res.attempts.size() > 1) {
            std::fprintf(stderr,
                         "degraded: supervision restarted the run %zu time(s); "
                         "outputs are valid\n",
                         res.attempts.size() - 1);
        }
        return res.exit_code;
    }

    // Graceful stop: the placer polls the flag between transformations,
    // flushes a final checkpoint and returns its best-so-far placement;
    // outputs are still written and the process exits 2.
    std::signal(SIGINT, request_stop);
    std::signal(SIGTERM, request_stop);

    try {
        if (cli.verify) gpf::force_verify_checkpoints(true);
        gpf::netlist nl = load_circuit(cli);
        if (cli.verify || gpf::verify_checkpoints_enabled()) {
            gpf::verify_netlist(nl).require("input netlist");
            if (!cli.quiet) std::printf("verify: input netlist ok\n");
        }
        const gpf::netlist_stats stats = gpf::compute_stats(nl);
        if (!cli.quiet) {
            std::ostringstream os;
            os << stats;
            std::printf("circuit: %s\n", os.str().c_str());
        }

        gpf::placer_options popt;
        popt.force_scale_k = cli.fast ? 1.0 : 0.2;
        if (cli.iterations > 0) popt.max_iterations = cli.iterations;
        popt.coarsen_levels = cli.levels;
        popt.net_model.kind = cli.net_model == "star"   ? gpf::net_model_kind::star
                              : cli.net_model == "hybrid" ? gpf::net_model_kind::hybrid
                                                          : gpf::net_model_kind::clique;
        if (cli.star_threshold > 0) popt.net_model.star_threshold = cli.star_threshold;
        popt.time_budget = cli.time_budget;
        popt.max_transform_seconds = cli.max_iter_seconds;
        popt.checkpoint_path = cli.checkpoint;
        popt.checkpoint_interval = cli.checkpoint_interval;
        popt.heartbeat_path = cli.heartbeat;
        popt.stop_flag = &g_stop_requested;

        gpf::stopwatch sw;
        gpf::placement global;
        bool degraded = false;
        if (cli.timing) {
            gpf::timing_driven_options topt;
            topt.placer = popt;
            const gpf::timing_result res = gpf::timing_optimize(nl, topt);
            global = res.pl;
            std::printf("timing: %.3f ns -> %.3f ns (lower bound %.3f ns, "
                        "exploitation %.0f%%)\n",
                        res.delay_before * 1e9, res.delay_after * 1e9,
                        res.lower_bound * 1e9, res.exploitation() * 100);
        } else {
            gpf::placer p(nl, popt);
            if (cli.congestion) p.set_density_hook(gpf::make_congestion_hook(nl));
            global = cli.resume ? p.resume(cli.checkpoint) : p.run();
            std::printf("global placement: %zu transformations, HPWL %.1f\n",
                        p.history().size(), gpf::total_hpwl(nl, global));
            for (const gpf::level_summary& lvl : p.level_log()) {
                std::printf("  level %zu: %zu movable cells, %zu transformations, "
                            "HPWL %.1f in %.2fs%s\n",
                            lvl.level, lvl.movable_cells, lvl.iterations, lvl.hpwl,
                            lvl.seconds, lvl.fell_back ? " (fell back)" : "");
            }
            degraded = p.degraded();
            if (degraded) {
                for (const gpf::recovery_event& ev : p.recovery_log()) {
                    std::fprintf(stderr, "recovery: %s at transformation %zu — %s\n",
                                 gpf::recovery_action_name(ev.action), ev.iteration,
                                 ev.reason.c_str());
                }
            }
        }

        gpf::legalize_options lopt;
        lopt.algorithm = cli.legalizer == "tetris" ? gpf::row_legalizer::tetris
                                                   : gpf::row_legalizer::abacus;
        gpf::placement legal;
        const gpf::legalize_result lr = gpf::legalize(nl, global, legal, lopt);
        std::printf("legalized HPWL %.1f (refined %.1f): rows %.2fs, refine %.2fs; "
                    "run wall time %.2fs\n",
                    lr.hpwl_legal, lr.hpwl_refined, lr.row_seconds, lr.refine_seconds,
                    sw.elapsed_seconds());

        const gpf::stopwatch export_sw;
        gpf::write_bookshelf(nl, legal, cli.out);
        gpf::write_placement_svg(nl, legal, cli.out + ".svg");
        if (cli.svg) {
            const gpf::density_map grid = gpf::compute_density(nl, legal, 4096);
            gpf::write_heatmap_svg(grid, grid.demand(), cli.out + "_density.svg");
            const auto rudy =
                gpf::rudy_map(nl, legal, grid.region(), grid.nx(), grid.ny());
            gpf::write_heatmap_svg(grid, rudy, cli.out + "_congestion.svg");
        }
        std::printf("wrote %s.{nodes,nets,pl,scl,svg} in %.2fs\n", cli.out.c_str(),
                    export_sw.elapsed_seconds());
        if (gpf::profiler::instance().enabled()) {
            std::fprintf(stderr, "%s", gpf::profiler::instance().summary().c_str());
        }
        if (degraded) {
            std::fprintf(stderr,
                         "degraded: recovery engaged during global placement; "
                         "outputs are the best-so-far placement\n");
            return kExitDegraded;
        }
        return kExitClean;
    } catch (const gpf::io_error& e) {
        // Covers parse_error too (it derives from io_error).
        std::fprintf(stderr, "error[io]: %s\n", e.what());
        return kExitIo;
    } catch (const gpf::check_error& e) {
        std::fprintf(stderr, "error[invariant]: %s\n", e.what());
        return kExitInvariant;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "error[internal]: %s\n", e.what());
        return kExitInternal;
    }
}
