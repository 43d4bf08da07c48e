// gpf_e2e — end-to-end placement benchmark (see README.md).
//
//   gpf_e2e --benchmark-json BENCHMARK.json --work-dir DIR
//           [--workload all|NAME[,NAME...]] [--seed N] [--reps N | --seconds S]
//           [--trace 0|1] [--commit SHA] [--report PATH] [--trace-out PATH]
//
// Every rep of every workload runs in a fresh child process (this binary
// re-executed with --child); the parent probes the host before each rep
// and collects the child's record through a pipe. Rounds go round-robin
// across the selected workloads, so host
// drift spreads evenly over them. With --seconds, rounds repeat until that
// many seconds have passed (at least one round); otherwise --reps rounds
// run. With --trace 1 every child of the first round also runs traced.
//
// The last line of stdout is one JSON object {correct, attempted, failed,
// metrics}: the end-to-end metrics (--trace 0, the default), or the
// per-layer ones (--trace 1), keyed by name when one workload ran and by
// workload then name otherwise.
// The exit code is 0 only when every request passed its checks.
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "e2e.hpp"
#include "util/json.hpp"

#ifndef GPF_E2E_BUILD_TYPE
#define GPF_E2E_BUILD_TYPE "unknown"
#endif

extern char** environ;

namespace e2e {
namespace {

using steady = std::chrono::steady_clock;

constexpr int kExitUsage = 64;
constexpr double kChildTimeoutS = 150.0;

struct cli {
    std::vector<const workload*> workloads;
    std::uint64_t seed = 1998;
    std::size_t reps = 3;
    double seconds = 0.0; ///< > 0: repeat rounds until this much time has passed
    bool trace = false;
    std::string benchmark_json;
    std::string work_dir;
    std::string commit = "unknown";
    std::string report = "BENCH_e2e.json";
    std::string trace_out = "BENCH_e2e_trace.jsonl";
    // child mode
    const workload* child = nullptr;
    std::size_t design = 0;
    bool traced = false;
};

struct request_rec {
    int index = 0;
    double place_s = 0.0;
    double place_cpu_s = 0.0;
    double hpwl = 0.0;
    std::string digest;
    std::string stop;
    std::string fail;
};

struct span_rec {
    int request;
    int id;
    int parent;
    std::string name;
    double start;
    double end;
};

/// One rep of one workload, as the parent saw it.
struct child_rec {
    const workload* w = nullptr;
    std::size_t round = 0;
    std::size_t design = 0;
    bool traced = false;
    double calib_ms = 0.0;
    std::size_t threads = 0;
    std::string isa = "?";
    std::string options_digest = "?";
    double setup_s = 0.0;
    double peak_rss_mb = 0.0;
    std::string error;
    std::vector<request_rec> requests;
    std::vector<std::pair<std::string, double>> layers;
    std::vector<span_rec> spans;
};

const workload* find_workload(const std::string& name) {
    for (const workload& w : kWorkloads) {
        if (name == w.name) return &w;
    }
    return nullptr;
}

/// Cores this process may run on (what `nproc` prints).
std::size_t available_cores() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
    return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
}

std::size_t thread_count(const workload& w) {
    return w.single_thread ? 1 : std::min<std::size_t>(4, available_cores());
}

// --- statistics -------------------------------------------------------------

double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// First and third quartile by the same rule as Python's
/// statistics.quantiles(v, n=4) (the 'exclusive' method).
std::pair<double, double> quartiles(std::vector<double> v) {
    if (v.empty()) return {0.0, 0.0};
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    if (n == 1) return {v[0], v[0]};
    const auto q = [&](std::size_t i) {
        const std::size_t m = n + 1;
        const std::size_t j = std::clamp<std::size_t>(i * m / 4, 1, n - 1);
        const auto delta = static_cast<double>(i * m) - static_cast<double>(j * 4);
        return (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    };
    return {q(1), q(3)};
}

double mean(const std::vector<double>& v) {
    if (v.empty()) return 0.0;
    double s = 0.0;
    for (const double x : v) s += x;
    return s / static_cast<double>(v.size());
}

// --- host probe -------------------------------------------------------------

// Volatile so the compiler can neither fold the probe's chain at compile
// time nor drop its result.
volatile double g_probe_factor = 0.9999999;
volatile double g_probe_sink = 0.0;

/// Program-independent host speed probe: a fixed floating-point
/// dependency chain plus a read sweep over 64 MiB. The buffer is filled
/// once, untimed, and only read afterwards: writing it after a fork() would
/// time copy-on-write faults instead of the memory. Milliseconds.
double calibration_probe_ms() {
    static const std::vector<std::uint64_t> buf((std::size_t{64} << 20) / sizeof(std::uint64_t),
                                                1);
    const steady::time_point t0 = steady::now();
    const double factor = g_probe_factor;
    double x = 1.0;
    for (int i = 0; i < 20'000'000; ++i) x = x * factor + 1e-7;
    std::uint64_t sum = 0;
    for (const std::uint64_t v : buf) sum += v;
    g_probe_sink = x + static_cast<double>(sum);
    return std::chrono::duration<double, std::milli>(steady::now() - t0).count();
}

// --- BENCHMARK.json consistency ---------------------------------------------

bool valid_name(const std::string& s) {
    if (s.empty() || s.size() > 64 || !std::isalnum(static_cast<unsigned char>(s[0]))) return false;
    return std::all_of(s.begin(), s.end(), [](char c) {
        return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '.' || c == '-';
    });
}

/// Every metric and workload this binary reports must appear in
/// BENCHMARK.json with the same unit and direction, and vice versa.
bool check_benchmark_json(const std::string& path) {
    std::vector<std::string> problems;
    // name -> "unit better" ("" for workloads)
    using table = std::map<std::string, std::string>;
    try {
        const gpf::json_ptr root = gpf::json_parse_file(path);
        const auto compare = [&](const char* key, const table& ours) {
            const gpf::json_ptr list = root->get(key);
            if (!list || !list->is_array()) {
                problems.push_back(std::string("missing array '") + key + "'");
                return;
            }
            table theirs;
            for (const gpf::json_ptr& item : list->items()) {
                const auto text = [&](const char* field) {
                    const gpf::json_ptr v = item->get(field);
                    return v && v->is_string() ? v->as_string() : std::string();
                };
                const std::string unit = text("unit");
                theirs[text("name")] = unit.empty() ? "" : unit + " " + text("better");
            }
            for (const auto& [name, def] : ours) {
                if (!valid_name(name)) problems.push_back(std::string(key) + ": bad name " + name);
                const auto it = theirs.find(name);
                if (it == theirs.end()) {
                    problems.push_back(std::string(key) + ": " + name + " missing from " + path);
                } else if (it->second != def) {
                    problems.push_back(std::string(key) + ": " + name + " is '" + it->second +
                                       "' there, '" + def + "' here");
                }
            }
            for (const auto& [name, def] : theirs) {
                if (!ours.count(name)) problems.push_back(std::string(key) + ": '" + name +
                                                          "' unknown here");
            }
        };
        const auto metrics = [](const auto& defs) {
            table t;
            for (const metric_def& m : defs) {
                t[m.name] = std::string(m.unit) + (m.lower_is_better ? " lower" : " higher");
            }
            return t;
        };
        table names;
        for (const workload& w : kWorkloads) names[w.name] = "";
        compare("end_to_end", metrics(kEndToEnd));
        compare("per_layer", metrics(kPerLayer));
        compare("workloads", names);
    } catch (const std::exception& e) {
        problems.push_back(e.what());
    }
    for (const std::string& p : problems) {
        std::fprintf(stderr, "gpf_e2e: BENCHMARK.json mismatch: %s\n", p.c_str());
    }
    return problems.empty();
}

// --- child processes --------------------------------------------------------

void parse_child_output(const std::string& text, child_rec& c) {
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream ls(line);
        std::string kind;
        ls >> kind;
        if (kind == "header") {
            ls >> c.threads >> c.isa >> c.options_digest >> c.setup_s >> c.peak_rss_mb;
        } else if (kind == "request") {
            request_rec r;
            ls >> r.index >> r.place_s >> r.place_cpu_s >> r.hpwl >> r.digest >> r.stop;
            std::getline(ls >> std::ws, r.fail);
            if (r.fail == "-") r.fail.clear();
            c.requests.push_back(std::move(r));
        } else if (kind == "layer") {
            std::string name;
            double value = 0.0;
            ls >> name >> value;
            c.layers.emplace_back(std::move(name), value);
        } else if (kind == "span") {
            span_rec s{};
            ls >> s.request >> s.id >> s.parent >> s.name >> s.start >> s.end;
            c.spans.push_back(std::move(s));
        } else if (kind == "error") {
            std::getline(ls >> std::ws, c.error);
        }
    }
}

/// Run one rep in a fresh child and wait for it.
child_rec run_rep(const cli& o, const workload& w, std::size_t round, std::size_t design,
                  bool traced) {
    child_rec c;
    c.w = &w;
    c.round = round;
    c.design = design;
    c.traced = traced;
    c.calib_ms = calibration_probe_ms();

    const std::vector<std::string> args = {
        "gpf_e2e", "--child", w.name, "--seed", std::to_string(o.seed),
        "--design", std::to_string(design), "--traced", traced ? "1" : "0",
        "--work-dir", o.work_dir};
    std::vector<std::string> env;
    for (char** e = environ; *e != nullptr; ++e) {
        const std::string kv = *e;
        // The child's thread count is the workload's; GPF_PROFILE would
        // turn the profiler on in untraced reps.
        if (kv.rfind("GPF_THREADS=", 0) == 0 || kv.rfind("GPF_PROFILE=", 0) == 0) continue;
        env.push_back(kv);
    }
    env.push_back("GPF_THREADS=" + std::to_string(thread_count(w)));
    std::vector<char*> argv;
    std::vector<char*> envp;
    for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
    for (const std::string& e : env) envp.push_back(const_cast<char*>(e.c_str()));
    argv.push_back(nullptr);
    envp.push_back(nullptr);

    int fds[2];
    if (::pipe(fds) != 0) {
        c.error = std::string("pipe: ") + std::strerror(errno);
        return c;
    }
    const pid_t pid = ::fork();
    if (pid < 0) {
        c.error = std::string("fork: ") + std::strerror(errno);
        ::close(fds[0]);
        ::close(fds[1]);
        return c;
    }
    if (pid == 0) {
        // If the read end is kRecordFd, dup2 replaces it.
        if (fds[0] != kRecordFd) ::close(fds[0]);
        if (fds[1] != kRecordFd) {
            ::dup2(fds[1], kRecordFd);
            ::close(fds[1]);
        }
        ::execve("/proc/self/exe", argv.data(), envp.data());
        ::_exit(127);
    }
    ::close(fds[1]);

    std::string out;
    const steady::time_point deadline =
        steady::now() + std::chrono::duration_cast<steady::duration>(
                            std::chrono::duration<double>(kChildTimeoutS));
    char buf[65536];
    for (;;) {
        const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                              deadline - steady::now()).count();
        pollfd p{fds[0], POLLIN, 0};
        const int ready = left > 0 ? ::poll(&p, 1, static_cast<int>(left)) : 0;
        if (ready < 0 && errno == EINTR) continue;
        if (ready <= 0) {
            ::kill(pid, SIGKILL);
            c.error = "timed out after " + std::to_string(static_cast<int>(kChildTimeoutS)) + " s";
            break;
        }
        const ssize_t n = ::read(fds[0], buf, sizeof buf);
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) break;
        out.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fds[0]);

    int status = 0;
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    parse_child_output(out, c);
    if (c.error.empty()) {
        if (WIFSIGNALED(status)) {
            c.error = "killed by signal " + std::to_string(WTERMSIG(status));
        } else if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
            c.error = "exit code " + std::to_string(WEXITSTATUS(status));
        } else if (c.requests.size() != w.requests) {
            c.error = "record holds " + std::to_string(c.requests.size()) + " of " +
                      std::to_string(w.requests) + " requests";
        }
    }
    return c;
}

// --- aggregation ------------------------------------------------------------

struct summary {
    const workload* w = nullptr;
    std::map<std::string, double> e2e;
    /// Untraced samples behind the e2e values, in run order.
    std::map<std::string, std::vector<double>> samples;
    std::map<std::string, double> layer;
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::vector<std::string> failures;
    std::vector<double> calib_ms;
    std::map<std::string, std::size_t> stops;
    std::map<std::string, std::string> digests; ///< "design/request" -> digest
    std::size_t threads = 0;
    std::string isa = "?";
    std::string options_digest = "?";
    std::size_t traced_requests = 0;
    /// span name -> (count, total s, self s) over the traced reps
    std::map<std::string, std::tuple<std::size_t, double, double>> self_time;
};

/// Per-request span metrics of one traced child: coverage of each request
/// by its top-level spans, and per-name totals and self times.
void fold_spans(const child_rec& c, summary& s, std::vector<double>& coverage) {
    std::map<int, double> child_time; // span id -> time covered by its children
    for (const span_rec& sp : c.spans) {
        if (sp.parent >= 0) child_time[sp.parent] += sp.end - sp.start;
    }
    for (const span_rec& sp : c.spans) {
        const double dur = sp.end - sp.start;
        auto& [count, total, self] = s.self_time[sp.name];
        ++count;
        total += dur;
        self += dur - child_time[sp.id];
        if (sp.name == "request" && dur > 0.0) coverage.push_back(child_time[sp.id] / dur);
    }
}

summary summarize(const workload& w, const std::vector<child_rec>& children,
                  std::map<std::string, std::string>& group_digests) {
    summary s;
    s.w = &w;
    s.threads = thread_count(w);
    std::vector<double>& place = s.samples["place_s"];
    std::vector<double>& cpu = s.samples["place_cpu_s"];
    std::vector<double>& setup = s.samples["setup_s"];
    std::vector<double>& hpwl = s.samples["hpwl_legal"];
    std::vector<double> overhead, coverage;
    double rss = 0.0;
    std::map<std::string, std::vector<double>> layers;
    for (std::size_t i = 0; i < children.size(); ++i) {
        const child_rec& c = children[i];
        if (c.w != &w) continue;
        s.calib_ms.push_back(c.calib_ms);
        s.attempted += w.requests;
        const std::string rep = "round " + std::to_string(c.round) + " design " +
                                std::to_string(c.design) + (c.traced ? " (traced)" : "");
        if (!c.error.empty()) {
            s.failed += w.requests;
            s.failures.push_back(rep + ": " + c.error);
            continue;
        }
        s.threads = c.threads;
        s.isa = c.isa;
        s.options_digest = c.options_digest;
        if (!c.traced) {
            setup.push_back(c.setup_s);
            rss = std::max(rss, c.peak_rss_mb);
        }
        for (const request_rec& r : c.requests) {
            std::string fail = r.fail;
            const std::string key = std::to_string(c.design) + "/" + std::to_string(r.index);
            const std::string gkey = std::string(w.digest_group) + "/" + key;
            // Only a request that passed its own checks sets the reference.
            if (fail.empty()) {
                const auto [it, fresh] = group_digests.emplace(gkey, r.digest);
                if (!fresh && it->second != r.digest) {
                    fail = "placement digest " + r.digest + " differs from " + it->second +
                           " (" + gkey + ")";
                }
            }
            s.digests.emplace(key, r.digest);
            ++s.stops[r.stop];
            if (!fail.empty()) {
                ++s.failed;
                s.failures.push_back(rep + " request " + std::to_string(r.index) + ": " + fail);
                continue;
            }
            if (c.traced) {
                ++s.traced_requests;
                const child_rec& twin = children[i - 1]; // see run_parent
                const auto ri = static_cast<std::size_t>(r.index);
                if (twin.error.empty() && ri < twin.requests.size() &&
                    twin.requests[ri].fail.empty()) {
                    overhead.push_back(r.place_s / twin.requests[ri].place_s - 1.0);
                }
            } else {
                place.push_back(r.place_s);
                cpu.push_back(r.place_cpu_s);
                hpwl.push_back(r.hpwl);
            }
        }
        if (c.traced) {
            for (const auto& [name, value] : c.layers) layers[name].push_back(value);
            fold_spans(c, s, coverage);
        }
    }
    s.e2e["place_s"] = median(place);
    s.e2e["place_cpu_s"] = median(cpu);
    s.e2e["setup_s"] = median(setup);
    s.e2e["hpwl_legal"] = mean(hpwl);
    s.e2e["peak_rss_mb"] = rss;
    for (const metric_def& m : kPerLayer) s.layer[m.name] = median(layers[m.name]);
    s.layer["host.calib_ms"] = median(s.calib_ms);
    s.layer["trace.overhead_frac"] = median(overhead);
    s.layer["trace.coverage_frac"] = median(coverage);
    return s;
}

// --- output -----------------------------------------------------------------

std::string json_string(const std::string& s) {
    std::string out = "\"";
    for (const char ch : s) {
        const auto c = static_cast<unsigned char>(ch);
        if (c == '"' || c == '\\') {
            out += '\\';
            out += ch;
        } else if (c < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += ch;
        }
    }
    return out + "\"";
}

std::string json_number(double v) {
    if (!std::isfinite(v)) return "null";
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string json_array(const std::vector<double>& v) {
    std::string out = "[";
    for (std::size_t i = 0; i < v.size(); ++i) out += (i ? ", " : "") + json_number(v[i]);
    return out + "]";
}

/// {"key": value(v), ...} over a map, in key order.
template <class Map, class F>
std::string json_object(const Map& m, F&& value) {
    std::string out = "{";
    for (const auto& [key, v] : m) {
        if (out.size() > 1) out += ", ";
        out += json_string(key) + ": " + value(v);
    }
    return out + "}";
}

/// {"name": {"value": v, "unit": u}, ...} for one metric table.
template <std::size_t N>
std::string json_metrics(const metric_def (&defs)[N], const std::map<std::string, double>& values) {
    std::string out = "{";
    for (std::size_t i = 0; i < N; ++i) {
        if (i) out += ", ";
        out += json_string(defs[i].name) + ": {\"value\": " + json_number(values.at(defs[i].name)) +
               ", \"unit\": " + json_string(defs[i].unit) + "}";
    }
    return out + "}";
}

void print_summary(const summary& s) {
    const workload& w = *s.w;
    std::printf("\n== %s — %s\n", w.name, w.why);
    std::printf("   threads %zu, isa %s, options digest %s, %zu attempted, %zu failed\n", s.threads,
                s.isa.c_str(), s.options_digest.c_str(), s.attempted, s.failed);
    for (const metric_def& m : kEndToEnd) {
        std::printf("   %-28s %14.6g %-13s", m.name, s.e2e.at(m.name), m.unit);
        const auto it = s.samples.find(m.name);
        if (it != s.samples.end() && m.name == std::string("hpwl_legal")) {
            std::printf(" mean of n=%zu", it->second.size());
        } else if (it != s.samples.end()) {
            const auto [q1, q3] = quartiles(it->second);
            std::printf(" median of n=%zu, q1 %.6g, q3 %.6g", it->second.size(), q1, q3);
        }
        std::printf("\n");
    }
    std::printf("   host.calib_ms per rep:");
    for (const double c : s.calib_ms) std::printf(" %.1f", c);
    std::printf("\n   stop causes:");
    for (const auto& [cause, n] : s.stops) std::printf(" %s=%zu", cause.c_str(), n);
    std::printf("\n   placement digests (design/request):");
    for (const auto& [key, digest] : s.digests) std::printf(" %s=%s", key.c_str(), digest.c_str());
    std::printf("\n");
    for (const std::string& f : s.failures) std::printf("   FAILED %s\n", f.c_str());
    const auto [c1, c3] = quartiles(s.calib_ms);
    const double calib_spread = (c3 - c1) / std::max(1e-9, median(s.calib_ms));
    if (calib_spread > 0.05) {
        std::printf("   WARNING host.calib_ms quartiles spread %.1f%% of the median across reps: "
                    "the host's speed drifted, so compare timings with care\n",
                    calib_spread * 100.0);
    }
}

void print_layers(const summary& s) {
    std::printf("\n-- %s per-layer metrics (traced reps, %zu requests)\n", s.w->name,
                s.traced_requests);
    for (const metric_def& m : kPerLayer) {
        std::printf("   %-28s %14.6g %s\n", m.name, s.layer.at(m.name), m.unit);
    }
    std::printf("   span self time, ms per traced request:\n");
    std::printf("   %-22s %8s %12s %12s\n", "span", "count", "total", "self");
    const double n = static_cast<double>(std::max<std::size_t>(1, s.traced_requests));
    std::vector<std::pair<std::string, std::tuple<std::size_t, double, double>>> rows(
        s.self_time.begin(), s.self_time.end());
    std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
        return std::get<1>(a.second) > std::get<1>(b.second);
    });
    for (const auto& [name, row] : rows) {
        const auto& [count, total, self] = row;
        std::printf("   %-22s %8zu %12.3f %12.3f\n", name.c_str(), count, total * 1e3 / n,
                    self * 1e3 / n);
    }
}

void write_report(const cli& o, const std::vector<summary>& sums, double wall_s) {
    std::ofstream f(o.report);
    f << "{\n  \"benchmark\": \"e2e\",\n  \"seed\": " << o.seed
      << ",\n  \"commit\": " << json_string(o.commit)
      << ",\n  \"build_type\": " << json_string(GPF_E2E_BUILD_TYPE)
      << ",\n  \"cores\": " << available_cores() << ",\n  \"wall_s\": " << json_number(wall_s)
      << ",\n  \"workloads\": [";
    for (std::size_t i = 0; i < sums.size(); ++i) {
        const summary& s = sums[i];
        f << (i ? ",\n" : "\n") << "    {\"name\": " << json_string(s.w->name)
          << ", \"threads\": " << s.threads << ", \"isa\": " << json_string(s.isa)
          << ", \"options_digest\": " << json_string(s.options_digest)
          << ", \"attempted\": " << s.attempted << ", \"failed\": " << s.failed
          << ",\n     \"end_to_end\": " << json_metrics(kEndToEnd, s.e2e)
          << ",\n     \"samples\": " << json_object(s.samples, json_array)
          << ",\n     \"per_layer\": " << json_metrics(kPerLayer, s.layer)
          << ",\n     \"calib_ms\": " << json_array(s.calib_ms)
          << ",\n     \"stops\": "
          << json_object(s.stops, [](std::size_t n) { return std::to_string(n); })
          << ",\n     \"digests\": " << json_object(s.digests, json_string)
          << ",\n     \"failures\": [";
        for (std::size_t k = 0; k < s.failures.size(); ++k) {
            f << (k ? ", " : "") << json_string(s.failures[k]);
        }
        f << "]}";
    }
    f << "\n  ]\n}\n";
}

void write_trace(const cli& o, const std::vector<child_rec>& children) {
    std::ofstream f(o.trace_out);
    for (const child_rec& c : children) {
        for (const span_rec& s : c.spans) {
            f << "{\"workload\": " << json_string(c.w->name) << ", \"design\": " << c.design
              << ", \"request\": " << s.request << ", \"id\": " << s.id
              << ", \"parent\": " << s.parent << ", \"name\": " << json_string(s.name)
              << ", \"start\": " << json_number(s.start) << ", \"end\": " << json_number(s.end)
              << "}\n";
        }
    }
}

int run_parent(const cli& o) {
    if (!check_benchmark_json(o.benchmark_json)) return 2;
    ::mkdir(o.work_dir.c_str(), 0755);

    std::printf("gpf_e2e: seed %llu, commit %s, %s build, %zu cores, %s\n",
                static_cast<unsigned long long>(o.seed), o.commit.c_str(), GPF_E2E_BUILD_TYPE,
                available_cores(),
                o.seconds > 0.0 ? ("rounds for " + std::to_string(o.seconds) + " s").c_str()
                                : ("rounds " + std::to_string(o.reps)).c_str());
    std::fflush(stdout);

    const steady::time_point t0 = steady::now();
    const auto elapsed = [&] { return std::chrono::duration<double>(steady::now() - t0).count(); };
    std::vector<child_rec> children;
    // With tracing, each child of the first round is followed by a traced
    // twin with the same input, so the tracing overhead is measured between
    // neighbours in time rather than across the host's drift.
    const auto round = [&](std::size_t r, bool traced) {
        for (const workload* w : o.workloads) {
            for (std::size_t k = 0; k < w->children; ++k) {
                const std::size_t design = w->kind == flow::flat ? k : 0;
                children.push_back(run_rep(o, *w, r, design, false));
                if (traced) children.push_back(run_rep(o, *w, r, design, true));
            }
        }
    };
    for (std::size_t r = 0; o.seconds > 0.0 ? r == 0 || elapsed() < o.seconds : r < o.reps;
         ++r) {
        round(r, o.trace && r == 0);
    }
    const double wall_s = elapsed();

    std::vector<summary> sums;
    std::map<std::string, std::string> group_digests;
    std::size_t attempted = 0;
    std::size_t failed = 0;
    for (const workload* w : o.workloads) {
        sums.push_back(summarize(*w, children, group_digests));
        attempted += sums.back().attempted;
        failed += sums.back().failed;
    }
    for (const summary& s : sums) print_summary(s);
    if (o.trace) {
        for (const summary& s : sums) print_layers(s);
    }
    write_report(o, sums, wall_s);
    if (o.trace) write_trace(o, children);
    std::printf("\nwall %.1f s; wrote %s%s%s\n", wall_s, o.report.c_str(),
                o.trace ? " and " : "", o.trace ? o.trace_out.c_str() : "");

    const auto table = [&](const summary& s) {
        return o.trace ? json_metrics(kPerLayer, s.layer) : json_metrics(kEndToEnd, s.e2e);
    };
    std::string metrics;
    if (sums.size() == 1) {
        metrics = table(sums[0]);
    } else {
        std::map<std::string, std::string> per_workload;
        for (const summary& s : sums) per_workload[s.w->name] = table(s);
        metrics = json_object(per_workload, [](const std::string& t) { return t; });
    }
    const bool correct = failed == 0;
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": %s}\n",
                correct ? "true" : "false", attempted, failed, metrics.c_str());
    return correct ? 0 : 1;
}

// --- command line -----------------------------------------------------------

void usage() {
    std::fprintf(stderr,
                 "usage: gpf_e2e --benchmark-json PATH --work-dir DIR\n"
                 "               [--workload all|NAME[,NAME...]] [--seed N]\n"
                 "               [--reps N | --seconds S] [--trace 0|1] [--commit SHA]\n"
                 "               [--report PATH] [--trace-out PATH]\n"
                 "workloads:");
    for (const workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
}

bool parse_u64(const char* s, std::uint64_t& out) {
    if (s == nullptr || *s < '0' || *s > '9') return false;
    char* end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(s, &end, 10);
    if (errno != 0 || *end != '\0') return false;
    out = v;
    return true;
}

bool parse(int argc, char** argv, cli& o) {
    std::string workloads = "all";
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
        std::uint64_t n = 0;
        bool ok = v != nullptr;
        if (arg == "--workload" && ok) {
            workloads = v;
        } else if (arg == "--seed" && ok) {
            ok = parse_u64(v, o.seed);
        } else if (arg == "--reps" && ok) {
            ok = parse_u64(v, n) && n > 0;
            o.reps = n;
        } else if (arg == "--seconds" && ok) {
            char* end = nullptr;
            o.seconds = std::strtod(v, &end);
            ok = *end == '\0' && o.seconds > 0.0 && o.seconds < 3600.0;
        } else if ((arg == "--trace" || arg == "--traced") && ok) {
            ok = parse_u64(v, n) && n <= 1;
            (arg == "--trace" ? o.trace : o.traced) = n == 1;
        } else if (arg == "--benchmark-json" && ok) {
            o.benchmark_json = v;
        } else if (arg == "--work-dir" && ok) {
            o.work_dir = v;
        } else if (arg == "--commit" && ok) {
            o.commit = v;
        } else if (arg == "--report" && ok) {
            o.report = v;
        } else if (arg == "--trace-out" && ok) {
            o.trace_out = v;
        } else if (arg == "--child" && ok) {
            o.child = find_workload(v);
            ok = o.child != nullptr;
        } else if (arg == "--design" && ok) {
            ok = parse_u64(v, n);
            o.design = n;
        } else {
            std::fprintf(stderr, "gpf_e2e: unknown or incomplete option '%s'\n", arg.c_str());
            return false;
        }
        if (!ok) {
            std::fprintf(stderr, "gpf_e2e: bad value for %s\n", arg.c_str());
            return false;
        }
        ++i;
    }
    if (o.work_dir.empty()) {
        std::fprintf(stderr, "gpf_e2e: --work-dir is required\n");
        return false;
    }
    if (o.child != nullptr) return true;
    if (o.benchmark_json.empty()) {
        std::fprintf(stderr, "gpf_e2e: --benchmark-json is required\n");
        return false;
    }
    std::istringstream names(workloads);
    std::string name;
    while (std::getline(names, name, ',')) {
        if (name == "all") {
            for (const workload& w : kWorkloads) o.workloads.push_back(&w);
        } else if (const workload* w = find_workload(name)) {
            o.workloads.push_back(w);
        } else {
            std::fprintf(stderr, "gpf_e2e: unknown workload '%s'\n", name.c_str());
            return false;
        }
    }
    return !o.workloads.empty();
}

} // namespace
} // namespace e2e

int main(int argc, char** argv) {
    e2e::cli o;
    if (!e2e::parse(argc, argv, o)) {
        e2e::usage();
        return e2e::kExitUsage;
    }
    if (o.child != nullptr) {
        return e2e::run_child(*o.child, o.seed, o.design, o.traced, o.work_dir);
    }
    return e2e::run_parent(o);
}
