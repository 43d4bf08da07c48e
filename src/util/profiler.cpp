#include "util/profiler.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>

namespace gpf {

const char* profile_phase_name(profile_phase phase) {
    switch (phase) {
        case profile_phase::assemble: return "assemble";
        case profile_phase::density: return "density";
        case profile_phase::force_field: return "force_field";
        case profile_phase::move_force: return "move_force";
        case profile_phase::solve: return "solve";
        case profile_phase::wire_relax: return "wire_relax";
        case profile_phase::spread_check: return "spread_check";
        case profile_phase::coarsen: return "coarsen";
        case profile_phase::interpolate: return "interpolate";
        case profile_phase::other: return "other";
        case profile_phase::count_: break;
    }
    return "?";
}

const char* profile_kernel_name(profile_kernel kernel) {
    switch (kernel) {
        case profile_kernel::fft_forward: return "fft_fwd";
        case profile_kernel::fft_pointwise: return "fft_mul";
        case profile_kernel::fft_inverse: return "fft_inv";
        case profile_kernel::stamp: return "stamp";
        case profile_kernel::readback: return "readback";
        case profile_kernel::count_: break;
    }
    return "?";
}

profiler& profiler::instance() {
    static profiler p;
    return p;
}

profiler::profiler() {
    const char* env = std::getenv("GPF_PROFILE");
    if (env != nullptr && *env != '\0' && std::strcmp(env, "0") != 0) {
        enabled_ = true;
        trace_ = true;
    }
}

void profiler::add_sample(profile_phase phase, double seconds) {
    const std::size_t i = static_cast<std::size_t>(phase);
    totals_[i].seconds += seconds;
    totals_[i].calls += 1;
    current_[i] += seconds;
}

void profiler::add_kernel_sample(profile_kernel kernel, double seconds,
                                 double flops) {
    const std::size_t i = static_cast<std::size_t>(kernel);
    kernels_[i].seconds += seconds;
    kernels_[i].flops += flops;
    kernels_[i].calls += 1;
    kernels_current_[i].seconds += seconds;
    kernels_current_[i].flops += flops;
    kernels_current_[i].calls += 1;
}

namespace {

std::size_t cg_kind_index(profile_phase kind) {
    return kind == profile_phase::wire_relax ? 1 : 0;
}

/// A kernel's time, plus its GFLOP/s only when it has a flop model (a
/// zero flop total has no meaningful rate); `trace` selects the compact
/// trace-line form.
std::string kernel_time_and_rate(double seconds, double flops, bool trace) {
    char buf[64];
    if (flops <= 0.0) {
        std::snprintf(buf, sizeof buf, trace ? "%.3fms" : "%10.3f ms", seconds * 1e3);
    } else {
        const double gfs = seconds > 0.0 ? flops / seconds * 1e-9 : 0.0;
        std::snprintf(buf, sizeof buf, trace ? "%.3fms/%.2fGF" : "%10.3f ms  %6.2f GFLOP/s",
                      seconds * 1e3, gfs);
    }
    return buf;
}

} // namespace

void profiler::add_cg_iterations(profile_phase kind, std::size_t x_iters,
                                 std::size_t y_iters) {
    cg_x_total_ += x_iters;
    cg_y_total_ += y_iters;
    cg_x_current_ += x_iters;
    cg_y_current_ += y_iters;
    cg_kind_total_[cg_kind_index(kind)] += x_iters + y_iters;
    cg_kind_current_[cg_kind_index(kind)] += x_iters + y_iters;
}

std::size_t profiler::total_cg(profile_phase kind) const {
    return cg_kind_total_[cg_kind_index(kind)];
}

void profiler::end_transform() {
    ++transforms_;
    if (trace_) {
        double total = 0.0;
        for (const double s : current_) total += s;
        std::fprintf(stderr, "GPF_PROFILE transform=%zu", transforms_);
        for (std::size_t i = 0; i < num_profile_phases; ++i) {
            std::fprintf(stderr, " %s=%.3fms",
                         profile_phase_name(static_cast<profile_phase>(i)),
                         current_[i] * 1e3);
        }
        for (std::size_t i = 0; i < num_profile_kernels; ++i) {
            const kernel_totals& k = kernels_current_[i];
            if (k.calls == 0) continue;
            std::fprintf(stderr, " %s=%s",
                         profile_kernel_name(static_cast<profile_kernel>(i)),
                         kernel_time_and_rate(k.seconds, k.flops, true).c_str());
        }
        std::fprintf(stderr, " cg_x=%zu cg_y=%zu cg_solve=%zu cg_relax=%zu total=%.3fms\n",
                     cg_x_current_, cg_y_current_, cg_kind_current_[0],
                     cg_kind_current_[1], total * 1e3);
    }
    current_.fill(0.0);
    kernels_current_.fill(kernel_totals{});
    cg_x_current_ = 0;
    cg_y_current_ = 0;
    cg_kind_current_.fill(0);
}

double profiler::total_seconds(profile_phase phase) const {
    return totals_[static_cast<std::size_t>(phase)].seconds;
}

std::size_t profiler::calls(profile_phase phase) const {
    return totals_[static_cast<std::size_t>(phase)].calls;
}

double profiler::kernel_seconds(profile_kernel kernel) const {
    return kernels_[static_cast<std::size_t>(kernel)].seconds;
}

double profiler::kernel_flops(profile_kernel kernel) const {
    return kernels_[static_cast<std::size_t>(kernel)].flops;
}

std::size_t profiler::kernel_calls(profile_kernel kernel) const {
    return kernels_[static_cast<std::size_t>(kernel)].calls;
}

std::string profiler::summary() const {
    std::ostringstream os;
    double total = 0.0;
    for (const phase_totals& t : totals_) total += t.seconds;
    os << "phase profile over " << transforms_ << " transformation(s), "
       << "total " << total * 1e3 << " ms\n";
    char line[128];
    for (std::size_t i = 0; i < num_profile_phases; ++i) {
        const phase_totals& t = totals_[i];
        if (t.calls == 0) continue;
        const double pct = total > 0.0 ? 100.0 * t.seconds / total : 0.0;
        std::snprintf(line, sizeof line, "  %-12s %10.3f ms  %5.1f%%  (%zu calls)\n",
                      profile_phase_name(static_cast<profile_phase>(i)),
                      t.seconds * 1e3, pct, t.calls);
        os << line;
    }
    for (std::size_t i = 0; i < num_profile_kernels; ++i) {
        const kernel_totals& k = kernels_[i];
        if (k.calls == 0) continue;
        std::snprintf(line, sizeof line, "  kernel %-8s %s  (%zu calls)\n",
                      profile_kernel_name(static_cast<profile_kernel>(i)),
                      kernel_time_and_rate(k.seconds, k.flops, false).c_str(), k.calls);
        os << line;
    }
    os << "  cg iterations: x=" << cg_x_total_ << " y=" << cg_y_total_
       << " (hold-and-move " << cg_kind_total_[0] << ", wire-relax "
       << cg_kind_total_[1] << ")\n";
    return os.str();
}

void profiler::reset() {
    totals_.fill(phase_totals{});
    current_.fill(0.0);
    kernels_.fill(kernel_totals{});
    kernels_current_.fill(kernel_totals{});
    transforms_ = 0;
    cg_x_total_ = cg_y_total_ = 0;
    cg_x_current_ = cg_y_current_ = 0;
    cg_kind_total_.fill(0);
    cg_kind_current_.fill(0);
}

} // namespace gpf
