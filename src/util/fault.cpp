#include "util/fault.hpp"

#include <array>
#include <cstdlib>
#include <vector>

#include "util/logging.hpp"

namespace gpf {

namespace {

constexpr std::array<const char*, num_fault_sites> kSiteNames = {
    "cg_stall",        "cg_nan",        "fft_nonfinite",
    "force_nonfinite", "density_spike", "io_short_read",
    "checkpoint_torn_write", "process_abort", "transform_stall",
    "cg_step_nan",
};

/// Split on ':' without touching errno-based parsing; empty fields are
/// rejected by the numeric conversion below.
std::vector<std::string> split_fields(const std::string& spec) {
    std::vector<std::string> fields;
    std::size_t start = 0;
    while (true) {
        const std::size_t colon = spec.find(':', start);
        if (colon == std::string::npos) {
            fields.push_back(spec.substr(start));
            return fields;
        }
        fields.push_back(spec.substr(start, colon - start));
        start = colon + 1;
    }
}

bool parse_u64(const std::string& token, std::uint64_t& out) {
    if (token.empty()) return false;
    std::uint64_t value = 0;
    for (const char c : token) {
        if (c < '0' || c > '9') return false;
        if (value > (UINT64_MAX - static_cast<std::uint64_t>(c - '0')) / 10) return false;
        value = value * 10 + static_cast<std::uint64_t>(c - '0');
    }
    out = value;
    return true;
}

} // namespace

const char* fault_site_name(fault_site site) {
    return kSiteNames[static_cast<std::size_t>(site)];
}

std::optional<fault_site> fault_site_from_name(const std::string& name) {
    for (std::size_t i = 0; i < num_fault_sites; ++i) {
        if (name == kSiteNames[i]) return static_cast<fault_site>(i);
    }
    return std::nullopt;
}

fault_injector& fault_injector::instance() {
    static fault_injector injector;
    return injector;
}

fault_injector::fault_injector() {
    const char* spec = std::getenv("GPF_FAULT");
    if (spec == nullptr || *spec == '\0') return;
    std::string error;
    if (!arm_from_spec(spec, &error)) {
        log(log_level::warning) << "ignoring malformed GPF_FAULT spec '" << spec
                                << "': " << error;
    }
}

void fault_injector::arm(fault_site site, std::size_t iteration, std::uint64_t seed,
                         std::size_t count) {
    armed_.store(false, std::memory_order_relaxed);
    site_ = site;
    target_ = iteration;
    count_ = count == 0 ? 1 : count;
    seed_ = seed;
    visits_.store(0, std::memory_order_relaxed);
    armed_.store(true, std::memory_order_release);
}

void fault_injector::disarm() {
    armed_.store(false, std::memory_order_relaxed);
    visits_.store(0, std::memory_order_relaxed);
}

bool fault_injector::arm_from_spec(const std::string& spec, std::string* error) {
    const auto fail = [&](const std::string& why) {
        if (error != nullptr) *error = why;
        return false;
    };
    const std::vector<std::string> fields = split_fields(spec);
    if (fields.size() < 2 || fields.size() > 4) {
        return fail("expected <site>:<iter>[:<seed>[:<count>]]");
    }
    const std::optional<fault_site> site = fault_site_from_name(fields[0]);
    if (!site.has_value()) {
        std::string known;
        for (const char* name : kSiteNames) {
            if (!known.empty()) known += ", ";
            known += name;
        }
        return fail("unknown site '" + fields[0] + "' (known: " + known + ")");
    }
    std::uint64_t iteration = 0;
    if (!parse_u64(fields[1], iteration)) {
        return fail("iteration '" + fields[1] + "' is not a non-negative integer");
    }
    std::uint64_t seed = 0;
    if (fields.size() >= 3 && !parse_u64(fields[2], seed)) {
        return fail("seed '" + fields[2] + "' is not a non-negative integer");
    }
    std::uint64_t count = 1;
    if (fields.size() == 4 && (!parse_u64(fields[3], count) || count == 0)) {
        return fail("count '" + fields[3] + "' is not a positive integer");
    }
    arm(*site, static_cast<std::size_t>(iteration), seed,
        static_cast<std::size_t>(count));
    return true;
}

bool fault_injector::fire(fault_site site) {
    if (site != site_) return false;
    const std::size_t visit = visits_.fetch_add(1, std::memory_order_relaxed);
    if (visit < target_ || visit >= target_ + count_) return false;
    fired_[static_cast<std::size_t>(site)].fetch_add(1, std::memory_order_relaxed);
    return true;
}

std::size_t fault_injector::fired(fault_site site) const {
    return fired_[static_cast<std::size_t>(site)].load(std::memory_order_relaxed);
}

std::size_t fault_injector::total_fired() const {
    std::size_t total = 0;
    for (const auto& f : fired_) total += f.load(std::memory_order_relaxed);
    return total;
}

} // namespace gpf
