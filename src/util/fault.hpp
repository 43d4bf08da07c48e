// Deterministic fault injection for the placement pipeline (DESIGN.md §9).
//
// The recovery ladder in core/placer.cpp can only be trusted if its
// trigger paths are exercised on every change, at every thread count.
// This module plants named *injection sites* in the numerically fragile
// substrates — the CG solver (forced stagnation, NaN residual, a NaN
// search direction mid-solve), the spectral convolution and force field
// (non-finite samples), the density map (overflow spike) and Bookshelf
// I/O (short read) — plus the
// process-level failure modes of DESIGN.md §14: a torn checkpoint write,
// an abrupt SIGKILL death of the placement loop, and a stalled
// transformation watchdog. It arms exactly one of them, either from the
// environment
//
//     GPF_FAULT=<site>:<iter>[:<seed>[:<count>]]
//
// or programmatically (tests/test_fault.cpp, which drives every recovery
// rung through these sites). `<iter>` is the 0-based call index of the
// site at which the fault fires; `<count>` (default 1) keeps it firing
// for that many consecutive calls, which is how tests force a retry to
// fail again and escalate to rollback and best-so-far stop. `<seed>`
// picks the poisoned element deterministically.
//
// Cost when disarmed: one relaxed atomic load per site visit (the same
// contract as GPF_VERIFY's checkpoint gate). Sites never fire unless the
// process explicitly armed them, so production behaviour — including the
// bitwise thread-count determinism of the placer — is untouched.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

namespace gpf {

enum class fault_site : std::size_t {
    cg_stall = 0,    ///< CG returns immediately: no progress, residual 1
    cg_nan,          ///< CG poisons one solution entry and reports NaN residual
    fft_nonfinite,   ///< spectral convolution emits a non-finite sample
    force_nonfinite, ///< force field emits a non-finite kernel sample
    density_spike,   ///< density finalize adds a massive demand spike
    io_short_read,   ///< Bookshelf reader sees a premature end of file
    checkpoint_torn_write, ///< checkpoint writer persists a truncated envelope
    process_abort,   ///< placer loop dies by SIGKILL (supervisor restart drill)
    transform_stall, ///< watchdog sees a transformation exceed its budget
    cg_step_nan,     ///< CG poisons one search-direction entry before an update
    count_,
};

inline constexpr std::size_t num_fault_sites =
    static_cast<std::size_t>(fault_site::count_);

/// Canonical site name as used in GPF_FAULT specs ("cg_stall", ...).
const char* fault_site_name(fault_site site);

/// Inverse of fault_site_name; nullopt for unknown names.
std::optional<fault_site> fault_site_from_name(const std::string& name);

/// Process-wide injector. At most one site is armed at a time; arming is
/// not thread-safe (arm from the driving thread, before parallel work),
/// but firing is — sites are visited from worker threads.
class fault_injector {
public:
    static fault_injector& instance();

    /// The only cost on a disarmed path: one relaxed atomic load.
    bool armed() const { return armed_.load(std::memory_order_relaxed); }

    /// Arm `site` to fire at its `iteration`-th visit (0-based) and keep
    /// firing for `count` consecutive visits. Resets all counters.
    void arm(fault_site site, std::size_t iteration, std::uint64_t seed = 0,
             std::size_t count = 1);

    /// Disarm and reset counters (does not erase the fired totals).
    void disarm();

    /// Parse and arm a "<site>:<iter>[:<seed>[:<count>]]" spec (the
    /// GPF_FAULT format). On a malformed spec returns false, leaves the
    /// injector untouched and stores a diagnostic in *error.
    bool arm_from_spec(const std::string& spec, std::string* error = nullptr);

    /// Site hook: true when this visit must inject the fault. Counts one
    /// visit of `site` when it is the armed site.
    bool fire(fault_site site);

    /// Seed of the armed spec (selects the poisoned element).
    std::uint64_t seed() const { return seed_; }

    /// How many times `site` has actually fired since process start.
    std::size_t fired(fault_site site) const;

    /// Total fires across all sites since process start.
    std::size_t total_fired() const;

private:
    fault_injector(); ///< arms from GPF_FAULT when the variable is set

    std::atomic<bool> armed_{false};
    fault_site site_ = fault_site::cg_stall;
    std::size_t target_ = 0;
    std::size_t count_ = 1;
    std::uint64_t seed_ = 0;
    std::atomic<std::size_t> visits_{0};
    std::atomic<std::size_t> fired_[num_fault_sites] = {};
};

/// Site-side gate: `if (fault_fires(fault_site::cg_stall)) { ... }`.
/// Disarmed cost is the armed() load only.
inline bool fault_fires(fault_site site) {
    fault_injector& fi = fault_injector::instance();
    return fi.armed() && fi.fire(site);
}

} // namespace gpf
