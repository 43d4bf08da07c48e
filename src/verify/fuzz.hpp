// Deterministic structure-aware fuzzing of the Bookshelf I/O layer
// (DESIGN.md §8). A seeded base design is written once; every iteration
// applies 1–3 random structure-aware mutations (truncation, token swaps,
// sign flips, count lies, duplicate/unknown names, garbage injection) to
// one of the four files and re-reads the design. The parser contract
// under fuzzing:
//
//   * malformed input  → a typed gpf::parse_error / io_error,
//   * accepted input   → a netlist that passes netlist::validate() and
//                        verify_netlist(), and survives a write→read
//                        round trip,
//   * never            — a raw std:: exception, a crash, or a
//                        silently-corrupt netlist.
//
// The same (seed, iterations) pair always exercises the same mutation
// sequence, so CI failures replay locally with the printed seed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace gpf {

struct fuzz_options {
    std::uint64_t seed = 1;
    std::size_t iterations = 1000;
    /// Scratch directory; empty = std::filesystem::temp_directory_path()
    /// + "/gpf_fuzz_io_<pid>". Created if missing, reused (and overwritten)
    /// if present.
    std::string work_dir;
    /// Stop at the first failure instead of completing all iterations.
    bool stop_on_failure = false;
    /// Print one line per 1000 iterations to stderr.
    bool verbose = false;
};

struct fuzz_failure {
    std::size_t iteration = 0;
    std::string file;     ///< extension of the mutated file (".nets", ...)
    std::string mutation; ///< human-readable mutation trace
    std::string what;     ///< exception text or audit report
};

struct fuzz_result {
    std::size_t iterations = 0;
    std::size_t rejected = 0;       ///< typed parse_error / io_error (good)
    std::size_t rejected_check = 0; ///< check_error leaked past the parser
    std::size_t accepted = 0;       ///< parsed, audited clean (good)
    std::vector<fuzz_failure> failures; ///< contract breaches (bad)

    bool ok() const { return failures.empty(); }
};

/// Run the fuzz campaign. Throws io_error when the scratch directory
/// cannot be created; otherwise always returns (failures are reported in
/// the result, not thrown).
fuzz_result fuzz_bookshelf_io(const fuzz_options& opt = {});

} // namespace gpf
