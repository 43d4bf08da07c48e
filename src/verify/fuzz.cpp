#include "verify/fuzz.hpp"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <typeinfo>

#include <unistd.h>

#include "netlist/bookshelf.hpp"
#include "netlist/generator.hpp"
#include "util/check.hpp"
#include "util/prng.hpp"
#include "verify/verify.hpp"

namespace gpf {

namespace {

const char* const kExtensions[] = {".nodes", ".nets", ".pl", ".scl"};

struct token_span {
    std::size_t pos = 0;
    std::size_t len = 0;
};

std::vector<token_span> tokenize(const std::string& text) {
    std::vector<token_span> tokens;
    std::size_t i = 0;
    while (i < text.size()) {
        while (i < text.size() && std::isspace(static_cast<unsigned char>(text[i]))) ++i;
        const std::size_t start = i;
        while (i < text.size() && !std::isspace(static_cast<unsigned char>(text[i]))) ++i;
        if (i > start) tokens.push_back({start, i - start});
    }
    return tokens;
}

bool is_numeric(const std::string& tok) {
    if (tok.empty()) return false;
    char* end = nullptr;
    std::strtod(tok.c_str(), &end);
    return end == tok.c_str() + tok.size();
}

std::vector<std::size_t> line_starts(const std::string& text) {
    std::vector<std::size_t> starts{0};
    for (std::size_t i = 0; i < text.size(); ++i) {
        if (text[i] == '\n' && i + 1 < text.size()) starts.push_back(i + 1);
    }
    return starts;
}

std::string line_at(const std::string& text, std::size_t start) {
    const auto end = text.find('\n', start);
    return text.substr(start, end == std::string::npos ? std::string::npos
                                                       : end - start);
}

/// One structure-aware mutation; returns a short description.
std::string mutate(std::string& text, prng& rng) {
    if (text.empty()) {
        text = "garbage\n";
        return "seed empty file with garbage";
    }
    const std::uint64_t op = rng.next_below(10);
    const std::vector<token_span> tokens = tokenize(text);
    switch (op) {
        case 0: { // truncate
            const std::size_t at = static_cast<std::size_t>(rng.next_below(text.size()));
            text.erase(at);
            return "truncate at byte " + std::to_string(at);
        }
        case 1: { // delete a line
            const auto starts = line_starts(text);
            const std::size_t li =
                static_cast<std::size_t>(rng.next_below(starts.size()));
            const std::size_t start = starts[li];
            auto end = text.find('\n', start);
            end = end == std::string::npos ? text.size() : end + 1;
            text.erase(start, end - start);
            return "delete line " + std::to_string(li + 1);
        }
        case 2: { // duplicate a line
            const auto starts = line_starts(text);
            const std::size_t li =
                static_cast<std::size_t>(rng.next_below(starts.size()));
            const std::string line = line_at(text, starts[li]);
            text.insert(starts[li], line + "\n");
            return "duplicate line " + std::to_string(li + 1);
        }
        case 3: { // swap two tokens
            if (tokens.size() < 2) return "swap skipped (too few tokens)";
            const std::size_t a =
                static_cast<std::size_t>(rng.next_below(tokens.size()));
            const std::size_t b =
                static_cast<std::size_t>(rng.next_below(tokens.size()));
            const auto [lo, hi] = std::minmax(a, b);
            if (lo == hi) return "swap skipped (same token)";
            const std::string ta = text.substr(tokens[lo].pos, tokens[lo].len);
            const std::string tb = text.substr(tokens[hi].pos, tokens[hi].len);
            text.replace(tokens[hi].pos, tokens[hi].len, ta);
            text.replace(tokens[lo].pos, tokens[lo].len, tb);
            return "swap tokens '" + ta + "' and '" + tb + "'";
        }
        case 4: { // flip the sign of a numeric token
            std::vector<std::size_t> numeric;
            for (std::size_t t = 0; t < tokens.size(); ++t) {
                if (is_numeric(text.substr(tokens[t].pos, tokens[t].len))) {
                    numeric.push_back(t);
                }
            }
            if (numeric.empty()) return "sign flip skipped (no numbers)";
            const token_span tok =
                tokens[numeric[static_cast<std::size_t>(rng.next_below(numeric.size()))]];
            std::string value = text.substr(tok.pos, tok.len);
            if (value[0] == '-') value.erase(0, 1);
            else value.insert(value.begin(), '-');
            text.replace(tok.pos, tok.len, value);
            return "flip sign to '" + value + "'";
        }
        case 5: { // scramble a numeric token
            std::vector<std::size_t> numeric;
            for (std::size_t t = 0; t < tokens.size(); ++t) {
                if (is_numeric(text.substr(tokens[t].pos, tokens[t].len))) {
                    numeric.push_back(t);
                }
            }
            if (numeric.empty()) return "scramble skipped (no numbers)";
            static const char* const junk[] = {"nan",  "inf", "1e999", "--3",
                                               "12a4", "",    "0x1g",  "."};
            const token_span tok =
                tokens[numeric[static_cast<std::size_t>(rng.next_below(numeric.size()))]];
            const std::string value =
                junk[rng.next_below(sizeof(junk) / sizeof(junk[0]))];
            text.replace(tok.pos, tok.len, value);
            return "scramble number to '" + value + "'";
        }
        case 6: { // lie about a declared count
            static const char* const keys[] = {"NumNodes",  "NumTerminals", "NumNets",
                                               "NumPins",   "NetDegree",    "NumRows",
                                               "NumSites"};
            std::vector<std::size_t> hits;
            for (std::size_t t = 0; t + 2 < tokens.size(); ++t) {
                const std::string tok = text.substr(tokens[t].pos, tokens[t].len);
                for (const char* key : keys) {
                    if (tok == key) hits.push_back(t + 2); // key ':' value
                }
            }
            if (hits.empty()) return "count lie skipped (no count headers)";
            const token_span tok =
                tokens[hits[static_cast<std::size_t>(rng.next_below(hits.size()))]];
            const long delta = static_cast<long>(rng.next_int(-3, 3));
            long value = std::atol(text.substr(tok.pos, tok.len).c_str());
            value += delta == 0 ? 1 : delta;
            text.replace(tok.pos, tok.len, std::to_string(value));
            return "count lie: set count to " + std::to_string(value);
        }
        case 7: { // replace a name token with another line's first token
            const auto starts = line_starts(text);
            if (starts.size() < 4) return "name duplication skipped (too short)";
            const std::size_t src =
                static_cast<std::size_t>(rng.next_below(starts.size()));
            const std::size_t dst =
                static_cast<std::size_t>(rng.next_below(starts.size()));
            std::istringstream sl(line_at(text, starts[src]));
            std::string name;
            sl >> name;
            if (name.empty() || src == dst) return "name duplication skipped";
            // Replace the first token of the destination line.
            std::size_t pos = starts[dst];
            while (pos < text.size() && std::isspace(static_cast<unsigned char>(text[pos])) &&
                   text[pos] != '\n') {
                ++pos;
            }
            std::size_t end = pos;
            while (end < text.size() &&
                   !std::isspace(static_cast<unsigned char>(text[end]))) {
                ++end;
            }
            if (end == pos) return "name duplication skipped (blank line)";
            text.replace(pos, end - pos, name);
            return "copy name '" + name + "' over line " + std::to_string(dst + 1);
        }
        case 8: { // reference an unknown name
            const auto starts = line_starts(text);
            const std::size_t dst =
                static_cast<std::size_t>(rng.next_below(starts.size()));
            std::size_t pos = starts[dst];
            while (pos < text.size() && std::isspace(static_cast<unsigned char>(text[pos])) &&
                   text[pos] != '\n') {
                ++pos;
            }
            std::size_t end = pos;
            while (end < text.size() &&
                   !std::isspace(static_cast<unsigned char>(text[end]))) {
                ++end;
            }
            if (end == pos) return "ghost name skipped (blank line)";
            text.replace(pos, end - pos, "ghost_" + std::to_string(rng.next_below(1000)));
            return "ghost name on line " + std::to_string(dst + 1);
        }
        default: { // insert a garbage line
            const auto starts = line_starts(text);
            const std::size_t li =
                static_cast<std::size_t>(rng.next_below(starts.size()));
            static const char* const junk[] = {
                ": : :", "NetDegree", "terminal", "1 2 3 4 5 6 7",
                "\x01\x02\xff", "Coordinate :", "a b c : d e"};
            const std::string line = junk[rng.next_below(sizeof(junk) / sizeof(junk[0]))];
            text.insert(starts[li], line + "\n");
            return "insert garbage line '" + line + "'";
        }
    }
}

std::string read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) throw io_error("cannot open '" + path + "' for reading");
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

void write_file(const std::string& path, const std::string& content) {
    std::ofstream out(path, std::ios::binary);
    if (!out) throw io_error("cannot open '" + path + "' for writing");
    out << content;
}

/// Audit an accepted design: it must satisfy the model's structural
/// invariants and survive a write→read round trip. Returns "" when clean.
std::string audit_accepted(const bookshelf_design& design, const std::string& rt_base) {
    try {
        design.nl.validate();
    } catch (const std::exception& e) {
        return std::string("accepted netlist fails validate(): ") + e.what();
    }
    verify_options relaxed;
    relaxed.check_feasibility = false; // overfull-but-faithful files are fine
    const verify_report report = verify_netlist(design.nl, relaxed);
    if (!report.ok()) {
        return "accepted netlist fails verify_netlist(): " + report.to_string();
    }
    try {
        write_bookshelf(design.nl, design.pl, rt_base);
        const bookshelf_design again = read_bookshelf(rt_base);
        if (again.nl.num_cells() != design.nl.num_cells() ||
            again.nl.num_nets() != design.nl.num_nets() ||
            again.nl.num_pins() != design.nl.num_pins()) {
            return "round trip changed the design structure";
        }
    } catch (const std::exception& e) {
        return std::string("accepted design does not round-trip: ") + e.what();
    }
    return {};
}

} // namespace

fuzz_result fuzz_bookshelf_io(const fuzz_options& opt) {
    namespace fs = std::filesystem;
    fuzz_result result;

    // The default is pid-unique, so concurrent fuzzers never share files.
    fs::path dir = opt.work_dir.empty()
                       ? fs::temp_directory_path() /
                             ("gpf_fuzz_io_" + std::to_string(getpid()))
                       : fs::path(opt.work_dir);
    std::error_code ec;
    fs::create_directories(dir, ec);
    if (ec) throw io_error("cannot create fuzz work dir '" + dir.string() + "'");

    // Small but structurally complete base design: pads, a macro block,
    // pin offsets, every net-degree class the generator produces.
    generator_options gen;
    gen.name = "fuzzbase";
    gen.num_cells = 40;
    gen.num_nets = 48;
    gen.num_pads = 8;
    gen.num_rows = 4;
    gen.num_blocks = 1;
    gen.block_area_fraction = 0.1;
    gen.seed = 7;
    const netlist base = generate_circuit(gen);
    const std::string base_path = (dir / "base").string();
    write_bookshelf(base, base.initial_placement(), base_path);

    std::string originals[4];
    for (std::size_t f = 0; f < 4; ++f) {
        originals[f] = read_file(base_path + kExtensions[f]);
    }

    const std::string case_path = (dir / "case").string();
    const std::string rt_path = (dir / "roundtrip").string();

    for (std::size_t it = 0; it < opt.iterations; ++it) {
        ++result.iterations;
        prng rng(opt.seed + 0x9e3779b97f4a7c15ULL * (it + 1));

        const std::size_t target = static_cast<std::size_t>(rng.next_below(4));
        std::string mutated = originals[target];
        const std::size_t count = 1 + static_cast<std::size_t>(rng.next_below(3));
        std::string trace;
        for (std::size_t m = 0; m < count; ++m) {
            if (m > 0) trace += "; ";
            trace += mutate(mutated, rng);
        }
        for (std::size_t f = 0; f < 4; ++f) {
            write_file(case_path + kExtensions[f],
                       f == target ? mutated : originals[f]);
        }

        auto record = [&](const std::string& what) {
            result.failures.push_back({it, kExtensions[target], trace, what});
        };
        try {
            const bookshelf_design design = read_bookshelf(case_path);
            const std::string audit = audit_accepted(design, rt_path);
            if (audit.empty()) ++result.accepted;
            else record(audit);
        } catch (const io_error&) {
            ++result.rejected; // parse_error derives from io_error
        } catch (const check_error& e) {
            // gpf-typed, so not an outright contract breach, but the
            // parser is supposed to speak parse_error — count separately.
            ++result.rejected_check;
            static_cast<void>(e);
        } catch (const std::exception& e) {
            record(std::string("uncaught ") + typeid(e).name() + ": " + e.what());
        } catch (...) {
            record("uncaught non-std exception");
        }

        if (opt.verbose && (it + 1) % 1000 == 0) {
            std::cerr << "fuzz: " << (it + 1) << "/" << opt.iterations << " iterations, "
                      << result.failures.size() << " failures\n";
        }
        if (!result.failures.empty() && opt.stop_on_failure) break;
    }
    return result;
}

} // namespace gpf
