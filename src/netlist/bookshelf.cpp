#include "netlist/bookshelf.hpp"

#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>
#include <unordered_map>

#include "util/check.hpp"
#include "util/checkpoint.hpp"
#include "util/fault.hpp"
#include "util/text_buffer.hpp"

namespace gpf {

namespace {

std::ifstream open_in(const std::string& path) {
    std::ifstream in(path);
    if (!in) throw io_error("cannot open '" + path + "' for reading");
    return in;
}

/// Content-line iterator over one Bookshelf file: strips comments (# ...),
/// skips blanks and the UCLA header line, tracks the 1-based line number
/// for parse_error context.
class line_reader {
public:
    line_reader(std::istream& in, std::string path)
        : in_(in), path_(std::move(path)) {}

    /// Next content line (false at EOF).
    bool next(std::string& line) {
        // Injection site (util/fault.hpp): a short read — the stream ends
        // mid-file, as a truncated download or full disk would present.
        // The count validation below then reports the truncation as a
        // typed parse_error instead of silently accepting a partial file.
        if (fault_fires(fault_site::io_short_read)) {
            in_.setstate(std::ios::eofbit | std::ios::failbit);
            return false;
        }
        while (std::getline(in_, line)) {
            ++lineno_;
            const auto hash = line.find('#');
            if (hash != std::string::npos) line.erase(hash);
            std::size_t i = 0;
            while (i < line.size() && std::isspace(static_cast<unsigned char>(line[i]))) ++i;
            if (i == line.size()) continue;
            if (line.compare(i, 4, "UCLA") == 0) continue;
            while (!line.empty() &&
                   std::isspace(static_cast<unsigned char>(line.back()))) {
                line.pop_back();
            }
            line.erase(0, i);
            return true;
        }
        return false;
    }

    const std::string& path() const { return path_; }
    std::size_t line_number() const { return lineno_; }

    [[noreturn]] void fail(const std::string& msg) const {
        throw parse_error(path_, lineno_, msg);
    }
    [[noreturn]] void fail_file(const std::string& msg) const {
        throw parse_error(path_, 0, msg);
    }

private:
    std::istream& in_;
    std::string path_;
    std::size_t lineno_ = 0;
};

/// Full-token numeric conversion; rejects trailing junk, inf/nan, and
/// wraps the std::stod exceptions into parse_error.
double parse_number(const std::string& token, const line_reader& lr, const char* what) {
    std::size_t pos = 0;
    double value = 0.0;
    try {
        value = std::stod(token, &pos);
    } catch (const std::exception&) {
        lr.fail(std::string("cannot parse ") + what + " from '" + token + "'");
    }
    if (pos != token.size()) {
        lr.fail(std::string("trailing junk after ") + what + " in '" + token + "'");
    }
    if (!std::isfinite(value)) {
        lr.fail(std::string(what) + " is not finite: '" + token + "'");
    }
    return value;
}

/// Non-negative integer counter (NumNodes, NumNets, NetDegree, ...).
std::size_t parse_count(const std::string& token, const line_reader& lr,
                        const char* what) {
    const double value = parse_number(token, lr, what);
    if (value < 0.0 || value != std::floor(value) || value > 1e15) {
        lr.fail(std::string(what) + " must be a non-negative integer, got '" + token +
                "'");
    }
    return static_cast<std::size_t>(value);
}

/// Parses "Key : value" headers; returns true and stores value on match.
bool parse_header(const std::string& line, const std::string& key, std::string& value) {
    if (line.compare(0, key.size(), key) != 0) return false;
    const auto colon = line.find(':', key.size());
    if (colon == std::string::npos) return false;
    value = line.substr(colon + 1);
    return true;
}

/// First whitespace-separated token of a header value.
std::string first_token(const std::string& value) {
    std::istringstream ls(value);
    std::string token;
    ls >> token;
    return token;
}

/// Writes one file through `buf`: an atomic_writer (temp file, fsync,
/// rename) that `body` fills, drained and committed at the end.
template <class Body>
void write_file(const std::string& path, text_buffer& buf, Body&& body) {
    atomic_writer writer(path);
    buf.attach(writer.stream());
    body();
    buf.drain();
    writer.commit();
}

} // namespace

void write_bookshelf(const netlist& nl, const placement& pl,
                     const std::string& base_path) {
    GPF_CHECK(pl.size() == nl.num_cells());

    // A placement with non-finite coordinates must never round-trip as a
    // valid Bookshelf file (the reader rejects non-finite numbers, but a
    // "NaN"-free textual rendering of garbage could still slip through
    // other tools). Refuse before any file is created. Each file below is
    // written to a sibling temp file and atomically renamed into place
    // (util/checkpoint.hpp), so an export interrupted mid-write — crash,
    // SIGKILL, full disk — leaves the previous generation intact, never a
    // torn file under the final name.
    for (cell_id i = 0; i < nl.num_cells(); ++i) {
        if (!std::isfinite(pl[i].x) || !std::isfinite(pl[i].y)) {
            throw io_error("write_bookshelf: refusing to serialize non-finite "
                           "position (" + std::to_string(pl[i].x) + ", " +
                           std::to_string(pl[i].y) + ") of cell '" +
                           nl.cell_at(i).name + "' to '" + base_path + "'");
        }
    }

    text_buffer buf(17); // "%.17g": an exact round trip

    write_file(base_path + ".nodes", buf, [&] {
        buf << "UCLA nodes 1.0\n";
        buf << "NumNodes : " << nl.num_cells() << '\n';
        buf << "NumTerminals : " << nl.num_fixed() << '\n';
        for (const cell& c : nl.cells()) {
            buf << "  " << c.name << ' ' << c.width << ' ' << c.height;
            if (c.fixed) buf << " terminal";
            buf.end_line();
        }
    });

    write_file(base_path + ".nets", buf, [&] {
        buf << "UCLA nets 1.0\n";
        buf << "NumNets : " << nl.num_nets() << '\n';
        buf << "NumPins : " << nl.num_pins() << '\n';
        for (const net& n : nl.nets()) {
            buf << "NetDegree : " << n.degree() << "  " << n.name;
            buf.end_line();
            for (std::size_t k = 0; k < n.pins.size(); ++k) {
                const pin& p = n.pins[k];
                const char dir = (k == n.driver) ? 'O' : 'I';
                buf << "  " << nl.cell_at(p.cell).name << ' ' << dir << " : "
                    << p.offset.x << ' ' << p.offset.y;
                buf.end_line();
            }
        }
    });

    write_file(base_path + ".pl", buf, [&] {
        buf << "UCLA pl 1.0\n";
        for (cell_id i = 0; i < nl.num_cells(); ++i) {
            const cell& c = nl.cell_at(i);
            // Bookshelf stores the lower-left corner.
            const double x = pl[i].x - c.width / 2;
            const double y = pl[i].y - c.height / 2;
            buf << c.name << ' ' << x << ' ' << y << " : N";
            if (c.fixed) buf << " /FIXED";
            buf.end_line();
        }
    });

    write_file(base_path + ".scl", buf, [&] {
        const rect r = nl.region();
        buf << "UCLA scl 1.0\n";
        buf << "NumRows : " << nl.num_rows() << '\n';
        for (std::size_t row = 0; row < nl.num_rows(); ++row) {
            buf << "CoreRow Horizontal\n";
            buf << "  Coordinate : "
                << (r.ylo + static_cast<double>(row) * nl.row_height()) << '\n';
            buf << "  Height : " << nl.row_height() << '\n';
            buf << "  SubrowOrigin : " << r.xlo << "  NumSites : "
                << static_cast<std::size_t>(r.width()) << '\n';
            buf << "End";
            buf.end_line();
        }
    });
}

bookshelf_design read_bookshelf(const std::string& base_path) {
    bookshelf_design design;
    netlist& nl = design.nl;
    std::unordered_map<std::string, cell_id> by_name;

    // --- .nodes -------------------------------------------------------------
    {
        const std::string path = base_path + ".nodes";
        auto in = open_in(path);
        line_reader lr(in, path);
        std::string line;
        std::string value;
        std::size_t declared_nodes = 0;
        std::size_t declared_terminals = 0;
        bool have_nodes_count = false;
        bool have_terminals_count = false;
        std::size_t num_terminals = 0;
        while (lr.next(line)) {
            if (parse_header(line, "NumNodes", value)) {
                declared_nodes = parse_count(first_token(value), lr, "NumNodes");
                have_nodes_count = true;
                continue;
            }
            if (parse_header(line, "NumTerminals", value)) {
                declared_terminals = parse_count(first_token(value), lr, "NumTerminals");
                have_terminals_count = true;
                continue;
            }
            std::istringstream ls(line);
            cell c;
            std::string width_tok;
            std::string height_tok;
            ls >> c.name >> width_tok >> height_tok;
            if (ls.fail()) lr.fail("malformed .nodes line: '" + line + "'");
            c.width = parse_number(width_tok, lr, "node width");
            c.height = parse_number(height_tok, lr, "node height");
            if (c.width <= 0.0 || c.height <= 0.0) {
                lr.fail("node '" + c.name + "' has non-positive dimensions " +
                        width_tok + " x " + height_tok);
            }
            std::string tag;
            if (ls >> tag) {
                if (tag == "terminal" || tag == "terminal_NI") {
                    c.fixed = true;
                    c.kind = cell_kind::pad;
                    ++num_terminals;
                } else {
                    lr.fail("unknown node attribute '" + tag + "'");
                }
            }
            const std::string name = c.name;
            const cell_id id = nl.add_cell(std::move(c));
            if (!by_name.emplace(name, id).second) {
                lr.fail("duplicate node name '" + name + "'");
            }
        }
        if (have_nodes_count && declared_nodes != nl.num_cells()) {
            lr.fail_file("NumNodes declares " + std::to_string(declared_nodes) +
                         " nodes but the file defines " + std::to_string(nl.num_cells()));
        }
        if (have_terminals_count && declared_terminals != num_terminals) {
            lr.fail_file("NumTerminals declares " + std::to_string(declared_terminals) +
                         " terminals but the file defines " +
                         std::to_string(num_terminals));
        }
        if (nl.num_cells() == 0) lr.fail_file(".nodes defines no nodes");
    }

    // --- .scl (optional) ------------------------------------------------------
    // Rows may appear in any order and live anywhere in the plane (negative
    // coordinates included), so every region bound is seeded at ±infinity
    // and accumulated with min/max — never taken from "the first row" or
    // clamped against an implicit origin.
    constexpr double kInf = std::numeric_limits<double>::infinity();
    double row_height = 1.0;
    double region_xlo = kInf;
    double region_ylo = kInf;
    double region_xhi = -kInf;
    double region_yhi = -kInf;
    bool have_rows = false;
    bool have_height = false;
    {
        const std::string path = base_path + ".scl";
        std::ifstream in(path);
        if (in) {
            line_reader lr(in, path);
            std::string line;
            std::string value;
            while (lr.next(line)) {
                if (parse_header(line, "NumRows", value)) {
                    parse_count(first_token(value), lr, "NumRows");
                } else if (parse_header(line, "Coordinate", value)) {
                    const double coord =
                        parse_number(first_token(value), lr, "row Coordinate");
                    region_ylo = std::min(region_ylo, coord);
                    region_yhi = std::max(region_yhi, coord);
                    have_rows = true;
                } else if (parse_header(line, "Height", value)) {
                    const double h = parse_number(first_token(value), lr, "row Height");
                    if (h <= 0.0) lr.fail("row Height must be positive");
                    if (have_height && h != row_height) {
                        lr.fail("rows with differing heights are not supported");
                    }
                    row_height = h;
                    have_height = true;
                } else if (parse_header(line, "SubrowOrigin", value)) {
                    std::istringstream ls(value);
                    std::string origin_tok;
                    ls >> origin_tok;
                    if (origin_tok.empty()) lr.fail("SubrowOrigin has no value");
                    const double origin = parse_number(origin_tok, lr, "SubrowOrigin");
                    region_xlo = std::min(region_xlo, origin);
                    double sites = 0.0;
                    bool have_sites = false;
                    std::string word;
                    while (ls >> word) {
                        if (word == "NumSites") {
                            ls >> word; // ':'
                            if (word != ":") {
                                sites = parse_number(word, lr, "NumSites");
                                have_sites = true;
                                continue;
                            }
                        }
                        if (word == ":") {
                            std::string sites_tok;
                            if (!(ls >> sites_tok)) lr.fail("NumSites has no value");
                            sites = parse_number(sites_tok, lr, "NumSites");
                            have_sites = true;
                        }
                    }
                    if (have_sites && sites < 0.0) lr.fail("NumSites must be >= 0");
                    region_xhi = std::max(region_xhi, origin + sites);
                }
            }
            if (have_rows) region_yhi += row_height;
        }
    }

    // --- .nets --------------------------------------------------------------
    {
        const std::string path = base_path + ".nets";
        auto in = open_in(path);
        line_reader lr(in, path);
        std::string line;
        std::string value;
        net current;
        std::size_t declared_degree = 0;
        std::size_t declared_nets = 0;
        std::size_t declared_pins = 0;
        bool have_nets_count = false;
        bool have_pins_count = false;
        bool in_net = false;
        auto flush = [&]() {
            if (in_net) {
                // The NetDegree header is a promise; a mismatch means pin
                // lines were lost or invented and the netlist is corrupt.
                if (current.pins.size() != declared_degree) {
                    lr.fail("net '" + current.name + "' declares degree " +
                            std::to_string(declared_degree) + " but has " +
                            std::to_string(current.pins.size()) + " pins");
                }
                nl.add_net(std::move(current));
                current = net{};
                in_net = false;
            }
        };
        while (lr.next(line)) {
            if (parse_header(line, "NumNets", value)) {
                declared_nets = parse_count(first_token(value), lr, "NumNets");
                have_nets_count = true;
                continue;
            }
            if (parse_header(line, "NumPins", value)) {
                declared_pins = parse_count(first_token(value), lr, "NumPins");
                have_pins_count = true;
                continue;
            }
            if (parse_header(line, "NetDegree", value)) {
                flush();
                std::istringstream ls(value);
                std::string degree_tok;
                ls >> degree_tok;
                if (degree_tok.empty()) lr.fail("NetDegree has no value");
                declared_degree = parse_count(degree_tok, lr, "NetDegree");
                std::string name;
                if (ls >> name) current.name = name;
                in_net = true;
                continue;
            }
            if (!in_net) lr.fail("pin line before NetDegree: '" + line + "'");
            std::istringstream ls(line);
            std::string node;
            std::string dir;
            std::string colon;
            ls >> node >> dir;
            if (ls.fail()) lr.fail("malformed pin line: '" + line + "'");
            if (dir != "I" && dir != "O" && dir != "B") {
                lr.fail("pin direction must be I, O or B, got '" + dir + "'");
            }
            pin p;
            const auto it = by_name.find(node);
            if (it == by_name.end()) lr.fail(".nets references unknown node '" + node + "'");
            p.cell = it->second;
            for (const pin& q : current.pins) {
                // The in-memory model (and netlist::validate) requires one
                // pin per cell per net; reject instead of silently building
                // a netlist the rest of the pipeline refuses.
                if (q.cell == p.cell) {
                    lr.fail("net '" + current.name + "' lists node '" + node +
                            "' more than once");
                }
            }
            if (ls >> colon) {
                if (colon != ":") lr.fail("expected ':' before pin offset, got '" + colon + "'");
                std::string x_tok;
                std::string y_tok;
                ls >> x_tok >> y_tok;
                if (ls.fail()) lr.fail("malformed pin offset in '" + line + "'");
                p.offset.x = parse_number(x_tok, lr, "pin x offset");
                p.offset.y = parse_number(y_tok, lr, "pin y offset");
            }
            if (dir == "O") current.driver = current.pins.size();
            current.pins.push_back(p);
        }
        flush();
        if (have_nets_count && declared_nets != nl.num_nets()) {
            lr.fail_file("NumNets declares " + std::to_string(declared_nets) +
                         " nets but the file defines " + std::to_string(nl.num_nets()));
        }
        if (have_pins_count && declared_pins != nl.num_pins()) {
            lr.fail_file("NumPins declares " + std::to_string(declared_pins) +
                         " pins but the file defines " + std::to_string(nl.num_pins()));
        }
    }

    // --- .pl ----------------------------------------------------------------
    {
        const std::string path = base_path + ".pl";
        auto in = open_in(path);
        line_reader lr(in, path);
        std::string line;
        while (lr.next(line)) {
            std::istringstream ls(line);
            std::string name;
            std::string x_tok;
            std::string y_tok;
            ls >> name >> x_tok >> y_tok;
            if (ls.fail()) lr.fail("malformed .pl line: '" + line + "'");
            const double x = parse_number(x_tok, lr, "placement x");
            const double y = parse_number(y_tok, lr, "placement y");
            const auto it = by_name.find(name);
            if (it == by_name.end()) lr.fail(".pl references unknown node '" + name + "'");
            cell& c = nl.cell_at(it->second);
            c.position = point(x + c.width / 2, y + c.height / 2);
            if (line.find("/FIXED") != std::string::npos) c.fixed = true;
        }
    }

    // Reconstruct region and cell kinds.
    nl.set_row_height(row_height);
    if (have_rows && region_xhi > region_xlo && region_yhi > region_ylo) {
        nl.set_region(rect(region_xlo, region_ylo, region_xhi, region_yhi));
    } else {
        rect bbox;
        for (const cell& c : nl.cells()) {
            if (!c.fixed) continue;
            bbox.expand_to(c.position);
        }
        if (bbox.empty()) bbox = rect(0, 0, 100, 100);
        nl.set_region(bbox);
    }
    for (cell_id i = 0; i < nl.num_cells(); ++i) {
        cell& c = nl.cell_at(i);
        if (!c.fixed && c.height > 1.5 * row_height) c.kind = cell_kind::block;
    }

    // Final audit: the individual checks above should make this
    // unreachable, but the contract is "no silently-corrupt netlist ever
    // escapes the reader", so any residual model-level inconsistency is
    // converted into the typed parse_error the caller is promised.
    try {
        nl.validate();
    } catch (const check_error& e) {
        throw parse_error(base_path + ".{nodes,nets,pl,scl}", 0,
                          std::string("inconsistent design: ") + e.what());
    }

    design.pl = nl.initial_placement();
    return design;
}

} // namespace gpf
