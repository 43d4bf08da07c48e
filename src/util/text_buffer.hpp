// Number formatting for the text exports (Bookshelf, SVG), shared by the
// writers in src/netlist and src/report; not part of the public API.
#pragma once

#include <charconv>
#include <cstddef>
#include <ostream>
#include <string>
#include <string_view>

#include "util/check.hpp"

namespace gpf {

/// A writer's formatting buffer. Doubles print as printf's "%.<P>g" for
/// the precision P given at construction, counts as plain decimal, both
/// through std::to_chars: the bytes an iostream at setprecision(P) prints
/// (tests/test_bookshelf.cpp and tests/test_svg.cpp pin them against
/// one), and no dependence on the global or stream locale. Text
/// accumulates in one reusable string that end_line() drains into the
/// attached stream once it passes drain_bytes, so memory stays bounded
/// whatever the design size.
class text_buffer {
public:
    static constexpr std::size_t drain_bytes = std::size_t{64} << 10;

    /// `precision` is the "%.<P>g" precision of doubles, 1 to 17 (17 is
    /// an exact round trip).
    explicit text_buffer(int precision) : precision_(precision) {
        GPF_CHECK(precision >= 1 && precision <= 17);
        text_.reserve(drain_bytes + 1024);
    }

    text_buffer& operator<<(std::string_view s) {
        text_.append(s);
        return *this;
    }
    text_buffer& operator<<(char c) {
        text_.push_back(c);
        return *this;
    }
    text_buffer& operator<<(double v) {
        char digits[32]; // "%.17g" needs at most 24: -d.dddddddddddddddde-ddd
        const auto res = std::to_chars(digits, digits + sizeof digits, v,
                                       std::chars_format::general, precision_);
        text_.append(digits, res.ptr);
        return *this;
    }
    text_buffer& operator<<(std::size_t v) {
        char digits[24];
        const auto res = std::to_chars(digits, digits + sizeof digits, v);
        text_.append(digits, res.ptr);
        return *this;
    }

    void attach(std::ostream& out) { out_ = &out; }

    /// Ends the current line; drains once the buffer holds drain_bytes.
    void end_line() {
        text_.push_back('\n');
        if (text_.size() >= drain_bytes) drain();
    }

    void drain() {
        out_->write(text_.data(), static_cast<std::streamsize>(text_.size()));
        text_.clear();
    }

private:
    std::string text_;
    std::ostream* out_ = nullptr;
    int precision_;
};

} // namespace gpf
