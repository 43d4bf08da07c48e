// Durable checkpoint substrate (DESIGN.md §14).
//
// The transformation loop is naturally resumable — every iteration is a
// full placement plus force state — but resumability is worthless if a
// checkpoint can be torn by the very crash it is meant to survive. This
// module provides the three primitives the crash-safety layer is built
// from:
//
//   * atomic file replacement — content is written to a sibling temp
//     file, fsync'd, and renamed over the target, so the target is always
//     either the complete old generation or the complete new one, never a
//     prefix of either. write_checkpoint_file() additionally rotates the
//     previous generation to `<path>.prev`, giving the supervisor a
//     fallback when the newest file is torn by a crash mid-rename (or by
//     the `checkpoint_torn_write` fault site, which simulates exactly
//     that for tests);
//
//   * a versioned, CRC-trailed binary envelope — magic, format version,
//     a caller-supplied 64-bit state digest (options + netlist identity),
//     payload length, payload, CRC32 over everything before the trailer.
//     read_checkpoint_file() rejects a short file, bad magic, version
//     skew, length mismatch and CRC mismatch with a typed
//     `checkpoint_error` carrying the reason — a torn or foreign file can
//     never be half-loaded;
//
//   * byte_writer / byte_reader — little-endian primitive serialization.
//     Doubles travel as IEEE-754 bit patterns, which is what makes the
//     resume-equals-uninterrupted guarantee *bitwise*: no text round-trip
//     is involved anywhere.
//
// The heartbeat helpers live here too: a worker bumps a counter file once
// per transformation and the supervisor (util/supervisor.hpp) declares
// the worker stalled when the counter stops moving. Heartbeats are
// liveness, not state — they are written without fsync.
#pragma once

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "util/check.hpp"

namespace gpf {

/// A checkpoint file failed validation (torn write, truncation, version
/// skew, digest drift, CRC mismatch) or could not be written. Derives
/// from io_error so the gpf_place exit-code contract maps it to 3.
class checkpoint_error : public io_error {
public:
    explicit checkpoint_error(const std::string& what) : io_error(what) {}
};

/// CRC-32 (IEEE 802.3, polynomial 0xEDB88320, the zlib convention).
std::uint32_t crc32(const void* data, std::size_t size, std::uint32_t seed = 0);

/// FNV-1a accumulator used for checkpoint state digests: the digest of
/// the placer options and netlist identity is stored in every checkpoint
/// and must match on resume, so a checkpoint can never be replayed
/// against a drifted configuration.
struct state_digest {
    std::uint64_t hash = 1469598103934665603ULL; // FNV-1a offset basis

    void mix_bytes(const void* data, std::size_t size);
    void mix_u64(std::uint64_t v);
    void mix_f64(double v); ///< by bit pattern — bitwise identity, NaN-safe
    void mix_string(const std::string& s);
};

// --- primitive serialization ------------------------------------------------

/// Append-only little-endian byte buffer.
class byte_writer {
public:
    void put_u8(std::uint8_t v);
    void put_u32(std::uint32_t v);
    void put_u64(std::uint64_t v);
    void put_f64(double v); ///< IEEE-754 bit pattern
    void put_string(const std::string& s);
    void put_f64_vector(const std::vector<double>& v);

    const std::string& bytes() const { return buf_; }
    std::string take() { return std::move(buf_); }

private:
    std::string buf_;
};

/// Bounds-checked reader over a byte buffer; any over-read throws
/// checkpoint_error (a truncated payload must never yield garbage state).
class byte_reader {
public:
    explicit byte_reader(const std::string& bytes) : buf_(bytes) {}

    std::uint8_t get_u8();
    std::uint32_t get_u32();
    std::uint64_t get_u64();
    double get_f64();
    std::string get_string();
    std::vector<double> get_f64_vector();

    std::size_t remaining() const { return buf_.size() - pos_; }
    bool exhausted() const { return pos_ == buf_.size(); }

private:
    void need(std::size_t n) const;

    const std::string& buf_;
    std::size_t pos_ = 0;
};

// --- atomic file replacement ------------------------------------------------

/// Crash-safe text/binary file writer: content goes to `<target>.tmp`,
/// commit() flushes, fsyncs and renames it over the target. If commit()
/// is never reached (exception unwound past the writer), the destructor
/// removes the temp file and the target is untouched — an interrupted
/// export can never leave a torn file under the final name.
class atomic_writer {
public:
    explicit atomic_writer(std::string target);
    ~atomic_writer();
    atomic_writer(const atomic_writer&) = delete;
    atomic_writer& operator=(const atomic_writer&) = delete;

    std::ofstream& stream() { return out_; }
    const std::string& temp_path() const { return temp_; }

    /// Flush + fsync + rename over the target; throws io_error when any
    /// step fails (the temp file is cleaned up either way).
    void commit();

private:
    std::string target_;
    std::string temp_;
    std::ofstream out_;
    bool committed_ = false;
};

/// fsync + rename(temp, target) + best-effort directory fsync. Throws
/// io_error on failure (temp is removed first).
void commit_file(const std::string& temp, const std::string& target,
                 bool fsync_file = true);

// --- checkpoint envelope ----------------------------------------------------

/// Version 2 dropped the two warm-start displacement vectors from the
/// placer payload; a version-1 file fails as version skew.
inline constexpr std::uint32_t checkpoint_format_version = 2;

struct checkpoint_blob {
    std::uint64_t digest = 0; ///< caller-defined state digest
    std::string payload;
};

/// Atomically persist `payload` under `path`: envelope is assembled in
/// memory, written to `<path>.tmp`, fsync'd and renamed into place; an
/// existing `path` is first rotated to `<path>.prev` so a crash between
/// the two renames (or a torn newest generation) still leaves one valid
/// checkpoint on disk. Throws checkpoint_error on any I/O failure.
///
/// Fault site `checkpoint_torn_write` (util/fault.hpp): when armed, the
/// envelope is deliberately truncated mid-payload before the rename —
/// the exact on-disk state a power loss during the write would leave —
/// and the call reports success, so recovery paths can be tested without
/// real crashes.
void write_checkpoint_file(const std::string& path, std::uint64_t digest,
                           const std::string& payload);

/// Load and validate one checkpoint file. Throws checkpoint_error naming
/// the defect (cannot open / truncated / bad magic / version skew /
/// length mismatch / CRC mismatch). Digest interpretation is left to the
/// caller (the placer compares it against its own state digest).
checkpoint_blob read_checkpoint_file(const std::string& path);

/// read_checkpoint_file(path), falling back to `<path>.prev` when the
/// newest generation is missing or fails validation. On success
/// `*loaded_from` (when non-null) names the file that validated. Throws
/// checkpoint_error describing both failures when neither loads.
checkpoint_blob read_checkpoint_with_fallback(const std::string& path,
                                              std::string* loaded_from = nullptr);

/// Which generation of a checkpoint would load right now (used by the
/// supervisor to decide whether a restarted child can resume at all).
enum class checkpoint_presence {
    none,     ///< neither `path` nor `path.prev` validates
    latest,   ///< `path` validates
    previous, ///< `path` is missing/torn but `path.prev` validates
};

checkpoint_presence probe_checkpoint(const std::string& path,
                                     std::string* diagnostic = nullptr);

// --- heartbeat --------------------------------------------------------------

/// Overwrite `path` with a monotonically increasing counter (liveness
/// signal, no fsync). Failures are swallowed — a full disk must degrade
/// supervision, never kill the worker making actual progress.
void write_heartbeat(const std::string& path, std::uint64_t counter) noexcept;

/// Read the counter back; nullopt when the file is missing or malformed.
std::optional<std::uint64_t> read_heartbeat(const std::string& path) noexcept;

} // namespace gpf
