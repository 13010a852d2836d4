// Binary framing primitives for the serve layer's durable state files:
// little-endian encode/decode buffers, CRC-32 (IEEE 802.3, the zlib
// polynomial) for integrity guards, and the error type every corrupt
// snapshot/WAL path reports through.
//
// Every multi-byte value is written little-endian regardless of host
// order, and doubles travel as their IEEE-754 bit pattern, so files are
// byte-identical across machines and re-reading them reconstructs values
// bit-for-bit — the foundation of the controller's bit-identical
// recovery guarantee.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace vnfr::serve {

/// Thrown whenever a snapshot or WAL file fails validation. Always
/// carries the file (or a label for in-memory buffers), the byte offset
/// of the first inconsistent byte, and a description — fuzzed inputs
/// must die here with a diagnosable position, never as UB.
class CorruptStateError : public std::runtime_error {
  public:
    CorruptStateError(std::string file, std::uint64_t offset, const std::string& what)
        : std::runtime_error(file + ": " + what + " (at byte offset " +
                             std::to_string(offset) + ")"),
          file_(std::move(file)),
          offset_(offset) {}

    [[nodiscard]] const std::string& file() const { return file_; }
    [[nodiscard]] std::uint64_t offset() const { return offset_; }

  private:
    std::string file_;
    std::uint64_t offset_;
};

/// CRC-32 of `data`. `seed` chains incremental computation:
/// crc32(a + b) == crc32(b, crc32(a)).
[[nodiscard]] std::uint32_t crc32(std::string_view data, std::uint32_t seed = 0);

/// Append-only little-endian encoder over a growable byte buffer.
class WireWriter {
  public:
    void put_u8(std::uint8_t v);
    void put_u32(std::uint32_t v);
    void put_u64(std::uint64_t v);
    void put_i64(std::int64_t v);
    /// IEEE-754 bit pattern, so round-trips are bit-exact (NaNs included).
    void put_f64(double v);
    void put_bytes(std::string_view bytes);
    /// Pre-sizes the buffer for `bytes` in total (encoders that know their
    /// size avoid the regrowth copies).
    void reserve(std::size_t bytes) { buffer_.reserve(bytes); }

    [[nodiscard]] const std::string& bytes() const { return buffer_; }
    /// Moves the encoded bytes out, leaving the writer empty.
    [[nodiscard]] std::string take() { return std::move(buffer_); }
    [[nodiscard]] std::size_t size() const { return buffer_.size(); }

  private:
    std::string buffer_;
};

/// Little-endian decoder over a byte buffer. Every getter names what it
/// is reading; running past the end throws CorruptStateError pointing at
/// the exact offset where the bytes ran out.
class WireReader {
  public:
    /// `label` names the source in errors; `base_offset` is added to all
    /// reported offsets (so a reader over one WAL record payload reports
    /// file-absolute positions).
    WireReader(std::string_view data, std::string label, std::uint64_t base_offset = 0)
        : data_(data), label_(std::move(label)), base_(base_offset) {}

    std::uint8_t get_u8(const char* what);
    std::uint32_t get_u32(const char* what);
    std::uint64_t get_u64(const char* what);
    std::int64_t get_i64(const char* what);
    double get_f64(const char* what);
    std::string_view get_bytes(std::size_t n, const char* what);

    /// Throws unless the buffer was consumed exactly.
    void require_end(const char* what) const;

    /// File-absolute offset of the next unread byte.
    [[nodiscard]] std::uint64_t offset() const { return base_ + pos_; }
    [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
    [[nodiscard]] const std::string& label() const { return label_; }

    [[noreturn]] void fail(const std::string& what) const;

  private:
    std::string_view data_;
    std::string label_;
    std::uint64_t base_;
    std::size_t pos_{0};
};

/// The generation number in a state-file name of the form
/// `prefix` + decimal digits + `suffix` (e.g. "wal-" 42 ".log"), or
/// nullopt when `name` does not have that form or the number does not
/// fit in 64 bits. A stray name is never one of ours, so callers skip it.
[[nodiscard]] std::optional<std::uint64_t> parse_generation(std::string_view name,
                                                            std::string_view prefix,
                                                            std::string_view suffix);

/// The generations parse_generation finds among `names`, ascending
/// (numeric order, unlike a directory listing's lexicographic one).
[[nodiscard]] std::vector<std::uint64_t> parse_generations(
    const std::vector<std::string>& names, std::string_view prefix,
    std::string_view suffix);

class Vfs;

/// Reads a whole file into memory through `vfs`. Throws VfsError on IO
/// errors and CorruptStateError (offset 0) if the file does not exist.
[[nodiscard]] std::string read_file(Vfs& vfs, const std::string& path);

/// read_file through the process-wide PosixVfs.
[[nodiscard]] std::string read_file(const std::string& path);

/// Crash-consistent whole-file replace through `vfs`: writes `bytes` to
/// `path + ".tmp"`, fsyncs it, renames over `path`, then fsyncs the
/// parent directory. After a crash anywhere in the sequence, `path`
/// holds either the old or the new content in full, never a mix. On
/// failure the temporary file is cleaned up (best effort) and no fd
/// leaks; failures throw VfsError.
void atomic_write_file(Vfs& vfs, const std::string& path, std::string_view bytes);

/// atomic_write_file through the process-wide PosixVfs.
void atomic_write_file(const std::string& path, std::string_view bytes);

/// True when `path` exists in `vfs` (any file type).
[[nodiscard]] bool file_exists(Vfs& vfs, const std::string& path);

/// file_exists through the process-wide PosixVfs.
[[nodiscard]] bool file_exists(const std::string& path);

}  // namespace vnfr::serve
