// The benchmark's own storage backend: a Vfs that forwards every call to
// vnfr::serve::posix_vfs() and observes it on the way. It reaches the
// controller through ServeConfig::vfs, so the benchmark sees every
// storage call of the serve path without code inside the library.
//
// Two modes:
//   * kCapture keeps only what the open-loop latency needs: per WAL
//     commit (a write to wal-<g>.log followed by its fdatasync), the time
//     the fdatasync returned and a copy of the bytes it made durable.
//     decode_wal_record_stream() later maps each stream seq to that time.
//   * kStats classifies each call by file (WAL, snapshot, directory,
//     other) and records its count, bytes and time, keeps every WAL
//     fdatasync duration, and records a span per call when the global
//     tracer is on, so storage nests under the controller call that made
//     it.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "serve/vfs.hpp"

namespace perfbench {

enum class FileClass : std::uint8_t { kWal, kSnapshot, kDirectory, kOther };
inline constexpr std::size_t kFileClasses = 4;

enum class StorageOp : std::uint8_t {
    kRead,   ///< read_file, list_dir, file_exists, dir_exists
    kWrite,  ///< write_all
    kSync,   ///< fsync, fdatasync, fsync_parent_dir
    kMeta,   ///< create_truncate, open_append, ftruncate, close, rename, unlink
};
inline constexpr std::size_t kStorageOps = 4;

/// Class of the file a path names: wal-<g>.log (and its header temp
/// file), snapshot.bin (and its temp file), or anything else.
[[nodiscard]] FileClass classify_path(const std::string& path);

/// True for a WAL generation file (wal-<g>.log), the file group commits
/// append to and fdatasync; false for its header temp file.
[[nodiscard]] bool is_wal_generation(const std::string& path);

/// Span name of a storage call: vfs.wal.{write,sync,meta} on a WAL
/// generation, vfs.wal.header on its header temp file,
/// vfs.snapshot.{write,sync,meta}, vfs.dir, vfs.read and vfs.other.
[[nodiscard]] const char* storage_span_name(const std::string& path, FileClass file,
                                            StorageOp op);

struct OpTotals {
    std::uint64_t count{0};
    std::uint64_t bytes{0};
    std::int64_t ns{0};
};

/// One durable WAL group: when its fdatasync returned and its bytes.
struct WalCommit {
    std::int64_t durable_ns{0};
    std::string bytes;
};

class TimingVfs final : public vnfr::serve::Vfs {
  public:
    enum class Mode : std::uint8_t { kCapture, kStats };

    explicit TimingVfs(Mode mode) : mode_(mode) {}

    [[nodiscard]] bool file_exists(const std::string& path) override;
    [[nodiscard]] bool dir_exists(const std::string& path) override;
    [[nodiscard]] std::string read_file(const std::string& path) override;
    [[nodiscard]] std::vector<std::string> list_dir(const std::string& dir) override;
    [[nodiscard]] int create_truncate(const std::string& path) override;
    [[nodiscard]] int open_append(const std::string& path) override;
    void write_all(int fd, const std::string& path, std::string_view bytes) override;
    void fsync(int fd, const std::string& path) override;
    void fdatasync(int fd, const std::string& path) override;
    void ftruncate(int fd, const std::string& path, std::uint64_t size) override;
    void close(int fd) noexcept override;
    void rename(const std::string& from, const std::string& to) override;
    void unlink(const std::string& path) override;
    void fsync_parent_dir(const std::string& path) override;
    void sleep_for_micros(std::uint64_t micros) override;

    /// Totals per (file class, op); kStats mode only.
    [[nodiscard]] OpTotals totals(FileClass file, StorageOp op) const;
    /// Every WAL commit fdatasync duration in microseconds; kStats mode only.
    [[nodiscard]] std::vector<double> wal_sync_us() const;
    /// Captured WAL commits in commit order; kCapture mode only.
    [[nodiscard]] std::vector<WalCommit> take_commits();

  private:
    template <typename Fn>
    auto observe(const std::string& path, FileClass file, StorageOp op,
                 std::uint64_t bytes, Fn&& fn) -> decltype(fn());

    const Mode mode_;
    mutable std::mutex mu_;
    std::array<std::array<OpTotals, kStorageOps>, kFileClasses> totals_{};  // mu_
    std::vector<double> wal_sync_us_;                                        // mu_
    std::map<std::string, std::string> unsynced_wal_bytes_;                 // mu_
    std::vector<WalCommit> commits_;                                         // mu_
};

}  // namespace perfbench
