#include "harness/timing_vfs.hpp"

#include <utility>

#include "harness/trace.hpp"

namespace perfbench {

namespace {

std::string basename_of(const std::string& path) {
    const auto slash = path.find_last_of('/');
    return slash == std::string::npos ? path : path.substr(slash + 1);
}

vnfr::serve::Vfs& posix() { return vnfr::serve::posix_vfs(); }

}  // namespace

bool is_wal_generation(const std::string& path) {
    const std::string name = basename_of(path);
    return name.rfind("wal-", 0) == 0 && name.size() > 8 &&
           name.compare(name.size() - 4, 4, ".log") == 0;
}

FileClass classify_path(const std::string& path) {
    const std::string name = basename_of(path);
    if (name.rfind("wal-", 0) == 0) return FileClass::kWal;
    if (name.rfind("snapshot.bin", 0) == 0) return FileClass::kSnapshot;
    return FileClass::kOther;
}

const char* storage_span_name(const std::string& path, FileClass file, StorageOp op) {
    if (op == StorageOp::kRead) return "vfs.read";
    switch (file) {
        case FileClass::kWal:
            if (!is_wal_generation(path)) return "vfs.wal.header";
            return op == StorageOp::kWrite  ? "vfs.wal.write"
                   : op == StorageOp::kSync ? "vfs.wal.sync"
                                            : "vfs.wal.meta";
        case FileClass::kSnapshot:
            return op == StorageOp::kWrite  ? "vfs.snapshot.write"
                   : op == StorageOp::kSync ? "vfs.snapshot.sync"
                                            : "vfs.snapshot.meta";
        case FileClass::kDirectory:
            return "vfs.dir";
        case FileClass::kOther:
            break;
    }
    return "vfs.other";
}

template <typename Fn>
auto TimingVfs::observe(const std::string& path, FileClass file, StorageOp op,
                        std::uint64_t bytes, Fn&& fn) -> decltype(fn()) {
    if (mode_ != Mode::kStats) return fn();
    // Accounts on scope exit, so a call that throws is counted too.
    struct Account {
        TimingVfs* self;
        FileClass file;
        StorageOp op;
        std::uint64_t bytes;
        bool wal_commit_sync;
        std::int64_t start;
        ~Account() {
            const std::int64_t ns = now_ns() - start;
            const std::lock_guard<std::mutex> lock(self->mu_);
            OpTotals& t = self->totals_[static_cast<std::size_t>(file)]
                                       [static_cast<std::size_t>(op)];
            t.count += 1;
            t.bytes += bytes;
            t.ns += ns;
            if (wal_commit_sync) {
                self->wal_sync_us_.push_back(static_cast<double>(ns) / 1e3);
            }
        }
    };
    const ScopedSpan span(storage_span_name(path, file, op));
    const bool wal_commit_sync =
        file == FileClass::kWal && op == StorageOp::kSync && is_wal_generation(path);
    const Account account{this, file, op, bytes, wal_commit_sync, now_ns()};
    return fn();
}

bool TimingVfs::file_exists(const std::string& path) {
    return observe(path, classify_path(path), StorageOp::kRead, 0,
                   [&] { return posix().file_exists(path); });
}

bool TimingVfs::dir_exists(const std::string& path) {
    return observe(path, FileClass::kDirectory, StorageOp::kRead, 0,
                   [&] { return posix().dir_exists(path); });
}

std::string TimingVfs::read_file(const std::string& path) {
    const FileClass file = classify_path(path);
    std::string bytes =
        observe(path, file, StorageOp::kRead, 0, [&] { return posix().read_file(path); });
    if (mode_ == Mode::kStats) {
        const std::lock_guard<std::mutex> lock(mu_);
        totals_[static_cast<std::size_t>(file)][static_cast<std::size_t>(StorageOp::kRead)]
            .bytes += bytes.size();
    }
    return bytes;
}

std::vector<std::string> TimingVfs::list_dir(const std::string& dir) {
    return observe(dir, FileClass::kDirectory, StorageOp::kRead, 0,
                   [&] { return posix().list_dir(dir); });
}

int TimingVfs::create_truncate(const std::string& path) {
    return observe(path, classify_path(path), StorageOp::kMeta, 0,
                   [&] { return posix().create_truncate(path); });
}

int TimingVfs::open_append(const std::string& path) {
    return observe(path, classify_path(path), StorageOp::kMeta, 0,
                   [&] { return posix().open_append(path); });
}

void TimingVfs::write_all(int fd, const std::string& path, std::string_view bytes) {
    observe(path, classify_path(path), StorageOp::kWrite, bytes.size(),
            [&] { posix().write_all(fd, path, bytes); });
    if (mode_ == Mode::kCapture && is_wal_generation(path)) {
        const std::lock_guard<std::mutex> lock(mu_);
        unsynced_wal_bytes_[path].append(bytes);
    }
}

void TimingVfs::fsync(int fd, const std::string& path) {
    observe(path, classify_path(path), StorageOp::kSync, 0,
            [&] { posix().fsync(fd, path); });
}

void TimingVfs::fdatasync(int fd, const std::string& path) {
    observe(path, classify_path(path), StorageOp::kSync, 0,
            [&] { posix().fdatasync(fd, path); });
    if (mode_ == Mode::kCapture && is_wal_generation(path)) {
        const std::int64_t durable = now_ns();
        const std::lock_guard<std::mutex> lock(mu_);
        std::string& pending = unsynced_wal_bytes_[path];
        if (!pending.empty()) commits_.push_back(WalCommit{durable, std::exchange(pending, {})});
    }
}

void TimingVfs::ftruncate(int fd, const std::string& path, std::uint64_t size) {
    observe(path, classify_path(path), StorageOp::kMeta, 0,
            [&] { posix().ftruncate(fd, path, size); });
}

void TimingVfs::close(int fd) noexcept {
    // close() names no path; it is counted with the other metadata calls.
    observe(std::string(), FileClass::kOther, StorageOp::kMeta, 0,
            [&] { posix().close(fd); });
}

void TimingVfs::rename(const std::string& from, const std::string& to) {
    observe(to, classify_path(to), StorageOp::kMeta, 0, [&] { posix().rename(from, to); });
}

void TimingVfs::unlink(const std::string& path) {
    observe(path, classify_path(path), StorageOp::kMeta, 0,
            [&] { posix().unlink(path); });
}

void TimingVfs::fsync_parent_dir(const std::string& path) {
    observe(path, FileClass::kDirectory, StorageOp::kSync, 0,
            [&] { posix().fsync_parent_dir(path); });
}

void TimingVfs::sleep_for_micros(std::uint64_t micros) { posix().sleep_for_micros(micros); }

OpTotals TimingVfs::totals(FileClass file, StorageOp op) const {
    const std::lock_guard<std::mutex> lock(mu_);
    return totals_[static_cast<std::size_t>(file)][static_cast<std::size_t>(op)];
}

std::vector<double> TimingVfs::wal_sync_us() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return wal_sync_us_;
}

std::vector<WalCommit> TimingVfs::take_commits() {
    const std::lock_guard<std::mutex> lock(mu_);
    return std::exchange(commits_, {});
}

}  // namespace perfbench
