// The Vfs layer itself: PosixVfs round-trips, FaultyVfs's page-cache
// model (durable vs cached bytes, power cuts, stale fds), scripted and
// seeded fault injection, the bounded-retry wrapper, and the failure
// atomicity of the write -> fsync -> rename -> dirsync publish path as
// exercised through WalWriter and the admission controller.
#include <gtest/gtest.h>

#include <cerrno>
#include <filesystem>
#include <string>

#include "helpers.hpp"
#include "serve/admission_controller.hpp"
#include "serve/vfs.hpp"
#include "serve/wal.hpp"
#include "serve/wal_scrubber.hpp"

namespace vnfr::serve {
namespace {

using vnfr::testing::make_request;
using vnfr::testing::small_instance;

constexpr const char* kDir = "/disk";

std::string at(const std::string& name) { return std::string(kDir) + "/" + name; }

// ---------------------------------------------------------------- FaultyVfs

TEST(ServeVfs, FaultyVfsRoundTripsThroughTheCache) {
    FaultyVfs vfs;
    const int fd = vfs.create_truncate(at("a"));
    vfs.write_all(fd, at("a"), "hello");
    EXPECT_EQ(vfs.read_file(at("a")), "hello");  // cache view, pre-sync
    vfs.fdatasync(fd, at("a"));
    vfs.close(fd);
    EXPECT_TRUE(vfs.file_exists(at("a")));
    EXPECT_EQ(vfs.read_file(at("a")), "hello");
    EXPECT_THROW((void)vfs.read_file(at("missing")), VfsError);
}

TEST(ServeVfs, PowerCutDropsUnsyncedBytesAndUnsyncedNames) {
    DiskFaultPlan plan;
    plan.power_cut_keeps_prefix = false;  // clean cut: durable bytes only
    FaultyVfs vfs(plan);

    const int fd = vfs.create_truncate(at("wal"));
    vfs.write_all(fd, at("wal"), "durable");
    vfs.fdatasync(fd, at("wal"));
    vfs.fsync_parent_dir(at("wal"));  // name survives the cut
    vfs.write_all(fd, at("wal"), " volatile");

    const int never_synced = vfs.create_truncate(at("ghost"));
    vfs.write_all(never_synced, at("ghost"), "gone");

    vfs.power_cut();

    EXPECT_EQ(vfs.read_file(at("wal")), "durable");
    EXPECT_FALSE(vfs.file_exists(at("ghost")));  // creation never dirsynced
    // fds from before the cut are stale: writes through them must fail.
    EXPECT_THROW(vfs.write_all(fd, at("wal"), "x"), VfsError);
    vfs.close(fd);  // tolerated
    vfs.close(never_synced);
}

TEST(ServeVfs, RenameIsNotDurableUntilTheParentDirIsSynced) {
    DiskFaultPlan plan;
    plan.power_cut_keeps_prefix = false;
    FaultyVfs vfs(plan);

    auto put = [&vfs](const std::string& path, const std::string& bytes) {
        const int fd = vfs.create_truncate(path);
        vfs.write_all(fd, path, bytes);
        vfs.fsync(fd, path);
        vfs.close(fd);
    };
    put(at("target"), "old");
    vfs.fsync_parent_dir(at("target"));
    put(at("target.tmp"), "new");
    vfs.rename(at("target.tmp"), at("target"));
    EXPECT_EQ(vfs.read_file(at("target")), "new");  // visible in the cache

    vfs.power_cut();  // ...but the rename never reached the directory

    EXPECT_EQ(vfs.read_file(at("target")), "old");
}

TEST(ServeVfs, ScriptedFaultsFireAfterTheirSkipCountThenClear) {
    FaultyVfs vfs;
    vfs.script_fault(VfsOp::kWrite, 1, 1, EIO, /*transient=*/true);
    const int fd = vfs.create_truncate(at("f"));
    vfs.write_all(fd, at("f"), "first");               // skipped
    EXPECT_THROW(vfs.write_all(fd, at("f"), "second"), VfsError);  // fires
    vfs.write_all(fd, at("f"), "third");               // count exhausted
    vfs.clear_scripted_faults();
    vfs.write_all(fd, at("f"), "fourth");
    vfs.close(fd);
    EXPECT_EQ(vfs.stats().injected_errors, 1u);
}

TEST(ServeVfs, UnlinkIsIdempotentAndListDirIsSorted) {
    FaultyVfs vfs;
    for (const char* name : {"b", "a", "c"}) {
        const int fd = vfs.create_truncate(at(name));
        vfs.close(fd);
    }
    vfs.unlink(at("b"));
    vfs.unlink(at("b"));  // missing file is not an error
    const std::vector<std::string> names = vfs.list_dir(kDir);
    ASSERT_EQ(names.size(), 2u);
    EXPECT_EQ(names[0], "a");
    EXPECT_EQ(names[1], "c");
}

// ------------------------------------------------------- retries & guards

TEST(ServeVfs, RetriesAbsorbTransientBurstsWithinTheBudget) {
    FaultyVfs vfs;
    vfs.script_fault(VfsOp::kWrite, 0, 2, EIO, /*transient=*/true);
    const int fd = vfs.create_truncate(at("f"));
    StorageRetryPolicy policy;
    policy.max_attempts = 4;
    std::uint64_t retries = 0;
    with_storage_retries(
        vfs, policy, [&] { vfs.write_all(fd, at("f"), "payload"); }, &retries);
    vfs.close(fd);
    EXPECT_EQ(retries, 2u);
    EXPECT_EQ(vfs.read_file(at("f")), "payload");
}

TEST(ServeVfs, RetriesGiveUpImmediatelyOnPersistentErrors) {
    FaultyVfs vfs;
    vfs.script_fault(VfsOp::kWrite, 0, -1, ENOSPC, /*transient=*/false);
    const int fd = vfs.create_truncate(at("f"));
    StorageRetryPolicy policy;
    std::uint64_t retries = 0;
    EXPECT_THROW(with_storage_retries(
                     vfs, policy, [&] { vfs.write_all(fd, at("f"), "x"); },
                     &retries),
                 VfsError);
    vfs.close(fd);
    EXPECT_EQ(retries, 0u);  // ENOSPC is not worth a single retry
    EXPECT_EQ(vfs.stats().injected_errors, 1u);
}

TEST(ServeVfs, FdGuardClosesUnlessReleased) {
    FaultyVfs vfs;
    int raw = -1;
    {
        VfsFdGuard guard(vfs, vfs.create_truncate(at("g")));
        vfs.write_all(guard.get(), at("g"), "x");
        raw = guard.release();
    }
    // Released: the fd is still live after the guard died.
    vfs.write_all(raw, at("g"), "y");
    vfs.close(raw);
    {
        VfsFdGuard guard(vfs, vfs.create_truncate(at("h")));
        raw = guard.get();
    }
    // Not released: the guard closed it; further writes must fail.
    EXPECT_THROW(vfs.write_all(raw, at("h"), "z"), VfsError);
}

// ------------------------------------------- atomic publish failure modes

TEST(ServeVfs, RenameFailureMidAtomicWriteLeavesNoTempAndNoTarget) {
    FaultyVfs vfs;
    vfs.script_fault(VfsOp::kRename, 0, -1, EIO, /*transient=*/false);
    EXPECT_THROW((void)WalWriter::create(vfs, at("wal-0.log"), 0, 7), VfsError);
    EXPECT_FALSE(vfs.file_exists(at("wal-0.log")));
    // The temp file was unlinked on the failure path.
    EXPECT_TRUE(vfs.list_dir(kDir).empty());
}

TEST(ServeVfs, TransientRenameFailureIsRetriedToSuccess) {
    FaultyVfs vfs;
    vfs.script_fault(VfsOp::kRename, 0, 1, EIO, /*transient=*/true);
    WalWriter wal = WalWriter::create(vfs, at("wal-0.log"), 0, 7);
    wal.close();
    EXPECT_TRUE(vfs.file_exists(at("wal-0.log")));
    EXPECT_TRUE(read_wal(vfs, at("wal-0.log"), WalReadMode::kStrict)
                    .records.empty());
}

TEST(ServeVfs, FsyncParentDirFailureFailsThePublish) {
    FaultyVfs vfs;
    vfs.script_fault(VfsOp::kDirSync, 0, -1, EIO, /*transient=*/false);
    EXPECT_THROW((void)WalWriter::create(vfs, at("wal-0.log"), 0, 7), VfsError);
}

// ------------------------------------------------- controller-level paths

core::Instance tiny_instance(std::size_t n) {
    std::vector<workload::Request> reqs;
    reqs.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        reqs.push_back(make_request(static_cast<std::int64_t>(i),
                                    static_cast<std::int64_t>(i % 2),
                                    0.90 + 0.004 * static_cast<double>(i % 10),
                                    static_cast<TimeSlot>((i * 7) / n),
                                    1 + static_cast<TimeSlot>(i % 3),
                                    1.0 + static_cast<double>((i * 11) % 17)));
    }
    return small_instance({0.98, 0.97, 0.99}, 10.0, 10, std::move(reqs));
}

TEST(ServeVfs, CheckpointRotationUnderEnospcDegradesThenRecovers) {
    const core::Instance inst = tiny_instance(12);
    FaultyVfs disk;
    ServeConfig cfg;
    cfg.data_dir = kDir;
    cfg.vfs = &disk;
    cfg.checkpoint_every = 1000;  // rotate only on explicit checkpoint()
    AdmissionController controller(inst, core::Scheme::kOnsite, cfg);
    for (std::size_t i = 0; i < inst.requests.size(); ++i) {
        controller.submit(i, inst.requests[i]);
        controller.drain();
        if (i == 0) controller.checkpoint();  // the base the failed delta extends
    }
    const std::uint64_t digest = controller.state_digest();
    const auto admitted = controller.admitted_records();

    // The disk fills up right as the rotation starts.
    disk.script_fault(VfsOp::kWrite, 0, -1, ENOSPC, /*transient=*/false);
    EXPECT_THROW(controller.checkpoint(), StorageDegradedError);
    EXPECT_EQ(controller.storage_health(), StorageHealth::kDegraded);
    EXPECT_FALSE(controller.degraded_reason().empty());

    // Degraded mode refuses loudly but keeps serving admitted state.
    EXPECT_THROW(controller.submit(inst.requests.size(),
                                   inst.requests.front()),
                 StorageDegradedError);
    EXPECT_EQ(controller.state_digest(), digest);
    EXPECT_EQ(controller.admitted_records().size(), admitted.size());
    EXPECT_GE(controller.storage_stats().degraded_entries, 1u);
    EXPECT_GE(controller.storage_stats().degraded_refusals, 1u);

    // Recovery fails while the disk is still full...
    EXPECT_FALSE(controller.try_recover_storage());
    // ...and succeeds (with a full rotation as the writability proof)
    // once space frees up.
    disk.clear_scripted_faults();
    EXPECT_TRUE(controller.try_recover_storage());
    EXPECT_EQ(controller.storage_health(), StorageHealth::kHealthy);
    EXPECT_EQ(controller.storage_stats().recoveries, 1u);
    EXPECT_EQ(controller.state_digest(), digest);
    // A chain never spans a degraded episode: the proof rotation is a base.
    EXPECT_EQ(controller.storage_stats().base_checkpoints, 2u);
    EXPECT_EQ(controller.storage_stats().delta_checkpoints, 0u);

    // Back in business: the next submit is accepted and durably logged.
    controller.submit(inst.requests.size(), inst.requests.front());
    controller.drain();
    EXPECT_EQ(controller.metrics().processed + controller.metrics().shed,
              inst.requests.size() + 1);
}

TEST(ServeVfs, ScrubberDetectsASingleFlippedBitInARetainedGeneration) {
    const core::Instance inst = tiny_instance(24);
    FaultyVfs disk;
    ServeConfig cfg;
    cfg.data_dir = kDir;
    cfg.vfs = &disk;
    cfg.checkpoint_every = 4;  // several retained generations
    cfg.retain_wals = true;
    AdmissionController controller(inst, core::Scheme::kOnsite, cfg);
    for (std::size_t i = 0; i < inst.requests.size(); ++i) {
        controller.submit(i, inst.requests[i]);
        controller.drain();
    }
    ASSERT_TRUE(scrub_data_dir(disk, kDir).clean());

    // Flip one bit inside the record region of the oldest generation.
    std::string oldest;
    for (const std::string& name : disk.list_dir(kDir)) {
        if (name.starts_with("wal-") && name.ends_with(".log")) {
            oldest = at(name);
            break;
        }
    }
    ASSERT_FALSE(oldest.empty());
    ASSERT_GT(disk.read_file(oldest).size(), kWalHeaderSize + 8);
    disk.corrupt_durable_byte(oldest, kWalHeaderSize + 5, 0x04);

    const ScrubReport report = scrub_data_dir(disk, kDir);
    EXPECT_FALSE(report.clean());
    ASSERT_FALSE(report.findings.empty());
    EXPECT_EQ(report.findings.front().file, oldest);

    // Un-flip: the scrub is clean again (the report was not sticky).
    disk.corrupt_durable_byte(oldest, kWalHeaderSize + 5, 0x04);
    EXPECT_TRUE(scrub_data_dir(disk, kDir).clean());
}

// ------------------------------------------------------------- PosixVfs

TEST(ServeVfs, PosixVfsRoundTripsOnTheRealFilesystem) {
    const std::filesystem::path dir =
        std::filesystem::path(::testing::TempDir()) / "vfs_posix";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    Vfs& vfs = posix_vfs();
    const std::string tmp = (dir / "file.tmp").string();
    const std::string path = (dir / "file").string();

    const int fd = vfs.create_truncate(tmp);
    vfs.write_all(fd, tmp, "payload");
    vfs.fsync(fd, tmp);
    vfs.close(fd);
    vfs.rename(tmp, path);
    vfs.fsync_parent_dir(path);

    EXPECT_TRUE(vfs.file_exists(path));
    EXPECT_FALSE(vfs.file_exists(tmp));
    EXPECT_TRUE(vfs.dir_exists(dir.string()));
    EXPECT_EQ(vfs.read_file(path), "payload");
    const std::vector<std::string> names = vfs.list_dir(dir.string());
    ASSERT_EQ(names.size(), 1u);
    EXPECT_EQ(names[0], "file");

    const int app = vfs.open_append(path);
    vfs.write_all(app, path, "!");
    vfs.fdatasync(app, path);
    vfs.ftruncate(app, path, 4);
    vfs.close(app);
    EXPECT_EQ(vfs.read_file(path), "payl");

    vfs.unlink(path);
    vfs.unlink(path);  // idempotent
    EXPECT_THROW((void)vfs.read_file(path), VfsError);
    std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace vnfr::serve
