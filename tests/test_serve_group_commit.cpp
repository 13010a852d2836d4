// Group-commit WAL tests: stage/commit unit semantics, torn-group
// recovery, and the full crash matrix — kill the controller at EVERY
// WAL-append point (batch boundaries and mid-batch alike) for batch
// sizes {1, 4, 32}, with torn tails layered on top, and require the
// recovered controller to match the uninterrupted baseline bit for bit.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "helpers.hpp"
#include "serve/admission_controller.hpp"
#include "serve/fault_study.hpp"
#include "serve/wal.hpp"

namespace vnfr::serve {
namespace {

using vnfr::testing::fresh_dir;
using vnfr::testing::make_request;
using vnfr::testing::tight_instance;

WalRecord decision_record(std::uint64_t seq, double payment) {
    WalRecord rec;
    rec.kind = WalRecordKind::kDecision;
    rec.seq = seq;
    rec.request = make_request(static_cast<std::int64_t>(seq), 0, 0.95, 0, 2, payment);
    rec.admitted = true;
    rec.sites = {core::Site{CloudletId{0}, 2}};
    return rec;
}

TEST(ServeGroupCommitWal, StagedRecordsStayInvisibleUntilCommit) {
    const std::string dir = fresh_dir("gc_stage");
    const std::string path = dir + "/wal-0.log";
    WalWriter writer = WalWriter::create(path, 0, 42);
    writer.stage(decision_record(0, 3.0));
    writer.stage(decision_record(1, 4.0));
    EXPECT_EQ(writer.staged_records(), 2u);
    // Nothing externalized yet: the file on disk is still just a header.
    EXPECT_TRUE(read_wal(path, WalReadMode::kStrict).records.empty());
    writer.commit();
    EXPECT_EQ(writer.staged_records(), 0u);
    const WalContents contents = read_wal(path, WalReadMode::kStrict);
    ASSERT_EQ(contents.records.size(), 2u);
    EXPECT_EQ(contents.records[0].seq, 0u);
    EXPECT_EQ(contents.records[1].seq, 1u);
}

TEST(ServeGroupCommitWal, AppendWhileStagedThrowsAndCommitIsIdempotent) {
    const std::string dir = fresh_dir("gc_mix");
    WalWriter writer = WalWriter::create(dir + "/wal-0.log", 0, 42);
    writer.commit();  // no-op on an empty stage
    writer.stage(decision_record(0, 1.0));
    EXPECT_THROW(writer.append(decision_record(1, 2.0)), std::logic_error);
    writer.commit();
    writer.commit();  // still a no-op
    const std::uint64_t at = writer.append(decision_record(1, 2.0));
    EXPECT_EQ(at, read_wal(writer.path(), WalReadMode::kStrict).records[1].file_offset);
}

TEST(ServeGroupCommitWal, StageReportsTheOffsetsCommitWillUse) {
    const std::string dir = fresh_dir("gc_offsets");
    const std::string path = dir + "/wal-0.log";
    WalWriter writer = WalWriter::create(path, 0, 42);
    const std::uint64_t first = writer.stage(decision_record(0, 1.0));
    const std::uint64_t second = writer.stage(decision_record(1, 2.0));
    EXPECT_LT(first, second);
    writer.commit();
    const WalContents contents = read_wal(path, WalReadMode::kStrict);
    ASSERT_EQ(contents.records.size(), 2u);
    EXPECT_EQ(contents.records[0].file_offset, first);
    EXPECT_EQ(contents.records[1].file_offset, second);
}

TEST(ServeGroupCommitWal, TornGroupWriteRecoversTheIntactPrefix) {
    // A crash during the single group write leaves whole records plus at
    // most one torn record at EOF — exactly what recover mode handles.
    const std::string dir = fresh_dir("gc_torn");
    const std::string path = dir + "/wal-0.log";
    {
        WalWriter writer = WalWriter::create(path, 0, 42);
        writer.stage(decision_record(0, 1.0));
        writer.stage(decision_record(1, 2.0));
        writer.stage(decision_record(2, 3.0));
        writer.commit();
    }
    const std::uint64_t full = std::filesystem::file_size(path);
    std::filesystem::resize_file(path, full - 7);  // tear into record 2
    const WalContents contents = read_wal(path, WalReadMode::kRecover);
    ASSERT_EQ(contents.records.size(), 2u);
    EXPECT_GT(contents.bytes_discarded, 0u);
    EXPECT_EQ(contents.valid_size + contents.bytes_discarded, full - 7);
    // And the writer can resume on the clean prefix.
    WalWriter resumed = WalWriter::append_to(path, contents.valid_size);
    resumed.append(decision_record(2, 3.0));
    EXPECT_EQ(read_wal(path, WalReadMode::kStrict).records.size(), 3u);
}

FaultStudyResult run_matrix(core::Scheme scheme, std::size_t group_commit,
                            const std::string& dir) {
    FaultStudyConfig cfg;
    cfg.scheme = scheme;
    cfg.master_seed = 0xBA7C4ull;
    cfg.kills = 1;
    cfg.exhaustive = true;  // every record: boundary + mid-batch
    cfg.checkpoint_every = 8;
    cfg.queue_capacity = 4;
    cfg.group_commit = group_commit;
    cfg.work_dir = dir;
    return run_fault_study(tight_instance(40), cfg);
}

void expect_matrix_ok(const FaultStudyResult& result, std::size_t group_commit) {
    EXPECT_TRUE(result.ok()) << "failed trials: " << result.failed_trials;
    ASSERT_EQ(result.trials.size(), result.baseline.outcomes() - 1);
    std::size_t boundary = 0;
    std::size_t mid = 0;
    std::size_t torn = 0;
    for (const FaultTrial& trial : result.trials) {
        EXPECT_TRUE(trial.ok()) << "kill point " << trial.fault_point
                                << (trial.mid_batch ? " (mid-batch)" : " (boundary)");
        trial.mid_batch ? ++mid : ++boundary;
        if (trial.torn_tail_applied) ++torn;
    }
    // The matrix really covered both kinds of kill point and tore tails.
    EXPECT_GT(boundary, 0u);
    if (group_commit > 1) {
        EXPECT_GT(mid, 0u);
    }
    EXPECT_GT(torn, 0u);
}

TEST(ServeGroupCommitChaos, CrashMatrixBatch1) {
    const FaultStudyResult r =
        run_matrix(core::Scheme::kOnsite, 1, fresh_dir("gc_matrix_1"));
    expect_matrix_ok(r, 1);
}

TEST(ServeGroupCommitChaos, CrashMatrixBatch4) {
    const FaultStudyResult r =
        run_matrix(core::Scheme::kOnsite, 4, fresh_dir("gc_matrix_4"));
    expect_matrix_ok(r, 4);
}

TEST(ServeGroupCommitChaos, CrashMatrixBatch32) {
    const FaultStudyResult r =
        run_matrix(core::Scheme::kOnsite, 32, fresh_dir("gc_matrix_32"));
    expect_matrix_ok(r, 32);
}

TEST(ServeGroupCommitChaos, CrashMatrixBatch4Offsite) {
    const FaultStudyResult r =
        run_matrix(core::Scheme::kOffsite, 4, fresh_dir("gc_matrix_4_off"));
    expect_matrix_ok(r, 4);
}

TEST(ServeGroupCommitChaos, GroupSizeNeverChangesTheFinalState) {
    // Group commit only changes durability batching; the decided stream
    // (and therefore the digest, revenue, and admitted set) is invariant
    // under either backup scheme.
    for (const core::Scheme scheme : {core::Scheme::kOnsite, core::Scheme::kOffsite}) {
        const std::string tag =
            scheme == core::Scheme::kOnsite ? "gc_invariant_on_" : "gc_invariant_off_";
        const FaultStudyResult b1 = run_matrix(scheme, 1, fresh_dir(tag + "1"));
        const FaultStudyResult b4 = run_matrix(scheme, 4, fresh_dir(tag + "4"));
        const FaultStudyResult b32 = run_matrix(scheme, 32, fresh_dir(tag + "32"));
        EXPECT_GT(b1.baseline.metrics.admitted, 0u);
        EXPECT_EQ(b1.baseline.digest, b4.baseline.digest);
        EXPECT_EQ(b1.baseline.digest, b32.baseline.digest);
        EXPECT_EQ(b1.baseline.metrics.revenue, b32.baseline.metrics.revenue);
        EXPECT_EQ(b1.baseline.metrics.shed_revenue, b32.baseline.metrics.shed_revenue);
    }
}

}  // namespace
}  // namespace vnfr::serve
