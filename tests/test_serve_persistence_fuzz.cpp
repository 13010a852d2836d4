// Fuzz-style robustness tests for the serve layer's durable formats.
// Every mutated input must be rejected with a CorruptStateError that
// names the file and a byte offset — never UB, never a silent
// mis-parse. Run under ASan/UBSan in CI.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <limits>
#include <random>
#include <string>

#include "helpers.hpp"
#include "serve/snapshot.hpp"
#include "serve/vfs.hpp"
#include "serve/wal.hpp"
#include "serve/wire.hpp"

namespace vnfr::serve {
namespace {

ControllerSnapshot sample_snapshot() {
    ControllerSnapshot snap;
    snap.scheme = 1;
    snap.config_digest = 0x1122334455667788ULL;
    snap.cloudlets = 2;
    snap.horizon = 3;
    snap.wal_seq = 4;
    snap.metrics = {5, 2, 3, 1, 17.5, 2.25};
    snap.lambda = {{0.0, 0.5, 1.0}, {2.0, 0.0, 0.25}};
    snap.usage = {1.0, 0.0, 2.0, 0.0, 3.0, 1.0};
    snap.covered_watermark = 6;
    snap.covered_sparse = {8, 11};
    snap.admitted = {
        {1, 101, 10.0, {{0, 2}}},
        {3, 103, 7.5, {{1, 1}, {0, 3}}},
    };
    return snap;
}

workload::Request sample_request(std::int64_t id) {
    workload::Request r;
    r.id = RequestId{id};
    r.vnf = VnfTypeId{0};
    r.requirement = 0.9;
    r.arrival = 1;
    r.duration = 2;
    r.payment = 5.0 + static_cast<double>(id);
    r.source = NodeId{0};
    return r;
}

std::string temp_path(const std::string& name) {
    return ::testing::TempDir() + name;
}

/// Writes a WAL with `records` decision/shed records and returns its bytes.
std::string build_wal_bytes(const std::string& path, std::size_t records) {
    std::remove(path.c_str());
    WalWriter w = WalWriter::create(path, 7, 0xABCDEF01ULL);
    for (std::size_t i = 0; i < records; ++i) {
        WalRecord rec;
        rec.kind = (i % 3 == 2) ? WalRecordKind::kShed : WalRecordKind::kDecision;
        rec.seq = i;
        rec.request = sample_request(static_cast<std::int64_t>(i));
        if (rec.kind == WalRecordKind::kDecision) {
            rec.admitted = (i % 2 == 0);
            rec.reject_reason =
                rec.admitted ? core::RejectReason::kNone : core::RejectReason::kPricedOut;
            if (rec.admitted) rec.sites.push_back(core::Site{CloudletId{0}, 1});
        }
        w.append(rec);
    }
    w.close();
    return read_file(path);
}

// --- Snapshot fuzzing -------------------------------------------------

TEST(SnapshotFuzz, RoundTripIsExact) {
    const ControllerSnapshot snap = sample_snapshot();
    const std::string bytes = encode_snapshot(snap);
    const ControllerSnapshot back = decode_snapshot(bytes, "roundtrip");
    EXPECT_EQ(back.config_digest, snap.config_digest);
    EXPECT_EQ(back.metrics.processed, snap.metrics.processed);
    EXPECT_EQ(back.metrics.revenue, snap.metrics.revenue);
    EXPECT_EQ(back.lambda, snap.lambda);
    EXPECT_EQ(back.usage, snap.usage);
    EXPECT_EQ(back.covered_sparse, snap.covered_sparse);
    ASSERT_EQ(back.admitted.size(), snap.admitted.size());
    EXPECT_EQ(back.admitted[1].sites, snap.admitted[1].sites);
}

TEST(SnapshotFuzz, EveryTruncationLengthIsRejected) {
    const std::string bytes = encode_snapshot(sample_snapshot());
    for (std::size_t len = 0; len < bytes.size(); ++len) {
        EXPECT_THROW(decode_snapshot(bytes.substr(0, len), "truncated"),
                      CorruptStateError)
            << "prefix of " << len << " bytes parsed as valid";
    }
}

TEST(SnapshotFuzz, EverySingleByteFlipIsRejected) {
    const std::string bytes = encode_snapshot(sample_snapshot());
    for (std::size_t pos = 0; pos < bytes.size(); ++pos) {
        std::string mutated = bytes;
        mutated[pos] = static_cast<char>(mutated[pos] ^ 0x40);
        // The whole-file CRC makes any one-byte flip detectable.
        EXPECT_THROW(decode_snapshot(mutated, "flipped"), CorruptStateError)
            << "flip at byte " << pos << " parsed as valid";
    }
}

TEST(SnapshotFuzz, RandomGarbageIsRejected) {
    std::mt19937_64 rng(20260806);
    std::uniform_int_distribution<int> byte(0, 255);
    std::uniform_int_distribution<std::size_t> length(0, 512);
    for (int trial = 0; trial < 200; ++trial) {
        std::string junk(length(rng), '\0');
        for (char& c : junk) c = static_cast<char>(byte(rng));
        EXPECT_THROW(decode_snapshot(junk, "garbage"), CorruptStateError);
    }
}

TEST(SnapshotFuzz, FutureVersionIsRejectedWithOffset) {
    ControllerSnapshot snap = sample_snapshot();
    std::string bytes = encode_snapshot(snap);
    // Version is the u32 right after the 8-byte magic. Bump it and
    // re-seal the trailer CRC so only the version is at fault.
    bytes[8] = static_cast<char>(kSnapshotVersion + 1);
    WireWriter crc;
    crc.put_u32(crc32(std::string_view(bytes).substr(0, bytes.size() - 4)));
    bytes.replace(bytes.size() - 4, 4, crc.bytes());
    try {
        (void)decode_snapshot(bytes, "versioned");
        FAIL() << "expected CorruptStateError";
    } catch (const CorruptStateError& e) {
        EXPECT_EQ(e.offset(), 8u);
        EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
    }
}

TEST(SnapshotFuzz, SemanticLiesAreRejectedEvenWithValidCrc) {
    // Counters that disagree (admitted + rejected != processed) must be
    // caught by validation, not just framing.
    ControllerSnapshot snap = sample_snapshot();
    snap.metrics.processed = 99;
    EXPECT_THROW(decode_snapshot(encode_snapshot(snap), "lying counters"),
                 CorruptStateError);

    snap = sample_snapshot();
    snap.lambda[0][1] = -1.0;  // dual prices are non-negative
    EXPECT_THROW(decode_snapshot(encode_snapshot(snap), "negative dual"),
                 CorruptStateError);

    snap = sample_snapshot();
    snap.covered_sparse = {8, 8};  // must be strictly ascending
    EXPECT_THROW(decode_snapshot(encode_snapshot(snap), "dup sparse"),
                 CorruptStateError);

    snap = sample_snapshot();
    snap.covered_sparse = {2};  // below the watermark
    EXPECT_THROW(decode_snapshot(encode_snapshot(snap), "sparse below watermark"),
                 CorruptStateError);

    snap = sample_snapshot();
    snap.admitted[0].sites[0].first = 7;  // cloudlet out of range
    EXPECT_THROW(decode_snapshot(encode_snapshot(snap), "bad site"),
                 CorruptStateError);
}

TEST(SnapshotFuzz, SaveLoadRoundTripsThroughDisk) {
    const std::string path = temp_path("snapfuzz_roundtrip.bin");
    const ControllerSnapshot snap = sample_snapshot();
    publish_state_file(posix_vfs(), path, encode_snapshot(snap), StorageRetryPolicy{});
    const ControllerSnapshot back = decode_snapshot(read_file(path), path);
    EXPECT_EQ(encode_snapshot(back), encode_snapshot(snap));
    std::remove(path.c_str());
}

// --- Delta fuzzing ----------------------------------------------------

/// A delta that extends sample_snapshot() (wal_seq 4) by one admission.
SnapshotDelta sample_delta() {
    SnapshotDelta delta;
    delta.config_digest = 0x1122334455667788ULL;
    delta.generation = 5;
    delta.parent = 4;
    delta.metrics = {7, 3, 4, 1, 21.0, 2.25};
    delta.covered_watermark = 9;
    delta.covered_sparse = {11};
    delta.admitted = {{7, 107, 3.5, {{1, 2}}}};
    delta.cells = {{0, 2, 1.5, 2.0}, {1, 0, 0.75, 4.0}, {1, 1, 0.5, 2.0}};
    return delta;
}

/// Re-seals the trailer CRC after a deliberate edit, so only the edited
/// field is at fault.
std::string reseal(std::string bytes) {
    WireWriter crc;
    crc.put_u32(crc32(std::string_view(bytes).substr(0, bytes.size() - 4)));
    bytes.replace(bytes.size() - 4, 4, crc.bytes());
    return bytes;
}

TEST(DeltaFuzz, RoundTripIsExactAndPatchesTheBase) {
    const SnapshotDelta delta = sample_delta();
    const std::string bytes = encode_delta(delta);
    const SnapshotDelta back = decode_delta(bytes, "roundtrip");
    EXPECT_EQ(encode_delta(back), bytes);

    ControllerSnapshot snap = sample_snapshot();
    apply_delta(snap, back, "roundtrip");
    EXPECT_EQ(snap.wal_seq, 5u);
    EXPECT_EQ(snap.metrics.processed, 7u);
    EXPECT_EQ(snap.lambda[0][2], 1.5);
    EXPECT_EQ(snap.lambda[1][0], 0.75);
    EXPECT_EQ(snap.usage[1 * 3 + 1], 2.0);
    EXPECT_EQ(snap.usage[0], 1.0);  // untouched cell
    ASSERT_EQ(snap.admitted.size(), 3u);
    EXPECT_EQ(snap.admitted[2].request_id, 107);
    EXPECT_EQ(snap.covered_sparse, std::vector<std::uint64_t>{11});
    // The patched image is a valid base in its own right.
    EXPECT_NO_THROW((void)decode_snapshot(encode_snapshot(snap), "patched"));
}

TEST(DeltaFuzz, EveryTruncationLengthIsRejected) {
    const std::string bytes = encode_delta(sample_delta());
    for (std::size_t len = 0; len < bytes.size(); ++len) {
        EXPECT_THROW((void)decode_delta(bytes.substr(0, len), "truncated"),
                     CorruptStateError)
            << "prefix of " << len << " bytes parsed as valid";
    }
}

TEST(DeltaFuzz, EverySingleByteFlipIsRejected) {
    const std::string bytes = encode_delta(sample_delta());
    for (std::size_t pos = 0; pos < bytes.size(); ++pos) {
        std::string mutated = bytes;
        mutated[pos] = static_cast<char>(mutated[pos] ^ 0x40);
        EXPECT_THROW((void)decode_delta(mutated, "flipped"), CorruptStateError)
            << "flip at byte " << pos << " parsed as valid";
    }
}

TEST(DeltaFuzz, BaseAndDeltaAreNotInterchangeable) {
    EXPECT_THROW((void)decode_delta(encode_snapshot(sample_snapshot()), "base as delta"),
                 CorruptStateError);
    EXPECT_THROW((void)decode_snapshot(encode_delta(sample_delta()), "delta as base"),
                 CorruptStateError);
    std::string future = encode_delta(sample_delta());
    future[8] = static_cast<char>(kDeltaVersion + 1);  // u32 after the magic
    try {
        (void)decode_delta(reseal(future), "versioned");
        FAIL() << "expected CorruptStateError";
    } catch (const CorruptStateError& e) {
        EXPECT_EQ(e.offset(), 8u);
    }
}

TEST(DeltaFuzz, SemanticLiesAreRejectedEvenWithValidCrc) {
    const auto decode_rejects = [](const SnapshotDelta& lie, const char* what) {
        EXPECT_THROW((void)decode_delta(encode_delta(lie), what), CorruptStateError)
            << what;
    };
    SnapshotDelta delta = sample_delta();
    delta.metrics.processed = 99;
    decode_rejects(delta, "lying counters");
    delta = sample_delta();
    delta.generation = 7;  // must be parent + 1
    decode_rejects(delta, "skipped generation");
    delta = sample_delta();
    delta.cells[1].lambda = -1.0;
    decode_rejects(delta, "negative dual");
    delta = sample_delta();
    delta.cells[2].usage = std::numeric_limits<double>::infinity();
    decode_rejects(delta, "infinite usage");
    delta = sample_delta();
    std::swap(delta.cells[0], delta.cells[1]);
    decode_rejects(delta, "unordered cells");
    delta = sample_delta();
    delta.cells.push_back(delta.cells.back());
    decode_rejects(delta, "duplicate cell");
    delta = sample_delta();
    delta.covered_sparse = {9};  // at the watermark
    decode_rejects(delta, "sparse at watermark");
    delta = sample_delta();
    delta.admitted[0].sites[0].second = 0;
    decode_rejects(delta, "zero replicas");
    delta = sample_delta();
    delta.metrics = {1, 0, 1, 0, 0.0, 0.0};
    decode_rejects(delta, "more records than the counter");

    // Lies only the base can expose.
    const auto apply_rejects = [](const SnapshotDelta& lie, const char* what) {
        ControllerSnapshot snap = sample_snapshot();
        const SnapshotDelta parsed = decode_delta(encode_delta(lie), what);
        EXPECT_THROW(apply_delta(snap, parsed, what), CorruptStateError) << what;
    };
    delta = sample_delta();
    delta.parent = 5;
    delta.generation = 6;
    apply_rejects(delta, "wrong parent");
    delta = sample_delta();
    delta.config_digest ^= 1;
    apply_rejects(delta, "other instance");
    delta = sample_delta();
    delta.cells.push_back({1, 3, 0.0, 0.0});  // slot == horizon
    apply_rejects(delta, "cell outside the table");
    delta = sample_delta();
    delta.admitted[0].sites[0].first = 2;  // cloudlet == cloudlets
    apply_rejects(delta, "site outside the network");
    delta = sample_delta();
    delta.metrics = {8, 4, 4, 1, 21.0, 2.25};  // counter says 4, ledger holds 3
    apply_rejects(delta, "ledger disagrees with counter");
    delta = sample_delta();
    delta.metrics = {4, 3, 1, 1, 21.0, 2.25};  // processed 5 -> 4
    delta.admitted.clear();
    delta.metrics.admitted = 2;
    delta.metrics.rejected = 2;
    apply_rejects(delta, "counters go backwards");
}

/// Writes sample_snapshot() as the base of `dir` plus deltas 5 and 6.
std::string chain_dir(const std::string& name) {
    const std::string dir = vnfr::testing::fresh_dir(name);
    atomic_write_file(dir + "/snapshot.bin", encode_snapshot(sample_snapshot()));
    SnapshotDelta five = sample_delta();
    atomic_write_file(delta_path(dir, 5), encode_delta(five));
    SnapshotDelta six = sample_delta();
    six.parent = 5;
    six.generation = 6;
    six.metrics = {8, 3, 5, 1, 21.0, 2.25};
    six.covered_watermark = 10;
    six.admitted.clear();
    six.cells = {{0, 0, 3.0, 0.0}};
    atomic_write_file(delta_path(dir, 6), encode_delta(six));
    return dir;
}

TEST(DeltaChain, LoadsBasePlusChainInOrder) {
    const std::string dir = chain_dir("delta_chain_ok");
    const LoadedChain chain = load_chain(posix_vfs(), dir, list_delta_generations(posix_vfs(), dir));
    EXPECT_EQ(chain.base_generation, 4u);
    EXPECT_EQ(chain.chain_length, 2u);
    EXPECT_EQ(chain.state.wal_seq, 6u);
    EXPECT_EQ(chain.state.metrics.processed, 8u);
    EXPECT_EQ(chain.state.lambda[0][0], 3.0);  // the later delta wins
    EXPECT_EQ(chain.state.lambda[0][2], 1.5);
}

TEST(DeltaChain, GapIsCorruption) {
    const std::string dir = chain_dir("delta_chain_gap");
    std::filesystem::remove(delta_path(dir, 5));
    EXPECT_THROW((void)load_chain(posix_vfs(), dir, list_delta_generations(posix_vfs(), dir)),
                 CorruptStateError);
}

TEST(DeltaChain, WrongParentOrMisnamedDeltaIsCorruption) {
    const std::string dir = chain_dir("delta_chain_parent");
    // Delta 6 filed as 7 leaves generation 6 missing...
    std::filesystem::rename(delta_path(dir, 6), delta_path(dir, 7));
    EXPECT_THROW((void)load_chain(posix_vfs(), dir, list_delta_generations(posix_vfs(), dir)),
                 CorruptStateError);
    // ...and delta 5's bytes filed as 6 extend generation 4, not 5.
    std::filesystem::remove(delta_path(dir, 7));
    std::filesystem::copy_file(delta_path(dir, 5), delta_path(dir, 6));
    EXPECT_THROW((void)load_chain(posix_vfs(), dir, list_delta_generations(posix_vfs(), dir)),
                 CorruptStateError);
}

TEST(DeltaChain, DeltasAtOrBelowTheBaseAreStale) {
    const std::string dir = chain_dir("delta_chain_stale");
    // A crash after publishing a base at generation 6 but before the old
    // chain was unlinked: 5 and 6 are folded into the base already.
    ControllerSnapshot folded =
        load_chain(posix_vfs(), dir, list_delta_generations(posix_vfs(), dir)).state;
    atomic_write_file(dir + "/snapshot.bin", encode_snapshot(folded));
    const LoadedChain chain =
        load_chain(posix_vfs(), dir, list_delta_generations(posix_vfs(), dir));
    EXPECT_EQ(chain.base_generation, 6u);
    EXPECT_EQ(chain.chain_length, 0u);  // 5 and 6 are skipped, not re-applied
    EXPECT_EQ(encode_snapshot(chain.state), encode_snapshot(folded));
}

// --- WAL fuzzing ------------------------------------------------------

TEST(WalFuzz, CleanFileReadsBackInBothModes) {
    const std::string path = temp_path("walfuzz_clean.log");
    build_wal_bytes(path, 5);
    for (WalReadMode mode : {WalReadMode::kStrict, WalReadMode::kRecover}) {
        const WalContents c = read_wal(path, mode);
        EXPECT_EQ(c.wal_seq, 7u);
        EXPECT_EQ(c.config_digest, 0xABCDEF01ULL);
        ASSERT_EQ(c.records.size(), 5u);
        EXPECT_EQ(c.bytes_discarded, 0u);
        EXPECT_EQ(c.records[2].kind, WalRecordKind::kShed);
        EXPECT_EQ(c.records[0].sites.size(), 1u);
        EXPECT_EQ(c.records[1].reject_reason, core::RejectReason::kPricedOut);
    }
    std::remove(path.c_str());
}

TEST(WalFuzz, ZeroLengthWalIsAlwaysCorruption) {
    // The header is created atomically, so an empty WAL can only mean
    // tampering — both modes must refuse it.
    const std::string path = temp_path("walfuzz_empty.log");
    atomic_write_file(path, "");
    EXPECT_THROW((void)read_wal(path, WalReadMode::kStrict), CorruptStateError);
    EXPECT_THROW((void)read_wal(path, WalReadMode::kRecover), CorruptStateError);
    std::remove(path.c_str());
}

TEST(WalFuzz, HeaderTruncationsAreCorruptionInBothModes) {
    const std::string path = temp_path("walfuzz_hdr.log");
    const std::string bytes = build_wal_bytes(path, 2);
    for (std::size_t len = 0; len < 32; ++len) {
        atomic_write_file(path, std::string_view(bytes).substr(0, len));
        EXPECT_THROW((void)read_wal(path, WalReadMode::kStrict), CorruptStateError)
            << "header prefix " << len;
        EXPECT_THROW((void)read_wal(path, WalReadMode::kRecover), CorruptStateError)
            << "header prefix " << len;
    }
    std::remove(path.c_str());
}

TEST(WalFuzz, EveryBodyTruncationRecoversAsTornTail) {
    const std::string path = temp_path("walfuzz_torn.log");
    const std::string bytes = build_wal_bytes(path, 4);
    const WalContents whole = read_wal(path, WalReadMode::kStrict);
    ASSERT_EQ(whole.records.size(), 4u);
    // Offsets of each record's start, plus end-of-file.
    std::vector<std::uint64_t> starts;
    for (const WalRecord& r : whole.records) starts.push_back(r.file_offset);
    starts.push_back(bytes.size());

    for (std::size_t len = 32; len < bytes.size(); ++len) {
        atomic_write_file(path, std::string_view(bytes).substr(0, len));
        // Strict mode refuses any truncation mid-record.
        std::size_t intact = 0;
        while (intact + 1 < starts.size() && starts[intact + 1] <= len) ++intact;
        const bool on_boundary = (starts[intact] == len);
        if (!on_boundary) {
            EXPECT_THROW((void)read_wal(path, WalReadMode::kStrict),
                         CorruptStateError)
                << "strict accepted truncation at " << len;
        }
        // Recover mode drops exactly the torn tail and keeps every
        // record whose frame fully fits.
        const WalContents c = read_wal(path, WalReadMode::kRecover);
        EXPECT_EQ(c.records.size(), intact) << "truncation at " << len;
        EXPECT_EQ(c.valid_size, starts[intact]) << "truncation at " << len;
        EXPECT_EQ(c.bytes_discarded, len - starts[intact]);
    }
    std::remove(path.c_str());
}

TEST(WalFuzz, FlippedCrcByteOnFinalRecordIsTornNotFatal) {
    const std::string path = temp_path("walfuzz_crc_tail.log");
    std::string bytes = build_wal_bytes(path, 3);
    bytes.back() = static_cast<char>(bytes.back() ^ 0x01);
    atomic_write_file(path, bytes);
    EXPECT_THROW((void)read_wal(path, WalReadMode::kStrict), CorruptStateError);
    const WalContents c = read_wal(path, WalReadMode::kRecover);
    EXPECT_EQ(c.records.size(), 2u);  // final record dropped as torn
    EXPECT_GT(c.bytes_discarded, 0u);
    std::remove(path.c_str());
}

TEST(WalFuzz, FlippedByteInInteriorRecordIsFatalInBothModes) {
    const std::string path = temp_path("walfuzz_crc_mid.log");
    std::string bytes = build_wal_bytes(path, 3);
    const WalContents whole = read_wal(path, WalReadMode::kStrict);
    // Corrupt a payload byte of the FIRST record: damage before the tail
    // is real corruption, not a crash artifact.
    const std::size_t pos = static_cast<std::size_t>(whole.records[0].file_offset) + 6;
    bytes[pos] = static_cast<char>(bytes[pos] ^ 0x80);
    atomic_write_file(path, bytes);
    for (WalReadMode mode : {WalReadMode::kStrict, WalReadMode::kRecover}) {
        try {
            (void)read_wal(path, mode);
            FAIL() << "expected CorruptStateError";
        } catch (const CorruptStateError& e) {
            EXPECT_EQ(e.file(), path);
            EXPECT_GE(e.offset(), whole.records[0].file_offset);
            EXPECT_LT(e.offset(), whole.records[1].file_offset);
        }
    }
    std::remove(path.c_str());
}

TEST(WalFuzz, MixedVersionHeaderIsRejected) {
    const std::string path = temp_path("walfuzz_ver.log");
    std::string bytes = build_wal_bytes(path, 1);
    bytes[8] = static_cast<char>(kWalVersion + 9);
    // Re-seal the header CRC so version alone is at fault.
    WireWriter crc;
    crc.put_u32(crc32(std::string_view(bytes).substr(0, 28)));
    bytes.replace(28, 4, crc.bytes());
    atomic_write_file(path, bytes);
    try {
        (void)read_wal(path, WalReadMode::kRecover);
        FAIL() << "expected CorruptStateError";
    } catch (const CorruptStateError& e) {
        EXPECT_EQ(e.offset(), 8u);
        EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
    }
    std::remove(path.c_str());
}

TEST(WalFuzz, BadMagicIsRejectedAtOffsetZero) {
    const std::string path = temp_path("walfuzz_magic.log");
    std::string bytes = build_wal_bytes(path, 1);
    bytes[0] = 'X';
    atomic_write_file(path, bytes);
    try {
        (void)read_wal(path, WalReadMode::kRecover);
        FAIL() << "expected CorruptStateError";
    } catch (const CorruptStateError& e) {
        EXPECT_EQ(e.offset(), 0u);
    }
    std::remove(path.c_str());
}

TEST(WalFuzz, OversizedLengthPrefixIsRejected) {
    const std::string path = temp_path("walfuzz_len.log");
    std::string bytes = build_wal_bytes(path, 0);
    // Claim a ludicrous record length; must be rejected without trying
    // to allocate or read that much.
    WireWriter w;
    w.put_u32(0x7FFFFFFFU);
    bytes += w.bytes();
    bytes += std::string(64, 'q');
    atomic_write_file(path, bytes);
    EXPECT_THROW((void)read_wal(path, WalReadMode::kStrict), CorruptStateError);
    std::remove(path.c_str());
}

TEST(WalFuzz, RandomAppendedGarbageNeverCrashes) {
    std::mt19937_64 rng(987654321);
    std::uniform_int_distribution<int> byte(0, 255);
    std::uniform_int_distribution<std::size_t> length(1, 96);
    const std::string path = temp_path("walfuzz_tailjunk.log");
    const std::string clean = build_wal_bytes(path, 2);
    for (int trial = 0; trial < 100; ++trial) {
        std::string junk(length(rng), '\0');
        for (char& c : junk) c = static_cast<char>(byte(rng));
        atomic_write_file(path, clean + junk);
        // Recover mode must either parse the clean prefix (dropping the
        // junk as a torn tail) or reject with a typed error — never UB.
        try {
            const WalContents c = read_wal(path, WalReadMode::kRecover);
            EXPECT_GE(c.records.size(), 2u);
            EXPECT_LE(c.valid_size, clean.size() + junk.size());
        } catch (const CorruptStateError&) {
            // Acceptable: junk that forms an interior-looking anomaly.
        }
    }
    std::remove(path.c_str());
}

TEST(WalFuzz, AppendToTruncatesTornTailAndContinues) {
    const std::string path = temp_path("walfuzz_appendto.log");
    const std::string bytes = build_wal_bytes(path, 3);
    // Tear the last record in half.
    const WalContents whole = read_wal(path, WalReadMode::kStrict);
    const std::uint64_t keep =
        whole.records[2].file_offset + 5;  // mid final record
    atomic_write_file(path, std::string_view(bytes).substr(0, keep));

    const WalContents torn = read_wal(path, WalReadMode::kRecover);
    ASSERT_EQ(torn.records.size(), 2u);
    WalWriter w = WalWriter::append_to(path, torn.valid_size);
    WalRecord rec;
    rec.kind = WalRecordKind::kShed;
    rec.seq = 42;
    rec.request = sample_request(42);
    w.append(rec);
    w.close();

    const WalContents healed = read_wal(path, WalReadMode::kStrict);
    ASSERT_EQ(healed.records.size(), 3u);
    EXPECT_EQ(healed.records[2].seq, 42u);
    std::remove(path.c_str());
}

}  // namespace
}  // namespace vnfr::serve
