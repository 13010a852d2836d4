// Primary/standby replication: ship-frame wire format, transport fault
// injection, WAL shipping across rotation, standby tailing and resync,
// promotion from the primary's disk tail, and the failover chaos gate.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <thread>

#include "helpers.hpp"
#include "serve/admission_controller.hpp"
#include "serve/fault_study.hpp"
#include "serve/replication/failover.hpp"
#include "serve/replication/ship_transport.hpp"
#include "serve/replication/standby.hpp"
#include "serve/replication/wal_shipper.hpp"
#include "serve/wire.hpp"

namespace vnfr::serve::replication {
namespace {

using vnfr::testing::fresh_dir;
using vnfr::testing::tight_instance;

ServeConfig primary_config(const std::string& dir) {
    ServeConfig cfg;
    cfg.data_dir = dir;
    cfg.checkpoint_every = 8;
    cfg.queue_capacity = 4;
    cfg.retain_wals = true;
    return cfg;
}

ServeConfig standby_config(const std::string& dir) {
    ServeConfig cfg;
    cfg.data_dir = dir;
    cfg.checkpoint_every = 8;
    cfg.queue_capacity = 4;
    return cfg;
}

/// Drives requests [0, n) with a drain every `drain_every` submits and a
/// replication beat after every step when `shipper`/`standby` are given.
void drive_replicated(AdmissionController& primary,
                      const std::vector<workload::Request>& requests,
                      std::size_t drain_every, WalShipper* shipper,
                      StandbyController* standby) {
    for (std::size_t i = 0; i < requests.size(); ++i) {
        primary.submit(i, requests[i]);
        if ((i + 1) % drain_every == 0) primary.drain();
        if (shipper != nullptr) shipper->pump();
        if (standby != nullptr) standby->poll();
    }
    primary.drain();
    if (shipper != nullptr) shipper->pump();
    if (standby != nullptr) standby->poll();
}

void settle(WalShipper& shipper, StandbyController& standby,
            ShipTransport& transport, int rounds = 10000) {
    for (int i = 0; i < rounds; ++i) {
        const std::size_t sent = shipper.pump();
        const std::size_t got = standby.poll();
        if (sent == 0 && got == 0 && transport.in_flight() == 0) return;
    }
    FAIL() << "replication link failed to settle";
}

TEST(ShipFrame, RoundTripsRecordsAndRotate) {
    ShipFrame frame;
    frame.kind = ShipFrameKind::kRecords;
    frame.generation = 7;
    frame.start_offset = 1234;
    frame.record_count = 3;
    frame.payload = "framed-record-bytes";
    const ShipFrame back = decode_ship_frame(encode_ship_frame(frame));
    EXPECT_EQ(back.kind, ShipFrameKind::kRecords);
    EXPECT_EQ(back.generation, 7u);
    EXPECT_EQ(back.start_offset, 1234u);
    EXPECT_EQ(back.record_count, 3u);
    EXPECT_EQ(back.payload, "framed-record-bytes");

    ShipFrame rotate;
    rotate.kind = ShipFrameKind::kRotate;
    rotate.generation = 2;
    rotate.start_offset = 4096;
    const ShipFrame rback = decode_ship_frame(encode_ship_frame(rotate));
    EXPECT_EQ(rback.kind, ShipFrameKind::kRotate);
    EXPECT_EQ(rback.start_offset, 4096u);
}

TEST(ShipFrame, DetectsMangling) {
    ShipFrame frame;
    frame.payload = "payload-bytes";
    std::string bytes = encode_ship_frame(frame);
    // Flip a payload byte: the frame CRC must catch it.
    std::string flipped = bytes;
    flipped[10] = static_cast<char>(flipped[10] ^ 0x40);
    EXPECT_THROW((void)decode_ship_frame(flipped), CorruptStateError);
    // Truncate the tail: short buffer, CRC gone.
    EXPECT_THROW((void)decode_ship_frame(std::string_view(bytes).substr(
                     0, bytes.size() - 5)),
                 CorruptStateError);
    EXPECT_THROW((void)decode_ship_frame(std::string_view("ab")),
                 CorruptStateError);
}

TEST(ShipTransport, BoundedChannelBackpressures) {
    ShipTransport transport(2);
    ShipFrame frame;
    frame.payload = "x";
    EXPECT_TRUE(transport.try_send(frame));
    EXPECT_TRUE(transport.try_send(frame));
    EXPECT_FALSE(transport.try_send(frame));  // full
    EXPECT_EQ(transport.stats().sends_rejected_full, 1u);
    EXPECT_TRUE(transport.try_recv().has_value());
    EXPECT_TRUE(transport.try_send(frame));  // slot freed
}

TEST(ShipTransport, FaultPlanDropsAndReorders) {
    ShipTransport transport(64);
    TransportFaultPlan plan;
    plan.seed = 42;
    plan.drop = 0.25;
    plan.truncate = 0.25;
    plan.duplicate = 0.25;
    plan.reorder = 0.25;
    transport.set_fault_plan(plan);
    ShipFrame frame;
    frame.payload = "some-frame-payload";
    for (int i = 0; i < 40; ++i) (void)transport.try_send(frame);
    // Drain everything (including a possible held-back reorder frame).
    std::size_t received = 0;
    while (transport.try_recv().has_value()) ++received;
    const TransportStats stats = transport.stats();
    EXPECT_GT(stats.frames_dropped, 0u);
    EXPECT_GT(stats.frames_truncated, 0u);
    EXPECT_GT(stats.frames_duplicated, 0u);
    EXPECT_GT(stats.frames_reordered, 0u);
    EXPECT_EQ(received, stats.frames_delivered);
    EXPECT_EQ(transport.in_flight(), 0u);
}

TEST(StandbyReplication, MirrorsPrimaryDigestOverCleanLink) {
    const core::Instance instance = tight_instance(60);
    const std::string pdir = fresh_dir("repl_clean_p");
    const std::string sdir = fresh_dir("repl_clean_s");
    ShipTransport transport(4);
    AdmissionController primary(instance, core::Scheme::kOnsite,
                                primary_config(pdir));
    StandbyController standby(instance, core::Scheme::kOnsite,
                              standby_config(sdir), transport);
    WalShipper shipper(primary, pdir, transport);
    drive_replicated(primary, instance.requests, 5, &shipper, &standby);
    settle(shipper, standby, transport);

    // Every durable record crossed: the standby's state is bit-identical.
    EXPECT_EQ(standby.controller().state_digest(), primary.state_digest());
    const WalPosition pos = primary.wal_position();
    const ShipAck mark = standby.watermark();
    EXPECT_EQ(mark.generation, pos.generation);
    EXPECT_EQ(mark.next_offset, pos.durable_bytes);
    EXPECT_FALSE(mark.resync);
    EXPECT_GT(standby.stats().rotates_applied, 0u);  // rotation was crossed
    EXPECT_GT(shipper.stats().generations_released, 0u);  // retention bounded
    // Released generations are really gone from the primary's directory.
    EXPECT_FALSE(file_exists(pdir + "/wal-0.log"));
}

TEST(StandbyReplication, ConvergesOverFaultyLink) {
    const core::Instance instance = tight_instance(60);
    const std::string pdir = fresh_dir("repl_faulty_p");
    const std::string sdir = fresh_dir("repl_faulty_s");
    ShipTransport transport(4);
    TransportFaultPlan plan;
    plan.seed = 7;
    plan.drop = 0.15;
    plan.truncate = 0.1;
    plan.duplicate = 0.1;
    plan.reorder = 0.1;
    transport.set_fault_plan(plan);
    AdmissionController primary(instance, core::Scheme::kOffsite,
                                primary_config(pdir));
    StandbyController standby(instance, core::Scheme::kOffsite,
                              standby_config(sdir), transport);
    WalShipper shipper(primary, pdir, transport);
    drive_replicated(primary, instance.requests, 5, &shipper, &standby);
    settle(shipper, standby, transport);

    EXPECT_EQ(standby.controller().state_digest(), primary.state_digest());
    const StandbyStats stats = standby.stats();
    // The adversarial paths actually ran, and every lost frame was healed
    // by a resync retransmit, not silently skipped.
    EXPECT_GT(stats.frames_corrupt + stats.frames_gap + stats.frames_stale, 0u);
    EXPECT_GT(shipper.stats().resync_rewinds, 0u);
    EXPECT_FALSE(standby.watermark().resync);
}

TEST(StandbyReplication, RoleEnforcement) {
    const core::Instance instance = tight_instance(4);
    const std::string pdir = fresh_dir("repl_role_p");
    const std::string sdir = fresh_dir("repl_role_s");
    ShipTransport transport(4);
    AdmissionController primary(instance, core::Scheme::kOnsite,
                                primary_config(pdir));
    StandbyController standby(instance, core::Scheme::kOnsite,
                              standby_config(sdir), transport);
    EXPECT_EQ(standby.controller().role(), ControllerRole::kStandby);
    EXPECT_THROW(standby.controller().submit(0, instance.requests[0]),
                 std::logic_error);
    EXPECT_THROW((void)standby.controller().drain(), std::logic_error);
    WalRecord rec;
    rec.kind = WalRecordKind::kShed;
    rec.seq = 0;
    rec.request = instance.requests[0];
    EXPECT_THROW((void)primary.apply_replicated(rec), std::logic_error);

    // Applying the same record twice: the covered set absorbs the second.
    EXPECT_TRUE(standby.controller().apply_replicated(rec));
    EXPECT_FALSE(standby.controller().apply_replicated(rec));

    standby.controller().checkpoint();
    standby.controller().mark_promoted();
    EXPECT_EQ(standby.controller().role(), ControllerRole::kPrimary);
    EXPECT_NO_THROW(standby.controller().submit(1, instance.requests[1]));
}

TEST(StandbyReplication, ReleasedGenerationIsTypedGapNotSilentSkip) {
    const core::Instance instance = tight_instance(40);
    const std::string pdir = fresh_dir("repl_gap_p");
    const std::string sdir = fresh_dir("repl_gap_s");
    ShipTransport transport(8);
    AdmissionController primary(instance, core::Scheme::kOnsite,
                                primary_config(pdir));
    StandbyController standby(instance, core::Scheme::kOnsite,
                              standby_config(sdir), transport);
    WalShipper shipper(primary, pdir, transport);
    // Rotate at least once before the shipper ever runs...
    drive_replicated(primary, instance.requests, 5, nullptr, nullptr);
    ASSERT_GT(primary.wal_position().generation, 0u);
    ASSERT_TRUE(file_exists(pdir + "/wal-0.log"));
    // ...then lose a retained generation the tailer still needs.
    ::unlink((pdir + "/wal-0.log").c_str());
    EXPECT_THROW((void)shipper.pump(), ReplicationGapError);

    // Promotion over the same hole must fail loudly too.
    FailoverCoordinator coordinator(pdir);
    EXPECT_THROW((void)coordinator.promote(standby), ReplicationGapError);
}

TEST(StandbyReplication, PromotionClosesStandbyLagFromDisk) {
    const core::Instance instance = tight_instance(60);
    const std::string pdir = fresh_dir("repl_lag_p");
    const std::string sdir = fresh_dir("repl_lag_s");
    // Baseline: uninterrupted single-node run.
    const std::string bdir = fresh_dir("repl_lag_b");
    std::uint64_t baseline_digest = 0;
    {
        AdmissionController baseline(instance, core::Scheme::kOnsite,
                                     standby_config(bdir));
        for (std::size_t i = 0; i < instance.requests.size(); ++i) {
            baseline.submit(i, instance.requests[i]);
            if ((i + 1) % 5 == 0) baseline.drain();
        }
        baseline.drain();
        baseline_digest = baseline.state_digest();
    }
    ShipTransport transport(4);
    AdmissionController primary(instance, core::Scheme::kOnsite,
                                primary_config(pdir));
    StandbyController standby(instance, core::Scheme::kOnsite,
                              standby_config(sdir), transport);
    WalShipper shipper(primary, pdir, transport);
    // Ship only the first half of the trace, then stop replicating: the
    // standby lags by everything the shipper never sent.
    for (std::size_t i = 0; i < instance.requests.size(); ++i) {
        primary.submit(i, instance.requests[i]);
        if ((i + 1) % 5 == 0) primary.drain();
        if (i < instance.requests.size() / 2) {
            shipper.pump();
            standby.poll();
        }
    }
    primary.drain();
    const std::uint64_t applied_before = standby.stats().records_applied;
    const std::uint64_t primary_digest = primary.state_digest();

    // "Kill" the primary (stop using it) and promote from its disk tail.
    FailoverCoordinator coordinator(pdir);
    const PromotionReport report = coordinator.promote(standby);
    EXPECT_GT(report.disk_records_applied, 0u);  // lag really was closed
    EXPECT_EQ(applied_before + report.disk_records_applied,
              standby.controller().metrics().processed +
                  standby.controller().metrics().shed);
    EXPECT_EQ(report.promoted_digest, primary_digest);
    EXPECT_EQ(report.promoted_digest, baseline_digest);
    EXPECT_EQ(standby.controller().role(), ControllerRole::kPrimary);
}

TEST(StandbyReplication, PromotedStandbysFirstCheckpointIsABase) {
    const core::Instance instance = tight_instance(60);
    const std::string pdir = fresh_dir("repl_base_p");
    const std::string sdir = fresh_dir("repl_base_s");
    ShipTransport transport(4);
    AdmissionController primary(instance, core::Scheme::kOnsite,
                                primary_config(pdir));
    StandbyController standby(instance, core::Scheme::kOnsite,
                              standby_config(sdir), transport);
    WalShipper shipper(primary, pdir, transport);
    for (std::size_t i = 0; i < instance.requests.size(); ++i) {
        primary.submit(i, instance.requests[i]);
        if ((i + 1) % 5 == 0) primary.drain();
        shipper.pump();
        standby.poll();
    }
    primary.drain();
    // The standby checkpointed on its own cadence, mostly with deltas.
    const StorageStats before = standby.controller().storage_stats();
    EXPECT_GE(before.base_checkpoints, 1u);
    EXPECT_GE(before.delta_checkpoints, 1u);

    const PromotionReport report = FailoverCoordinator(pdir).promote(standby);
    EXPECT_EQ(report.promoted_digest, primary.state_digest());
    const StorageStats promoted = standby.controller().storage_stats();
    standby.controller().checkpoint();
    const StorageStats after = standby.controller().storage_stats();
    EXPECT_EQ(after.base_checkpoints, promoted.base_checkpoints + 1);
    EXPECT_EQ(after.delta_checkpoints, promoted.delta_checkpoints);
    EXPECT_EQ(standby.controller().state_digest(), report.promoted_digest);
}

TEST(RecoveryStats, SurfacesTornTailBytes) {
    const core::Instance instance = tight_instance(30);
    const std::string dir = fresh_dir("repl_torn");
    ServeConfig cfg = standby_config(dir);
    cfg.checkpoint_every = 100;  // keep everything in one generation
    {
        AdmissionController controller(instance, core::Scheme::kOnsite, cfg);
        for (std::size_t i = 0; i < 12; ++i) {
            controller.submit(i, instance.requests[i]);
        }
        controller.drain();
    }
    // Tear a few bytes off the WAL tail, as a mid-append crash would.
    const std::string wal = dir + "/wal-0.log";
    ASSERT_TRUE(file_exists(wal));
    const std::uint64_t size = std::filesystem::file_size(wal);
    ASSERT_EQ(::truncate(wal.c_str(), static_cast<off_t>(size - 5)), 0);

    AdmissionController revived(instance, core::Scheme::kOnsite, cfg);
    const RecoveryStats stats = revived.recovery_stats();
    EXPECT_TRUE(stats.recovered_wal);
    // The cut landed inside the last record: recovery reports the whole
    // fragment (record bytes minus the 5 we removed) as discarded.
    EXPECT_GT(stats.torn_tail_bytes, 0u);
    EXPECT_EQ(stats.torn_tail_records, 1u);
    EXPECT_GT(stats.wal_records_replayed, 0u);
}

TEST(CheckpointCrash, BothRotationStagesAreRecoverable) {
    const core::Instance instance = tight_instance(40);
    for (const int stage : {1, 2}) {
        const std::string dir =
            fresh_dir("repl_ckpt_stage" + std::to_string(stage));
        ServeConfig cfg = standby_config(dir);
        cfg.retain_wals = true;
        std::uint64_t baseline_digest = 0;
        {
            const std::string bdir =
                fresh_dir("repl_ckpt_base" + std::to_string(stage));
            ServeConfig bcfg = standby_config(bdir);
            AdmissionController baseline(instance, core::Scheme::kOnsite, bcfg);
            for (std::size_t i = 0; i < instance.requests.size(); ++i) {
                baseline.submit(i, instance.requests[i]);
                if ((i + 1) % 5 == 0) baseline.drain();
            }
            baseline.drain();
            baseline_digest = baseline.state_digest();
        }
        std::size_t submitted = 0;
        bool crashed = false;
        {
            AdmissionController victim(instance, core::Scheme::kOnsite, cfg);
            victim.crash_at_checkpoint_stage(stage);
            try {
                for (std::size_t i = 0; i < instance.requests.size(); ++i) {
                    submitted = i;
                    victim.submit(i, instance.requests[i]);
                    submitted = i + 1;
                    if ((i + 1) % 5 == 0) victim.drain();
                }
                victim.drain();
            } catch (const CrashInjected&) {
                crashed = true;
            }
        }
        ASSERT_TRUE(crashed) << "stage " << stage;
        AdmissionController revived(instance, core::Scheme::kOnsite, cfg);
        for (std::uint64_t i = revived.resume_cursor(); i < submitted; ++i) {
            revived.submit(i, instance.requests[static_cast<std::size_t>(i)]);
        }
        revived.drain();
        for (std::size_t i = submitted; i < instance.requests.size(); ++i) {
            revived.submit(i, instance.requests[i]);
            if ((i + 1) % 5 == 0) revived.drain();
        }
        revived.drain();
        EXPECT_EQ(revived.state_digest(), baseline_digest) << "stage " << stage;
    }
}

TEST(RotationRace, TailerObservesGaplessStreamAcrossRotations) {
    // Interleave rotation-heavy primary progress with a lagging tailer at
    // several cadences: the standby must see every record exactly once
    // and in order (its applied count tracks the primary's outcomes).
    const core::Instance instance = tight_instance(60);
    for (const std::size_t cadence : {1UL, 3UL, 7UL}) {
        const std::string pdir =
            fresh_dir("repl_race_p" + std::to_string(cadence));
        const std::string sdir =
            fresh_dir("repl_race_s" + std::to_string(cadence));
        ShipTransport transport(4);
        ServeConfig pcfg = primary_config(pdir);
        pcfg.checkpoint_every = 4;  // rotate constantly
        AdmissionController primary(instance, core::Scheme::kOnsite, pcfg);
        StandbyController standby(instance, core::Scheme::kOnsite,
                                  standby_config(sdir), transport);
        WalShipper shipper(primary, pdir, transport);
        std::size_t steps = 0;
        for (std::size_t i = 0; i < instance.requests.size(); ++i) {
            primary.submit(i, instance.requests[i]);
            if ((i + 1) % 5 == 0) primary.drain();
            if (++steps % cadence == 0) {
                shipper.pump();
                standby.poll();
            }
        }
        primary.drain();
        settle(shipper, standby, transport);
        const ServeMetrics pm = primary.metrics();
        const ServeMetrics sm = standby.controller().metrics();
        EXPECT_EQ(sm.processed + sm.shed, pm.processed + pm.shed)
            << "cadence " << cadence;
        EXPECT_EQ(standby.controller().state_digest(), primary.state_digest())
            << "cadence " << cadence;
        EXPECT_GT(standby.stats().rotates_applied, 2u) << "cadence " << cadence;
        EXPECT_EQ(standby.stats().frames_gap, 0u) << "clean link has no gaps";
    }
}

TEST(RotationRace, ConcurrentTailerThreadStaysGapless) {
    // A real second thread tails the WAL while the primary decides and
    // rotates — the TSan job proves the locking, this gate proves the
    // stream: gapless, in-order, digest-identical at quiescence.
    const core::Instance instance = tight_instance(80);
    const std::string pdir = fresh_dir("repl_thread_p");
    const std::string sdir = fresh_dir("repl_thread_s");
    ShipTransport transport(8);
    ServeConfig pcfg = primary_config(pdir);
    pcfg.checkpoint_every = 4;
    AdmissionController primary(instance, core::Scheme::kOnsite, pcfg);
    StandbyController standby(instance, core::Scheme::kOnsite,
                              standby_config(sdir), transport);
    WalShipper shipper(primary, pdir, transport);
    std::atomic<bool> done{false};
    std::thread tailer([&] {
        while (!done.load(std::memory_order_acquire)) {
            shipper.pump();
            standby.poll();
        }
    });
    for (std::size_t i = 0; i < instance.requests.size(); ++i) {
        primary.submit(i, instance.requests[i]);
        if ((i + 1) % 5 == 0) primary.drain();
    }
    primary.drain();
    done.store(true, std::memory_order_release);
    tailer.join();
    settle(shipper, standby, transport);
    EXPECT_EQ(standby.controller().state_digest(), primary.state_digest());
    EXPECT_EQ(standby.stats().frames_gap, 0u);
    EXPECT_EQ(standby.stats().frames_corrupt, 0u);
}

TEST(FailoverChaos, GatePassesOnBothSchemesWithLag) {
    const core::Instance instance = tight_instance(60);
    for (const core::Scheme scheme :
         {core::Scheme::kOnsite, core::Scheme::kOffsite}) {
        for (const std::size_t lag : {1UL, 4UL}) {
            FaultStudyConfig cfg;
            cfg.scheme = scheme;
            cfg.master_seed = 0xFEEDBEEFull;
            cfg.promotions = 6;
            cfg.checkpoint_every = 8;
            cfg.queue_capacity = 4;
            cfg.group_commit = 2;
            cfg.ship_every = lag;
            cfg.work_dir = fresh_dir(
                "failover_chaos_" +
                std::to_string(static_cast<int>(scheme)) + "_" +
                std::to_string(lag));
            const FaultStudyResult result = run_fault_study(instance, cfg);
            EXPECT_TRUE(result.ok())
                << "scheme " << static_cast<int>(scheme) << " lag " << lag
                << ": failed " << result.failed_trials << "/"
                << result.trials.size();
            ASSERT_EQ(result.trials.size(), 6u);
            std::size_t rotation_kills = 0;
            std::size_t faulty = 0;
            std::uint64_t disk_records_applied = 0;
            for (const FaultTrial& trial : result.trials) {
                EXPECT_TRUE(trial.fired);
                EXPECT_TRUE(trial.gates.scrub_clean);
                if (trial.checkpoint_crash_stage != 0) ++rotation_kills;
                if (trial.faulty_transport) ++faulty;
                disk_records_applied += trial.disk_records_applied;
            }
            EXPECT_GT(rotation_kills, 0u);
            EXPECT_GT(faulty, 0u);
            EXPECT_GT(disk_records_applied, 0u)
                << "no trial exercised promotion catch-up";
            if (lag == 1) {
                EXPECT_GT(result.transport_totals.frames_dropped, 0u);
            }
        }
    }
}

TEST(FailoverChaos, DegradedPrimaryIsFailedOverLikeADeadOne) {
    const core::Instance instance = tight_instance(60);
    FaultStudyConfig cfg;
    cfg.scheme = core::Scheme::kOnsite;
    cfg.master_seed = 0xDE6FADEDull;
    cfg.promotions = 2;
    cfg.degraded_primaries = 4;
    cfg.checkpoint_every = 8;
    cfg.queue_capacity = 4;
    cfg.group_commit = 2;
    cfg.ship_every = 2;
    cfg.work_dir = fresh_dir("failover_degraded");
    const FaultStudyResult result = run_fault_study(instance, cfg);
    EXPECT_TRUE(result.ok()) << "failed " << result.failed_trials << "/"
                             << result.trials.size();
    ASSERT_EQ(result.trials.size(), 6u);  // 2 kill + 4 degraded-primary
    std::size_t degraded = 0;
    std::size_t faulty = 0;
    for (const FaultTrial& trial : result.trials) {
        EXPECT_TRUE(trial.fired);
        EXPECT_TRUE(trial.ok());
        if (trial.source == FaultSource::kDegradedPrimary && trial.fired) ++degraded;
        if (trial.faulty_transport) ++faulty;
    }
    // A primary whose disk filled mid-stream counts as dead: the standby
    // was promoted from the degraded primary's durable WAL prefix and
    // finished the trace bit-identically in every degraded trial.
    EXPECT_EQ(degraded, 4u);
    EXPECT_GT(faulty, 0u);  // degraded failover also ran over a lossy link
}

}  // namespace
}  // namespace vnfr::serve::replication
