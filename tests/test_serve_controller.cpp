// Behavioral tests for the crash-safe AdmissionController: equivalence
// with the bare online scheduler, durable restart (WAL replay and
// snapshot), idempotent resubmission, and the overload guard's shedding
// policy.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <optional>
#include <set>
#include <vector>

#include "common/contracts.hpp"
#include "core/onsite_primal_dual.hpp"
#include "helpers.hpp"
#include "serve/admission_controller.hpp"
#include "serve/wal_scrubber.hpp"

namespace vnfr::serve {
namespace {

using vnfr::testing::fresh_dir;
using vnfr::testing::make_request;
using vnfr::testing::small_instance;

/// A deterministic stream: type-0 requests with varied windows and
/// payments, some priced to be rejected.
std::vector<workload::Request> sample_stream(std::size_t n, TimeSlot horizon) {
    std::vector<workload::Request> reqs;
    reqs.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        const auto id = static_cast<std::int64_t>(i);
        // Non-decreasing arrivals (Instance::validate requires it), windows
        // always inside the horizon.
        const TimeSlot arrival =
            static_cast<TimeSlot>((i * static_cast<std::size_t>(horizon - 3)) / n);
        const TimeSlot duration = 1 + static_cast<TimeSlot>(i % 3);
        const double payment = 1.0 + static_cast<double>((i * 7) % 13);
        reqs.push_back(make_request(id, 0, 0.90, arrival, duration, payment));
    }
    return reqs;
}

core::Instance controller_instance(std::size_t n_requests) {
    return small_instance({0.98, 0.97}, 6.0, 8, sample_stream(n_requests, 8));
}

ServeConfig config_for(const std::string& dir, std::size_t checkpoint_every = 64,
                       std::size_t queue_capacity = 256) {
    ServeConfig cfg;
    cfg.data_dir = dir;
    cfg.checkpoint_every = checkpoint_every;
    cfg.queue_capacity = queue_capacity;
    return cfg;
}

/// Submits the whole trace in order and drains after every submit.
void run_trace(AdmissionController& ctl, const std::vector<workload::Request>& reqs) {
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        ctl.submit(i, reqs[i]);
        ctl.drain();
    }
}

TEST(ServeController, MatchesBareSchedulerWhenNothingSheds) {
    const core::Instance inst = controller_instance(30);

    core::OnsitePrimalDual bare(inst);
    const core::ScheduleResult expected = core::run_online(inst, bare);

    AdmissionController ctl(inst, core::Scheme::kOnsite,
                            config_for(fresh_dir("serve_equiv"), 8));
    std::vector<ProcessedOutcome> outcomes;
    for (std::size_t i = 0; i < inst.requests.size(); ++i) {
        EXPECT_EQ(ctl.submit(i, inst.requests[i]), SubmitResult::kQueued);
        for (ProcessedOutcome& o : ctl.drain()) outcomes.push_back(std::move(o));
    }

    ASSERT_EQ(outcomes.size(), expected.decisions.size());
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        const core::Decision& got = outcomes[i].decision;
        const core::Decision& want = expected.decisions[i];
        EXPECT_EQ(got.admitted, want.admitted) << "request " << i;
        EXPECT_EQ(got.reject_reason, want.reject_reason) << "request " << i;
        if (want.admitted) {
            ASSERT_EQ(got.placement.sites.size(), want.placement.sites.size());
            for (std::size_t s = 0; s < want.placement.sites.size(); ++s) {
                EXPECT_EQ(got.placement.sites[s].cloudlet,
                          want.placement.sites[s].cloudlet);
                EXPECT_EQ(got.placement.sites[s].replicas,
                          want.placement.sites[s].replicas);
            }
        }
    }
    EXPECT_EQ(ctl.metrics().revenue, expected.revenue);  // bit-equal
    EXPECT_EQ(ctl.metrics().admitted, expected.admitted);
    EXPECT_EQ(ctl.metrics().shed, 0u);
}

TEST(ServeController, RestartFromWalReplayIsBitIdentical) {
    const core::Instance inst = controller_instance(20);
    const std::string dir = fresh_dir("serve_walreplay");

    // checkpoint_every larger than the trace: everything lives in wal-0.
    std::optional<AdmissionController> ctl(std::in_place, inst,
                                           core::Scheme::kOnsite,
                                           config_for(dir, 1000));
    run_trace(*ctl, inst.requests);
    const std::uint64_t digest = ctl->state_digest();
    const ServeMetrics metrics = ctl->metrics();
    EXPECT_EQ(ctl->wal_generation(), 0u);
    ctl.reset();  // "crash" without a checkpoint

    AdmissionController revived(inst, core::Scheme::kOnsite, config_for(dir, 1000));
    EXPECT_EQ(revived.state_digest(), digest);
    EXPECT_EQ(revived.metrics().processed, metrics.processed);
    EXPECT_EQ(revived.metrics().revenue, metrics.revenue);
    EXPECT_EQ(revived.admitted_records().size(), metrics.admitted);
    EXPECT_EQ(revived.resume_cursor(), inst.requests.size());
}

TEST(ServeController, RestartFromSnapshotIsBitIdentical) {
    const core::Instance inst = controller_instance(20);
    const std::string dir = fresh_dir("serve_snaprestart");

    std::optional<AdmissionController> ctl(std::in_place, inst,
                                           core::Scheme::kOnsite, config_for(dir));
    run_trace(*ctl, inst.requests);
    ctl->checkpoint();
    const std::uint64_t digest = ctl->state_digest();
    const std::uint64_t generation = ctl->wal_generation();
    EXPECT_GE(generation, 1u);
    ctl.reset();

    AdmissionController revived(inst, core::Scheme::kOnsite, config_for(dir));
    EXPECT_EQ(revived.state_digest(), digest);
    EXPECT_EQ(revived.wal_generation(), generation);
    EXPECT_EQ(revived.wal_records(), 0u);  // fresh generation after snapshot
}

TEST(ServeController, RecoveredControllerContinuesLikeUninterrupted) {
    const core::Instance inst = controller_instance(24);
    const std::string baseline_dir = fresh_dir("serve_cont_base");
    const std::string crash_dir = fresh_dir("serve_cont_crash");

    AdmissionController baseline(inst, core::Scheme::kOnsite,
                                 config_for(baseline_dir, 5));
    run_trace(baseline, inst.requests);

    // Crashed run: process half, drop the controller, revive, finish.
    std::optional<AdmissionController> ctl(std::in_place, inst,
                                           core::Scheme::kOnsite,
                                           config_for(crash_dir, 5));
    for (std::size_t i = 0; i < 12; ++i) {
        ctl->submit(i, inst.requests[i]);
        ctl->drain();
    }
    ctl.reset();
    AdmissionController revived(inst, core::Scheme::kOnsite, config_for(crash_dir, 5));
    for (std::size_t i = revived.resume_cursor(); i < inst.requests.size(); ++i) {
        revived.submit(i, inst.requests[i]);
        revived.drain();
    }

    EXPECT_EQ(revived.state_digest(), baseline.state_digest());
    EXPECT_EQ(revived.metrics().revenue, baseline.metrics().revenue);
}

TEST(ServeController, ResubmittingCoveredSeqsIsIdempotent) {
    const core::Instance inst = controller_instance(12);
    AdmissionController ctl(inst, core::Scheme::kOnsite,
                            config_for(fresh_dir("serve_idem")));
    run_trace(ctl, inst.requests);
    const std::uint64_t digest = ctl.state_digest();
    const ServeMetrics metrics = ctl.metrics();

    // A driver replaying its whole input after a crash must not change
    // anything: every seq is covered.
    for (std::size_t i = 0; i < inst.requests.size(); ++i) {
        EXPECT_EQ(ctl.submit(i, inst.requests[i]), SubmitResult::kAlreadyCovered);
    }
    ctl.drain();
    EXPECT_EQ(ctl.state_digest(), digest);
    EXPECT_EQ(ctl.metrics().processed, metrics.processed);
    EXPECT_EQ(ctl.metrics().admitted, metrics.admitted);
    EXPECT_EQ(ctl.admitted_records().size(), metrics.admitted);
}

TEST(ServeController, ShedsLowestPaymentQueuedRequest) {
    const core::Instance inst = controller_instance(0);
    AdmissionController ctl(inst, core::Scheme::kOnsite,
                            config_for(fresh_dir("serve_shed"), 64, 2));

    EXPECT_EQ(ctl.submit(0, make_request(0, 0, 0.9, 0, 1, 5.0)), SubmitResult::kQueued);
    EXPECT_EQ(ctl.submit(1, make_request(1, 0, 0.9, 0, 1, 1.0)), SubmitResult::kQueued);
    // Queue full; the cheapest of {5, 1, incoming 9} is queued seq 1.
    EXPECT_EQ(ctl.submit(2, make_request(2, 0, 0.9, 0, 1, 9.0)),
              SubmitResult::kShedQueued);
    EXPECT_EQ(ctl.metrics().shed, 1u);
    EXPECT_EQ(ctl.metrics().shed_revenue, 1.0);
    EXPECT_TRUE(ctl.is_covered(1));  // shed outcome is durable

    // Incoming is now the cheapest: it sheds itself.
    EXPECT_EQ(ctl.submit(3, make_request(3, 0, 0.9, 0, 1, 0.5)),
              SubmitResult::kShedIncoming);
    EXPECT_EQ(ctl.metrics().shed, 2u);
    EXPECT_EQ(ctl.metrics().shed_revenue, 1.5);

    ctl.drain();
    EXPECT_EQ(ctl.metrics().processed, 2u);  // seqs 0 and 2 decided
    EXPECT_EQ(ctl.submit(1, make_request(1, 0, 0.9, 0, 1, 1.0)),
              SubmitResult::kAlreadyCovered);
    EXPECT_EQ(ctl.resume_cursor(), 4u);
}

TEST(ServeController, PaymentTiePrefersKeepingTheOlderRequest) {
    const core::Instance inst = controller_instance(0);
    AdmissionController ctl(inst, core::Scheme::kOnsite,
                            config_for(fresh_dir("serve_tie"), 64, 1));
    EXPECT_EQ(ctl.submit(0, make_request(0, 0, 0.9, 0, 1, 5.0)), SubmitResult::kQueued);
    EXPECT_EQ(ctl.submit(1, make_request(1, 0, 0.9, 0, 1, 5.0)),
              SubmitResult::kShedIncoming);
    EXPECT_FALSE(ctl.is_covered(0));
    EXPECT_TRUE(ctl.is_covered(1));
}

TEST(ServeController, OutOfOrderUncoveredSubmitViolatesContract) {
    const core::Instance inst = controller_instance(0);
    AdmissionController ctl(inst, core::Scheme::kOnsite,
                            config_for(fresh_dir("serve_order")));
    EXPECT_EQ(ctl.submit(5, make_request(5, 0, 0.9, 0, 1, 2.0)), SubmitResult::kQueued);
    EXPECT_THROW(ctl.submit(3, make_request(3, 0, 0.9, 0, 1, 2.0)),
                 common::ContractViolation);
}

TEST(ServeController, RefusesStateFromADifferentScheme) {
    const core::Instance inst = controller_instance(8);
    const std::string dir = fresh_dir("serve_scheme_mix");
    {
        AdmissionController ctl(inst, core::Scheme::kOnsite, config_for(dir));
        run_trace(ctl, inst.requests);
        ctl.checkpoint();
    }
    EXPECT_THROW(AdmissionController(inst, core::Scheme::kOffsite, config_for(dir)),
                 CorruptStateError);
}

TEST(ServeController, RejectsInvalidConfig) {
    const core::Instance inst = controller_instance(0);
    ServeConfig no_dir;
    no_dir.data_dir = fresh_dir("serve_cfg") + "/does-not-exist";
    EXPECT_THROW(AdmissionController(inst, core::Scheme::kOnsite, no_dir),
                 std::invalid_argument);
    EXPECT_THROW(AdmissionController(inst, core::Scheme::kOnsite,
                                     config_for(fresh_dir("serve_cfg0"), 0)),
                 std::invalid_argument);
    EXPECT_THROW(AdmissionController(inst, core::Scheme::kOnsite,
                                     config_for(fresh_dir("serve_cfg1"), 64, 0)),
                 std::invalid_argument);
}

TEST(ServeController, CheckpointRotatesAndRemovesOldGenerations) {
    const core::Instance inst = controller_instance(20);
    const std::string dir = fresh_dir("serve_rotate");
    AdmissionController ctl(inst, core::Scheme::kOnsite, config_for(dir, 4));
    run_trace(ctl, inst.requests);
    EXPECT_GE(ctl.wal_generation(), 4u);  // 20 records at cadence 4
    // Exactly one WAL file remains: the current generation.
    std::size_t wal_files = 0;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
        const std::string name = entry.path().filename().string();
        if (name.starts_with("wal-")) {
            ++wal_files;
            EXPECT_EQ(name, "wal-" + std::to_string(ctl.wal_generation()) + ".log");
        }
    }
    EXPECT_EQ(wal_files, 1u);
    EXPECT_TRUE(std::filesystem::exists(std::filesystem::path(dir) / "snapshot.bin"));
}

TEST(ServeController, CrashInjectionFiresAfterExactlyNAppends) {
    const core::Instance inst = controller_instance(10);
    const std::string dir = fresh_dir("serve_crashhook");
    std::optional<AdmissionController> ctl(std::in_place, inst,
                                           core::Scheme::kOnsite,
                                           config_for(dir, 1000));
    ctl->crash_after_records(3);
    std::size_t submitted = 0;
    try {
        for (std::size_t i = 0; i < inst.requests.size(); ++i) {
            ctl->submit(i, inst.requests[i]);
            ++submitted;
            ctl->drain();
        }
        FAIL() << "expected CrashInjected";
    } catch (const CrashInjected&) {
        EXPECT_EQ(submitted, 3u);  // one WAL record per decided request here
    }
    ctl.reset();

    // The third record was durable before the "crash": recovery sees it.
    AdmissionController revived(inst, core::Scheme::kOnsite, config_for(dir, 1000));
    EXPECT_EQ(revived.metrics().processed, 3u);
    EXPECT_EQ(revived.resume_cursor(), 3u);
}

/// A long horizon makes the base large next to one checkpoint's delta,
/// so the chain grows for many checkpoints before it is folded.
core::Instance long_horizon_instance() {
    return small_instance({0.98, 0.97, 0.99}, 6.0, 64, sample_stream(90, 64));
}

TEST(ServeController, ReopenAtEveryChainLengthMatchesTheLiveDigest) {
    for (const core::Scheme scheme : {core::Scheme::kOnsite, core::Scheme::kOffsite}) {
        const core::Instance inst = long_horizon_instance();
        const std::string dir = fresh_dir("serve_chain_live");
        const std::string copy = fresh_dir("serve_chain_copy");
        AdmissionController ctl(inst, scheme, config_for(dir, 3));
        std::set<std::uint64_t> lengths;
        std::uint64_t generation = ctl.wal_generation();
        for (std::size_t i = 0; i < inst.requests.size(); ++i) {
            ctl.submit(i, inst.requests[i]);
            ctl.drain();
            if (ctl.wal_generation() == generation) continue;
            generation = ctl.wal_generation();
            // Reopen a copy of the directory right after each checkpoint:
            // base plus the chain so far, with an empty WAL tail.
            std::filesystem::remove_all(copy);
            std::filesystem::copy(dir, copy);
            const AdmissionController reopened(inst, scheme, config_for(copy, 3));
            EXPECT_EQ(reopened.state_digest(), ctl.state_digest())
                << "generation " << generation;
            EXPECT_EQ(reopened.recovery_stats().wal_records_replayed, 0u);
            lengths.insert(reopened.recovery_stats().deltas_applied);
        }
        const StorageStats stats = ctl.storage_stats();
        EXPECT_GE(stats.base_checkpoints, 2u) << "the chain was never folded";
        EXPECT_GT(stats.delta_checkpoints, stats.base_checkpoints);
        // Every chain length from 0 up to the longest was reopened.
        ASSERT_FALSE(lengths.empty());
        EXPECT_EQ(*lengths.begin(), 0u);
        EXPECT_GE(*lengths.rbegin(), 3u);
        EXPECT_EQ(lengths.size(), *lengths.rbegin() + 1);
        EXPECT_TRUE(scrub_data_dir(dir).clean());
    }
}

TEST(ServeController, FirstCheckpointAfterEveryOpenWritesABase) {
    const core::Instance inst = long_horizon_instance();
    const std::string dir = fresh_dir("serve_chain_open");
    std::optional<AdmissionController> ctl(std::in_place, inst, core::Scheme::kOnsite,
                                           config_for(dir, 1000));
    run_trace(*ctl, std::vector<workload::Request>(inst.requests.begin(),
                                                   inst.requests.begin() + 30));
    ctl->checkpoint();
    ctl->checkpoint();
    EXPECT_EQ(ctl->storage_stats().base_checkpoints, 1u);
    EXPECT_EQ(ctl->storage_stats().delta_checkpoints, 1u);
    const std::uint64_t digest = ctl->state_digest();
    ctl.reset();

    ctl.emplace(inst, core::Scheme::kOnsite, config_for(dir, 1000));
    EXPECT_EQ(ctl->recovery_stats().deltas_applied, 1u);
    EXPECT_EQ(ctl->state_digest(), digest);
    ctl->checkpoint();
    EXPECT_EQ(ctl->storage_stats().base_checkpoints, 1u);
    EXPECT_EQ(ctl->storage_stats().delta_checkpoints, 0u);
    EXPECT_GT(ctl->storage_stats().checkpoint_bytes, 0u);
    // The new base folded the old chain: nothing but the base is left.
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
        EXPECT_FALSE(entry.path().filename().string().starts_with("snapshot.bin."))
            << entry.path();
    }
}

TEST(ServeController, StaleDeltasAndTornDeltaTempsAreSwept) {
    const core::Instance inst = long_horizon_instance();
    const std::string dir = fresh_dir("serve_chain_sweep");
    std::uint64_t digest = 0;
    {
        AdmissionController ctl(inst, core::Scheme::kOnsite, config_for(dir, 1000));
        run_trace(ctl, std::vector<workload::Request>(inst.requests.begin(),
                                                      inst.requests.begin() + 20));
        ctl.checkpoint();  // base at generation 1
        ctl.checkpoint();  // delta 2
        digest = ctl.state_digest();
    }
    // Leftovers of two crash windows: a delta the base already holds (base
    // published, old chain not yet unlinked) and a torn delta temp file.
    const std::filesystem::path root(dir);
    std::filesystem::copy_file(root / "snapshot.bin.2", root / "snapshot.bin.1");
    { std::ofstream(root / "snapshot.bin.3.tmp") << "torn"; }
    AdmissionController reopened(inst, core::Scheme::kOnsite, config_for(dir, 1000));
    EXPECT_EQ(reopened.state_digest(), digest);
    EXPECT_EQ(reopened.recovery_stats().deltas_applied, 1u);
    EXPECT_FALSE(std::filesystem::exists(root / "snapshot.bin.1"));
    EXPECT_FALSE(std::filesystem::exists(root / "snapshot.bin.3.tmp"));
    EXPECT_TRUE(std::filesystem::exists(root / "snapshot.bin.2"));
}

TEST(ServeController, DeltaWithoutABaseIsCorruption) {
    const core::Instance inst = long_horizon_instance();
    const std::string dir = fresh_dir("serve_chain_nobase");
    {
        AdmissionController ctl(inst, core::Scheme::kOnsite, config_for(dir, 1000));
        run_trace(ctl, std::vector<workload::Request>(inst.requests.begin(),
                                                      inst.requests.begin() + 10));
        ctl.checkpoint();
        ctl.checkpoint();
    }
    std::filesystem::remove(std::filesystem::path(dir) / "snapshot.bin");
    EXPECT_THROW(AdmissionController(inst, core::Scheme::kOnsite, config_for(dir, 1000)),
                 CorruptStateError);
    EXPECT_FALSE(scrub_data_dir(dir).clean());
}

TEST(ServeController, StrayWalNamesAreIgnored) {
    const core::Instance inst = controller_instance(20);
    const std::string dir = fresh_dir("serve_stray_wal");
    // 2^64 + 1: used to throw std::out_of_range from the stale-WAL sweep
    // and to wrap to generation 1 in the scrubber.
    const std::vector<std::string> strays = {"wal-18446744073709551617.log",
                                             "wal-+1.log", "wal-.log", "wal-x1.log"};
    for (const std::string& name : strays) {
        std::ofstream(std::filesystem::path(dir) / name) << "not a WAL";
    }
    {
        AdmissionController ctl(inst, core::Scheme::kOnsite, config_for(dir, 4));
        run_trace(ctl, inst.requests);
        EXPECT_TRUE(scrub_data_dir(dir).clean());
    }
    AdmissionController reopened(inst, core::Scheme::kOnsite, config_for(dir, 4));
    EXPECT_EQ(reopened.metrics().processed, inst.requests.size());
    for (const std::string& name : strays) {
        EXPECT_TRUE(std::filesystem::exists(std::filesystem::path(dir) / name)) << name;
    }
    const ScrubReport report = scrub_data_dir(dir);
    EXPECT_TRUE(report.clean());
    EXPECT_EQ(report.generations_scanned, 1u);
}

}  // namespace
}  // namespace vnfr::serve
