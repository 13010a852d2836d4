// The experiment engine's headline guarantee: running the same experiment
// at 1, 2 and 8 threads yields bit-identical aggregated metrics, because
// replication k draws from the counter-based stream (base_seed, k) and the
// reduction folds replications in ascending k order regardless of which
// thread finished first.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <vector>

#include "core/onsite_primal_dual.hpp"
#include "helpers.hpp"
#include "sim/experiment.hpp"
#include "sim/recovery_study.hpp"
#include "sim/scenarios.hpp"

namespace vnfr::sim {
namespace {

const std::size_t kThreadCounts[] = {1, 2, 8};

core::Instance factory(common::Rng& rng) {
    return vnfr::testing::random_instance(rng, 30, 4, 10, 10, 20);
}

/// Exact equality of every aggregate of two RunningStats. EXPECT_EQ on
/// doubles is deliberate: "bit-identical" is the contract under test.
void expect_stats_identical(const common::RunningStats& a, const common::RunningStats& b) {
    EXPECT_EQ(a.count(), b.count());
    EXPECT_EQ(a.sum(), b.sum());
    EXPECT_EQ(a.mean(), b.mean());
    EXPECT_EQ(a.variance(), b.variance());
    EXPECT_EQ(a.min(), b.min());
    EXPECT_EQ(a.max(), b.max());
}

TEST(ParallelDeterminism, MetricsBitIdenticalAcrossThreadCounts) {
    ExperimentConfig cfg;
    cfg.algorithms = {Algorithm::kOnsitePrimalDual, Algorithm::kOnsiteGreedy,
                      Algorithm::kOffsitePrimalDual};
    cfg.seeds = 9;  // not a multiple of any pool size: uneven blocks
    cfg.base_seed = 0xd37e;

    cfg.threads = 1;
    const ExperimentOutcome serial = run_experiment(factory, cfg);

    for (const std::size_t threads : kThreadCounts) {
        cfg.threads = threads;
        const ExperimentOutcome parallel = run_experiment(factory, cfg);
        EXPECT_EQ(metrics_checksum(parallel), metrics_checksum(serial))
            << "threads=" << threads;
        ASSERT_EQ(parallel.per_algorithm.size(), serial.per_algorithm.size());
        for (std::size_t ai = 0; ai < serial.per_algorithm.size(); ++ai) {
            const AlgorithmOutcome& p = parallel.per_algorithm[ai];
            const AlgorithmOutcome& s = serial.per_algorithm[ai];
            expect_stats_identical(p.revenue, s.revenue);
            expect_stats_identical(p.acceptance, s.acceptance);
            expect_stats_identical(p.max_load_factor, s.max_load_factor);
            expect_stats_identical(p.admitted, s.admitted);
            expect_stats_identical(p.availability, s.availability);
        }
    }
}

TEST(ParallelDeterminism, OfflineBoundBitIdenticalAcrossThreadCounts) {
    ExperimentConfig cfg;
    cfg.algorithms = {Algorithm::kOnsitePrimalDual};
    cfg.seeds = 5;
    cfg.base_seed = 0x0ff1;
    cfg.compute_offline = true;
    cfg.offline_scheme = core::Scheme::kOnsite;
    cfg.offline.run_ilp = false;

    cfg.threads = 1;
    const ExperimentOutcome serial = run_experiment(factory, cfg);
    ASSERT_EQ(serial.offline_bound.count(), 5u);

    for (const std::size_t threads : kThreadCounts) {
        cfg.threads = threads;
        const ExperimentOutcome parallel = run_experiment(factory, cfg);
        expect_stats_identical(parallel.offline_bound, serial.offline_bound);
        EXPECT_EQ(metrics_checksum(parallel), metrics_checksum(serial));
    }
}

TEST(ParallelDeterminism, PaperEnvironmentSweepChecksumStable) {
    // The same scenario the parallel_experiments bench checksums, shrunk.
    ExperimentConfig cfg;
    cfg.algorithms = {Algorithm::kOnsitePrimalDual, Algorithm::kOnsiteGreedy};
    cfg.seeds = 4;
    cfg.base_seed = 0xf161a;
    const InstanceFactory paper = make_config_factory(golden_environment(60));

    cfg.threads = 1;
    const std::uint64_t serial = metrics_checksum(run_experiment(paper, cfg));
    for (const std::size_t threads : kThreadCounts) {
        cfg.threads = threads;
        EXPECT_EQ(metrics_checksum(run_experiment(paper, cfg)), serial)
            << "threads=" << threads;
    }
}

TEST(ParallelDeterminism, FailoverReplicationsBitIdenticalAcrossThreadCounts) {
    // Failover dynamics: Markov up/down schedules replayed with no recovery
    // policy (as in ablation_failover_dynamics).
    common::Rng rng = common::stream_rng(0xfa11, 0);
    const core::Instance inst = vnfr::testing::random_instance(rng, 40, 4, 12, 10, 20);
    core::OnsitePrimalDual scheduler(inst);
    const core::ScheduleResult result = core::run_online(inst, scheduler);

    RecoveryStudyConfig cfg;
    cfg.replications = 7;
    cfg.master_seed = 0xabcd;
    cfg.recovery.policy = RecoveryPolicy::kNone;
    cfg.injector = [](const core::Instance& i, const std::vector<core::Decision>& d,
                      std::uint64_t seed) {
        return generate_markov_schedule(i, d, MarkovFaultConfig{}, seed);
    };

    cfg.threads = 1;
    const RecoveryStudyOutcome serial = run_recovery_replications(inst, result.decisions, cfg);
    EXPECT_GT(serial.total.request_slots, 0u);
    EXPECT_GT(serial.total.outages, 0u);

    for (const std::size_t threads : kThreadCounts) {
        cfg.threads = threads;
        const RecoveryStudyOutcome parallel =
            run_recovery_replications(inst, result.decisions, cfg);
        EXPECT_EQ(parallel.total.request_slots, serial.total.request_slots);
        EXPECT_EQ(parallel.total.served_slots, serial.total.served_slots);
        EXPECT_EQ(parallel.total.disrupted_slots, serial.total.disrupted_slots);
        EXPECT_EQ(parallel.total.local_failovers, serial.total.local_failovers);
        EXPECT_EQ(parallel.total.remote_failovers, serial.total.remote_failovers);
        EXPECT_EQ(parallel.total.outages, serial.total.outages);
        expect_stats_identical(parallel.availability, serial.availability);
    }
}

TEST(ParallelDeterminism, RecoveryReplicationsChecksumInvariant) {
    // Acceptance criterion of the recovery orchestrator: the Monte-Carlo
    // metrics checksum is bit-identical at 1, 2 and 8 threads, for every
    // recovery policy.
    common::Rng rng = common::stream_rng(0x4ec0, 0);
    const core::Instance inst = vnfr::testing::random_instance(rng, 40, 4, 12, 10, 20);
    core::OnsitePrimalDual scheduler(inst);
    const core::ScheduleResult result = core::run_online(inst, scheduler);

    for (const RecoveryPolicy policy :
         {RecoveryPolicy::kNone, RecoveryPolicy::kLocalRespawn,
          RecoveryPolicy::kRemoteMigrate, RecoveryPolicy::kReadmit}) {
        RecoveryStudyConfig cfg;
        cfg.replications = 7;  // uneven blocks for every pool size
        cfg.master_seed = 0xfeed;
        cfg.recovery.policy = policy;

        cfg.threads = 1;
        const RecoveryStudyOutcome serial =
            run_recovery_replications(inst, result.decisions, cfg);
        EXPECT_GT(serial.total.request_slots, 0u);
        EXPECT_EQ(serial.total.capacity_violations, 0u);

        for (const std::size_t threads : kThreadCounts) {
            cfg.threads = threads;
            const RecoveryStudyOutcome parallel =
                run_recovery_replications(inst, result.decisions, cfg);
            EXPECT_EQ(recovery_metrics_checksum(parallel),
                      recovery_metrics_checksum(serial))
                << to_string(policy) << " threads=" << threads;
            EXPECT_EQ(parallel.total.served_slots, serial.total.served_slots);
            EXPECT_EQ(parallel.total.shed_revenue, serial.total.shed_revenue);
            expect_stats_identical(parallel.availability, serial.availability);
            expect_stats_identical(parallel.delivered, serial.delivered);
            expect_stats_identical(parallel.time_to_recover, serial.time_to_recover);
        }
    }
}

TEST(ParallelDeterminism, StreamSeedIsAPureFunction) {
    EXPECT_EQ(common::stream_seed(42, 7), common::stream_seed(42, 7));
    EXPECT_NE(common::stream_seed(42, 7), common::stream_seed(42, 8));
    EXPECT_NE(common::stream_seed(42, 7), common::stream_seed(43, 7));
    // Streams must not degenerate to the legacy additive scheme, where
    // (seed, k) and (seed + 1, k - 1) collide.
    EXPECT_NE(common::stream_seed(42, 7), common::stream_seed(43, 6));
    EXPECT_NE(common::stream_seed(42, 7), 42u + 7u);

    // Nearby streams yield distinct seeds over a wide counter range.
    std::set<std::uint64_t> seen;
    for (std::uint64_t k = 0; k < 4096; ++k) seen.insert(common::stream_seed(1, k));
    EXPECT_EQ(seen.size(), 4096u);
}

TEST(ParallelDeterminism, StreamRngSequencesAreIndependentOfSiblingCount) {
    // Replication 3's sequence is the same whether 4 or 400 replications
    // exist — the counter-based property a split()-chain does not have.
    common::Rng a = common::stream_rng(99, 3);
    common::Rng b = common::stream_rng(99, 3);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

}  // namespace
}  // namespace vnfr::sim
