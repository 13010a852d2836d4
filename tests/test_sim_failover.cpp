// Markov failure/repair dynamics: generate_markov_schedule() replayed
// through the recovery engine with no recovery policy.
#include <gtest/gtest.h>

#include <limits>

#include "common/contracts.hpp"
#include "core/offsite_primal_dual.hpp"
#include "core/onsite_primal_dual.hpp"
#include "helpers.hpp"
#include "sim/recovery_engine.hpp"
#include "sim/recovery_faults.hpp"
#include "sim/recovery_study.hpp"

namespace vnfr::sim {
namespace {

using vnfr::testing::make_request;
using vnfr::testing::random_instance;
using vnfr::testing::small_instance;

RecoveryReport replay(const core::Instance& inst,
                      const std::vector<core::Decision>& decisions,
                      const MarkovFaultConfig& cfg = {}, std::uint64_t seed = 0xfa11) {
    return run_recovery_study(inst, decisions,
                              generate_markov_schedule(inst, decisions, cfg, seed));
}

/// Down slots and outages of cloudlet 0 over the whole horizon.
struct CloudletDowntime {
    std::size_t down_slots{0};
    std::size_t outages{0};
};

CloudletDowntime cloudlet_downtime(const FaultSchedule& schedule) {
    CloudletDowntime d;
    for (const FaultEvent& e : schedule.events) {
        EXPECT_EQ(e.kind, FaultKind::kTransientBlip);
        d.down_slots += static_cast<std::size_t>(e.down_slots);
        ++d.outages;
    }
    return d;
}

TEST(AvailabilityProcess, RejectsBadMttr) {
    const auto inst = small_instance({0.99}, 10.0, 5, {});
    EXPECT_THROW(generate_markov_schedule(inst, {}, {0.5, 2.0}, 1),
                 common::ContractViolation);
    EXPECT_THROW(generate_markov_schedule(inst, {}, {2.0, 0.5}, 1),
                 common::ContractViolation);
}

TEST(AvailabilityProcess, StationaryUpFractionMatchesReliability) {
    // Long-run fraction of up-slots of the Markov chain must converge to
    // the configured reliability, independent of the repair time.
    const std::size_t slots = 200000;
    const auto inst = small_instance({0.9}, 10.0, static_cast<TimeSlot>(slots), {});
    for (const double mttr : {1.0, 3.0, 8.0}) {
        const CloudletDowntime d =
            cloudlet_downtime(generate_markov_schedule(inst, {}, {mttr, 2.0}, 7));
        EXPECT_NEAR(1.0 - static_cast<double>(d.down_slots) / static_cast<double>(slots),
                    0.9, 0.01)
            << "mttr=" << mttr;
    }
}

TEST(AvailabilityProcess, LongerMttrMeansLongerOutages) {
    const auto inst = small_instance({0.9}, 10.0, 200000, {});
    const auto mean_outage_length = [&](double mttr) {
        const CloudletDowntime d =
            cloudlet_downtime(generate_markov_schedule(inst, {}, {mttr, 2.0}, 11));
        return d.outages == 0
                   ? 0.0
                   : static_cast<double>(d.down_slots) / static_cast<double>(d.outages);
    };
    EXPECT_NEAR(mean_outage_length(2.0), 2.0, 0.3);
    EXPECT_NEAR(mean_outage_length(6.0), 6.0, 0.9);
}

TEST(AvailabilityProcess, ServingReplicaPrefersFirstSite) {
    // Site 0 (two replicas on cloudlet 0) serves whenever it can; a replica
    // outage hands over to its sibling (local), a cloudlet outage to site 1
    // (remote), and service returns to the first ready replica afterwards.
    const auto inst = small_instance({0.999, 0.999}, 10.0, 8,
                                     {make_request(0, 0, 0.9, 0, 8, 5.0)});
    core::Decision d;
    d.admitted = true;
    d.placement = core::Placement{
        RequestId{0}, {core::Site{CloudletId{0}, 2}, core::Site{CloudletId{1}, 1}}};
    FaultEvent replica_down;
    replica_down.slot = 1;
    replica_down.kind = FaultKind::kInstanceOutage;
    replica_down.cloudlet = CloudletId{0};
    replica_down.down_slots = 1;
    FaultEvent cloudlet_down;
    cloudlet_down.slot = 3;
    cloudlet_down.kind = FaultKind::kTransientBlip;
    cloudlet_down.cloudlet = CloudletId{0};
    cloudlet_down.down_slots = 2;
    FaultSchedule schedule;
    schedule.events = {replica_down, cloudlet_down};
    const RecoveryReport r = run_recovery_study(inst, {d}, schedule);
    EXPECT_EQ(r.served_slots, 8u);
    EXPECT_EQ(r.outages, 0u);
    EXPECT_EQ(r.local_failovers, 2u);   // slot 1 to replica 1, slot 2 back
    EXPECT_EQ(r.remote_failovers, 2u);  // slot 3 to site 1, slot 5 back
    EXPECT_EQ(r.instances_lost, 0u);
}

TEST(AvailabilityProcess, TrackValidatesPlacements) {
    const auto inst = small_instance({0.99}, 10.0, 5, {make_request(0, 0, 0.9, 0, 2, 5.0)});
    core::Decision d;
    d.admitted = true;
    d.placement = core::Placement{RequestId{0}, {core::Site{CloudletId{9}, 1}}};
    EXPECT_THROW(generate_markov_schedule(inst, {d}, {}, 3), std::invalid_argument);
    d.placement = core::Placement{RequestId{0}, {core::Site{CloudletId{0}, 0}}};
    EXPECT_THROW(generate_markov_schedule(inst, {d}, {}, 3), std::invalid_argument);
}

TEST(FailoverStudy, AccountingIsConsistent) {
    common::Rng rng(401);
    const core::Instance inst = random_instance(rng, 80, 4, 15, 20, 40);
    core::OffsitePrimalDual scheduler(inst);
    const core::ScheduleResult result = core::run_online(inst, scheduler);
    const RecoveryReport report = replay(inst, result.decisions);
    EXPECT_EQ(report.served_slots + report.disrupted_slots, report.request_slots);
    EXPECT_GT(report.request_slots, 0u);
    EXPECT_GE(report.availability(), 0.0);
    EXPECT_LE(report.availability(), 1.0);
    // Markov outages repair themselves: nothing is ever lost.
    EXPECT_EQ(report.instances_lost, 0u);
}

TEST(FailoverStudy, DeterministicBySeed) {
    common::Rng rng(403);
    const core::Instance inst = random_instance(rng, 60, 3, 12);
    core::OnsitePrimalDual scheduler(inst);
    const core::ScheduleResult result = core::run_online(inst, scheduler);
    const FaultSchedule a = generate_markov_schedule(inst, result.decisions, {}, 99);
    const FaultSchedule b = generate_markov_schedule(inst, result.decisions, {}, 99);
    ASSERT_EQ(a.events.size(), b.events.size());
    EXPECT_EQ(a.transient_blips + a.instance_outages, a.events.size());
    for (std::size_t i = 0; i < a.events.size(); ++i) {
        EXPECT_EQ(a.events[i].slot, b.events[i].slot);
        EXPECT_EQ(a.events[i].kind, b.events[i].kind);
        EXPECT_EQ(a.events[i].down_slots, b.events[i].down_slots);
        EXPECT_EQ(a.events[i].request_index, b.events[i].request_index);
    }
    const RecoveryReport ra = run_recovery_study(inst, result.decisions, a);
    const RecoveryReport rb = run_recovery_study(inst, result.decisions, b);
    EXPECT_EQ(ra.served_slots, rb.served_slots);
    EXPECT_EQ(ra.local_failovers, rb.local_failovers);
    EXPECT_EQ(ra.remote_failovers, rb.remote_failovers);
    EXPECT_EQ(ra.outages, rb.outages);
}

TEST(FailoverStudy, OnsitePlacementsNeverFailOverRemotely) {
    // Single-site placements have nowhere remote to go: all failovers are
    // local replica switches.
    common::Rng rng(405);
    const core::Instance inst = random_instance(rng, 100, 4, 15, 20, 40);
    core::OnsitePrimalDual scheduler(inst);
    const core::ScheduleResult result = core::run_online(inst, scheduler);
    const RecoveryReport report = replay(inst, result.decisions);
    EXPECT_EQ(report.remote_failovers, 0u);
    EXPECT_GT(report.local_failovers, 0u);
}

TEST(FailoverStudy, OffsiteSurvivesCloudletOutagesBetter) {
    // Same workload under both schemes with bursty cloudlet failures: the
    // off-site schedule must deliver at least as high availability (it is
    // the paper's core motivation for geographic redundancy).
    common::Rng rng(407);
    const core::Instance inst = random_instance(rng, 120, 4, 15, 30, 50);
    core::OnsitePrimalDual onsite(inst);
    core::OffsitePrimalDual offsite(inst);
    const core::ScheduleResult on_result = core::run_online(inst, onsite);
    const core::ScheduleResult off_result = core::run_online(inst, offsite);
    MarkovFaultConfig cfg;
    cfg.cloudlet_mttr_slots = 6.0;  // long cloudlet outages
    const RecoveryReport on_report = replay(inst, on_result.decisions, cfg);
    const RecoveryReport off_report = replay(inst, off_result.decisions, cfg);
    EXPECT_GT(off_report.availability(), on_report.availability() - 0.005);
    // And it does so by using remote failovers, which on-site cannot.
    EXPECT_GT(off_report.remote_failovers, 0u);
}

TEST(FailoverStudy, SizeMismatchThrows) {
    common::Rng rng(409);
    const core::Instance inst = random_instance(rng, 10, 2, 8);
    EXPECT_THROW(generate_markov_schedule(inst, {}, {}, 1), std::invalid_argument);
}

TEST(FailoverStudy, RejectsNonPositiveOrNonFiniteMttr) {
    common::Rng rng(411);
    const core::Instance inst = random_instance(rng, 10, 2, 8);
    core::OnsitePrimalDual scheduler(inst);
    const core::ScheduleResult result = core::run_online(inst, scheduler);
    for (const double bad :
         {0.0, -1.0, std::numeric_limits<double>::quiet_NaN(),
          std::numeric_limits<double>::infinity()}) {
        MarkovFaultConfig cfg;
        cfg.cloudlet_mttr_slots = bad;
        EXPECT_THROW(generate_markov_schedule(inst, result.decisions, cfg, 1),
                     common::ContractViolation)
            << "cloudlet_mttr_slots=" << bad;
        cfg = MarkovFaultConfig{};
        cfg.instance_mttr_slots = bad;
        EXPECT_THROW(generate_markov_schedule(inst, result.decisions, cfg, 1),
                     common::ContractViolation)
            << "instance_mttr_slots=" << bad;
    }
}

TEST(FailoverStudy, ReplicationsRejectZero) {
    common::Rng rng(413);
    const core::Instance inst = random_instance(rng, 10, 2, 8);
    core::OnsitePrimalDual scheduler(inst);
    const core::ScheduleResult result = core::run_online(inst, scheduler);
    RecoveryStudyConfig cfg;
    cfg.replications = 0;
    cfg.injector = [](const core::Instance& i, const std::vector<core::Decision>& d,
                      std::uint64_t seed) {
        return generate_markov_schedule(i, d, {}, seed);
    };
    EXPECT_THROW(run_recovery_replications(inst, result.decisions, cfg),
                 common::ContractViolation);
}

}  // namespace
}  // namespace vnfr::sim
