// Randomized cross-checking of every scheduler against the independent
// schedule verifier, over a matrix of stress environments: tiny capacities,
// single cloudlet, many cloudlets, extreme requirements, heavy-tailed
// durations, bursty arrivals.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "core/bounds.hpp"
#include "core/onsite_primal_dual.hpp"
#include "core/verify.hpp"
#include "helpers.hpp"
#include "net/generators.hpp"
#include "sim/experiment.hpp"

namespace vnfr {
namespace {

struct FuzzCase {
    const char* name;
    std::size_t cloudlets;
    double capacity_lo;
    double capacity_hi;
    double rel_lo;
    double rel_hi;
    std::size_t requests;
    TimeSlot horizon;
    workload::ArrivalProcess arrivals;
    workload::DurationDistribution durations;
    double requirement_lo;
    double requirement_hi;
};

const FuzzCase kCases[] = {
    {"tiny-capacity", 3, 4, 6, 0.95, 0.999, 80, 10, workload::ArrivalProcess::kUniform,
     workload::DurationDistribution::kUniformInt, 0.90, 0.97},
    {"single-cloudlet", 1, 30, 30, 0.97, 0.97, 60, 12, workload::ArrivalProcess::kUniform,
     workload::DurationDistribution::kUniformInt, 0.90, 0.95},
    {"many-cloudlets", 12, 10, 40, 0.92, 0.9995, 120, 15, workload::ArrivalProcess::kPoisson,
     workload::DurationDistribution::kUniformInt, 0.90, 0.99},
    {"extreme-requirements", 4, 20, 30, 0.99, 0.9999, 60, 10,
     workload::ArrivalProcess::kUniform, workload::DurationDistribution::kUniformInt,
     0.985, 0.9995},
    {"heavy-tails", 5, 15, 25, 0.95, 0.999, 150, 20, workload::ArrivalProcess::kDiurnal,
     workload::DurationDistribution::kBoundedPareto, 0.90, 0.97},
    {"unreliable-cloudlets", 6, 20, 30, 0.905, 0.96, 100, 12,
     workload::ArrivalProcess::kUniform, workload::DurationDistribution::kUniformInt,
     0.90, 0.95},
};

core::Instance build_case(const FuzzCase& fc, common::Rng& rng) {
    net::Graph g =
        net::erdos_renyi(std::max<std::size_t>(fc.cloudlets + 3, 6), 0.4, rng, true);
    core::Instance inst{edge::MecNetwork(std::move(g)), vnf::Catalog::paper_default(rng),
                        fc.horizon, {}};
    edge::CloudletAttachment attach;
    attach.count = fc.cloudlets;
    attach.capacity_min = fc.capacity_lo;
    attach.capacity_max = fc.capacity_hi;
    attach.reliability_min = fc.rel_lo;
    attach.reliability_max = fc.rel_hi;
    inst.network.attach_random_cloudlets(attach, rng);
    workload::GeneratorConfig wl;
    wl.horizon = fc.horizon;
    wl.count = fc.requests;
    wl.arrivals = fc.arrivals;
    wl.durations = fc.durations;
    wl.duration_min = 1;
    wl.duration_max = std::max<TimeSlot>(2, fc.horizon / 3);
    wl.requirement_min = fc.requirement_lo;
    wl.requirement_max = fc.requirement_hi;
    inst.requests = workload::generate(wl, inst.catalog, rng);
    inst.validate();
    return inst;
}

class SchedulerFuzzTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, int>> {};

TEST_P(SchedulerFuzzTest, EveryAlgorithmProducesVerifiableSchedules) {
    const auto [case_index, seed] = GetParam();
    const FuzzCase& fc = kCases[case_index];
    common::Rng rng(static_cast<std::uint64_t>(seed) * 7907 + case_index);
    const core::Instance inst = build_case(fc, rng);

    for (const sim::Algorithm a :
         {sim::Algorithm::kOnsitePrimalDual, sim::Algorithm::kOnsiteGreedy,
          sim::Algorithm::kOffsitePrimalDual, sim::Algorithm::kOffsiteGreedy,
          sim::Algorithm::kHybridPrimalDual}) {
        const auto scheduler = sim::make_scheduler(a, inst);
        const core::ScheduleResult result = core::run_online(inst, *scheduler);
        const core::VerificationReport report = core::verify_schedule(inst, result.decisions);
        EXPECT_TRUE(report.ok())
            << fc.name << " / " << sim::algorithm_name(a) << ": first violation: "
            << (report.violations.empty() ? "-" : report.violations.front().detail);
        EXPECT_NEAR(report.revenue, result.revenue, 1e-6);
    }
}

TEST_P(SchedulerFuzzTest, PureVariantStaysWithinLemma8) {
    const auto [case_index, seed] = GetParam();
    const FuzzCase& fc = kCases[case_index];
    common::Rng rng(static_cast<std::uint64_t>(seed) * 104729 + case_index);
    const core::Instance inst = build_case(fc, rng);

    core::OnsitePrimalDual pure(inst, core::OnsitePrimalDualConfig{.enforce_capacity = false});
    const core::ScheduleResult result = core::run_online(inst, pure);
    double xi = 1.0;
    try {
        xi = core::compute_onsite_bounds(inst).xi;
    } catch (const std::invalid_argument&) {
        return;  // no feasible pair anywhere: nothing admitted, nothing to check
    }
    const core::VerificationReport report = core::verify_schedule(inst, result.decisions, xi);
    EXPECT_TRUE(report.ok()) << fc.name;
}

// The serve layer's delta checkpoints persist only the cells an admission
// wrote, derived as placement x window (site cloudlets x [arrival, end)).
// That is sound only if decide() writes nothing else: no cell on a
// rejection, no cell outside the chosen sites' windows on an admission.
TEST_P(SchedulerFuzzTest, DecideWritesOnlyPlacementTimesWindow) {
    const auto [case_index, seed] = GetParam();
    const FuzzCase& fc = kCases[case_index];
    common::Rng rng(static_cast<std::uint64_t>(seed) * 15485863 + case_index);
    const core::Instance inst = build_case(fc, rng);
    const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
    const std::size_t horizon = static_cast<std::size_t>(inst.horizon);

    for (const sim::Algorithm a :
         {sim::Algorithm::kOnsitePrimalDual, sim::Algorithm::kOffsitePrimalDual}) {
        const auto scheduler = sim::make_scheduler(a, inst);
        std::size_t admitted = 0;
        for (const workload::Request& r : inst.requests) {
            const core::SchedulerState before = scheduler->export_state();
            const core::Decision d = scheduler->decide(r);
            const core::SchedulerState after = scheduler->export_state();
            std::vector<bool> allowed(before.usage.size(), false);
            if (d.admitted) {
                ++admitted;
                for (const core::Site& site : d.placement.sites) {
                    for (TimeSlot t = r.arrival; t < r.end(); ++t) {
                        allowed[site.cloudlet.index() * horizon +
                                static_cast<std::size_t>(t)] = true;
                    }
                }
            }
            for (std::size_t cell = 0; cell < allowed.size(); ++cell) {
                const std::size_t j = cell / horizon;
                const std::size_t t = cell % horizon;
                const bool changed =
                    bits(before.lambda[j][t]) != bits(after.lambda[j][t]) ||
                    bits(before.usage[cell]) != bits(after.usage[cell]);
                EXPECT_FALSE(changed && !allowed[cell])
                    << fc.name << " / " << sim::algorithm_name(a) << ": request "
                    << r.id.value << " wrote cell (" << j << ", " << t
                    << ") outside placement x window";
            }
        }
        EXPECT_GT(admitted, 0u) << fc.name << " / " << sim::algorithm_name(a);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, SchedulerFuzzTest,
    ::testing::Combine(::testing::Range<std::size_t>(0, std::size(kCases)),
                       ::testing::Range(0, 4)));

}  // namespace
}  // namespace vnfr
