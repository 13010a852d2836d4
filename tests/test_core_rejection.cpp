// Rejection-reason classification across all schedulers.
#include <gtest/gtest.h>

#include <limits>
#include <memory>

#include "core/greedy.hpp"
#include "core/hybrid_primal_dual.hpp"
#include "core/offsite_primal_dual.hpp"
#include "core/onsite_primal_dual.hpp"
#include "helpers.hpp"

namespace vnfr::core {
namespace {

using vnfr::testing::make_request;
using vnfr::testing::random_instance;
using vnfr::testing::small_instance;

TEST(RejectReasonNames, AllStringsDistinct) {
    EXPECT_STREQ(to_string(RejectReason::kNone), "none");
    EXPECT_STREQ(to_string(RejectReason::kInfeasibleRequirement),
                 "infeasible-requirement");
    EXPECT_STREQ(to_string(RejectReason::kPricedOut), "priced-out");
    EXPECT_STREQ(to_string(RejectReason::kNoCapacity), "no-capacity");
}

TEST(RejectReason, OnsiteInfeasibleRequirement) {
    const Instance inst = small_instance({0.95, 0.96}, 100.0, 10,
                                         {make_request(0, 0, 0.97, 0, 2, 5.0)});
    OnsitePrimalDual pd(inst);
    OnsiteGreedy greedy(inst);
    EXPECT_EQ(pd.decide(inst.requests[0]).reject_reason,
              RejectReason::kInfeasibleRequirement);
    EXPECT_EQ(greedy.decide(inst.requests[0]).reject_reason,
              RejectReason::kInfeasibleRequirement);
}

TEST(RejectReason, OnsiteNoCapacity) {
    // Feasible requirement but cloudlet too small for even one placement.
    const Instance inst = small_instance({0.99}, 1.0, 10,
                                         {make_request(0, 1, 0.9, 0, 2, 5.0)});
    OnsitePrimalDual pd(inst);
    OnsiteGreedy greedy(inst);
    EXPECT_EQ(pd.decide(inst.requests[0]).reject_reason, RejectReason::kNoCapacity);
    EXPECT_EQ(greedy.decide(inst.requests[0]).reject_reason, RejectReason::kNoCapacity);
}

TEST(RejectReason, OnsitePricedOut) {
    // High-payment requests drive the dual prices up; a later cheap request
    // is then priced out while plenty of capacity remains (scale pinned at
    // 1 so the literal Eq. 34 prices apply).
    std::vector<workload::Request> requests;
    for (int i = 0; i < 20; ++i) requests.push_back(make_request(i, 0, 0.9, 0, 1, 10.0));
    requests.push_back(make_request(20, 0, 0.9, 0, 1, 0.05));
    const Instance inst = small_instance({0.99}, 100.0, 1, std::move(requests));
    OnsitePrimalDual pd(inst, OnsitePrimalDualConfig{.dual_capacity_scale = 1.0});
    const ScheduleResult result = run_online(inst, pd);
    ASSERT_FALSE(result.decisions.back().admitted);
    EXPECT_EQ(result.decisions.back().reject_reason, RejectReason::kPricedOut);
    EXPECT_LT(result.max_load_factor, 1.0);  // capacity was not the blocker
}

TEST(RejectReason, OffsiteInfeasibleRequirement) {
    const Instance inst = small_instance({0.91, 0.91}, 100.0, 10,
                                         {make_request(0, 1, 0.999, 0, 2, 5.0)});
    OffsitePrimalDual pd(inst);
    OffsiteGreedy greedy(inst);
    EXPECT_EQ(pd.decide(inst.requests[0]).reject_reason,
              RejectReason::kInfeasibleRequirement);
    EXPECT_EQ(greedy.decide(inst.requests[0]).reject_reason,
              RejectReason::kInfeasibleRequirement);
}

TEST(RejectReason, OffsiteNoCapacity) {
    // Requirement needs two cloudlets; only one has room.
    std::vector<workload::Request> requests;
    requests.push_back(make_request(0, 1, 0.9, 0, 2, 50.0));   // fills both cloudlets
    requests.push_back(make_request(1, 1, 0.97, 0, 2, 5.0));   // reachable, but full
    const Instance inst = small_instance({0.96, 0.96}, 2.0, 10, std::move(requests));
    OffsiteGreedy greedy(inst);
    ASSERT_TRUE(greedy.decide(inst.requests[0]).admitted);
    const Decision d = greedy.decide(inst.requests[1]);
    ASSERT_FALSE(d.admitted);
    EXPECT_EQ(d.reject_reason, RejectReason::kNoCapacity);
}

TEST(RejectReason, HybridInfeasibleRequirement) {
    const Instance inst = small_instance({0.91, 0.91}, 100.0, 10,
                                         {make_request(0, 1, 0.999, 0, 2, 5.0)});
    HybridPrimalDual hybrid(inst);
    EXPECT_EQ(hybrid.decide(inst.requests[0]).reject_reason,
              RejectReason::kInfeasibleRequirement);
}

TEST(RejectReason, AdmittedRequestsCarryNone) {
    common::Rng rng(501);
    const Instance inst = random_instance(rng, 40, 3, 10);
    OnsitePrimalDual pd(inst);
    const ScheduleResult result = run_online(inst, pd);
    for (const Decision& d : result.decisions) {
        if (d.admitted) EXPECT_EQ(d.reject_reason, RejectReason::kNone);
        else EXPECT_NE(d.reject_reason, RejectReason::kNone);
    }
}

TEST(RejectReason, BreakdownCountsEveryRejection) {
    common::Rng rng(503);
    const Instance inst = random_instance(rng, 120, 3, 10, 6, 10);  // tight capacity
    for (const auto make :
         {+[](const Instance& i) -> std::unique_ptr<OnlineScheduler> {
              return std::make_unique<OnsitePrimalDual>(i);
          },
          +[](const Instance& i) -> std::unique_ptr<OnlineScheduler> {
              return std::make_unique<OffsitePrimalDual>(i);
          },
          +[](const Instance& i) -> std::unique_ptr<OnlineScheduler> {
              return std::make_unique<HybridPrimalDual>(i);
          }}) {
        const auto scheduler = make(inst);
        const ScheduleResult result = run_online(inst, *scheduler);
        const RejectionBreakdown breakdown = rejection_breakdown(result);
        EXPECT_EQ(breakdown.infeasible_requirement + breakdown.priced_out +
                      breakdown.no_capacity,
                  inst.requests.size() - result.admitted)
            << scheduler->name();
    }
}

// decide() validates R_i once per request, before any table lookup: an
// out-of-range requirement throws std::invalid_argument instead of being
// priced (the replica table alone would answer N = 1 for R = 0), and it
// leaves the scheduler's state untouched.
TEST(RequirementContract, OutOfRangeRequirementThrowsInvalidArgument) {
    const Instance inst = small_instance({0.99, 0.999}, 100.0, 10, {});
    for (const auto make :
         {+[](const Instance& i) -> std::unique_ptr<OnlineScheduler> {
              return std::make_unique<OnsitePrimalDual>(i);
          },
          +[](const Instance& i) -> std::unique_ptr<OnlineScheduler> {
              return std::make_unique<OnsiteGreedy>(i);
          },
          +[](const Instance& i) -> std::unique_ptr<OnlineScheduler> {
              return std::make_unique<OffsitePrimalDual>(i);
          },
          +[](const Instance& i) -> std::unique_ptr<OnlineScheduler> {
              return std::make_unique<OffsiteGreedy>(i);
          },
          +[](const Instance& i) -> std::unique_ptr<OnlineScheduler> {
              return std::make_unique<HybridPrimalDual>(i);
          }}) {
        const auto scheduler = make(inst);
        for (const double r : {0.0, 1.0, -0.1, std::numeric_limits<double>::quiet_NaN()}) {
            EXPECT_THROW((void)scheduler->decide(make_request(0, 0, r, 0, 2, 5.0)),
                         std::invalid_argument)
                << scheduler->name() << " R=" << r;
        }
        EXPECT_DOUBLE_EQ(scheduler->ledger().usage(CloudletId{0}, 0), 0.0)
            << scheduler->name();
        const Decision valid = scheduler->decide(make_request(1, 0, 0.95, 0, 2, 5.0));
        EXPECT_TRUE(valid.admitted) << scheduler->name();
    }
}

}  // namespace
}  // namespace vnfr::core
