// Regression tests for the O(log n) shed path: the heap-based victim
// selection must reproduce the original linear-scan semantics exactly —
// same SubmitResult per submit, same victims (observable through the
// FIFO pump order), and bit-identical shed_revenue — including under
// payment ties, where the younger request (higher seq) always loses.
#include <gtest/gtest.h>

#include <deque>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "helpers.hpp"
#include "serve/admission_controller.hpp"

namespace vnfr::serve {
namespace {

using vnfr::testing::fresh_dir;
using vnfr::testing::make_request;
using vnfr::testing::small_instance;

/// The pre-heap reference implementation of the overload guard: a plain
/// queue with a full linear scan per overflow, transcribed from the
/// original controller. Tracks only what shedding depends on.
struct ReferenceShedModel {
    struct Item {
        std::uint64_t seq;
        double payment;
    };
    std::size_t capacity;
    std::deque<Item> queue;
    std::uint64_t shed_count = 0;
    double shed_revenue = 0.0;
    std::vector<std::uint64_t> shed_seqs;

    SubmitResult submit(std::uint64_t seq, double payment) {
        if (queue.size() < capacity) {
            queue.push_back(Item{seq, payment});
            return SubmitResult::kQueued;
        }
        auto victim_it = queue.end();
        double victim_pay = payment;
        std::uint64_t victim_seq = seq;
        for (auto it = queue.begin(); it != queue.end(); ++it) {
            if (it->payment < victim_pay ||
                (it->payment == victim_pay && it->seq > victim_seq)) {
                victim_it = it;
                victim_pay = it->payment;
                victim_seq = it->seq;
            }
        }
        ++shed_count;
        shed_revenue += victim_pay;
        shed_seqs.push_back(victim_seq);
        if (victim_it == queue.end()) return SubmitResult::kShedIncoming;
        queue.erase(victim_it);
        queue.push_back(Item{seq, payment});
        return SubmitResult::kShedQueued;
    }

    std::vector<std::uint64_t> pump(std::size_t n) {
        std::vector<std::uint64_t> seqs;
        while (n-- > 0 && !queue.empty()) {
            seqs.push_back(queue.front().seq);
            queue.pop_front();
        }
        return seqs;
    }
};

/// Payments drawn from a tiny set so ties are the norm, not the
/// exception — the regime where victim tie-breaking matters most.
std::vector<workload::Request> tie_heavy_requests(std::size_t n,
                                                  std::uint64_t seed) {
    common::Rng rng(seed);
    std::vector<workload::Request> reqs;
    reqs.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        const double payment = static_cast<double>(rng.uniform_int(1, 5));
        // Arrivals nondecreasing (instance validation requires it); the
        // payments are what the shed path keys on.
        const TimeSlot arrival = static_cast<TimeSlot>((i * 10) / n);
        reqs.push_back(make_request(static_cast<std::int64_t>(i),
                                    static_cast<std::int64_t>(i % 2), 0.95, arrival, 1,
                                    payment));
    }
    return reqs;
}

TEST(ServeShedHeap, MatchesTheLinearScanReferenceExactly) {
    const std::size_t n = 400;
    const core::Instance inst =
        small_instance({0.98, 0.99}, 50.0, 10, tie_heavy_requests(n, 0x7EAF));
    ServeConfig cfg;
    cfg.data_dir = fresh_dir("shed_ref");
    cfg.checkpoint_every = 64;
    cfg.queue_capacity = 5;
    AdmissionController controller(inst, core::Scheme::kOnsite, cfg);
    ReferenceShedModel model{cfg.queue_capacity, {}, 0, 0.0, {}};

    common::Rng drive_rng(0xD21E);
    std::size_t shed_incoming = 0;
    std::size_t shed_queued = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const SubmitResult got = controller.submit(i, inst.requests[i]);
        const SubmitResult want = model.submit(i, inst.requests[i].payment);
        ASSERT_EQ(got, want) << "submit " << i;
        if (want == SubmitResult::kShedIncoming) ++shed_incoming;
        if (want == SubmitResult::kShedQueued) ++shed_queued;
        // Irregular pump sizes move the queue through many shapes.
        if (drive_rng.uniform_int(0, 6) == 0) {
            const std::size_t burst =
                static_cast<std::size_t>(drive_rng.uniform_int(1, 7));
            const std::vector<ProcessedOutcome> outcomes = controller.pump(burst);
            const std::vector<std::uint64_t> expected = model.pump(burst);
            ASSERT_EQ(outcomes.size(), expected.size());
            for (std::size_t k = 0; k < outcomes.size(); ++k) {
                // FIFO pump order exposes exactly which victims were
                // evicted: a wrong victim would shift every later seq.
                ASSERT_EQ(outcomes[k].seq, expected[k]) << "pump after submit " << i;
            }
        }
    }
    const std::vector<ProcessedOutcome> rest = controller.drain();
    const std::vector<std::uint64_t> expected_rest = model.pump(model.queue.size());
    ASSERT_EQ(rest.size(), expected_rest.size());
    for (std::size_t k = 0; k < rest.size(); ++k) {
        EXPECT_EQ(rest[k].seq, expected_rest[k]);
    }

    // shed_revenue is a bit-exact sum in both implementations.
    const ServeMetrics m = controller.metrics();
    EXPECT_EQ(m.shed, model.shed_count);
    EXPECT_EQ(m.shed_revenue, model.shed_revenue);
    // Both victim kinds occurred, or the test lost its teeth.
    EXPECT_GT(shed_incoming, 0u);
    EXPECT_GT(shed_queued, 0u);
}

TEST(ServeShedHeap, TieBreakKeepsTheOlderRequest) {
    // Capacity 2; all payments equal: every overflow sheds the incoming
    // request (highest seq), never a queued one.
    std::vector<workload::Request> reqs;
    for (int i = 0; i < 6; ++i) {
        reqs.push_back(make_request(i, 0, 0.95, 0, 1, 3.0));
    }
    const core::Instance inst = small_instance({0.98}, 50.0, 4, std::move(reqs));
    ServeConfig cfg;
    cfg.data_dir = fresh_dir("shed_tie");
    cfg.queue_capacity = 2;
    AdmissionController controller(inst, core::Scheme::kOnsite, cfg);
    EXPECT_EQ(controller.submit(0, inst.requests[0]), SubmitResult::kQueued);
    EXPECT_EQ(controller.submit(1, inst.requests[1]), SubmitResult::kQueued);
    EXPECT_EQ(controller.submit(2, inst.requests[2]), SubmitResult::kShedIncoming);
    EXPECT_EQ(controller.submit(3, inst.requests[3]), SubmitResult::kShedIncoming);
    const std::vector<ProcessedOutcome> outcomes = controller.drain();
    ASSERT_EQ(outcomes.size(), 2u);
    EXPECT_EQ(outcomes[0].seq, 0u);
    EXPECT_EQ(outcomes[1].seq, 1u);
}

TEST(ServeShedHeap, EvictsTheCheapestQueuedRequest) {
    std::vector<workload::Request> reqs;
    const double payments[] = {5.0, 2.0, 4.0, 3.0};
    for (int i = 0; i < 4; ++i) {
        reqs.push_back(make_request(i, 0, 0.95, 0, 1, payments[i]));
    }
    const core::Instance inst = small_instance({0.98}, 50.0, 4, std::move(reqs));
    ServeConfig cfg;
    cfg.data_dir = fresh_dir("shed_evict");
    cfg.queue_capacity = 3;
    AdmissionController controller(inst, core::Scheme::kOnsite, cfg);
    for (std::uint64_t i = 0; i < 3; ++i) {
        ASSERT_EQ(controller.submit(i, inst.requests[i]), SubmitResult::kQueued);
    }
    // Incoming pays 3.0 > queued minimum 2.0 (seq 1): seq 1 is evicted.
    EXPECT_EQ(controller.submit(3, inst.requests[3]), SubmitResult::kShedQueued);
    EXPECT_TRUE(controller.is_covered(1));  // the shed victim is durable
    const std::vector<ProcessedOutcome> outcomes = controller.drain();
    ASSERT_EQ(outcomes.size(), 3u);
    EXPECT_EQ(outcomes[0].seq, 0u);
    EXPECT_EQ(outcomes[1].seq, 2u);
    EXPECT_EQ(outcomes[2].seq, 3u);
}

/// Heap memory stays bounded: long FIFO churn without overflow must not
/// accumulate stale entries without limit (the rebuild threshold).
TEST(ServeShedHeap, LongChurnRemainsCorrectAfterHeapRebuilds) {
    const std::size_t n = 3000;
    const core::Instance inst =
        small_instance({0.98, 0.99}, 50.0, 10, tie_heavy_requests(n, 0xC0DE));
    ServeConfig cfg;
    cfg.data_dir = fresh_dir("shed_churn");
    cfg.checkpoint_every = 512;
    cfg.queue_capacity = 64;
    AdmissionController controller(inst, core::Scheme::kOnsite, cfg);
    ReferenceShedModel model{cfg.queue_capacity, {}, 0, 0.0, {}};
    for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(controller.submit(i, inst.requests[i]),
                  model.submit(i, inst.requests[i].payment));
        if ((i + 1) % 48 == 0) {
            // Pump most of the queue: lots of stale heap entries.
            const auto outcomes = controller.pump(40);
            const auto expected = model.pump(40);
            ASSERT_EQ(outcomes.size(), expected.size());
        }
    }
    controller.drain();
    model.pump(model.queue.size());
    EXPECT_EQ(controller.metrics().shed, model.shed_count);
    EXPECT_EQ(controller.metrics().shed_revenue, model.shed_revenue);
}

}  // namespace
}  // namespace vnfr::serve
