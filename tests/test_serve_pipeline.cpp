// ShardedAdmissionPipeline + MpscQueue tests, including the TSan soak:
// N producer threads hammer the transport while a checkpoint thread
// forces concurrent WAL rotation and the bounded admission queue sheds
// under pressure. The suite name matches the CI TSan filter ("Serve"),
// so these run under -fsanitize=thread in the tsan job.
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "common/mpsc_queue.hpp"
#include "common/rng.hpp"
#include "helpers.hpp"
#include "serve/admission_controller.hpp"
#include "serve/admission_pipeline.hpp"

namespace vnfr::serve {
namespace {

using vnfr::testing::fresh_dir;
using vnfr::testing::random_instance;

TEST(ServeMpscQueue, FifoWithinCapacityAndFullWhenSaturated) {
    common::MpscQueue<int> q(3);
    EXPECT_EQ(q.try_push(1), common::MpscPushResult::kPushed);
    EXPECT_EQ(q.try_push(2), common::MpscPushResult::kPushed);
    EXPECT_EQ(q.try_push(3), common::MpscPushResult::kPushed);
    EXPECT_EQ(q.try_push(4), common::MpscPushResult::kFull);
    int out = 0;
    EXPECT_EQ(q.pop(out, std::chrono::milliseconds(1)),
              common::MpscPopResult::kItem);
    EXPECT_EQ(out, 1);
    EXPECT_EQ(q.try_push(4), common::MpscPushResult::kPushed);  // slot freed
    for (const int want : {2, 3, 4}) {
        ASSERT_EQ(q.pop(out, std::chrono::milliseconds(1)),
                  common::MpscPopResult::kItem);
        EXPECT_EQ(out, want);
    }
    EXPECT_EQ(q.pop(out, std::chrono::milliseconds(1)),
              common::MpscPopResult::kTimeout);
}

TEST(ServeMpscQueue, CloseDrainsBeforeReportingClosed) {
    common::MpscQueue<int> q(4);
    ASSERT_EQ(q.try_push(7), common::MpscPushResult::kPushed);
    q.close();
    EXPECT_EQ(q.try_push(8), common::MpscPushResult::kClosed);
    int out = 0;
    EXPECT_EQ(q.pop(out, std::chrono::milliseconds(1)),
              common::MpscPopResult::kItem);
    EXPECT_EQ(out, 7);
    EXPECT_EQ(q.pop(out, std::chrono::milliseconds(1)),
              common::MpscPopResult::kClosed);
}

TEST(ServeMpscQueue, PopWakesOnCrossThreadPush) {
    common::MpscQueue<int> q(4);
    std::thread producer([&q] {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        ASSERT_EQ(q.try_push(42), common::MpscPushResult::kPushed);
    });
    int out = 0;
    // Far longer than the push delay: the notify must wake us early.
    EXPECT_EQ(q.pop(out, std::chrono::seconds(10)), common::MpscPopResult::kItem);
    EXPECT_EQ(out, 42);
    producer.join();
}

/// Reference digest: the same stream driven sequentially into a bare
/// controller with the same serve parameters.
std::uint64_t sequential_digest(const core::Instance& inst, const ServeConfig& base,
                                const std::string& dir) {
    ServeConfig cfg = base;
    cfg.data_dir = dir;
    AdmissionController controller(inst, core::Scheme::kOnsite, cfg);
    for (std::size_t i = 0; i < inst.requests.size(); ++i) {
        controller.submit(i, inst.requests[i]);
        controller.drain();  // one by one: occupancy never forces a shed
    }
    return controller.state_digest();
}

ServeConfig soak_config() {
    ServeConfig cfg;
    cfg.checkpoint_every = 32;
    cfg.queue_capacity = 4096;  // no controller sheds in equivalence tests
    cfg.group_commit = 8;
    return cfg;
}

TEST(ServePipeline, SingleProducerMatchesSequentialDigest) {
    common::Rng rng(0xF00D);
    const core::Instance inst = random_instance(rng, 150, 4, 24);
    const std::uint64_t want =
        sequential_digest(inst, soak_config(), fresh_dir("pipe_seq_ref"));

    ServeConfig cfg = soak_config();
    cfg.data_dir = fresh_dir("pipe_single");
    AdmissionController controller(inst, core::Scheme::kOnsite, cfg);
    {
        PipelineConfig pcfg;
        pcfg.transport_capacity = 16;
        pcfg.max_batch = 8;
        ShardedAdmissionPipeline pipeline(controller, pcfg);
        for (std::size_t i = 0; i < inst.requests.size(); ++i) {
            ASSERT_TRUE(pipeline.submit(i, inst.requests[i]));
        }
        pipeline.stop();
        const PipelineStats stats = pipeline.stats();
        EXPECT_EQ(stats.accepted, inst.requests.size());
        EXPECT_EQ(stats.submitted, inst.requests.size());
        EXPECT_EQ(stats.processed, inst.requests.size());
    }
    EXPECT_EQ(controller.state_digest(), want);
    EXPECT_EQ(controller.metrics().shed, 0u);
}

TEST(ServePipeline, ManyProducersReorderToTheSequentialStream) {
    common::Rng rng(0xF00E);
    const core::Instance inst = random_instance(rng, 240, 4, 24);
    const std::uint64_t want =
        sequential_digest(inst, soak_config(), fresh_dir("pipe_multi_ref"));

    ServeConfig cfg = soak_config();
    cfg.data_dir = fresh_dir("pipe_multi");
    AdmissionController controller(inst, core::Scheme::kOnsite, cfg);
    {
        PipelineConfig pcfg;
        pcfg.transport_capacity = 32;
        pcfg.max_batch = 16;
        ShardedAdmissionPipeline pipeline(controller, pcfg);
        constexpr std::size_t kProducers = 6;
        std::vector<std::thread> producers;
        producers.reserve(kProducers);
        for (std::size_t p = 0; p < kProducers; ++p) {
            // Round-robin split: maximally out-of-order arrival.
            producers.emplace_back([&, p] {
                for (std::size_t i = p; i < inst.requests.size(); i += kProducers) {
                    ASSERT_TRUE(pipeline.submit(i, inst.requests[i]));
                }
            });
        }
        for (std::thread& t : producers) t.join();
        pipeline.stop();
        const PipelineStats stats = pipeline.stats();
        EXPECT_EQ(stats.submitted, inst.requests.size());
        EXPECT_EQ(stats.processed, inst.requests.size());
        EXPECT_GE(stats.max_reorder_depth, 1u);
    }
    EXPECT_EQ(controller.state_digest(), want);
}

TEST(ServePipeline, StreamGapSurfacesAsAnErrorOnStop) {
    common::Rng rng(0xF00F);
    const core::Instance inst = random_instance(rng, 8, 3, 12);
    ServeConfig cfg = soak_config();
    cfg.data_dir = fresh_dir("pipe_gap");
    AdmissionController controller(inst, core::Scheme::kOnsite, cfg);
    ShardedAdmissionPipeline pipeline(controller, PipelineConfig{});
    ASSERT_TRUE(pipeline.submit(0, inst.requests[0]));
    ASSERT_TRUE(pipeline.submit(2, inst.requests[2]));  // seq 1 never arrives
    EXPECT_THROW(pipeline.stop(), std::logic_error);
    pipeline.stop();  // idempotent after the error was consumed
}

// The soak proper: producers + concurrent checkpoints + shedding under a
// deliberately tiny admission queue, under TSan in CI. Timing-dependent
// shedding means no digest equality here (see admission_pipeline.hpp);
// the invariants are conservation and durable recoverability.
TEST(ServePipelineSoak, ProducersCheckpointsAndSheddingRaceCleanly) {
    common::Rng rng(0x50AC);
    const core::Instance inst = random_instance(rng, 600, 4, 24);
    ServeConfig cfg = soak_config();
    cfg.queue_capacity = 16;  // force controller-side sheds
    cfg.checkpoint_every = 16;
    cfg.data_dir = fresh_dir("pipe_soak");
    std::uint64_t digest_before = 0;
    {
        AdmissionController controller(inst, core::Scheme::kOnsite, cfg);
        {
            PipelineConfig pcfg;
            pcfg.transport_capacity = 8;  // saturates: backpressure path
            pcfg.max_batch = 32;
            pcfg.max_delay = std::chrono::microseconds(200);
            ShardedAdmissionPipeline pipeline(controller, pcfg);

            std::atomic<bool> done{false};
            std::thread rotator([&] {
                // Concurrent checkpoint/rotate against the pump loop.
                while (!done.load(std::memory_order_relaxed)) {
                    controller.checkpoint();
                    std::this_thread::yield();
                }
            });
            constexpr std::size_t kProducers = 4;
            std::vector<std::thread> producers;
            producers.reserve(kProducers);
            for (std::size_t p = 0; p < kProducers; ++p) {
                producers.emplace_back([&, p] {
                    for (std::size_t i = p; i < inst.requests.size();
                         i += kProducers) {
                        ASSERT_TRUE(pipeline.submit(i, inst.requests[i]));
                    }
                });
            }
            for (std::thread& t : producers) t.join();
            pipeline.stop();
            done.store(true, std::memory_order_relaxed);
            rotator.join();

            const PipelineStats stats = pipeline.stats();
            EXPECT_EQ(stats.submitted, inst.requests.size());
        }
        // Conservation: every request either decided or shed, exactly once.
        const ServeMetrics m = controller.metrics();
        EXPECT_EQ(m.processed + m.shed, inst.requests.size());
        EXPECT_GT(m.shed, 0u);  // the tiny queue really shed
        EXPECT_EQ(controller.resume_cursor(), inst.requests.size());
        digest_before = controller.state_digest();
    }
    // The raced-over state is durably recoverable bit-for-bit.
    AdmissionController recovered(inst, core::Scheme::kOnsite, cfg);
    EXPECT_EQ(recovered.state_digest(), digest_before);
}

}  // namespace
}  // namespace vnfr::serve
