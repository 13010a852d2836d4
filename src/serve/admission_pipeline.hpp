// Multi-producer front end over an AdmissionController.
//
// N producer threads push (seq, request) pairs — in any interleaving —
// into a bounded MPSC transport queue (common/mpsc_queue.hpp). One
// consumer thread sequences them: a reorder buffer holds early arrivals
// until the stream is contiguous (the controller requires uncovered
// submissions in seq order), feeds the controller, and pumps it on a
// max-batch / max-delay window. Inside each pump the controller applies
// its own batching, group-commit WAL durability (see
// admission_controller.hpp) — the pipeline's window controls latency,
// the controller's group_commit controls fdatasync amortization.
//
// Determinism. The decided stream the controller sees is the seq order,
// regardless of producer interleaving, so admitted/rejected outcomes,
// revenue, and the state digest are reproducible run to run as long as no
// controller-side sheds occur. What IS timing-dependent in free-running
// mode is shedding: the controller sheds by queue occupancy, and
// occupancy depends on how the pump windows interleave with arrivals —
// two runs may shed different (equally valid) low-payment victims. Tests
// that assert bit-identical digests across configurations therefore
// either size the admission queue so nothing sheds, or drive the
// controller directly in deterministic phases (see fault_study).
//
// Shutdown. stop() closes the transport, joins the consumer (which
// drains the transport, the reorder buffer, and the controller queue),
// and rethrows any exception the consumer died with. The stream fed to
// the pipeline must cover a contiguous seq range — a gap still missing
// at shutdown is reported as an error from stop().
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <thread>

#include "common/annotations.hpp"
#include "common/mpsc_queue.hpp"
#include "common/mutex.hpp"
#include "serve/admission_controller.hpp"

namespace vnfr::serve {

struct PipelineConfig {
    /// Bounded MPSC transport between producers and the sequencer.
    std::size_t transport_capacity{1024};
    /// Pump the controller after this many in-order submissions...
    std::size_t max_batch{32};
    /// ...or when no new input arrived within this window (whichever
    /// comes first), bounding decision latency under a trickle load.
    std::chrono::microseconds max_delay{500};
    /// First seq of the stream this pipeline will sequence (use the
    /// controller's resume_cursor() when resuming after a crash).
    std::uint64_t start_seq{0};
};

struct PipelineStats {
    std::uint64_t accepted{0};         ///< try_submit pushes that succeeded
    std::uint64_t transport_full{0};   ///< pushes bounced off a full transport
    std::uint64_t submitted{0};        ///< fed to controller.submit in seq order
    std::uint64_t processed{0};        ///< outcomes pumped out of the controller
    std::uint64_t batch_flushes{0};    ///< pumps triggered by max_batch
    std::uint64_t timeout_flushes{0};  ///< pumps triggered by max_delay
    std::size_t max_reorder_depth{0};  ///< worst early-arrival backlog seen
};

class ShardedAdmissionPipeline {
  public:
    /// The controller (and the instance it binds) must outlive the
    /// pipeline. The consumer thread starts immediately.
    ShardedAdmissionPipeline(AdmissionController& controller, PipelineConfig config);

    ShardedAdmissionPipeline(const ShardedAdmissionPipeline&) = delete;
    ShardedAdmissionPipeline& operator=(const ShardedAdmissionPipeline&) = delete;

    /// stop()s if the caller did not; shutdown errors are swallowed here
    /// (call stop() yourself to observe them).
    ~ShardedAdmissionPipeline();

    /// Non-blocking: hands (seq, request) to the sequencer. Returns kFull
    /// when the transport is saturated — the caller chooses to retry or
    /// count the request as load-shed at the front door.
    common::MpscPushResult try_submit(std::uint64_t seq,
                                      const workload::Request& request);

    /// try_submit with backpressure: spins (yielding) while the transport
    /// is full. Returns false iff the pipeline was stopped meanwhile.
    bool submit(std::uint64_t seq, const workload::Request& request);

    /// Closes the transport, joins the consumer after it drained
    /// everything, and rethrows the consumer's exception if it failed.
    /// Idempotent.
    void stop();

    [[nodiscard]] PipelineStats stats() const VNFR_EXCLUDES(stats_mu_);

  private:
    struct Item {
        std::uint64_t seq;
        workload::Request request;
    };

    void run();
    void pump_controller(bool timeout_triggered) VNFR_EXCLUDES(stats_mu_);

    AdmissionController& controller_;
    const PipelineConfig config_;
    common::MpscQueue<Item> transport_;

    std::atomic<std::uint64_t> accepted_{0};
    std::atomic<std::uint64_t> transport_full_{0};
    std::atomic<bool> stopping_{false};

    mutable common::Mutex stats_mu_;
    PipelineStats stats_ VNFR_GUARDED_BY(stats_mu_);
    std::exception_ptr error_ VNFR_GUARDED_BY(stats_mu_);

    std::thread consumer_;
};

}  // namespace vnfr::serve
