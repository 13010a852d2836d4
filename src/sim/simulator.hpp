// Slot-stepped discrete-time simulation of an online scheduler.
//
// Feeds the requests to the scheduler through core::run_online (the online
// model of Section III.B: requests arrive at slot starts, one by one,
// future unknown), then walks the horizon T slot by slot to record a
// per-slot timeline and, optionally, inject failures each slot to measure
// the availability actually delivered to admitted requests.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "core/instance.hpp"
#include "core/schedule.hpp"

namespace vnfr::sim {

struct SlotRecord {
    TimeSlot slot{0};
    std::size_t arrivals{0};
    std::size_t admitted{0};         ///< of this slot's arrivals
    std::size_t active_requests{0};  ///< admitted requests covering the slot
    double mean_utilization{0};      ///< across cloudlets at this slot
};

struct SimulatorConfig {
    /// Sample cloudlet/instance failures each slot for each active request.
    bool inject_failures{false};
    std::uint64_t failure_seed{0x5eed};
};

struct SimulationReport {
    core::ScheduleResult schedule;
    std::vector<SlotRecord> timeline;  ///< one record per slot
    /// Failure-injection tallies over (active request x slot) pairs; both 0
    /// when injection is disabled.
    std::size_t served_request_slots{0};
    std::size_t disrupted_request_slots{0};

    /// Empirical availability delivered across active request-slots.
    [[nodiscard]] double empirical_availability() const;
};

/// Runs `scheduler` over the instance. Requests must already be sorted by
/// arrival (Instance::validate enforces this).
SimulationReport simulate(const core::Instance& instance, core::OnlineScheduler& scheduler,
                          const SimulatorConfig& config = {});

}  // namespace vnfr::sim
