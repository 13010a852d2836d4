#include "sim/simulator.hpp"

#include <vector>

#include "common/contracts.hpp"
#include "sim/failure_model.hpp"

namespace vnfr::sim {

double SimulationReport::empirical_availability() const {
    const std::size_t total = served_request_slots + disrupted_request_slots;
    if (total == 0) return 0.0;
    return VNFR_CHECK_PROB(static_cast<double>(served_request_slots) /
                           static_cast<double>(total));
}

SimulationReport simulate(const core::Instance& instance, core::OnlineScheduler& scheduler,
                          const SimulatorConfig& config) {
    instance.validate();
    SimulationReport report;
    report.schedule = core::run_online(instance, scheduler);
    const std::vector<core::Decision>& decisions = report.schedule.decisions;
    report.timeline.reserve(static_cast<std::size_t>(instance.horizon));

    // The timeline is rebuilt from the decisions and the final ledger: a
    // reservation starts at its request's arrival, so a request arriving
    // after slot t never touches slot t's usage or active set.
    const edge::ResourceLedger& ledger = scheduler.ledger();
    common::Rng failure_rng(config.failure_seed);

    // Admitted requests whose window covers the current slot, kept as
    // indices into instance.requests.
    std::vector<std::size_t> active;
    std::size_t next_request = 0;

    for (TimeSlot t = 0; t < instance.horizon; ++t) {
        SlotRecord record;
        record.slot = t;

        while (next_request < instance.requests.size() &&
               instance.requests[next_request].arrival == t) {
            ++record.arrivals;
            if (decisions[next_request].admitted) {
                ++record.admitted;
                active.push_back(next_request);
            }
            ++next_request;
        }

        // Retire requests whose window ended before this slot.
        std::erase_if(active, [&](std::size_t i) {
            return !instance.requests[i].covers(t);
        });
        record.active_requests = active.size();

        if (config.inject_failures) {
            for (const std::size_t i : active) {
                const bool served = sample_served(instance, instance.requests[i],
                                                  decisions[i].placement, failure_rng);
                if (served) ++report.served_request_slots;
                else ++report.disrupted_request_slots;
            }
        }

        double util = 0.0;
        for (std::size_t j = 0; j < ledger.cloudlet_count(); ++j) {
            const CloudletId c{static_cast<std::int64_t>(j)};
            VNFR_DCHECK(ledger.usage(c, t) >= 0.0, "ledger usage went negative at cloudlet ",
                        j, " slot ", t);
            util += ledger.usage(c, t) / ledger.capacity(c);
        }
        VNFR_CHECK_FINITE(util);
        record.mean_utilization =
            ledger.cloudlet_count() == 0 ? 0.0
                                         : util / static_cast<double>(ledger.cloudlet_count());
        report.timeline.push_back(record);
    }
    return report;
}

}  // namespace vnfr::sim
