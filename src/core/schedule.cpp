#include "core/schedule.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "core/instance.hpp"

namespace vnfr::core {

void validate_scheduler_state(const SchedulerState& state, std::size_t cloudlets,
                              TimeSlot horizon) {
    const auto slots = static_cast<std::size_t>(horizon);
    if (state.lambda.size() != cloudlets) {
        throw std::invalid_argument(
            "SchedulerState: " + std::to_string(state.lambda.size()) +
            " lambda rows for " + std::to_string(cloudlets) + " cloudlets");
    }
    for (std::size_t j = 0; j < cloudlets; ++j) {
        if (state.lambda[j].size() != slots) {
            throw std::invalid_argument(
                "SchedulerState: lambda row " + std::to_string(j) + " has " +
                std::to_string(state.lambda[j].size()) + " slots, expected " +
                std::to_string(slots));
        }
        for (std::size_t t = 0; t < slots; ++t) {
            const double v = state.lambda[j][t];
            if (!std::isfinite(v) || v < 0.0) {
                throw std::invalid_argument("SchedulerState: lambda[" + std::to_string(j) +
                                            "][" + std::to_string(t) +
                                            "] is not a finite non-negative price");
            }
        }
    }
    if (state.usage.size() != cloudlets * slots) {
        throw std::invalid_argument(
            "SchedulerState: usage table has " + std::to_string(state.usage.size()) +
            " cells, expected " + std::to_string(cloudlets * slots));
    }
    for (std::size_t i = 0; i < state.usage.size(); ++i) {
        if (!std::isfinite(state.usage[i]) || state.usage[i] < 0.0) {
            throw std::invalid_argument("SchedulerState: usage cell " + std::to_string(i) +
                                        " is not a finite non-negative amount");
        }
    }
}

SchedulerState OnlineScheduler::export_state() const {
    throw std::logic_error(std::string(name()) + " does not support state export");
}

double OnlineScheduler::lambda(CloudletId, TimeSlot) const {
    throw std::logic_error(std::string(name()) + " does not expose dual prices");
}

void OnlineScheduler::import_state(const SchedulerState&) {
    throw std::logic_error(std::string(name()) + " does not support state import");
}

double Placement::compute_per_slot(double per_instance) const {
    double total = 0.0;
    for (const Site& s : sites) total += per_instance * s.replicas;
    return total;
}

ScheduleResult run_online(const Instance& instance, OnlineScheduler& scheduler) {
    ScheduleResult result;
    result.decisions.reserve(instance.requests.size());
    for (const workload::Request& r : instance.requests) {
        Decision d = scheduler.decide(r);
        if (d.admitted) {
            result.revenue += r.payment;
            ++result.admitted;
        }
        result.decisions.push_back(std::move(d));
    }
    const edge::ResourceLedger& ledger = scheduler.ledger();
    result.max_overshoot = ledger.max_overshoot();
    for (std::size_t j = 0; j < ledger.cloudlet_count(); ++j) {
        const CloudletId c{static_cast<std::int64_t>(j)};
        for (TimeSlot t = 0; t < ledger.horizon(); ++t) {
            result.max_load_factor =
                std::max(result.max_load_factor, ledger.usage(c, t) / ledger.capacity(c));
        }
    }
    return result;
}

double acceptance_ratio(const ScheduleResult& result, const Instance& instance) {
    if (instance.requests.empty()) return 0.0;
    return static_cast<double>(result.admitted) /
           static_cast<double>(instance.requests.size());
}

const char* to_string(RejectReason reason) {
    switch (reason) {
        case RejectReason::kNone: return "none";
        case RejectReason::kInfeasibleRequirement: return "infeasible-requirement";
        case RejectReason::kPricedOut: return "priced-out";
        case RejectReason::kNoCapacity: return "no-capacity";
    }
    return "?";
}

RejectionBreakdown rejection_breakdown(const ScheduleResult& result) {
    RejectionBreakdown breakdown;
    for (const Decision& d : result.decisions) {
        if (d.admitted) continue;
        switch (d.reject_reason) {
            case RejectReason::kInfeasibleRequirement:
                ++breakdown.infeasible_requirement;
                break;
            case RejectReason::kPricedOut: ++breakdown.priced_out; break;
            case RejectReason::kNoCapacity: ++breakdown.no_capacity; break;
            case RejectReason::kNone: break;
        }
    }
    return breakdown;
}

}  // namespace vnfr::core
