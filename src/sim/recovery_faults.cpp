#include "sim/recovery_faults.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/contracts.hpp"
#include "common/rng.hpp"

namespace vnfr::sim {

const char* to_string(FaultKind kind) {
    switch (kind) {
        case FaultKind::kCloudletCrash: return "cloudlet-crash";
        case FaultKind::kInstanceCrash: return "instance-crash";
        case FaultKind::kTransientBlip: return "transient-blip";
        case FaultKind::kRackFailure: return "rack-failure";
        case FaultKind::kInstanceOutage: return "instance-outage";
    }
    throw std::invalid_argument("to_string: unknown FaultKind");
}

namespace {

/// Sampled hardware repair time with the configured mean, never below one
/// slot (a crash always costs at least the slot it lands on).
TimeSlot sample_down_slots(common::Rng& rng, double mttr) {
    const double draw = rng.exponential(1.0 / mttr);
    return std::max<TimeSlot>(1, static_cast<TimeSlot>(std::lround(draw)));
}

}  // namespace

FaultSchedule generate_fault_schedule(const core::Instance& instance,
                                      const std::vector<core::Decision>& decisions,
                                      const FaultInjectorConfig& config,
                                      std::uint64_t seed) {
    if (decisions.size() != instance.requests.size())
        throw std::invalid_argument(
            "generate_fault_schedule: decisions/requests size mismatch");
    VNFR_CHECK_PROB(config.cloudlet_crash_per_slot);
    VNFR_CHECK_PROB(config.instance_crash_per_slot);
    VNFR_CHECK_PROB(config.transient_blip_per_slot);
    VNFR_CHECK_PROB(config.rack_failure_per_slot);
    VNFR_CHECK(std::isfinite(config.cloudlet_mttr_slots) &&
                   config.cloudlet_mttr_slots > 0.0,
               "cloudlet_mttr_slots must be positive and finite, got ",
               config.cloudlet_mttr_slots);
    VNFR_CHECK(config.rack_span >= 1, "rack_span must be >= 1");

    const std::size_t m = instance.network.cloudlet_count();
    common::Rng rng(seed);
    FaultSchedule schedule;

    // Requests are sorted by arrival, so a sliding window of active admitted
    // requests per slot needs one pass.
    std::size_t next_request = 0;
    std::vector<std::size_t> active;
    for (TimeSlot t = 0; t < instance.horizon; ++t) {
        while (next_request < instance.requests.size() &&
               instance.requests[next_request].arrival == t) {
            if (decisions[next_request].admitted) active.push_back(next_request);
            ++next_request;
        }
        std::erase_if(active,
                      [&](std::size_t i) { return !instance.requests[i].covers(t); });

        for (std::size_t j = 0; j < m; ++j) {
            const CloudletId c{static_cast<std::int64_t>(j)};
            if (rng.bernoulli(config.cloudlet_crash_per_slot)) {
                FaultEvent e;
                e.slot = t;
                e.kind = FaultKind::kCloudletCrash;
                e.cloudlet = c;
                e.down_slots = sample_down_slots(rng, config.cloudlet_mttr_slots);
                schedule.events.push_back(e);
                ++schedule.cloudlet_crashes;
            }
            if (rng.bernoulli(config.transient_blip_per_slot)) {
                FaultEvent e;
                e.slot = t;
                e.kind = FaultKind::kTransientBlip;
                e.cloudlet = c;
                e.down_slots = 1;
                schedule.events.push_back(e);
                ++schedule.transient_blips;
            }
        }

        if (m > 0 && rng.bernoulli(config.rack_failure_per_slot)) {
            FaultEvent e;
            e.slot = t;
            e.kind = FaultKind::kRackFailure;
            const auto base = static_cast<std::size_t>(
                rng.uniform_int(0, static_cast<std::int64_t>(m) - 1));
            e.cloudlet = CloudletId{static_cast<std::int64_t>(base)};
            e.span = std::min(config.rack_span, m - base);
            e.down_slots = sample_down_slots(rng, config.cloudlet_mttr_slots);
            schedule.events.push_back(e);
            ++schedule.rack_failures;
        }

        for (const std::size_t i : active) {
            if (!rng.bernoulli(config.instance_crash_per_slot)) continue;
            const core::Placement& p = decisions[i].placement;
            if (p.sites.empty()) continue;
            FaultEvent e;
            e.slot = t;
            e.kind = FaultKind::kInstanceCrash;
            e.request_index = i;
            e.site = static_cast<std::size_t>(
                rng.uniform_int(0, static_cast<std::int64_t>(p.sites.size()) - 1));
            const int replicas = std::max(1, p.sites[e.site].replicas);
            e.replica = static_cast<std::size_t>(rng.uniform_int(0, replicas - 1));
            e.cloudlet = p.sites[e.site].cloudlet;
            schedule.events.push_back(e);
            ++schedule.instance_crashes;
        }
    }
    return schedule;
}

namespace {

/// One Markov component: a cloudlet, or a replica of an admitted placement.
struct Chain {
    static constexpr std::size_t npos = static_cast<std::size_t>(-1);
    bool up{true};
    double p_fail{0};    ///< up -> down
    double p_repair{0};  ///< down -> up
    FaultEvent proto;    ///< what a down run becomes (slot/length filled in)
    TimeSlot from{0};    ///< down runs are clipped to [from, until)
    TimeSlot until{0};
    std::size_t open{npos};  ///< event of the down run in progress
};

Chain make_chain(common::Rng& rng, double reliability, double mttr) {
    Chain chain;
    chain.p_repair = 1.0 / mttr;
    // Stationary up-fraction p_repair / (p_repair + p_fail) = reliability.
    chain.p_fail = chain.p_repair * (1.0 - reliability) / reliability;
    // Clamp: extremely unreliable components with short repair could push
    // p_fail above 1; treat as "fails every slot it is up".
    if (chain.p_fail > 1.0) chain.p_fail = 1.0;
    VNFR_CHECK_PROB(chain.p_repair);
    VNFR_CHECK_PROB(chain.p_fail);
    chain.up = rng.bernoulli(reliability);  // start in steady state
    chain.proto.down_slots = 0;
    return chain;
}

}  // namespace

FaultSchedule generate_markov_schedule(const core::Instance& instance,
                                       const std::vector<core::Decision>& decisions,
                                       const MarkovFaultConfig& config,
                                       std::uint64_t seed) {
    if (decisions.size() != instance.requests.size())
        throw std::invalid_argument(
            "generate_markov_schedule: decisions/requests size mismatch");
    VNFR_CHECK(std::isfinite(config.cloudlet_mttr_slots) &&
                   config.cloudlet_mttr_slots >= 1.0,
               "cloudlet_mttr_slots must be finite and >= 1, got ",
               config.cloudlet_mttr_slots);
    VNFR_CHECK(std::isfinite(config.instance_mttr_slots) &&
                   config.instance_mttr_slots >= 1.0,
               "instance_mttr_slots must be finite and >= 1, got ",
               config.instance_mttr_slots);

    // Every cloudlet, then every replica of each admitted placement; this
    // order is also the per-slot draw order.
    const std::size_t m = instance.network.cloudlet_count();
    common::Rng rng(seed);
    std::vector<Chain> chains;
    for (std::size_t j = 0; j < m; ++j) {
        const CloudletId c{static_cast<std::int64_t>(j)};
        Chain chain = make_chain(rng, instance.network.cloudlet(c).reliability,
                                 config.cloudlet_mttr_slots);
        chain.proto.kind = FaultKind::kTransientBlip;
        chain.proto.cloudlet = c;
        chain.until = instance.horizon;
        chains.push_back(chain);
    }
    for (std::size_t i = 0; i < decisions.size(); ++i) {
        if (!decisions[i].admitted) continue;
        const workload::Request& req = instance.requests[i];
        const std::vector<core::Site>& sites = decisions[i].placement.sites;
        for (std::size_t s = 0; s < sites.size(); ++s) {
            if (!sites[s].cloudlet.valid() || sites[s].cloudlet.index() >= m)
                throw std::invalid_argument(
                    "generate_markov_schedule: unknown cloudlet in placement");
            if (sites[s].replicas < 1)
                throw std::invalid_argument(
                    "generate_markov_schedule: non-positive replicas");
            for (int k = 0; k < sites[s].replicas; ++k) {
                Chain chain = make_chain(rng, instance.catalog.reliability(req.vnf),
                                         config.instance_mttr_slots);
                chain.proto.kind = FaultKind::kInstanceOutage;
                chain.proto.cloudlet = sites[s].cloudlet;
                chain.proto.request_index = i;
                chain.proto.site = s;
                chain.proto.replica = static_cast<std::size_t>(k);
                chain.from = req.arrival;
                chain.until = req.end();
                chains.push_back(chain);
            }
        }
    }

    FaultSchedule schedule;
    for (TimeSlot t = 0; t < instance.horizon; ++t) {
        for (Chain& chain : chains) {
            if (chain.up) {
                if (rng.bernoulli(chain.p_fail)) chain.up = false;
            } else {
                if (rng.bernoulli(chain.p_repair)) chain.up = true;
            }
            if (chain.up || t < chain.from || t >= chain.until) {
                chain.open = Chain::npos;
                continue;
            }
            if (chain.open == Chain::npos) {  // a down run starts (or enters the window)
                chain.open = schedule.events.size();
                schedule.events.push_back(chain.proto);
                schedule.events.back().slot = t;
                ++(chain.proto.kind == FaultKind::kTransientBlip ? schedule.transient_blips
                                                                 : schedule.instance_outages);
            }
            ++schedule.events[chain.open].down_slots;
        }
    }
    return schedule;
}

}  // namespace vnfr::sim
