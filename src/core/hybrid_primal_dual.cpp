#include "core/hybrid_primal_dual.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "common/contracts.hpp"
#include "common/math.hpp"

namespace vnfr::core {

namespace {

double estimate_onsite_demand(const Instance& instance, const vnf::ReplicaTable& table) {
    double total = 0.0;
    std::size_t pairs = 0;
    for (const vnf::VnfType& type : instance.catalog.types()) {
        for (const edge::Cloudlet& c : instance.network.cloudlets()) {
            const double representative_r = std::min(0.95, c.reliability * 0.97);
            const auto n = table.replicas(type.id, c.id, representative_r);
            if (!n) continue;
            total += *n * type.compute_units;
            ++pairs;
        }
    }
    return pairs == 0 ? 1.0 : std::max(1.0, total / static_cast<double>(pairs));
}

double estimate_offsite_demand(const Instance& instance, const vnf::ReplicaTable& table) {
    double total = 0.0;
    std::size_t pairs = 0;
    for (const vnf::VnfType& type : instance.catalog.types()) {
        for (const edge::Cloudlet& c : instance.network.cloudlets()) {
            const double sites = common::log1m(0.95) / table.log_failure(type.id, c.id);
            total += std::max(1.0, sites) * type.compute_units;
            ++pairs;
        }
    }
    return pairs == 0 ? 1.0 : std::max(1.0, total / static_cast<double>(pairs));
}

}  // namespace

HybridPrimalDual::HybridPrimalDual(const Instance& instance, HybridPrimalDualConfig config)
    : instance_(instance),
      ledger_(instance.network.capacities(), instance.horizon,
              edge::CapacityPolicy::kEnforce),
      table_(instance.catalog, instance.network.reliabilities()),
      lambda_onsite_(instance.network.cloudlet_count(),
                     std::vector<double>(static_cast<std::size_t>(instance.horizon), 0.0)),
      lambda_offsite_(instance.network.cloudlet_count(),
                      std::vector<double>(static_cast<std::size_t>(instance.horizon), 0.0)) {
    if (config.onsite_dual_capacity_scale < 0.0 || config.offsite_dual_capacity_scale < 0.0)
        throw std::invalid_argument("HybridPrimalDual: negative dual_capacity_scale");
    onsite_scale_ = config.onsite_dual_capacity_scale > 0.0
                        ? config.onsite_dual_capacity_scale
                        : estimate_onsite_demand(instance, table_);
    offsite_scale_ = config.offsite_dual_capacity_scale > 0.0
                         ? config.offsite_dual_capacity_scale
                         : estimate_offsite_demand(instance, table_);
}

std::optional<HybridPrimalDual::OnsiteOption> HybridPrimalDual::price_onsite(
    const workload::Request& request) const {
    const double compute = instance_.catalog.compute_units(request.vnf);

    std::optional<OnsiteOption> best;
    double best_demand = std::numeric_limits<double>::infinity();
    for (const edge::Cloudlet& c : instance_.network.cloudlets()) {
        const auto n = table_.replicas(request.vnf, c.id, request.requirement);
        if (!n) continue;
        VNFR_CHECK(*n >= 1, "Eq. (3) replica count for request ", request.id.value,
                   " on cloudlet ", c.id.value);
        const double demand = *n * compute;
        if (!ledger_.fits(c.id, request.arrival, request.end(), demand)) continue;
        double price = 0.0;
        const auto& lam = lambda_onsite_[c.id.index()];
        for (TimeSlot t = request.arrival; t < request.end(); ++t) {
            VNFR_DCHECK(lam[static_cast<std::size_t>(t)] >= 0.0,
                        "onsite dual price lambda_", c.id.value, "(", t, ") went negative");
            price += demand * lam[static_cast<std::size_t>(t)];
        }
        VNFR_CHECK_FINITE(price);
        if (!best || price < best->price - 1e-12 ||
            (price < best->price + 1e-12 && demand < best_demand)) {
            best = OnsiteOption{c.id, *n, price};
            best_demand = demand;
        }
    }
    return best;
}

std::optional<HybridPrimalDual::OffsiteOption> HybridPrimalDual::price_offsite(
    const workload::Request& request) const {
    const double compute = instance_.catalog.compute_units(request.vnf);
    const double log_target = common::log1m(request.requirement);
    VNFR_CHECK(log_target < 0.0, "requirement R_i must be positive for request ",
               request.id.value);

    struct Candidate {
        CloudletId cloudlet;
        double w;
    };
    std::vector<Candidate> candidates;
    for (const edge::Cloudlet& c : instance_.network.cloudlets()) {
        double lambda_sum = 0.0;
        const auto& lam = lambda_offsite_[c.id.index()];
        for (TimeSlot t = request.arrival; t < request.end(); ++t) {
            VNFR_DCHECK(lam[static_cast<std::size_t>(t)] >= 0.0,
                        "offsite dual price lambda_", c.id.value, "(", t,
                        ") went negative");
            lambda_sum += lam[static_cast<std::size_t>(t)];
        }
        // ln(1 - r_f r_c) < 0, checked when the table was built.
        const double w =
            VNFR_CHECK_FINITE(lambda_sum / -table_.log_failure(request.vnf, c.id));
        if (request.payment + log_target * compute * w <= 0.0) continue;
        candidates.push_back({c.id, w});
    }
    std::sort(candidates.begin(), candidates.end(), [&](const Candidate& a, const Candidate& b) {
        if (a.w < b.w - 1e-12 || b.w < a.w - 1e-12) return a.w < b.w;
        const double ra = instance_.network.cloudlet(a.cloudlet).reliability;
        const double rb = instance_.network.cloudlet(b.cloudlet).reliability;
        if (!common::almost_equal(ra, rb)) return ra > rb;
        return a.cloudlet < b.cloudlet;
    });

    OffsiteOption option;
    double log_fail = 0.0;
    for (const Candidate& cand : candidates) {
        if (!ledger_.fits(cand.cloudlet, request.arrival, request.end(), compute)) continue;
        option.sites.push_back(cand.cloudlet);
        const auto& lam = lambda_offsite_[cand.cloudlet.index()];
        for (TimeSlot t = request.arrival; t < request.end(); ++t) {
            option.price += compute * lam[static_cast<std::size_t>(t)];
        }
        log_fail += table_.log_failure(request.vnf, cand.cloudlet);
        if (log_fail <= log_target) return option;
    }
    return std::nullopt;
}

void HybridPrimalDual::admit_onsite(const workload::Request& request,
                                    const OnsiteOption& option) {
    const double compute = instance_.catalog.compute_units(request.vnf);
    const double demand = option.replicas * compute;
    ledger_.reserve(option.cloudlet, request.arrival, request.end(), demand);
    const double cap =
        instance_.network.cloudlet(option.cloudlet).capacity * onsite_scale_;
    VNFR_CHECK(cap > 0.0, "dual update capacity for cloudlet ", option.cloudlet.value);
    const double mult = 1.0 + demand / cap;
    const double add = demand * request.payment / (request.duration * cap);
    auto& lam = lambda_onsite_[option.cloudlet.index()];
    for (TimeSlot t = request.arrival; t < request.end(); ++t) {
        auto& value = lam[static_cast<std::size_t>(t)];
        value = value * mult + add;
        VNFR_DCHECK(std::isfinite(value) && value >= 0.0, "Eq. (34) dual update for ",
                    option.cloudlet.value, " slot ", t);
    }
    ++onsite_admissions_;
}

void HybridPrimalDual::admit_offsite(const workload::Request& request,
                                     const OffsiteOption& option) {
    const double compute = instance_.catalog.compute_units(request.vnf);
    const double log_target = common::log1m(request.requirement);
    for (const CloudletId j : option.sites) {
        ledger_.reserve(j, request.arrival, request.end(), compute);
        const edge::Cloudlet& cloudlet = instance_.network.cloudlet(j);
        const double ratio = log_target / table_.log_failure(request.vnf, j);
        VNFR_CHECK(ratio > 0.0, "Eq. (67) growth ratio for cloudlet ", j.value);
        const double cap = cloudlet.capacity * offsite_scale_;
        VNFR_CHECK(cap > 0.0, "dual update capacity for cloudlet ", j.value);
        const double mult = 1.0 + ratio * compute / cap;
        const double add = ratio * compute * request.payment / (request.duration * cap);
        auto& lam = lambda_offsite_[j.index()];
        for (TimeSlot t = request.arrival; t < request.end(); ++t) {
            auto& value = lam[static_cast<std::size_t>(t)];
            value = value * mult + add;
            VNFR_DCHECK(std::isfinite(value) && value >= 0.0,
                        "Eq. (67) dual update for ", j.value, " slot ", t);
        }
    }
    ++offsite_admissions_;
}

Decision HybridPrimalDual::decide(const workload::Request& request) {
    common::require_open_unit(request.requirement, "reliability requirement");
    const std::optional<OnsiteOption> onsite = price_onsite(request);
    const std::optional<OffsiteOption> offsite = price_offsite(request);

    const double profit_on =
        onsite ? request.payment - onsite->price : -std::numeric_limits<double>::infinity();
    const double profit_off = offsite ? request.payment - offsite->price
                                      : -std::numeric_limits<double>::infinity();
    if (profit_on <= 0.0 && profit_off <= 0.0) {
        Decision rejected;
        if (onsite || offsite) {
            // At least one scheme could place the request; the prices said no.
            rejected.reject_reason = RejectReason::kPricedOut;
        } else {
            // Neither scheme found a placement. Infeasible only when even
            // the full cloudlet set cannot reach R off-site (the weaker of
            // the two schemes' feasibility conditions).
            rejected.reject_reason =
                table_.log_failure_all(request.vnf) <= common::log1m(request.requirement)
                    ? RejectReason::kNoCapacity
                    : RejectReason::kInfeasibleRequirement;
        }
        return rejected;
    }

    Decision d;
    d.admitted = true;
    if (profit_on >= profit_off) {
        admit_onsite(request, *onsite);
        d.placement = Placement{request.id, {Site{onsite->cloudlet, onsite->replicas}}};
    } else {
        admit_offsite(request, *offsite);
        Placement placement{request.id, {}};
        for (const CloudletId j : offsite->sites) placement.sites.push_back(Site{j, 1});
        d.placement = std::move(placement);
    }
    return d;
}

}  // namespace vnfr::core
