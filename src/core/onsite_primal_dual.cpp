#include "core/onsite_primal_dual.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "common/contracts.hpp"
#include "common/math.hpp"
#include "core/dual_limits.hpp"

namespace vnfr::core {

namespace {

/// Catalog-level estimate of the typical placement demand a = N * c(f),
/// averaged over (VNF type, cloudlet) pairs at a representative
/// requirement. Uses no knowledge of the request sequence, so the
/// scheduler stays a legitimate online algorithm.
double estimate_typical_demand(const Instance& instance, const vnf::ReplicaTable& table) {
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

}  // namespace

OnsitePrimalDual::OnsitePrimalDual(const Instance& instance, OnsitePrimalDualConfig config)
    : instance_(instance),
      config_(config),
      ledger_(instance.network.capacities(), instance.horizon,
              config.enforce_capacity ? edge::CapacityPolicy::kEnforce
                                      : edge::CapacityPolicy::kRecord),
      table_(instance.catalog, instance.network.reliabilities()),
      lambda_(instance.network.cloudlet_count(),
              std::vector<double>(static_cast<std::size_t>(instance.horizon), 0.0)) {
    if (config_.dual_capacity_scale < 0.0)
        throw std::invalid_argument("OnsitePrimalDual: negative dual_capacity_scale");
    if (config_.enforce_capacity) {
        dual_scale_ = config_.dual_capacity_scale > 0.0 ? config_.dual_capacity_scale
                                                        : estimate_typical_demand(instance, table_);
    } else {
        dual_scale_ = 1.0;  // Theorem 1 analyses the literal Eq. 34
    }
}

SchedulerState OnsitePrimalDual::export_state() const {
    return SchedulerState{lambda_, ledger_.usage_table()};
}

void OnsitePrimalDual::import_state(const SchedulerState& state) {
    validate_scheduler_state(state, instance_.network.cloudlet_count(),
                             instance_.horizon);
    ledger_.restore_usage(state.usage);
    lambda_ = state.lambda;
    deltas_.clear();
}

std::string_view OnsitePrimalDual::name() const {
    return config_.enforce_capacity ? "onsite-primal-dual" : "onsite-primal-dual-pure";
}

double OnsitePrimalDual::lambda(CloudletId j, TimeSlot t) const {
    return lambda_.at(j.index()).at(static_cast<std::size_t>(t));
}

std::optional<int> OnsitePrimalDual::replica_count(const workload::Request& request,
                                                   CloudletId j) const {
    // Both lookups throw std::out_of_range for ids the table does not cover.
    const edge::Cloudlet& cloudlet = instance_.network.cloudlet(j);
    return table_.replicas(instance_.catalog.get(request.vnf).id, cloudlet.id,
                           request.requirement);
}

std::optional<double> OnsitePrimalDual::dual_price(const workload::Request& request,
                                                   CloudletId j) const {
    const std::optional<int> n = replica_count(request, j);
    if (!n) return std::nullopt;
    const double demand = *n * instance_.catalog.compute_units(request.vnf);
    double price = 0.0;
    const auto& lam = lambda_[j.index()];
    for (TimeSlot t = request.arrival; t < request.end(); ++t) {
        price += demand * lam[static_cast<std::size_t>(t)];
    }
    return price;
}

Decision OnsitePrimalDual::decide(const workload::Request& request) {
    const std::size_t m = instance_.network.cloudlet_count();
    const double compute = instance_.catalog.compute_units(request.vnf);
    common::require_open_unit(request.requirement, "reliability requirement");

    // Arg-min of the dual price over feasible cloudlets (lines 3-7). Price
    // ties (ubiquitous early on, when whole windows still have lambda = 0)
    // are broken toward the smaller resource demand N_ij * c(f_i): any
    // arg-min satisfies the analysis, and the cheaper one wastes the least
    // capacity.
    CloudletId best;
    int best_replicas = 0;
    double best_price = std::numeric_limits<double>::infinity();
    double best_demand = std::numeric_limits<double>::infinity();
    bool any_reliable = false;
    for (std::size_t idx = 0; idx < m; ++idx) {
        const CloudletId j{static_cast<std::int64_t>(idx)};
        const std::optional<int> n = table_.replicas(request.vnf, j, request.requirement);
        if (!n) continue;  // r(c_j) <= R_i: this cloudlet can never satisfy rho_i
        // Eq. (3) only yields a count when r(c_j) > R_i, and it is >= 1.
        VNFR_CHECK(*n >= 1, "Eq. (3) replica count for request ", request.id.value,
                   " on cloudlet ", j.value);
        VNFR_DCHECK(instance_.network.cloudlet(j).reliability > request.requirement,
                    "feasibility precondition r(c_j) > R_i violated");
        any_reliable = true;
        const double demand = *n * compute;
        if (config_.enforce_capacity &&
            !ledger_.fits(j, request.arrival, request.end(), demand)) {
            continue;
        }
        double price = 0.0;
        const auto& lam = lambda_[idx];
        for (TimeSlot t = request.arrival; t < request.end(); ++t) {
            VNFR_DCHECK(lam[static_cast<std::size_t>(t)] >= 0.0, "dual price lambda_",
                        j.value, "(", t, ") went negative");
            price += demand * lam[static_cast<std::size_t>(t)];
        }
        VNFR_CHECK_FINITE(price);
        if (price < best_price - 1e-12 ||
            (price < best_price + 1e-12 && demand < best_demand)) {
            best_price = std::min(best_price, price);
            best = j;
            best_replicas = *n;
            best_demand = demand;
        }
    }

    // Admission test (line 8): pay_i must exceed the cheapest dual price.
    if (!best.valid() || request.payment - best_price <= 0.0) {
        if (config_.track_deltas) deltas_.push_back(0.0);
        Decision rejected;
        if (!any_reliable) {
            rejected.reject_reason = RejectReason::kInfeasibleRequirement;
        } else if (!best.valid()) {
            rejected.reject_reason = RejectReason::kNoCapacity;
        } else {
            rejected.reject_reason = RejectReason::kPricedOut;
        }
        return rejected;
    }

    const double demand = best_replicas * compute;
    ledger_.reserve(best, request.arrival, request.end(), demand);
    VNFR_CHECK(request.payment - best_price > 0.0,
               "admitted request must have positive primal increment (Eq. 33)");
    if (config_.track_deltas) deltas_.push_back(request.payment - best_price);  // Eq. 33

    // Dual update (Eq. 34) on the chosen cloudlet's window, against the
    // (possibly scaled) capacity.
    const double cap = instance_.network.cloudlet(best).capacity * dual_scale_;
    VNFR_CHECK(cap > 0.0, "dual update capacity for cloudlet ", best.value);
    const double mult = 1.0 + demand / cap;
    const double add = demand * request.payment / (request.duration * cap);
    auto& lam = lambda_[best.index()];
    for (TimeSlot t = request.arrival; t < request.end(); ++t) {
        auto& value = lam[static_cast<std::size_t>(t)];
        double updated = value * mult + add;
        // Saturate the multiplicative recursion (see core/dual_limits.hpp):
        // beyond the ceiling every representable payment is priced out
        // anyway, and 10^6-request single-cloudlet traces would otherwise
        // overflow to +inf. !(x < c) also catches an inf/NaN intermediate.
        if (!(updated < kDualPriceCeiling)) updated = kDualPriceCeiling;
        value = VNFR_CHECK_FINITE(updated);
        // Eq. (34) is multiplicative with mult > 1 and add > 0, so lambda
        // stays monotonically non-negative.
        VNFR_DCHECK(value >= 0.0, "Eq. (34) dual update for ", best.value, " slot ", t);
    }

    Decision d;
    d.admitted = true;
    d.placement = Placement{request.id, {Site{best, best_replicas}}};
    return d;
}

}  // namespace vnfr::core
