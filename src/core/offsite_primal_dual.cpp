#include "core/offsite_primal_dual.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/contracts.hpp"
#include "common/math.hpp"
#include "core/dual_limits.hpp"

namespace vnfr::core {

namespace {

/// Catalog-level estimate of the typical per-request demand under the
/// off-site scheme: c(f) times the expected number of sites needed,
/// ln(1-R)/ln(1 - r_f r_c), at a representative requirement. Uses no
/// knowledge of the request sequence.
double estimate_typical_demand(const Instance& instance, const vnf::ReplicaTable& table) {
    double total = 0.0;
    std::size_t pairs = 0;
    for (const vnf::VnfType& type : instance.catalog.types()) {
        for (const edge::Cloudlet& c : instance.network.cloudlets()) {
            const double representative_r = 0.95;
            const double sites =
                common::log1m(representative_r) / table.log_failure(type.id, c.id);
            total += std::max(1.0, sites) * type.compute_units;
            ++pairs;
        }
    }
    return pairs == 0 ? 1.0 : std::max(1.0, total / static_cast<double>(pairs));
}

}  // namespace

OffsitePrimalDual::OffsitePrimalDual(const Instance& instance,
                                     OffsitePrimalDualConfig config)
    : instance_(instance),
      ledger_(instance.network.capacities(), instance.horizon,
              edge::CapacityPolicy::kEnforce),
      table_(instance.catalog, instance.network.reliabilities()),
      lambda_(instance.network.cloudlet_count(),
              std::vector<double>(static_cast<std::size_t>(instance.horizon), 0.0)) {
    if (config.dual_capacity_scale < 0.0)
        throw std::invalid_argument("OffsitePrimalDual: negative dual_capacity_scale");
    dual_scale_ = config.dual_capacity_scale > 0.0 ? config.dual_capacity_scale
                                                   : estimate_typical_demand(instance, table_);
}

SchedulerState OffsitePrimalDual::export_state() const {
    return SchedulerState{lambda_, ledger_.usage_table()};
}

void OffsitePrimalDual::import_state(const SchedulerState& state) {
    validate_scheduler_state(state, instance_.network.cloudlet_count(),
                             instance_.horizon);
    ledger_.restore_usage(state.usage);
    lambda_ = state.lambda;
}

double OffsitePrimalDual::lambda(CloudletId j, TimeSlot t) const {
    return lambda_.at(j.index()).at(static_cast<std::size_t>(t));
}

double OffsitePrimalDual::normalized_price(const workload::Request& request,
                                           CloudletId j) const {
    // Both lookups throw std::out_of_range for ids the table does not cover.
    // ln(1 - r_f r_c) < 0 (checked when the table was built), so the
    // normalized price w_j = sum(lambda) / -ln(1 - r_f r_c) stays >= 0.
    const double log_pair = table_.log_failure(instance_.catalog.get(request.vnf).id,
                                               instance_.network.cloudlet(j).id);
    double lambda_sum = 0.0;
    const auto& lam = lambda_[j.index()];
    for (TimeSlot t = request.arrival; t < request.end(); ++t) {
        VNFR_DCHECK(lam[static_cast<std::size_t>(t)] >= 0.0, "dual price lambda_",
                    j.value, "(", t, ") went negative");
        lambda_sum += lam[static_cast<std::size_t>(t)];
    }
    return VNFR_CHECK_FINITE(lambda_sum / -log_pair);
}

Decision OffsitePrimalDual::decide(const workload::Request& request) {
    const std::size_t m = instance_.network.cloudlet_count();
    const double compute = instance_.catalog.compute_units(request.vnf);
    const double log_target = common::log1m(  // ln(1 - R_i)
        common::require_open_unit(request.requirement, "reliability requirement"));
    VNFR_CHECK(log_target < 0.0, "requirement R_i must be positive for request ",
               request.id.value);

    // Step 1: price every cloudlet and prune the unaffordable ones.
    struct Candidate {
        CloudletId cloudlet;
        double price;  ///< w_j
    };
    // Classification baseline: can the full cloudlet set meet R at all?
    const bool reachable = table_.log_failure_all(request.vnf) <= log_target;

    std::vector<Candidate> candidates;
    candidates.reserve(m);
    for (std::size_t idx = 0; idx < m; ++idx) {
        const CloudletId j{static_cast<std::int64_t>(idx)};
        const double w = normalized_price(request, j);
        // Line 5: pay_i + ln(1-R_i) * c(f_i) * w_j <= 0 -> skip cloudlet.
        if (request.payment + log_target * compute * w <= 0.0) continue;
        candidates.push_back({j, w});
    }
    if (candidates.empty()) {
        Decision rejected;
        rejected.reject_reason = reachable ? RejectReason::kPricedOut
                                           : RejectReason::kInfeasibleRequirement;
        return rejected;
    }

    // Step 2: cheapest-first greedy selection under residual capacity.
    // Price ties (whole windows still unpriced) are broken toward the more
    // reliable cloudlet, which needs the fewest sites to reach R_i.
    std::sort(candidates.begin(), candidates.end(),
              [&](const Candidate& a, const Candidate& b) {
                  if (a.price < b.price - 1e-12 || b.price < a.price - 1e-12) {
                      return a.price < b.price;
                  }
                  const double ra = instance_.network.cloudlet(a.cloudlet).reliability;
                  const double rb = instance_.network.cloudlet(b.cloudlet).reliability;
                  if (!common::almost_equal(ra, rb)) return ra > rb;
                  return a.cloudlet < b.cloudlet;
              });

    std::vector<CloudletId> selected;
    double log_fail = 0.0;  // sum of ln(1 - r_f r_c) over S(i)
    bool met = false;
    for (const Candidate& cand : candidates) {
        if (!ledger_.fits(cand.cloudlet, request.arrival, request.end(), compute)) continue;
        selected.push_back(cand.cloudlet);
        log_fail += table_.log_failure(request.vnf, cand.cloudlet);
        if (log_fail <= log_target) {
            met = true;
            break;
        }
    }
    if (!met) {
        // Line 22: reject, no state touched. Classify: if even the full
        // price-feasible candidate set ignoring capacity cannot reach R,
        // the pruning priced the request out; otherwise capacity blocked a
        // sufficient subset.
        Decision rejected;
        if (!reachable) {
            rejected.reject_reason = RejectReason::kInfeasibleRequirement;
        } else {
            double log_fail_candidates = 0.0;
            for (const Candidate& cand : candidates) {
                log_fail_candidates += table_.log_failure(request.vnf, cand.cloudlet);
            }
            rejected.reject_reason = log_fail_candidates <= log_target
                                         ? RejectReason::kNoCapacity
                                         : RejectReason::kPricedOut;
        }
        return rejected;
    }

    // Step 3: admit; reserve and update duals per selected cloudlet.
    Placement placement{request.id, {}};
    placement.sites.reserve(selected.size());
    for (const CloudletId j : selected) {
        ledger_.reserve(j, request.arrival, request.end(), compute);
        placement.sites.push_back(Site{j, 1});

        const edge::Cloudlet& cloudlet = instance_.network.cloudlet(j);
        const double log_pair = table_.log_failure(request.vnf, j);
        // Eq. 67 against the (possibly scaled) capacity;
        // ln(1-R)/ln(1-r_f r_c) > 0, so lambda grows monotonically.
        const double ratio = log_target / log_pair;
        VNFR_CHECK(ratio > 0.0, "Eq. (67) growth ratio for cloudlet ", j.value);
        const double cap = cloudlet.capacity * dual_scale_;
        VNFR_CHECK(cap > 0.0, "dual update capacity for cloudlet ", j.value);
        const double mult = 1.0 + ratio * compute / cap;
        const double add = ratio * compute * request.payment / (request.duration * cap);
        auto& lam = lambda_[j.index()];
        for (TimeSlot t = request.arrival; t < request.end(); ++t) {
            auto& value = lam[static_cast<std::size_t>(t)];
            double updated = value * mult + add;
            // Saturate as in Eq. 34 (see core/dual_limits.hpp): past the
            // ceiling the slot prices out every representable payment, and
            // the unbounded recursion would overflow on long traces.
            if (!(updated < kDualPriceCeiling)) updated = kDualPriceCeiling;
            value = VNFR_CHECK_FINITE(updated);
            VNFR_DCHECK(value >= 0.0, "Eq. (67) dual update for ", j.value, " slot ", t);
        }
    }

    Decision d;
    d.admitted = true;
    d.placement = std::move(placement);
    return d;
}

}  // namespace vnfr::core
