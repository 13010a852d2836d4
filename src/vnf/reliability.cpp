#include "vnf/reliability.hpp"

#include <cmath>
#include <stdexcept>

#include "common/contracts.hpp"
#include "common/math.hpp"
#include "vnf/catalog.hpp"

namespace vnfr::vnf {

double onsite_availability(double cloudlet_rel, double vnf_rel, int replicas) {
    common::require_open_unit(cloudlet_rel, "cloudlet reliability");
    common::require_open_unit(vnf_rel, "VNF reliability");
    if (replicas < 0) throw std::invalid_argument("onsite_availability: negative replicas");
    return cloudlet_rel * common::at_least_one(vnf_rel, replicas);
}

std::optional<int> min_onsite_replicas(double cloudlet_rel, double vnf_rel,
                                       double requirement) {
    common::require_open_unit(cloudlet_rel, "cloudlet reliability");
    common::require_open_unit(vnf_rel, "VNF reliability");
    common::require_open_unit(requirement, "reliability requirement");
    // Even infinitely many instances cannot beat the cloudlet's own
    // reliability: P(A) -> r(c) as N -> inf (Eq. 2). The margin also
    // rejects cloudlets sitting within rounding distance of R_i, where the
    // closed form's log argument collapses toward 0 and the replica count
    // diverges (r(c_j) = R_i ± 1e-12 both land here).
    if (cloudlet_rel <= requirement + kOnsiteFeasibilityMargin) return std::nullopt;

    // Closed form (Eq. 3): N = ceil( ln(1 - R/r_c) / ln(1 - r_f) ). The
    // r(c_j) > R_i guard above keeps the log argument inside (0, 1).
    const double target = 1.0 - requirement / cloudlet_rel;
    VNFR_CHECK(target > 0.0 && target < 1.0, "Eq. (3) log argument with r_c=",
               cloudlet_rel, " R=", requirement);
    const double n_real = std::log(target) / common::log1m(vnf_rel);
    // Defined outcome instead of a huge N_ij (or UB casting inf to int):
    // a count beyond the ceiling is infeasible, not astronomically priced.
    if (!(n_real < static_cast<double>(kMaxOnsiteReplicas))) return std::nullopt;
    int n = std::max(1, static_cast<int>(std::ceil(n_real - 1e-12)));

    // The closed form can round the wrong way at the boundary; nudge to the
    // exact minimum.
    while (onsite_availability(cloudlet_rel, vnf_rel, n) < requirement) {
        if (++n > kMaxOnsiteReplicas) return std::nullopt;
    }
    while (n > 1 && onsite_availability(cloudlet_rel, vnf_rel, n - 1) >= requirement) --n;
    return n;
}

double offsite_log_failure(double vnf_rel, double cloudlet_rel) {
    common::require_open_unit(vnf_rel, "VNF reliability");
    common::require_open_unit(cloudlet_rel, "cloudlet reliability");
    return common::log1m(vnf_rel * cloudlet_rel);
}

double offsite_availability(double vnf_rel, std::span<const double> cloudlet_rels) {
    double log_all_fail = 0.0;
    for (const double rc : cloudlet_rels) {
        log_all_fail += offsite_log_failure(vnf_rel, rc);
    }
    if (cloudlet_rels.empty()) return 0.0;
    return common::one_minus_exp(log_all_fail);
}

bool offsite_meets(double vnf_rel, std::span<const double> cloudlet_rels,
                   double requirement) {
    common::require_open_unit(requirement, "reliability requirement");
    // Compare in log space: P(A) >= R  <=>  sum log(1 - r_f r_c) <= log(1 - R).
    double log_all_fail = 0.0;
    for (const double rc : cloudlet_rels) {
        log_all_fail += offsite_log_failure(vnf_rel, rc);
    }
    if (cloudlet_rels.empty()) return false;
    return log_all_fail <= common::log1m(requirement);
}

namespace {

/// Below this requirement Eq. 3's log argument 1 - R/r(c) rounds to 1 and
/// the closed form fails its own check; the table defers to it there.
constexpr double kSmallestTabulatedRequirement = 0x1p-50;

}  // namespace

ReplicaTable::ReplicaTable(const Catalog& catalog, std::span<const double> cloudlet_rels)
    : cloudlet_rels_(cloudlet_rels.begin(), cloudlet_rels.end()) {
    vnf_rels_.reserve(catalog.size());
    for (const VnfType& type : catalog.types()) vnf_rels_.push_back(type.reliability);
    const std::size_t pairs = vnf_rels_.size() * cloudlet_rels_.size();
    rows_.reserve(pairs);
    log_failure_.reserve(pairs);
    log_failure_all_.reserve(vnf_rels_.size());
    for (const double vnf_rel : vnf_rels_) {
        double log_fail_all = 0.0;
        for (const double cloudlet_rel : cloudlet_rels_) {
            Row row{static_cast<std::uint32_t>(thresholds_.size()), 0};
            double last = 0.0;
            for (int n = 1;; ++n) {
                const double t = onsite_availability(cloudlet_rel, vnf_rel, n);
                // Monotone one entry past the row's end: the closed form's
                // nudge loops may probe N + 1 before settling on N.
                VNFR_CHECK(t >= last, "Eq. (2) availability falls at n=", n,
                           " for r_c=", cloudlet_rel, " r_f=", vnf_rel);
                // A row ends where T_n saturates bit for bit, or at the cap.
                if (t == last || n > kReplicaTableWidth) break;  // vnfr-lint: allow(float-eq) bitwise plateau
                thresholds_.push_back(t);
                ++row.size;
                last = t;
            }
            rows_.push_back(row);

            const double log_fail = offsite_log_failure(vnf_rel, cloudlet_rel);
            VNFR_CHECK(log_fail < 0.0, "offsite log-failure must be negative for r_c=",
                       cloudlet_rel, " r_f=", vnf_rel);
            log_failure_.push_back(log_fail);
            log_fail_all += log_fail;
        }
        log_failure_all_.push_back(log_fail_all);
    }
}

std::size_t ReplicaTable::pair(VnfTypeId type, CloudletId cloudlet) const {
    VNFR_DCHECK(type.index() < vnf_rels_.size() && cloudlet.index() < cloudlet_rels_.size(),
                "replica table lookup out of range: type ", type.value, " cloudlet ",
                cloudlet.value);
    return type.index() * cloudlet_rels_.size() + cloudlet.index();
}

std::optional<int> ReplicaTable::replicas(VnfTypeId type, CloudletId cloudlet,
                                          double requirement) const {
    const std::size_t p = pair(type, cloudlet);
    const double cloudlet_rel = cloudlet_rels_[cloudlet.index()];
    if (requirement >= kSmallestTabulatedRequirement && requirement < 1.0) {
        // The same feasibility test as min_onsite_replicas.
        if (cloudlet_rel <= requirement + kOnsiteFeasibilityMargin) return std::nullopt;
        const Row row = rows_[p];
        const double* thresholds = thresholds_.data() + row.begin;
        for (std::uint32_t k = 0; k < row.size; ++k) {
            if (thresholds[k] >= requirement) return static_cast<int>(k) + 1;
        }
    }
    return min_onsite_replicas(cloudlet_rel, vnf_rels_[type.index()], requirement);
}

double ReplicaTable::log_failure(VnfTypeId type, CloudletId cloudlet) const {
    return log_failure_[pair(type, cloudlet)];
}

double ReplicaTable::log_failure_all(VnfTypeId type) const {
    VNFR_DCHECK(type.index() < vnf_rels_.size(), "replica table lookup out of range: type ",
                type.value);
    return log_failure_all_[type.index()];
}

}  // namespace vnfr::vnf
