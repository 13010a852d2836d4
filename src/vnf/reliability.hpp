// Replica mathematics from Section III of the paper.
//
// On-site scheme (all instances in one cloudlet c_j):
//   P(A_i) = r(c_j) * (1 - (1 - r(f_i))^N)                      (Eq. 2)
//   N_ij   = ceil( log_{1-r(f_i)} (1 - R_i / r(c_j)) )          (Eq. 3)
//   feasible only when r(c_j) > R_i.
//
// Off-site scheme (one instance per selected cloudlet):
//   P(A_i) = 1 - prod_j (1 - r(f_i) * r(c_j))                   (Eq. 10)
//
// All products are accumulated in log space (log1p/expm1) so that
// reliabilities like 0.9999 do not lose precision.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/types.hpp"

namespace vnfr::vnf {

class Catalog;

/// Availability of a request served by `replicas` instances of a VNF with
/// instance reliability `vnf_rel` all placed in one cloudlet with
/// reliability `cloudlet_rel` (paper Eq. 2). Zero replicas yields 0.
double onsite_availability(double cloudlet_rel, double vnf_rel, int replicas);

/// Feasibility margin for Eq. 3: when r(c_j) - R_i falls inside this
/// margin the log argument 1 - R_i/r(c_j) collapses toward 0 and the
/// closed-form replica count diverges (ln of a subnormal over ln(1-r_f)).
/// Such cloudlets are treated as unable to meet the requirement — the
/// replica counts they would need are physically meaningless anyway.
inline constexpr double kOnsiteFeasibilityMargin = 1e-9;

/// Ceiling on a meaningful Eq. 3 replica count. A requirement that the
/// closed form can only meet with more instances than this is rejected
/// (std::nullopt) instead of returning an astronomically large N_ij that
/// no cloudlet could host and that would overflow downstream demand
/// arithmetic.
inline constexpr int kMaxOnsiteReplicas = 1'000'000;

/// Minimum number of primary+backup instances required in a cloudlet of
/// reliability `cloudlet_rel` so that onsite_availability >= `requirement`
/// (paper Eq. 3). Returns std::nullopt when the cloudlet cannot meet the
/// requirement at any replica count (cloudlet_rel <= requirement +
/// kOnsiteFeasibilityMargin) or only with more than kMaxOnsiteReplicas
/// instances.
///
/// The returned count is exact: availability(N) >= requirement and
/// availability(N-1) < requirement, guarded against floating point rounding
/// of the closed-form logarithm.
std::optional<int> min_onsite_replicas(double cloudlet_rel, double vnf_rel,
                                       double requirement);

/// Availability of one instance of a VNF with reliability `vnf_rel` placed
/// in each cloudlet of `cloudlet_rels` (paper Eq. 10). Empty set yields 0.
double offsite_availability(double vnf_rel, std::span<const double> cloudlet_rels);

/// True when the off-site placement meets `requirement`.
bool offsite_meets(double vnf_rel, std::span<const double> cloudlet_rels,
                   double requirement);

/// Log-space helper: log(1 - vnf_rel * cloudlet_rel), the per-cloudlet
/// contribution to the off-site failure product. Always negative.
double offsite_log_failure(double vnf_rel, double cloudlet_rel);

/// Longest Eq. 3 threshold row a ReplicaTable stores. The paper's
/// r(f) in [0.9, 0.9999] saturates within 16 entries; rows of less
/// reliable types stop here and defer larger counts to the closed form.
inline constexpr int kReplicaTableWidth = 32;

/// The per-(VNF type, cloudlet) constants of Eq. 3 and Eq. 10, computed once
/// from the catalog's r(f_i) and the cloudlets' r(c_j) so that an online
/// decide() looks N_ij and ln(1 - r(f_i) r(c_j)) up instead of re-deriving
/// them with logarithms. Immutable after construction.
///
/// Row (i, j) holds T_n = onsite_availability(r(c_j), r(f_i), n) for
/// n = 1, 2, ... until T_n stops growing or kReplicaTableWidth entries; the
/// constructor checks that each row is non-decreasing one entry past its
/// end. For such a row the closed form's nudge loops end at the first n
/// with T_n >= R, which is what replicas() returns, so every answer equals
/// min_onsite_replicas exactly.
///
/// Lookups take ids the caller has already resolved through Catalog::get
/// and MecNetwork::cloudlet; ids outside the table are a DCHECK failure.
class ReplicaTable {
  public:
    /// Throws std::invalid_argument when a reliability lies outside (0, 1).
    ReplicaTable(const Catalog& catalog, std::span<const double> cloudlet_rels);

    /// Exactly min_onsite_replicas(r(c_j), r(f_i), requirement), for every
    /// requirement: out-of-range values (and R so small that Eq. 3's log
    /// argument rounds to 1) go to the closed form, which throws for them,
    /// as do requirements above the row's last threshold, so the
    /// kMaxOnsiteReplicas cutoff stays exact.
    [[nodiscard]] std::optional<int> replicas(VnfTypeId type, CloudletId cloudlet,
                                              double requirement) const;

    /// offsite_log_failure(r(f_i), r(c_j)); always negative.
    [[nodiscard]] double log_failure(VnfTypeId type, CloudletId cloudlet) const;

    /// Sum of log_failure(type, j) over every cloudlet, accumulated in
    /// cloudlet-index order from 0.0: the Eq. 10 failure product of placing
    /// one instance everywhere.
    [[nodiscard]] double log_failure_all(VnfTypeId type) const;

  private:
    struct Row {
        std::uint32_t begin{0};
        std::uint32_t size{0};
    };

    [[nodiscard]] std::size_t pair(VnfTypeId type, CloudletId cloudlet) const;

    std::vector<double> vnf_rels_;         ///< [type]
    std::vector<double> cloudlet_rels_;    ///< [cloudlet]
    std::vector<Row> rows_;                ///< [type * cloudlets + cloudlet]
    std::vector<double> thresholds_;       ///< rows_ concatenated
    std::vector<double> log_failure_;      ///< [type * cloudlets + cloudlet]
    std::vector<double> log_failure_all_;  ///< [type]
};

}  // namespace vnfr::vnf
