// EXTENSION (not in the paper): a hybrid scheduler that chooses, per
// request, between the on-site and the off-site backup scheme.
//
// Section I of the paper frames the two schemes as a trade-off — on-site
// gives fast local failover but is capped by the cloudlet's own
// reliability; off-site survives cloudlet failures but pays inter-cloudlet
// traffic. A provider running both can pick whichever is cheaper *at
// current prices* for each request:
//
//   1. Price the best on-site option exactly as Algorithm 1 does
//      (arg-min_j sum_t N_ij c(f_i) lambda^on_tj over feasible cloudlets).
//   2. Price the best off-site option exactly as Algorithm 2 does
//      (cheapest-w_j site set meeting R_i), costing it at its own duals:
//      sum_{j in S} c(f_i) sum_t lambda^off_tj.
//   3. Admit via the affordable option with the larger profit
//      pay_i - price; update only the chosen scheme's duals.
//
// Both schemes share one capacity ledger (a cloudlet's compute serves both
// kinds of placements), which is always enforced.
#pragma once

#include <optional>
#include <string_view>
#include <vector>

#include "core/instance.hpp"
#include "core/schedule.hpp"
#include "edge/resource_ledger.hpp"
#include "vnf/reliability.hpp"

namespace vnfr::core {

struct HybridPrimalDualConfig {
    /// Dual-capacity scales for the two pricing subsystems (see the
    /// corresponding fields on Onsite-/OffsitePrimalDualConfig); 0 = auto.
    double onsite_dual_capacity_scale{0.0};
    double offsite_dual_capacity_scale{0.0};
};

class HybridPrimalDual final : public OnlineScheduler {
  public:
    explicit HybridPrimalDual(const Instance& instance, HybridPrimalDualConfig config = {});

    Decision decide(const workload::Request& request) override;
    [[nodiscard]] const edge::ResourceLedger& ledger() const override { return ledger_; }
    [[nodiscard]] std::string_view name() const override { return "hybrid-primal-dual"; }

    /// How many admissions went to each scheme so far.
    [[nodiscard]] std::size_t onsite_admissions() const { return onsite_admissions_; }
    [[nodiscard]] std::size_t offsite_admissions() const { return offsite_admissions_; }

  private:
    struct OnsiteOption {
        CloudletId cloudlet;
        int replicas{0};
        double price{0};
    };
    struct OffsiteOption {
        std::vector<CloudletId> sites;
        double price{0};
    };

    [[nodiscard]] std::optional<OnsiteOption> price_onsite(
        const workload::Request& request) const;
    [[nodiscard]] std::optional<OffsiteOption> price_offsite(
        const workload::Request& request) const;
    void admit_onsite(const workload::Request& request, const OnsiteOption& option);
    void admit_offsite(const workload::Request& request, const OffsiteOption& option);

    const Instance& instance_;
    edge::ResourceLedger ledger_;
    vnf::ReplicaTable table_;  ///< Eq. 3 and Eq. 10 constants per (type, cloudlet)
    double onsite_scale_{1.0};
    double offsite_scale_{1.0};
    std::vector<std::vector<double>> lambda_onsite_;   ///< [cloudlet][slot]
    std::vector<std::vector<double>> lambda_offsite_;  ///< [cloudlet][slot]
    std::size_t onsite_admissions_{0};
    std::size_t offsite_admissions_{0};
};

}  // namespace vnfr::core
