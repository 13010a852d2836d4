// Algorithm 2 of the paper: online primal-dual scheduling for the VNF
// service reliability problem under the OFF-SITE backup scheme (one VNF
// instance per selected cloudlet, geographically separated backups).
//
// Per request rho_i:
//   1. For every cloudlet c_j compute the normalized dual price
//          w_j = sum_{t in window} lambda_{tj} / (-ln(1 - r(f_i) r(c_j))).
//      Prune cloudlets with pay_i + ln(1-R_i) * c(f_i) * w_j <= 0
//      (lines 3-8): their price already exceeds what the payment supports.
//   2. Scan surviving cloudlets in non-decreasing w_j order, adding each
//      one with enough residual capacity over the request's window to the
//      site set S(i), until 1 - prod_{j in S} (1 - r(f_i) r(c_j)) >= R_i
//      (lines 9-17).
//   3. If the requirement is met, admit: reserve c(f_i) units per site and
//      bump the duals of every selected cloudlet's window (Eq. 67):
//          lambda_{tj} <- lambda_{tj} * (1 + ln(1-R_i) c / (ln(1-r_f r_c) cap_j))
//                         + ln(1-R_i) c pay / (ln(1-r_f r_c) d cap_j).
//      Both fractions are positive (negative over negative). Otherwise
//      reject without touching any state.
//
// Capacity is always enforced (Theorem 2: no violations), so the ledger
// runs in kEnforce mode.
#pragma once

#include <string_view>
#include <vector>

#include "core/instance.hpp"
#include "core/schedule.hpp"
#include "edge/resource_ledger.hpp"
#include "vnf/reliability.hpp"

namespace vnfr::core {

struct OffsitePrimalDualConfig {
    /// Analogue of the on-site scaling approach: dual updates run against
    /// `dual_capacity_scale * cap_j` so the literal Eq. 67 prices (which
    /// would otherwise saturate a slot well below capacity) fill the real,
    /// always-enforced capacity. 0 (default) derives the scale from the
    /// catalog; 1 reproduces Eq. 67 verbatim.
    double dual_capacity_scale{0.0};
};

class OffsitePrimalDual final : public OnlineScheduler {
  public:
    /// Keeps a reference to `instance`; the caller must keep it alive.
    explicit OffsitePrimalDual(const Instance& instance,
                               OffsitePrimalDualConfig config = {});

    Decision decide(const workload::Request& request) override;
    [[nodiscard]] const edge::ResourceLedger& ledger() const override { return ledger_; }
    [[nodiscard]] std::string_view name() const override { return "offsite-primal-dual"; }

    /// Dual price lambda_{tj}, exposed for invariant tests.
    [[nodiscard]] double lambda(CloudletId j, TimeSlot t) const override;

    /// The normalized price w_j of `request` on cloudlet j (step 1 above).
    [[nodiscard]] double normalized_price(const workload::Request& request,
                                          CloudletId j) const;

    /// The capacity scale actually used in the dual updates.
    [[nodiscard]] double dual_capacity_scale() const { return dual_scale_; }

    /// State export/import for the serve layer's crash-consistent
    /// checkpointing: decide() is a deterministic function of (instance,
    /// config, lambda, ledger usage), so a restored scheduler reproduces
    /// every future decision bit-identically.
    [[nodiscard]] bool supports_state_io() const override { return true; }
    [[nodiscard]] SchedulerState export_state() const override;
    void import_state(const SchedulerState& state) override;

  private:
    const Instance& instance_;
    edge::ResourceLedger ledger_;
    vnf::ReplicaTable table_;  ///< Eq. 10 ln(1 - r(f_i) r(c_j)) per (type, cloudlet)
    double dual_scale_{1.0};
    std::vector<std::vector<double>> lambda_;  ///< [cloudlet][slot]
};

}  // namespace vnfr::core
