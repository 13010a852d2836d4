// Algorithm 1 of the paper: online primal-dual scheduling for the VNF
// service reliability problem under the ON-SITE backup scheme.
//
// Per request rho_i:
//   1. For every cloudlet c_j with r(c_j) > R_i, compute the replica count
//      N_ij (Eq. 3) and the dual price
//          price_j = sum_{t in window} N_ij * c(f_i) * lambda_{tj}.
//   2. Pick the cheapest cloudlet j'. Admit iff pay_i - price_{j'} > 0.
//   3. On admission set delta_i = pay_i - price_{j'} (Eq. 33) and bump the
//      window's duals multiplicatively (Eq. 34):
//          lambda_{tj'} <- lambda_{tj'} * (1 + N*c/cap) + N*c*pay / (d*cap).
//
// Theorem 1: competitive ratio 1 + a_max with the per-cloudlet capacity
// violation bounded by xi (Lemma 8), a_max = max_{ij} N_ij c(f_i).
//
// Two variants, selected by config:
//   * pure (enforce_capacity = false): exactly Algorithm 1; reservations
//     may overshoot capacity (ledger in kRecord mode) within the xi bound.
//   * capacity-checked (enforce_capacity = true, default): the variant the
//     paper evaluates (its "scaling approach" guarantees no real violation);
//     cloudlets whose residual capacity cannot host the replicas are
//     excluded from the arg-min.
#pragma once

#include <optional>
#include <string_view>
#include <vector>

#include "core/instance.hpp"
#include "core/schedule.hpp"
#include "edge/resource_ledger.hpp"
#include "vnf/reliability.hpp"

namespace vnfr::core {

struct OnsitePrimalDualConfig {
    bool enforce_capacity{true};
    /// The paper's evaluation uses the scaling approach of [14]: the dual
    /// updates are computed against an augmented capacity
    /// `dual_capacity_scale * cap_j` (so prices rise slowly enough to fill
    /// real capacity) while real capacity is enforced at admission time.
    /// 1.0 reproduces the literal Eq. 34, whose prices saturate a cloudlet
    /// slot at roughly usage cap/a (a = N_ij c(f_i)); values around the
    /// typical `a` of the workload let the checked variant reach full
    /// utilization. 0 (default) picks the scale automatically from the
    /// catalog and cloudlet reliabilities. Ignored by the pure variant,
    /// which must follow Eq. 34 exactly for Theorem 1 to apply.
    double dual_capacity_scale{0.0};
    /// Record delta_i per decide() into deltas(). The per-request deltas
    /// only feed competitive-ratio analysis; a long-running server (the
    /// serve layer's admission controller) turns it off because the
    /// vector grows without bound.
    bool track_deltas{true};
};

class OnsitePrimalDual final : public OnlineScheduler {
  public:
    /// Keeps a reference to `instance`; the caller must keep it alive for
    /// the scheduler's lifetime.
    explicit OnsitePrimalDual(const Instance& instance, OnsitePrimalDualConfig config = {});

    Decision decide(const workload::Request& request) override;
    [[nodiscard]] const edge::ResourceLedger& ledger() const override { return ledger_; }
    [[nodiscard]] std::string_view name() const override;

    /// Dual price lambda_{tj}; exposed so tests can assert dual feasibility
    /// (constraint 32) as an invariant.
    [[nodiscard]] double lambda(CloudletId j, TimeSlot t) const override;

    /// delta_i of the requests admitted so far (0 for rejected ones),
    /// indexed by processing order.
    [[nodiscard]] const std::vector<double>& deltas() const { return deltas_; }

    /// N_ij for `request` on cloudlet j; nullopt when r(c_j) <= R_i. Throws
    /// std::invalid_argument when R_i lies outside (0, 1).
    [[nodiscard]] std::optional<int> replica_count(const workload::Request& request,
                                                   CloudletId j) const;

    /// The dual admission price sum_t V_i[t] N_ij c(f_i) lambda_{tj} for
    /// `request` on cloudlet j; nullopt when the cloudlet is infeasible.
    [[nodiscard]] std::optional<double> dual_price(const workload::Request& request,
                                                   CloudletId j) const;

    /// The capacity scale actually used in the dual updates (1 for the
    /// pure variant; the configured or auto-derived value otherwise).
    [[nodiscard]] double dual_capacity_scale() const { return dual_scale_; }

    /// State export/import for the serve layer's crash-consistent
    /// checkpointing: decide() is a deterministic function of (instance,
    /// config, lambda, ledger usage), so a restored scheduler reproduces
    /// every future decision bit-identically. import_state resets deltas()
    /// (analysis-only output, not decision state).
    [[nodiscard]] bool supports_state_io() const override { return true; }
    [[nodiscard]] SchedulerState export_state() const override;
    void import_state(const SchedulerState& state) override;

  private:
    const Instance& instance_;
    OnsitePrimalDualConfig config_;
    edge::ResourceLedger ledger_;
    vnf::ReplicaTable table_;  ///< Eq. 3 N_ij per (type, cloudlet)
    double dual_scale_{1.0};
    std::vector<std::vector<double>> lambda_;  ///< [cloudlet][slot]
    std::vector<double> deltas_;
};

}  // namespace vnfr::core
