// The paper's baseline: a greedy heuristic that "always tries to admit all
// coming requests by preferring to place VNF instances in cloudlets with
// high reliabilities" (Section VI.A).
//
// On-site variant: scan cloudlets from most to least reliable; place all
// N_ij replicas in the first feasible cloudlet (r(c_j) > R_i and enough
// residual capacity over the window); reject if none fits.
//
// Off-site variant: scan cloudlets from most to least reliable, adding one
// instance per capacity-feasible cloudlet until the reliability product
// meets R_i; reject (releasing nothing) if the requirement cannot be met.
#pragma once

#include <string_view>
#include <vector>

#include "core/instance.hpp"
#include "core/schedule.hpp"
#include "edge/resource_ledger.hpp"
#include "vnf/reliability.hpp"

namespace vnfr::core {

class OnsiteGreedy final : public OnlineScheduler {
  public:
    explicit OnsiteGreedy(const Instance& instance);

    Decision decide(const workload::Request& request) override;
    [[nodiscard]] const edge::ResourceLedger& ledger() const override { return ledger_; }
    [[nodiscard]] std::string_view name() const override { return "onsite-greedy"; }

  private:
    const Instance& instance_;
    edge::ResourceLedger ledger_;
    vnf::ReplicaTable table_;
    std::vector<CloudletId> by_reliability_;  ///< most reliable first
};

class OffsiteGreedy final : public OnlineScheduler {
  public:
    explicit OffsiteGreedy(const Instance& instance);

    Decision decide(const workload::Request& request) override;
    [[nodiscard]] const edge::ResourceLedger& ledger() const override { return ledger_; }
    [[nodiscard]] std::string_view name() const override { return "offsite-greedy"; }

  private:
    const Instance& instance_;
    edge::ResourceLedger ledger_;
    vnf::ReplicaTable table_;
    std::vector<CloudletId> by_reliability_;
};

}  // namespace vnfr::core
