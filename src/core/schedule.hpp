// Scheduling decisions and results shared by every algorithm.
#pragma once

#include <cstddef>
#include <string_view>
#include <vector>

#include "common/types.hpp"
#include "edge/resource_ledger.hpp"
#include "workload/request.hpp"

namespace vnfr::core {

struct Instance;

/// Where one request's VNF instances were placed. Under the on-site scheme
/// there is exactly one site with `replicas = N_ij`; under the off-site
/// scheme one site per selected cloudlet with `replicas = 1`.
struct Site {
    CloudletId cloudlet;
    int replicas{0};
};

struct Placement {
    RequestId request;
    std::vector<Site> sites;

    /// Total computing units this placement consumes per active slot, given
    /// the per-instance demand c(f_i).
    [[nodiscard]] double compute_per_slot(double per_instance) const;
};

/// Why a request was rejected (kNone when admitted).
enum class RejectReason {
    kNone,
    /// No cloudlet can ever satisfy the requirement (on-site: r(c) <= R_i
    /// everywhere; off-site: even the full cloudlet set falls short).
    kInfeasibleRequirement,
    /// Feasible in principle, but the dual prices exceed the payment.
    kPricedOut,
    /// Feasible and affordable, but no cloudlet has enough residual
    /// capacity over the request's window.
    kNoCapacity,
};

const char* to_string(RejectReason reason);

struct Decision {
    bool admitted{false};
    RejectReason reject_reason{RejectReason::kNone};
    Placement placement;  ///< meaningful only when admitted
};

/// Serializable snapshot of an online scheduler's mutable state: the dual
/// price matrix and the ledger's usage table. For the primal-dual
/// schedulers decide() is a deterministic function of (instance, config,
/// this state), so exporting and later importing a SchedulerState yields
/// bit-identical future decisions — the property the serve layer's
/// crash-consistent checkpointing is built on.
struct SchedulerState {
    std::vector<std::vector<double>> lambda;  ///< [cloudlet][slot] dual prices
    std::vector<double> usage;  ///< row-major [cloudlet][slot] ledger usage
};

/// Throws std::invalid_argument (with the offending index) unless `state`
/// has exactly `cloudlets` lambda rows of `horizon` entries each, a usage
/// table of cloudlets * horizon cells, and every value finite and >= 0.
void validate_scheduler_state(const SchedulerState& state, std::size_t cloudlets,
                              TimeSlot horizon);

/// Every online algorithm implements this. `decide` must be called exactly
/// once per request, in arrival order; the scheduler updates its internal
/// ledger/dual state as a side effect.
class OnlineScheduler {
  public:
    virtual ~OnlineScheduler() = default;

    virtual Decision decide(const workload::Request& request) = 0;

    /// The scheduler's resource accounting (for utilization/violation
    /// inspection after a run).
    [[nodiscard]] virtual const edge::ResourceLedger& ledger() const = 0;

    [[nodiscard]] virtual std::string_view name() const = 0;

    /// True when this scheduler implements export_state()/import_state()
    /// (the primal-dual schedulers do; heuristics without serializable
    /// state keep the default false).
    [[nodiscard]] virtual bool supports_state_io() const { return false; }

    /// Snapshot of the mutable decision state. Default throws
    /// std::logic_error; overridden where supports_state_io() is true.
    [[nodiscard]] virtual SchedulerState export_state() const;

    /// One cell of export_state().lambda, read in place: callers that know
    /// which cells changed (the serve layer's delta checkpoints) read only
    /// those instead of copying the O(m*T) table. Default throws
    /// std::logic_error, like export_state().
    [[nodiscard]] virtual double lambda(CloudletId j, TimeSlot t) const;

    /// Restore a previously exported state (validated against the bound
    /// instance's shape; throws std::invalid_argument on mismatch).
    /// Analysis-only side outputs (e.g. OnsitePrimalDual::deltas()) reset
    /// to empty — they are not part of the decision state.
    virtual void import_state(const SchedulerState& state);
};

/// Outcome of replaying a full request sequence through a scheduler.
struct ScheduleResult {
    std::vector<Decision> decisions;  ///< parallel to Instance::requests
    double revenue{0};                ///< paper objective: sum of admitted payments
    std::size_t admitted{0};
    /// Peak usage-over-capacity across cloudlets and slots (0 unless the
    /// scheduler runs with CapacityPolicy::kRecord).
    double max_overshoot{0};
    /// Peak usage/capacity ratio across cloudlets and slots.
    double max_load_factor{0};
};

/// Feeds `instance.requests` (already in arrival order) one by one into the
/// scheduler and aggregates the outcome.
ScheduleResult run_online(const Instance& instance, OnlineScheduler& scheduler);

/// Acceptance ratio of a result given the instance size (0 for no requests).
double acceptance_ratio(const ScheduleResult& result, const Instance& instance);

/// Histogram of rejection reasons in a result (admitted requests are not
/// counted). Index with RejectReason casts.
struct RejectionBreakdown {
    std::size_t infeasible_requirement{0};
    std::size_t priced_out{0};
    std::size_t no_capacity{0};
};

RejectionBreakdown rejection_breakdown(const ScheduleResult& result);

}  // namespace vnfr::core
