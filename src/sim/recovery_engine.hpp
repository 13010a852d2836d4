// Recovery orchestrator: the slot-by-slot replay of a finished schedule
// under faults.
//
// Left alone, a degraded placement is never repaired, so delivered
// availability silently drifts below the promised R_i. This engine closes
// the loop: a FaultSchedule (recovery_faults.hpp) injects cloudlet crashes,
// instance crashes and outages, transient blips and correlated rack
// failures, and a per-slot recovery pass reacts with a configurable policy:
//
//   kNone           no repair — dead instances stay dead (under a Markov
//                   schedule this measures plain failover dynamics);
//   kLocalRespawn   re-instantiate dead replicas on their own cloudlet,
//                   with bounded retry and exponential backoff;
//   kRemoteMigrate  re-run the off-site selection of Algorithm 2 (with
//                   zero duals: reliability-ordered, capacity-checked) over
//                   surviving cloudlets for the request's remaining slots,
//                   adding sites until the promised R_i is met again;
//   kReadmit        full re-admission through the live scheduler logic
//                   (cheapest of on-site Eq. 3 and off-site Eq. 10 over
//                   surviving cloudlets), make-before-break: the old
//                   placement is only torn down once the new one holds
//                   reservations.
//
// Every recovery placement is routed through an edge::ResourceLedger in
// kEnforce mode, so recovery can never violate capacity. When capacity is
// insufficient, the engine degrades gracefully: it sheds currently active
// lower-payment requests (lowest payment first, and only when the freed
// space actually makes the recovery fit) and records the SLA damage —
// delivered vs promised R_i, time-to-recover, failovers by type, and shed
// revenue. Shedding is dominance-guarded: it only fires to restore a
// request with no serving replica (never to repair redundancy), and only
// when the victims lose strictly fewer slots than the beneficiary stands
// to gain — so every policy delivers at least kNone's availability.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/instance.hpp"
#include "core/schedule.hpp"
#include "sim/recovery_faults.hpp"

namespace vnfr::sim {

enum class RecoveryPolicy {
    kNone,
    kLocalRespawn,
    kRemoteMigrate,
    kReadmit,
};

const char* to_string(RecoveryPolicy policy);

struct RecoveryConfig {
    RecoveryPolicy policy{RecoveryPolicy::kNone};
    /// Bounded retry per replica slot (kLocalRespawn) or per request
    /// (kRemoteMigrate / kReadmit); further attempts are abandoned.
    int max_retries{4};
    /// Slots between a successful recovery action and the instance serving
    /// again (boot/state-sync time). 0 means instant recovery.
    TimeSlot respawn_delay_slots{1};
    /// Base backoff after a failed attempt; doubles per consecutive failure
    /// (capped at 64x) so a congested cloudlet is not hammered every slot.
    TimeSlot retry_backoff_slots{1};
    /// Graceful degradation: allow shedding active lower-payment requests
    /// when a recovery reservation does not fit. Shedding only happens when
    /// the freed capacity makes the reservation fit, every victim pays less
    /// than the recovering request, the recovering request is not serving
    /// at all (a dead placement, not degraded redundancy), and the victims'
    /// lost slots stay strictly below the slots the recovery gains.
    bool allow_shedding{true};
};

struct RecoveryReport {
    // Slot accounting over active (request x slot) samples; shed requests
    // keep counting (as disrupted) for the rest of their windows, so
    // shedding can never inflate availability.
    std::size_t request_slots{0};
    std::size_t served_slots{0};
    std::size_t disrupted_slots{0};

    // Faults actually applied (an instance-crash event targeting an
    // already-dead or vanished replica slot is not counted).
    std::size_t cloudlet_crashes{0};
    std::size_t instance_crashes{0};
    std::size_t transient_blips{0};
    std::size_t rack_failures{0};
    std::size_t instances_lost{0};  ///< replicas killed by any fault kind

    // Recovery actions.
    std::size_t local_respawns{0};     ///< replicas re-instantiated in place
    std::size_t remote_migrations{0};  ///< site sets extended to meet R_i again
    std::size_t readmissions{0};       ///< placements rebuilt from scratch
    std::size_t failed_recoveries{0};  ///< attempts beaten by capacity/outages

    // Handovers of the serving (site, replica) between consecutive served
    // slots: remote when the cloudlet changes, local otherwise.
    std::size_t local_failovers{0};
    std::size_t remote_failovers{0};
    std::size_t outages{0};            ///< served -> disrupted transitions
    std::size_t recovered_outages{0};  ///< disrupted -> served transitions
    std::size_t recovery_slots_total{0};  ///< summed lengths of recovered outages

    // Graceful degradation.
    std::size_t shed_requests{0};
    double shed_revenue{0};

    // SLA accounting over admitted requests whose windows completed.
    std::size_t sla_requests{0};
    std::size_t sla_violations{0};  ///< delivered availability < promised R_i
    double promised_availability_sum{0};
    double delivered_availability_sum{0};

    /// Ledger-audited capacity violations (usage > capacity at any slot);
    /// always 0 by construction — the audit is the proof, not a tolerance.
    std::size_t capacity_violations{0};

    [[nodiscard]] double availability() const {
        return request_slots == 0 ? 0.0
                                  : static_cast<double>(served_slots) /
                                        static_cast<double>(request_slots);
    }
    /// Mean promised R_i over completed requests (0 when none completed).
    [[nodiscard]] double mean_promised() const {
        return sla_requests == 0
                   ? 0.0
                   : promised_availability_sum / static_cast<double>(sla_requests);
    }
    /// Mean delivered per-request availability (0 when none completed).
    [[nodiscard]] double mean_delivered() const {
        return sla_requests == 0
                   ? 0.0
                   : delivered_availability_sum / static_cast<double>(sla_requests);
    }
    /// Mean slots from a served->disrupted transition back to serving,
    /// over outages that recovered within the window (0 when none did).
    [[nodiscard]] double mean_time_to_recover() const {
        return recovered_outages == 0
                   ? 0.0
                   : static_cast<double>(recovery_slots_total) /
                         static_cast<double>(recovered_outages);
    }
};

/// Replays `decisions` under `schedule`'s faults with the configured
/// recovery policy. The initial reservations of every admitted decision are
/// replayed into a fresh kEnforce ledger (throws std::invalid_argument if
/// they do not fit — recovery studies require capacity-respecting
/// schedules, i.e. any scheduler except the pure Algorithm 1 variant).
/// Deterministic: consumes no randomness beyond what `schedule` froze.
RecoveryReport run_recovery_study(const core::Instance& instance,
                                  const std::vector<core::Decision>& decisions,
                                  const FaultSchedule& schedule,
                                  const RecoveryConfig& config = {});

}  // namespace vnfr::sim
