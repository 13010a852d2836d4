// Fault-study harness for the serve layer: serve a request trace once
// uninterrupted (the baseline), replay it under the injected faults of
// each enabled FaultSource, finish the trace on whatever controller
// survives, and judge() it against the baseline on seven gates: digest,
// revenue bits, metrics, admitted set, no double-admits, zero capacity
// violations under core::verify_schedule, and a clean WAL scrub. Kill
// and promotion sources run on the real disk under `work_dir`, the rest
// on in-memory FaultyVfs instances. Kill points, fault plans and the
// drive pattern come from RNG streams of the master seed, so a study
// replays bit-for-bit.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/instance.hpp"
#include "core/offline.hpp"
#include "serve/replication/ship_transport.hpp"
#include "serve/snapshot.hpp"

namespace vnfr::serve {

class AdmissionController;

enum class FaultSource : std::uint8_t {
    /// Kill the controller after a WAL append, tear the WAL tail on even
    /// trials, revive it from disk.
    kKill,
    /// Kill a shipping primary after a WAL append or in checkpoint stage
    /// 1/2 (trials 5n+3/5n+4) and promote the standby from its disk.
    kPromotion,
    /// Fill the primary's disk (persistent ENOSPC) and promote the
    /// standby from the degraded, still-running primary.
    kDegradedPrimary,
    /// Cut power at a mutating op of a FaultyVfs: un-fsync'ed bytes drop,
    /// the live WAL may keep a torn prefix; revive on what survived.
    kPowerCut,
    /// Seeded EIO / short-write bursts that bounded retries must absorb.
    kTransientBurst,
    /// Persistent ENOSPC: degrade, refuse work, recover once space frees
    /// (explicit call on even trials, degraded probe on odd ones).
    kDiskFull,
};

struct FaultStudyConfig {
    core::Scheme scheme{core::Scheme::kOnsite};
    std::uint64_t master_seed{0};
    /// Trials per fault source; a source with zero trials does not run.
    std::size_t kills{0};
    std::size_t promotions{0};
    std::size_t degraded_primaries{0};
    std::size_t power_cuts{0};
    std::size_t transient_bursts{0};
    std::size_t disk_fulls{0};
    /// Enabled kill and power-cut sources strike at EVERY point of their
    /// domain (baseline WAL appends 1 .. outcomes-1, mutating ops).
    bool exhaustive{false};
    /// Controller snapshot cadence (WAL records between checkpoints).
    std::size_t checkpoint_every{16};
    /// Admission queue bound; the drive pattern overflows it on purpose.
    std::size_t queue_capacity{8};
    /// WAL records per fdatasync in pump (group commit).
    std::size_t group_commit{1};
    /// Drive steps per replication beat: 1 is a hot standby, larger
    /// values open a lag window the promotion must close from disk.
    std::size_t ship_every{1};
    /// Real-disk scratch directory of the kill and promotion sources.
    std::string work_dir;
};

/// The seven checks every trial is gated on.
struct FaultGates {
    bool digest_match{false};
    bool revenue_match{false};  ///< revenue and shed revenue bit-equal
    bool metrics_match{false};  ///< processed/admitted/rejected/shed equal
    bool admitted_match{false};  ///< same admitted (seq, id, sites) sequence
    bool no_double_admits{false};
    bool capacity_ok{false};  ///< verify_schedule finds no violation
    bool scrub_clean{false};  ///< a WAL scrub of its directory finds nothing

    [[nodiscard]] bool ok() const {
        return digest_match && revenue_match && metrics_match &&
               admitted_match && no_double_admits && capacity_ok && scrub_clean;
    }
    bool operator==(const FaultGates&) const = default;
};

/// What an uninterrupted run ends with; the reference judge() compares to.
struct FaultBaseline {
    std::uint64_t digest{0};
    ServeMetrics metrics;
    std::vector<AdmittedRecord> admitted;

    /// Outcomes (decisions + sheds): one per request of the trace.
    [[nodiscard]] std::uint64_t outcomes() const {
        return metrics.processed + metrics.shed;
    }
};

/// Captures the baseline state of a controller that finished the trace.
[[nodiscard]] FaultBaseline capture_baseline(const AdmissionController& controller);

/// Judges a controller that finished the trace against `baseline`; the
/// scrub reads `data_dir` through the controller's own Vfs.
[[nodiscard]] FaultGates judge(const core::Instance& instance,
                               const FaultBaseline& baseline,
                               const AdmissionController& controller,
                               const std::string& data_dir);

/// One trial's outcome; `ok()` is its acceptance gate.
struct FaultTrial {
    FaultSource source{FaultSource::kKill};
    /// WAL appends before a kill (0 in rotation), the 1-based mutating op
    /// of a power cut, or the write index from which ENOSPC starts.
    std::uint64_t fault_point{0};
    /// kPromotion: 1/2 = killed in that checkpoint-rotation stage.
    int checkpoint_crash_stage{0};
    /// kKill: the kill point is not a group-commit boundary.
    bool mid_batch{false};
    bool faulty_transport{false};
    /// The kill or cut fired, or the controller / primary degraded.
    bool fired{false};
    /// kTransientBurst: the controller never entered degraded mode.
    bool stayed_healthy{false};
    bool torn_tail_applied{false};
    std::uint64_t truncated_bytes{0};
    /// Torn tail that revival or promotion observed and dropped.
    std::uint64_t recovered_torn_tail_bytes{0};
    std::uint64_t recovered_torn_tail_records{0};
    std::size_t submitted_at_fault{0};  ///< completed submits at the fault
    /// Promotion sources: standby progress at the fault, disk catch-up.
    std::uint64_t standby_applied_at_kill{0};
    std::uint64_t disk_records_applied{0};
    std::uint64_t disk_records_skipped{0};  ///< already shipped (covered set)
    /// kTransientBurst: faults injected and retries that absorbed them.
    std::uint64_t faults_injected{0};
    std::uint64_t retries_absorbed{0};
    /// kDiskFull: StorageDegradedError refusals, and how it came back.
    std::uint64_t degraded_refusals{0};
    bool recovered{false};
    bool recovered_via_probe{false};
    FaultGates gates;

    [[nodiscard]] bool ok() const {
        switch (source) {
            case FaultSource::kTransientBurst:
                return stayed_healthy && gates.ok();
            case FaultSource::kDiskFull:
                return fired && degraded_refusals > 0 && recovered && gates.ok();
            default:
                return fired && gates.ok();
        }
    }
    bool operator==(const FaultTrial&) const = default;
};

struct FaultStudyResult {
    core::Scheme scheme{core::Scheme::kOnsite};
    FaultBaseline baseline;
    /// Mutating storage ops in the baseline run: the power-cut domain.
    std::uint64_t baseline_mutating_ops{0};
    /// Reopening the baseline's own checkpoint reproduces its digest.
    bool baseline_reload_ok{false};
    bool baseline_capacity_ok{false};
    bool baseline_scrub_clean{false};
    bool corruption_detected{false};  ///< the scrub caught one flipped bit
    /// Control run of the promotion sources: a never-killed primary's
    /// fully shipped standby promotes to the baseline digest with nothing
    /// to recover from disk, and acked generations were released.
    bool sync_promote_ok{false};
    bool sync_release_ok{false};
    std::vector<FaultTrial> trials;  ///< grouped by source, in enum order
    std::size_t failed_trials{0};
    /// Link-level fault exposure across all promotion trials.
    replication::TransportStats transport_totals;
    std::uint64_t resync_rewinds{0};

    [[nodiscard]] std::size_t count(FaultSource source) const;
    [[nodiscard]] std::size_t failed(FaultSource source) const;
    [[nodiscard]] bool ok() const;
};

/// Runs the study over `instance.requests`. Throws std::invalid_argument
/// for an empty trace, or no work_dir for a kill or promotion source.
FaultStudyResult run_fault_study(const core::Instance& instance,
                                 const FaultStudyConfig& config);

}  // namespace vnfr::serve
