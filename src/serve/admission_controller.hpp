// A long-lived, crash-safe service wrapper around the online primal-dual
// schedulers: requests stream in through a bounded admission queue, every
// durable outcome (decision or shed) is WAL-logged before it becomes
// observable, and the controller state checkpoints atomically every
// `checkpoint_every` outcomes.
//
// Delta checkpoints. A checkpoint writes either the full base
// (snapshot.bin) or a delta (snapshot.bin.<gen>) holding only what changed
// since the previous checkpoint: counters, coverage, the admitted records
// appended since, and the (cloudlet, slot) cells that admissions wrote
// (both primal-dual schedulers write exactly placement x window). A new
// base folds the chain once the chain's bytes would exceed the base's, so
// checkpoint cost stays proportional to the work done, not to the state,
// and recovery reads at most twice the base. A chain never spans a
// recovery, a promotion or a degraded episode: the first checkpoint after
// any of them writes a base. See snapshot.hpp and DESIGN.md 6c.
//
// Recovery contract. decide() of both primal-dual schedulers is a
// deterministic function of (instance, config, dual prices, ledger
// usage), so the controller persists exactly that state plus its own
// bookkeeping. Restart = load snapshot, then *re-execute* each WAL'd
// decision against the restored scheduler and cross-check the logged
// outcome (a mismatch means the files lie about the state and recovery
// refuses to continue). The result is bit-identical controller state:
// same duals, same usage, same revenue bits, same admitted set.
//
// Idempotency. Every request carries a stream sequence number. A seq
// whose outcome is already durable ("covered") is skipped on
// resubmission, so a driver that replays its input after a crash cannot
// double-admit or double-charge. The covered set is a watermark plus a
// sparse overflow set, so it stays O(queue) in memory.
//
// Overload guard. The queue is bounded; when a submit overflows it, the
// lowest-payment request among (queued + incoming) is shed — logged,
// counted in shed_revenue, and reported to the caller. Ties prefer
// keeping the older request. Victim selection is O(log n) via a
// min-payment heap over the queued requests (lazily pruned), not a scan.
//
// Group commit. With group_commit > 1, pump() stages up to that many
// decision records in memory and externalizes them with ONE write and
// ONE fdatasync per group, amortizing the dominant durability cost.
// Outcomes are applied (counters, admitted ledger, coverage — i.e. made
// observable) only after their group's fdatasync returned, so the
// durable-before-observable ordering is preserved; what group commit
// adds is a crash window in which decided-but-uncommitted records
// vanish wholesale (they were never externalized) and are simply
// resubmitted after recovery. See DESIGN.md 6d for the window-by-window
// argument. Submit-path shed records never batch: submit() reports the
// shed synchronously, so its record is fdatasync'd before return.
//
// Sequential decide. Every admission moves the dual prices the next
// request is priced against (Alg. 1/2), so pump() decides its chunk in
// stream order on the pumping thread.
//
// Thread safety. All mutable state is guarded by one internal
// common::Mutex (annotated for Clang thread-safety analysis): submit,
// pump, drain, checkpoint, and every accessor may be called from any
// thread. WAL appends and the checkpoint rotation happen while the lock
// is held, so the durable-before-observable ordering is preserved under
// concurrency. scheduler() returns a reference into guarded state — it
// is safe only while no other thread is mutating the controller (use it
// from quiesced test/report code, not concurrently with pump()).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <queue>
#include <set>
#include <string>
#include <vector>

#include "common/annotations.hpp"
#include "common/mutex.hpp"
#include "core/instance.hpp"
#include "core/offline.hpp"
#include "core/schedule.hpp"
#include "serve/snapshot.hpp"
#include "serve/wal.hpp"

namespace vnfr::serve {

/// Thrown by the crash_after_records() test hook; simulates the process
/// dying immediately after a durable WAL append.
class CrashInjected : public std::runtime_error {
  public:
    explicit CrashInjected(std::uint64_t records)
        : std::runtime_error("injected crash after " + std::to_string(records) +
                             " WAL records") {}
};

/// Thrown instead of accepting work the controller cannot durably log:
/// after a persistent storage error (ENOSPC, retries-exhausted EIO) the
/// controller enters degraded read-only mode — already-admitted state
/// keeps serving, but submit/pump/apply_replicated refuse with this
/// error until storage recovers (see StorageHealth below).
class StorageDegradedError : public std::runtime_error {
  public:
    explicit StorageDegradedError(const std::string& what)
        : std::runtime_error(what) {}
};

/// Storage health of a controller. Degraded means a persistent storage
/// error interrupted WAL/snapshot durability: no new outcome can be
/// logged, so none is accepted. Recovery (automatic probes per
/// ServeConfig::degraded_probe_every, or try_recover_storage()) repairs
/// the WAL tail and proves writability with a full checkpoint rotation
/// before the controller admits again. The replication layer treats a
/// degraded primary as dead — its durable WAL prefix is intact, so
/// failover promotes the standby exactly as after a crash.
enum class StorageHealth : std::uint8_t {
    kHealthy,
    kDegraded,
};

/// Counters of the storage fault-handling machinery.
struct StorageStats {
    /// Transient storage errors absorbed by bounded retries (WAL commits,
    /// snapshot writes, WAL creation).
    std::uint64_t transient_retries{0};
    /// Times the controller entered degraded read-only mode.
    std::uint64_t degraded_entries{0};
    /// Operations refused (with StorageDegradedError) while degraded.
    std::uint64_t degraded_refusals{0};
    /// Successful recoveries out of degraded mode.
    std::uint64_t recoveries{0};
    /// Checkpoints that published a full base (snapshot.bin).
    std::uint64_t base_checkpoints{0};
    /// Checkpoints that published a delta (snapshot.bin.<gen>).
    std::uint64_t delta_checkpoints{0};
    /// Bytes published by all checkpoints, bases and deltas.
    std::uint64_t checkpoint_bytes{0};
};

struct ServeConfig {
    /// Directory holding snapshot.bin, its snapshot.bin.<gen> deltas and
    /// wal-<gen>.log. Must exist.
    std::string data_dir;
    /// Take a snapshot (and rotate the WAL) every this many WAL records.
    std::size_t checkpoint_every{64};
    /// Bounded admission queue size; submits beyond it shed the
    /// lowest-payment request.
    std::size_t queue_capacity{256};
    /// Decision records per fdatasync in pump(): 1 reproduces the
    /// per-record durability of the original controller; larger values
    /// amortize one write + one fdatasync over up to this many records.
    /// Never changes decisions or recovered state — only which crash
    /// windows can lose (and therefore re-decide) a trailing group.
    std::size_t group_commit{1};
    /// Keep rotated-out WAL generations on disk instead of unlinking them
    /// at checkpoint. A replication shipper tails those files and releases
    /// them via release_wals_below() once the standby has acknowledged
    /// them — unlinking earlier would open a silent gap in the shipped
    /// stream.
    bool retain_wals{false};
    /// Start in standby (follower) role: submit/pump/drain are refused
    /// and state advances only through apply_replicated(), until
    /// mark_promoted() flips the controller to primary.
    bool standby{false};
    /// Storage backend every snapshot/WAL byte routes through; null
    /// selects the process-wide PosixVfs. The caller keeps it alive for
    /// the controller's lifetime (fault-injection harnesses pass a
    /// FaultyVfs here).
    Vfs* vfs{nullptr};
    /// Bounded-retry policy for transient storage errors on the WAL
    /// commit and snapshot paths.
    StorageRetryPolicy storage_retry{};
    /// While degraded, every this-many-th refused operation probes
    /// storage recovery (WAL tail repair + a full checkpoint rotation as
    /// the writability proof). 0 disables automatic probes — recovery
    /// then happens only via explicit try_recover_storage() calls.
    std::size_t degraded_probe_every{16};
};

/// Which side of a replicated pair this controller currently is.
enum class ControllerRole : std::uint8_t {
    kPrimary,  ///< decides requests itself (submit/pump/drain)
    kStandby,  ///< applies shipped records only (apply_replicated)
};

/// Where the current WAL generation durably ends — the shipper's view of
/// what may be replicated. Taken atomically under the controller lock.
struct WalPosition {
    std::uint64_t generation{0};
    /// Records committed to the current generation.
    std::uint64_t records{0};
    /// Committed bytes of the current generation file (header included);
    /// bytes beyond this are staged or in-flight and must not be shipped.
    std::uint64_t durable_bytes{0};
};

/// What the constructor's recovery pass found on disk. A nonzero
/// torn_tail_bytes is the operator-visible signal that a crash tore the
/// final append and recovery truncated it (previously silent).
struct RecoveryStats {
    bool recovered_snapshot{false};  ///< a snapshot was loaded
    std::uint64_t deltas_applied{0};  ///< deltas patched onto the base
    bool recovered_wal{false};       ///< a WAL existed and was replayed
    std::uint64_t wal_records_replayed{0};
    std::uint64_t torn_tail_bytes{0};
    std::uint64_t torn_tail_records{0};
};

/// Outcome of submitting one request to the stream.
enum class SubmitResult {
    kQueued,          ///< accepted into the admission queue
    kShedIncoming,    ///< queue full and the incoming request paid least
    kShedQueued,      ///< queue full; a cheaper queued request was evicted
    kAlreadyCovered,  ///< this seq's outcome is already durable (replay)
};

/// One decided request, as returned by pump().
struct ProcessedOutcome {
    std::uint64_t seq{0};
    workload::Request request;
    core::Decision decision;
};

class AdmissionController {
  public:
    /// Binds to `instance` (kept alive by the caller) under `scheme`.
    /// If `config.data_dir` already holds a snapshot and/or WAL, the
    /// constructor recovers from them (replaying the WAL as described
    /// above); otherwise it starts fresh and creates generation-0 files.
    AdmissionController(const core::Instance& instance, core::Scheme scheme,
                        ServeConfig config);

    AdmissionController(const AdmissionController&) = delete;
    AdmissionController& operator=(const AdmissionController&) = delete;

    /// Feeds one request into the stream. `seq` is the request's position
    /// in the stream; submit seqs in increasing order (covered seqs may be
    /// replayed in any order and are skipped).
    SubmitResult submit(std::uint64_t seq, const workload::Request& request)
        VNFR_EXCLUDES(mu_);

    /// Decides queued requests in FIFO order, up to `max_requests`, WAL-
    /// logging each outcome and checkpointing on cadence. Returns the
    /// decided batch.
    std::vector<ProcessedOutcome> pump(std::size_t max_requests) VNFR_EXCLUDES(mu_);

    /// pump() until the queue is empty.
    std::vector<ProcessedOutcome> drain() VNFR_EXCLUDES(mu_);

    /// Checkpoints now (a base or a delta, see the file comment) and
    /// rotates to a fresh WAL generation.
    void checkpoint() VNFR_EXCLUDES(mu_);

    /// Standby role only: durably appends one record shipped from the
    /// primary to this controller's own WAL (fdatasync before anything
    /// becomes observable), then applies it exactly like recovery replay —
    /// decisions are re-executed and cross-checked, so primary/standby
    /// divergence dies as CorruptStateError instead of propagating.
    /// Returns false (and does nothing) when `rec.seq` is already covered,
    /// which makes retransmitted and disk-replayed records idempotent.
    /// Records must arrive in stream order, the same order the primary
    /// logged them. Checkpoints on the configured cadence.
    bool apply_replicated(const WalRecord& rec) VNFR_EXCLUDES(mu_);

    /// Flips a standby to primary. Callers must make the caught-up state
    /// durable first (checkpoint()) — the replication layer's promotion
    /// path enforces that ordering statically (vnfr-asa
    /// replication-promote-checkpoint). Idempotent on a primary. The
    /// first checkpoint after it writes a base.
    void mark_promoted() VNFR_EXCLUDES(mu_);

    [[nodiscard]] ControllerRole role() const VNFR_EXCLUDES(mu_) {
        const common::MutexLock lock(&mu_);
        return role_;
    }

    /// Atomic snapshot of the durable end of the current WAL generation.
    [[nodiscard]] WalPosition wal_position() const VNFR_EXCLUDES(mu_);

    /// Unlinks retained WAL generations strictly below `generation`
    /// (never the current one). Only meaningful with retain_wals; the
    /// shipper calls this with the standby's acknowledged generation —
    /// releasing anything un-acked would tear the shipped stream.
    void release_wals_below(std::uint64_t generation) VNFR_EXCLUDES(mu_);

    /// What recovery found on disk at construction time.
    [[nodiscard]] RecoveryStats recovery_stats() const VNFR_EXCLUDES(mu_) {
        const common::MutexLock lock(&mu_);
        return recovery_stats_;
    }

    [[nodiscard]] ServeMetrics metrics() const VNFR_EXCLUDES(mu_) {
        const common::MutexLock lock(&mu_);
        return metrics_;
    }
    [[nodiscard]] std::size_t queue_size() const VNFR_EXCLUDES(mu_) {
        const common::MutexLock lock(&mu_);
        return queue_.size();
    }
    [[nodiscard]] std::vector<AdmittedRecord> admitted_records() const
        VNFR_EXCLUDES(mu_) {
        const common::MutexLock lock(&mu_);
        return admitted_;
    }
    /// Smallest stream seq whose outcome is not yet durable; after a
    /// crash, resubmit from here.
    [[nodiscard]] std::uint64_t resume_cursor() const VNFR_EXCLUDES(mu_) {
        const common::MutexLock lock(&mu_);
        return covered_watermark_;
    }
    [[nodiscard]] bool is_covered(std::uint64_t seq) const VNFR_EXCLUDES(mu_);
    /// Records appended to the current WAL generation (resets at
    /// checkpoint).
    [[nodiscard]] std::uint64_t wal_records() const VNFR_EXCLUDES(mu_) {
        const common::MutexLock lock(&mu_);
        return wal_records_;
    }
    [[nodiscard]] std::uint64_t wal_generation() const VNFR_EXCLUDES(mu_) {
        const common::MutexLock lock(&mu_);
        return wal_seq_;
    }
    /// See the thread-safety note in the file comment: the returned
    /// reference is into guarded state and must not be used concurrently
    /// with mutating calls.
    [[nodiscard]] const core::OnlineScheduler& scheduler() const VNFR_EXCLUDES(mu_) {
        const common::MutexLock lock(&mu_);
        return *scheduler_;
    }
    [[nodiscard]] core::Scheme scheme() const { return scheme_; }

    /// FNV-1a digest over the complete logical state: scheme, counters,
    /// revenue bits, dual-price bits, usage bits, coverage, and the
    /// admitted ledger. Two controllers with equal digests decide every
    /// future request identically.
    [[nodiscard]] std::uint64_t state_digest() const VNFR_EXCLUDES(mu_);

    /// Shape digest binding persisted files to this instance + scheme.
    [[nodiscard]] std::uint64_t config_digest() const { return config_digest_; }

    /// The storage backend this controller routes all durable I/O
    /// through (immutable after construction).
    [[nodiscard]] Vfs& vfs() const { return *vfs_; }

    [[nodiscard]] StorageHealth storage_health() const VNFR_EXCLUDES(mu_) {
        const common::MutexLock lock(&mu_);
        return health_;
    }

    /// Human-readable cause of the current degraded mode (empty when
    /// healthy).
    [[nodiscard]] std::string degraded_reason() const VNFR_EXCLUDES(mu_) {
        const common::MutexLock lock(&mu_);
        return degraded_reason_;
    }

    [[nodiscard]] StorageStats storage_stats() const VNFR_EXCLUDES(mu_);

    /// Attempts to leave degraded mode now: repairs the WAL tail (a
    /// failed commit may have left un-synced garbage past the durable
    /// prefix) and proves storage writability with a full checkpoint
    /// rotation. Returns true when the controller is healthy afterwards.
    /// Never throws on a still-broken disk — the probe just fails.
    bool try_recover_storage() VNFR_EXCLUDES(mu_);

    /// Test hook: throw CrashInjected immediately after the n-th WAL
    /// append from now (1 = crash after the next record). 0 disables.
    void crash_after_records(std::uint64_t n) VNFR_EXCLUDES(mu_) {
        const common::MutexLock lock(&mu_);
        crash_countdown_ = n;
    }

    /// Test hook: throw CrashInjected *inside* the next checkpoint
    /// rotation. Stage 1 dies after the next WAL generation file was
    /// created but before the base or delta referencing it was published;
    /// stage 2 dies after the publish but before the old generation (and,
    /// after a base, the old delta chain) was retired. 0 disables. Both are legal crash windows the recovery
    /// and failover protocols must absorb.
    void crash_at_checkpoint_stage(int stage) VNFR_EXCLUDES(mu_) {
        const common::MutexLock lock(&mu_);
        checkpoint_crash_stage_ = stage;
    }

  private:
    struct QueueItem {
        std::uint64_t seq;
        workload::Request request;
    };

    /// Heap entry for O(log n) shed-victim selection. The heap orders by
    /// (payment ascending, seq descending): the top is the queued request
    /// the overload guard would evict first. Entries are not removed when
    /// their request leaves the queue (pumped or evicted); stale entries
    /// are skipped lazily and the heap is rebuilt when it grows well past
    /// the live queue.
    struct ShedCandidate {
        double payment;
        std::uint64_t seq;
    };
    struct ShedVictimOrder {
        bool operator()(const ShedCandidate& a, const ShedCandidate& b) const {
            // std::priority_queue keeps the comparator's maximum on top;
            // "greater" here means "worthier victim".
            if (a.payment != b.payment) return a.payment > b.payment;
            return a.seq < b.seq;
        }
    };

    void recover() VNFR_REQUIRES(mu_);
    void replay_record(const WalRecord& rec, const std::string& path)
        VNFR_REQUIRES(mu_);
    void mark_covered(std::uint64_t seq) VNFR_REQUIRES(mu_);
    [[nodiscard]] bool is_covered_locked(std::uint64_t seq) const VNFR_REQUIRES(mu_);
    void append_wal(const WalRecord& rec) VNFR_REQUIRES(mu_);
    void stage_wal(const WalRecord& rec) VNFR_REQUIRES(mu_);
    void commit_wal() VNFR_REQUIRES(mu_);
    void apply_decision(std::uint64_t seq, const workload::Request& request,
                        const core::Decision& decision) VNFR_REQUIRES(mu_);
    void shed(const QueueItem& victim) VNFR_REQUIRES(mu_);
    /// Drops stale heap entries once the heap is far larger than the live
    /// queue (amortized O(1) per queue operation).
    void prune_shed_heap() VNFR_REQUIRES(mu_);
    std::vector<ProcessedOutcome> pump_locked(std::size_t max_requests)
        VNFR_REQUIRES(mu_);
    void checkpoint_locked() VNFR_REQUIRES(mu_);
    /// Encodes the full state as a base referencing WAL `generation`,
    /// straight from the live tables and ledger.
    [[nodiscard]] std::string encode_base_locked(std::uint64_t generation) const
        VNFR_REQUIRES(mu_);
    /// Encodes what changed since the previous checkpoint as the delta
    /// that starts WAL `generation`. Sorts dirty_cells_ in place.
    [[nodiscard]] std::string encode_delta_locked(std::uint64_t generation)
        VNFR_REQUIRES(mu_);
    /// Records the (cloudlet, slot) cells an admitted placement wrote.
    void mark_dirty(const workload::Request& request, const core::Decision& decision)
        VNFR_REQUIRES(mu_);
    /// The raw rotation (create next gen, publish a base or delta, retire
    /// the old gen and, after a base, the old chain); throws VfsError on
    /// storage failure — callers decide whether that degrades the
    /// controller (checkpoint_locked) or just fails a recovery probe
    /// (try_recover_locked).
    void rotate_checkpoint_locked() VNFR_REQUIRES(mu_);
    /// Enters degraded read-only mode and throws StorageDegradedError.
    [[noreturn]] void enter_degraded_locked(const char* what, const VfsError& err)
        VNFR_REQUIRES(mu_);
    /// Throws StorageDegradedError when degraded (after counting the
    /// refusal and, on cadence, probing recovery).
    void require_storage_healthy_locked(const char* op) VNFR_REQUIRES(mu_);
    [[nodiscard]] bool try_recover_locked() VNFR_REQUIRES(mu_);
    [[nodiscard]] std::string snapshot_path() const;
    [[nodiscard]] std::string wal_path(std::uint64_t generation) const;
    /// Removes files recovery must not see again, given the directory
    /// listing `names`: WAL generations above the current one always
    /// (half-created rotation leftovers), with retain_wals off every WAL
    /// but the current generation, deltas at or below the base, and
    /// delta temp files a crash left mid-publish.
    void remove_stale_files(const std::vector<std::string>& names) const
        VNFR_REQUIRES(mu_);
    void require_primary(const char* op) const VNFR_REQUIRES(mu_);

    // Immutable after construction (no guard needed).
    const core::Instance& instance_;
    core::Scheme scheme_;
    ServeConfig config_;
    std::uint64_t config_digest_{0};
    /// Resolved storage backend (config_.vfs or the PosixVfs).
    Vfs* vfs_{nullptr};

    /// One lock for all mutable state: admissions are serialized end to
    /// end (decide -> WAL append -> apply), which is exactly the ordering
    /// the recovery proof needs. mutable so const accessors can lock.
    mutable common::Mutex mu_;

    std::unique_ptr<core::OnlineScheduler> scheduler_ VNFR_GUARDED_BY(mu_);
    /// Admission queue keyed by stream seq — iteration order is FIFO
    /// because seqs are submitted in increasing order.
    std::map<std::uint64_t, workload::Request> queue_ VNFR_GUARDED_BY(mu_);
    /// Lazy min-payment heap over queue_ for O(log n) shedding.
    std::priority_queue<ShedCandidate, std::vector<ShedCandidate>, ShedVictimOrder>
        shed_heap_ VNFR_GUARDED_BY(mu_);
    ServeMetrics metrics_ VNFR_GUARDED_BY(mu_);
    std::vector<AdmittedRecord> admitted_ VNFR_GUARDED_BY(mu_);
    std::uint64_t covered_watermark_ VNFR_GUARDED_BY(mu_) = 0;
    std::set<std::uint64_t> covered_sparse_ VNFR_GUARDED_BY(mu_);

    std::uint64_t wal_seq_ VNFR_GUARDED_BY(mu_) = 0;
    /// Records in the current generation.
    std::uint64_t wal_records_ VNFR_GUARDED_BY(mu_) = 0;
    /// Appends since construction.
    std::uint64_t appends_this_run_ VNFR_GUARDED_BY(mu_) = 0;
    std::optional<WalWriter> wal_ VNFR_GUARDED_BY(mu_);
    std::uint64_t crash_countdown_ VNFR_GUARDED_BY(mu_) = 0;
    int checkpoint_crash_stage_ VNFR_GUARDED_BY(mu_) = 0;
    /// Generations below this are known-unlinked (release_wals_below).
    std::uint64_t release_floor_ VNFR_GUARDED_BY(mu_) = 0;
    ControllerRole role_ VNFR_GUARDED_BY(mu_) = ControllerRole::kPrimary;
    RecoveryStats recovery_stats_ VNFR_GUARDED_BY(mu_);

    // Delta-checkpoint chain (see the file comment).
    /// WAL generation the base on disk references; deltas
    /// base_generation_+1 .. wal_seq_ form the chain above it.
    std::uint64_t base_generation_ VNFR_GUARDED_BY(mu_) = 0;
    std::uint64_t base_bytes_ VNFR_GUARDED_BY(mu_) = 0;
    /// Bytes of the deltas above the base.
    std::uint64_t chain_bytes_ VNFR_GUARDED_BY(mu_) = 0;
    /// The next checkpoint must write a base: set at construction, on
    /// promotion and on entering degraded mode.
    bool base_due_ VNFR_GUARDED_BY(mu_) = true;
    /// Prefix of admitted_ already in the base or the chain.
    std::size_t admitted_checkpointed_ VNFR_GUARDED_BY(mu_) = 0;
    /// Cells written since the last checkpoint: a bitmap over the
    /// row-major [cloudlet][slot] table for O(1) de-duplication, and the
    /// list of set cells so a delta costs O(dirty), not O(m*T).
    std::vector<bool> dirty_bits_ VNFR_GUARDED_BY(mu_);
    std::vector<std::size_t> dirty_cells_ VNFR_GUARDED_BY(mu_);
    StorageHealth health_ VNFR_GUARDED_BY(mu_) = StorageHealth::kHealthy;
    std::string degraded_reason_ VNFR_GUARDED_BY(mu_);
    StorageStats storage_stats_ VNFR_GUARDED_BY(mu_);
};

/// The shape digest save/load validates against: cloudlet capacities and
/// reliabilities (bit patterns), horizon, catalog entries, and scheme.
[[nodiscard]] std::uint64_t instance_config_digest(const core::Instance& instance,
                                                   core::Scheme scheme);

}  // namespace vnfr::serve
