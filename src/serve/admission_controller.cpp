#include "serve/admission_controller.hpp"

#include <algorithm>
#include <iterator>
#include <stdexcept>
#include <utility>

#include "common/contracts.hpp"
#include "common/digest.hpp"
#include "core/offsite_primal_dual.hpp"
#include "core/onsite_primal_dual.hpp"

namespace vnfr::serve {

namespace {

std::unique_ptr<core::OnlineScheduler> make_scheduler(const core::Instance& instance,
                                                      core::Scheme scheme) {
    if (scheme == core::Scheme::kOnsite) {
        // Per-request delta tracking grows without bound over a server's
        // lifetime and is never read by the serve layer.
        core::OnsitePrimalDualConfig scheduler_config;
        scheduler_config.track_deltas = false;
        return std::make_unique<core::OnsitePrimalDual>(instance, scheduler_config);
    }
    return std::make_unique<core::OffsitePrimalDual>(instance);
}

}  // namespace

std::uint64_t instance_config_digest(const core::Instance& instance,
                                     core::Scheme scheme) {
    common::Fnv1a digest;
    digest.mix(static_cast<std::uint64_t>(scheme));
    digest.mix(static_cast<std::uint64_t>(instance.network.cloudlet_count()));
    digest.mix(static_cast<std::uint64_t>(instance.horizon));
    for (const edge::Cloudlet& c : instance.network.cloudlets()) {
        digest.mix(c.capacity);
        digest.mix(c.reliability);
    }
    digest.mix(static_cast<std::uint64_t>(instance.catalog.size()));
    for (const vnf::VnfType& type : instance.catalog.types()) {
        digest.mix(type.compute_units);
        digest.mix(type.reliability);
    }
    return digest.value();
}

AdmissionController::AdmissionController(const core::Instance& instance,
                                         core::Scheme scheme, ServeConfig config)
    : instance_(instance), scheme_(scheme), config_(std::move(config)) {
    vfs_ = config_.vfs != nullptr ? config_.vfs : &posix_vfs();
    if (config_.data_dir.empty() || !vfs_->dir_exists(config_.data_dir)) {
        throw std::invalid_argument("AdmissionController: data_dir '" +
                                    config_.data_dir + "' is not a directory");
    }
    if (config_.checkpoint_every == 0) {
        throw std::invalid_argument("AdmissionController: checkpoint_every must be >= 1");
    }
    if (config_.queue_capacity == 0) {
        throw std::invalid_argument("AdmissionController: queue_capacity must be >= 1");
    }
    if (config_.group_commit == 0) {
        throw std::invalid_argument("AdmissionController: group_commit must be >= 1");
    }
    config_digest_ = instance_config_digest(instance_, scheme_);
    // No other thread can see a partially-constructed controller, but the
    // recovery helpers require mu_, so hold it for the uncontended setup.
    const common::MutexLock lock(&mu_);
    role_ = config_.standby ? ControllerRole::kStandby : ControllerRole::kPrimary;
    scheduler_ = make_scheduler(instance_, scheme_);
    VNFR_CHECK(scheduler_->supports_state_io(),
               "serve layer requires a scheduler with state export/import");
    recover();
}

std::string AdmissionController::snapshot_path() const {
    return config_.data_dir + "/snapshot.bin";
}

std::string AdmissionController::wal_path(std::uint64_t generation) const {
    return config_.data_dir + "/wal-" + std::to_string(generation) + ".log";
}

void AdmissionController::recover() {
    const std::size_t cells = instance_.network.cloudlet_count() *
                              static_cast<std::size_t>(instance_.horizon);
    dirty_bits_.assign(cells, false);
    const std::vector<std::string> names = vfs_->list_dir(config_.data_dir);
    const std::vector<std::uint64_t> deltas =
        parse_generations(names, kDeltaPrefix, "");
    const std::string snap_path = snapshot_path();
    if (file_exists(*vfs_, snap_path)) {
        recovery_stats_.recovered_snapshot = true;
        LoadedChain chain = load_chain(*vfs_, config_.data_dir, deltas);
        ControllerSnapshot& snap = chain.state;
        if (snap.config_digest != config_digest_) {
            throw CorruptStateError(snap_path, 0,
                                    "snapshot was saved for a different instance/scheme "
                                    "(config digest mismatch)");
        }
        if (snap.scheme != static_cast<std::uint8_t>(scheme_) ||
            snap.cloudlets != instance_.network.cloudlet_count() ||
            snap.horizon != static_cast<std::uint64_t>(instance_.horizon)) {
            throw CorruptStateError(snap_path, 0,
                                    "snapshot shape disagrees with the bound instance");
        }
        scheduler_->import_state(
            core::SchedulerState{std::move(snap.lambda), std::move(snap.usage)});
        metrics_ = snap.metrics;
        admitted_ = std::move(snap.admitted);
        admitted_checkpointed_ = admitted_.size();
        covered_watermark_ = snap.covered_watermark;
        covered_sparse_.clear();
        covered_sparse_.insert(snap.covered_sparse.begin(), snap.covered_sparse.end());
        wal_seq_ = snap.wal_seq;
        base_generation_ = chain.base_generation;
        recovery_stats_.deltas_applied = chain.chain_length;
    } else if (!deltas.empty()) {
        // Deltas are only ever written above a published base, and a base
        // is replaced, never removed: a delta without one means a lost file.
        throw CorruptStateError(delta_path(config_.data_dir, deltas.front()), 0,
                                "delta checkpoint without a base snapshot");
    }
    // Without a snapshot the controller starts from generation 0 with
    // default state; a crash before the first checkpoint leaves exactly
    // wal-0.log to replay.
    const std::string path = wal_path(wal_seq_);
    if (file_exists(*vfs_, path)) {
        WalContents contents = read_wal(*vfs_, path, WalReadMode::kRecover);
        if (contents.wal_seq != wal_seq_) {
            throw CorruptStateError(path, 0,
                                    "WAL generation " + std::to_string(contents.wal_seq) +
                                        " does not match the snapshot's " +
                                        std::to_string(wal_seq_));
        }
        if (contents.config_digest != config_digest_) {
            throw CorruptStateError(path, 0,
                                    "WAL was written for a different instance/scheme "
                                    "(config digest mismatch)");
        }
        for (const WalRecord& rec : contents.records) replay_record(rec, path);
        wal_records_ = contents.records.size();
        recovery_stats_.recovered_wal = true;
        recovery_stats_.wal_records_replayed = contents.records.size();
        recovery_stats_.torn_tail_bytes = contents.bytes_discarded;
        recovery_stats_.torn_tail_records = contents.records_discarded;
        wal_.emplace(WalWriter::append_to(*vfs_, path, contents.valid_size,
                                          config_.storage_retry));
    } else {
        // Legal crash window: the snapshot was renamed in but the next
        // WAL generation was never created — the snapshot alone is the
        // complete durable state.
        wal_.emplace(WalWriter::create(*vfs_, path, wal_seq_, config_digest_,
                                       config_.storage_retry));
        wal_records_ = 0;
    }
    remove_stale_files(names);
}

void AdmissionController::remove_stale_files(const std::vector<std::string>& names) const {
    std::vector<std::string> stale;
    for (const std::uint64_t generation : parse_generations(names, "wal-", ".log")) {
        if (generation == wal_seq_) continue;
        // A generation above the current one is a half-finished rotation
        // (created before the crash, never referenced by a snapshot) and
        // must go in every mode — recovery would otherwise mistake it for
        // live state on the next rotation. Older generations are history:
        // stale without replication, retained ship-source with it.
        if (generation < wal_seq_ && config_.retain_wals) continue;
        stale.push_back(wal_path(generation));
    }
    // A crash between publishing a base and unlinking the chain below it
    // leaves deltas the base already contains.
    for (const std::uint64_t generation : parse_generations(names, kDeltaPrefix, "")) {
        if (generation <= base_generation_) {
            stale.push_back(delta_path(config_.data_dir, generation));
        }
    }
    // A crash mid-publish leaves the delta's temp file; no name ever
    // refers to it.
    for (const std::uint64_t generation :
         parse_generations(names, kDeltaPrefix, ".tmp")) {
        stale.push_back(delta_path(config_.data_dir, generation) + ".tmp");
    }
    for (const std::string& path : stale) {
        try {
            vfs_->unlink(path);
        } catch (const VfsError&) {
            // Stale-file cleanup is advisory; the next recovery retries.
        }
    }
}

void AdmissionController::release_wals_below(std::uint64_t generation) {
    const common::MutexLock lock(&mu_);
    const std::uint64_t ceiling = std::min(generation, wal_seq_);
    for (std::uint64_t g = release_floor_; g < ceiling; ++g) {
        try {
            vfs_->unlink(wal_path(g));
        } catch (const VfsError&) {
            // An un-releasable acked generation is waste, not danger; the
            // next recovery's stale-WAL sweep retries.
        }
    }
    release_floor_ = std::max(release_floor_, ceiling);
}

void AdmissionController::replay_record(const WalRecord& rec, const std::string& path) {
    if (rec.kind == WalRecordKind::kShed) {
        metrics_.shed += 1;
        metrics_.shed_revenue += rec.request.payment;
        mark_covered(rec.seq);
        return;
    }
    // Re-execute the logged decision and cross-check: decide() is
    // deterministic given the restored state, so any divergence means the
    // snapshot and WAL are mutually inconsistent.
    const core::Decision decision = scheduler_->decide(rec.request);
    bool matches = decision.admitted == rec.admitted;
    if (matches && decision.admitted) {
        matches = decision.placement.sites.size() == rec.sites.size();
        for (std::size_t i = 0; matches && i < rec.sites.size(); ++i) {
            matches = decision.placement.sites[i].cloudlet == rec.sites[i].cloudlet &&
                      decision.placement.sites[i].replicas == rec.sites[i].replicas;
        }
    }
    if (matches && !decision.admitted) {
        matches = decision.reject_reason == rec.reject_reason;
    }
    if (!matches) {
        throw CorruptStateError(path, rec.file_offset,
                                "logged decision for seq " + std::to_string(rec.seq) +
                                    " diverges from re-execution — snapshot and WAL "
                                    "are mutually inconsistent");
    }
    apply_decision(rec.seq, rec.request, decision);
}

void AdmissionController::mark_covered(std::uint64_t seq) {
    if (is_covered_locked(seq)) return;
    covered_sparse_.insert(seq);
    while (!covered_sparse_.empty() && covered_sparse_.count(covered_watermark_) != 0) {
        covered_sparse_.erase(covered_watermark_);
        ++covered_watermark_;
    }
}

bool AdmissionController::is_covered_locked(std::uint64_t seq) const {
    return seq < covered_watermark_ || covered_sparse_.count(seq) != 0;
}

bool AdmissionController::is_covered(std::uint64_t seq) const {
    const common::MutexLock lock(&mu_);
    return is_covered_locked(seq);
}

void AdmissionController::append_wal(const WalRecord& rec) {
    wal_->append(rec);
    ++wal_records_;
    ++appends_this_run_;
    if (crash_countdown_ > 0 && --crash_countdown_ == 0) {
        throw CrashInjected(appends_this_run_);
    }
}

void AdmissionController::stage_wal(const WalRecord& rec) {
    wal_->stage(rec);
    ++wal_records_;
    ++appends_this_run_;
    // Commit exactly at group boundaries, *before* the crash hook fires,
    // so an injected crash sees the durability a real one would: a
    // countdown landing on a boundary dies with the whole group on disk;
    // anywhere else it dies with the staged suffix never externalized.
    if (wal_->staged_records() >= config_.group_commit) {
        wal_->commit();
    }
    if (crash_countdown_ > 0 && --crash_countdown_ == 0) {
        throw CrashInjected(appends_this_run_);
    }
}

void AdmissionController::commit_wal() { wal_->commit(); }

void AdmissionController::mark_dirty(const workload::Request& request,
                                     const core::Decision& decision) {
    const auto horizon = static_cast<std::size_t>(instance_.horizon);
    for (const core::Site& site : decision.placement.sites) {
        const std::size_t row = site.cloudlet.index() * horizon;
        for (TimeSlot t = request.arrival; t < request.end(); ++t) {
            const std::size_t cell = row + static_cast<std::size_t>(t);
            if (dirty_bits_[cell]) continue;
            dirty_bits_[cell] = true;
            dirty_cells_.push_back(cell);
        }
    }
}

void AdmissionController::apply_decision(std::uint64_t seq,
                                         const workload::Request& request,
                                         const core::Decision& decision) {
    metrics_.processed += 1;
    if (decision.admitted) {
        mark_dirty(request, decision);
        metrics_.admitted += 1;
        metrics_.revenue += request.payment;
        AdmittedRecord rec;
        rec.seq = seq;
        rec.request_id = request.id.value;
        rec.payment = request.payment;
        rec.sites.reserve(decision.placement.sites.size());
        for (const core::Site& site : decision.placement.sites) {
            rec.sites.emplace_back(site.cloudlet.value,
                                   static_cast<std::int64_t>(site.replicas));
        }
        admitted_.push_back(std::move(rec));
    } else {
        metrics_.rejected += 1;
    }
    mark_covered(seq);
}

void AdmissionController::shed(const QueueItem& victim) {
    WalRecord rec;
    rec.kind = WalRecordKind::kShed;
    rec.seq = victim.seq;
    rec.request = victim.request;
    try {
        append_wal(rec);
    } catch (const VfsError& err) {
        // The shed record never became durable, so nothing becomes
        // observable either: the queue is untouched and the caller's
        // submit reports degradation instead of an outcome.
        enter_degraded_locked("shed WAL append", err);
    }
    metrics_.shed += 1;
    metrics_.shed_revenue += victim.request.payment;
    mark_covered(victim.seq);
}

void AdmissionController::require_primary(const char* op) const {
    if (role_ != ControllerRole::kPrimary) {
        throw std::logic_error(std::string("AdmissionController::") + op +
                               " on a standby controller — replicate via "
                               "apply_replicated() or mark_promoted() first");
    }
}

bool AdmissionController::apply_replicated(const WalRecord& rec) {
    const common::MutexLock lock(&mu_);
    if (role_ != ControllerRole::kStandby) {
        throw std::logic_error(
            "AdmissionController::apply_replicated on a primary controller — "
            "primaries decide for themselves");
    }
    if (is_covered_locked(rec.seq)) return false;
    require_storage_healthy_locked("apply_replicated");
    // Durable first, exactly like the primary: the record reaches this
    // standby's own WAL (and its fdatasync returns) before any state
    // change becomes observable. replay_record then re-executes and
    // cross-checks, so a diverged standby dies loudly here.
    try {
        append_wal(rec);
    } catch (const VfsError& err) {
        // Nothing was applied: the record is simply not acked, and the
        // shipper's go-back-N resync re-delivers it after recovery.
        enter_degraded_locked("replicated WAL append", err);
    }
    replay_record(rec, wal_->path());
    if (wal_records_ >= config_.checkpoint_every) checkpoint_locked();
    return true;
}

void AdmissionController::mark_promoted() {
    const common::MutexLock lock(&mu_);
    if (role_ != ControllerRole::kPrimary) base_due_ = true;
    role_ = ControllerRole::kPrimary;
}

WalPosition AdmissionController::wal_position() const {
    const common::MutexLock lock(&mu_);
    WalPosition pos;
    pos.generation = wal_seq_;
    pos.records = wal_records_;
    pos.durable_bytes = wal_->durable_size();
    return pos;
}

SubmitResult AdmissionController::submit(std::uint64_t seq,
                                         const workload::Request& request) {
    const common::MutexLock lock(&mu_);
    require_primary("submit");
    if (is_covered_locked(seq)) return SubmitResult::kAlreadyCovered;
    require_storage_healthy_locked("submit");
    // Uncovered submissions must arrive in stream order — FIFO processing
    // equals seq order, which the recovery protocol relies on.
    VNFR_CHECK(queue_.empty() || seq > queue_.rbegin()->first,
               "submit seq ", seq, " out of stream order (queue tail is ",
               queue_.empty() ? 0 : queue_.rbegin()->first, ")");
    if (queue_.size() < config_.queue_capacity) {
        queue_.emplace(seq, request);
        shed_heap_.push(ShedCandidate{request.payment, seq});
        return SubmitResult::kQueued;
    }
    // Overload: shed the lowest payment among queued + incoming; on a
    // payment tie the younger request (higher seq) loses. After skipping
    // stale entries the heap top is exactly the queued side of that
    // arg-min, making the victim choice O(log n) instead of a scan.
    while (!shed_heap_.empty() && queue_.find(shed_heap_.top().seq) == queue_.end()) {
        shed_heap_.pop();
    }
    VNFR_CHECK(!shed_heap_.empty(), "shed heap lost track of the live queue");
    const ShedCandidate top = shed_heap_.top();
    // The incoming request carries the highest seq, so on a payment tie
    // it is the one shed; a queued victim needs strictly lower payment.
    if (!(top.payment < request.payment)) {
        shed(QueueItem{seq, request});
        return SubmitResult::kShedIncoming;
    }
    const auto victim_it = queue_.find(top.seq);
    VNFR_CHECK(victim_it != queue_.end(), "shed heap points at a dequeued seq");
    shed(QueueItem{victim_it->first, victim_it->second});  // durable first
    shed_heap_.pop();
    queue_.erase(victim_it);
    queue_.emplace(seq, request);
    shed_heap_.push(ShedCandidate{request.payment, seq});
    return SubmitResult::kShedQueued;
}

std::vector<ProcessedOutcome> AdmissionController::pump(std::size_t max_requests) {
    const common::MutexLock lock(&mu_);
    require_primary("pump");
    require_storage_healthy_locked("pump");
    return pump_locked(max_requests);
}

std::vector<ProcessedOutcome> AdmissionController::pump_locked(
    std::size_t max_requests) {
    std::vector<ProcessedOutcome> outcomes;
    while (max_requests > 0 && !queue_.empty()) {
        const std::size_t take =
            std::min({max_requests, queue_.size(), config_.group_commit});
        std::vector<std::uint64_t> seqs;
        std::vector<workload::Request> batch;
        seqs.reserve(take);
        batch.reserve(take);
        {
            auto it = queue_.begin();
            for (std::size_t i = 0; i < take; ++i, ++it) {
                seqs.push_back(it->first);
                batch.push_back(it->second);
            }
        }
        // The scheduler mutates inside decide; checkpoint its state first
        // so a storage failure below can roll the whole chunk back as if
        // it was never decided.
        const core::SchedulerState pre_state = scheduler_->export_state();
        const std::uint64_t pre_wal_records = wal_records_;
        const std::uint64_t pre_appends = appends_this_run_;
        std::vector<core::Decision> decisions;
        decisions.reserve(take);
        for (const workload::Request& request : batch) {
            decisions.push_back(scheduler_->decide(request));
        }
        try {
            // Durable first: stage the whole group, fdatasync once.
            for (std::size_t i = 0; i < take; ++i) {
                WalRecord rec;
                rec.kind = WalRecordKind::kDecision;
                rec.seq = seqs[i];
                rec.request = batch[i];
                rec.admitted = decisions[i].admitted;
                rec.reject_reason = decisions[i].reject_reason;
                if (decisions[i].admitted) rec.sites = decisions[i].placement.sites;
                stage_wal(rec);
            }
            commit_wal();
        } catch (const VfsError& err) {
            // The group's fdatasync never returned, so none of its
            // outcomes may become observable. Un-decide the chunk
            // (requests stay queued for after recovery), drop the staged
            // bytes, and degrade: partial un-synced writes past the
            // durable prefix are rewound before the next commit — and if
            // they survive a crash instead, recovery replays them as
            // durable-but-unacked outcomes, which resubmission skips.
            scheduler_->import_state(pre_state);
            wal_->abandon_staged();
            wal_records_ = pre_wal_records;
            appends_this_run_ = pre_appends;
            enter_degraded_locked("WAL group commit", err);
        }
        // Only now — with the group durable — do the outcomes become
        // observable, in stream order.
        queue_.erase(queue_.begin(), std::next(queue_.begin(),
                                               static_cast<std::ptrdiff_t>(take)));
        for (std::size_t i = 0; i < take; ++i) {
            apply_decision(seqs[i], batch[i], decisions[i]);
            outcomes.push_back(ProcessedOutcome{seqs[i], batch[i], decisions[i]});
        }
        prune_shed_heap();
        max_requests -= take;
        if (wal_records_ >= config_.checkpoint_every) checkpoint_locked();
    }
    return outcomes;
}

void AdmissionController::prune_shed_heap() {
    // Stale entries (pumped or evicted seqs) are skipped lazily at shed
    // time; rebuild once they dominate so heap memory stays O(queue).
    if (shed_heap_.size() <= 2 * queue_.size() + 64) return;
    std::vector<ShedCandidate> live;
    live.reserve(queue_.size());
    for (const auto& [seq, request] : queue_) {
        live.push_back(ShedCandidate{request.payment, seq});
    }
    shed_heap_ = std::priority_queue<ShedCandidate, std::vector<ShedCandidate>,
                                     ShedVictimOrder>(ShedVictimOrder{},
                                                      std::move(live));
}

std::vector<ProcessedOutcome> AdmissionController::drain() {
    const common::MutexLock lock(&mu_);
    require_primary("drain");
    std::vector<ProcessedOutcome> outcomes;
    while (!queue_.empty()) {
        std::vector<ProcessedOutcome> batch = pump_locked(queue_.size());
        outcomes.insert(outcomes.end(), batch.begin(), batch.end());
    }
    return outcomes;
}

void AdmissionController::checkpoint() {
    const common::MutexLock lock(&mu_);
    checkpoint_locked();
}

void AdmissionController::checkpoint_locked() {
    try {
        rotate_checkpoint_locked();
    } catch (const VfsError& err) {
        // Whatever the rotation half-did (a next-generation file, an
        // unreplaced snapshot, an unpublished delta) is exactly a legal
        // crash window: recovery's stale-file sweep absorbs it. The live
        // controller, though, can no longer prove durability — degrade
        // until a rotation succeeds.
        enter_degraded_locked("checkpoint rotation", err);
    }
}

std::string AdmissionController::encode_base_locked(std::uint64_t generation) const {
    ControllerSnapshot snap;
    snap.scheme = static_cast<std::uint8_t>(scheme_);
    snap.config_digest = config_digest_;
    snap.cloudlets = instance_.network.cloudlet_count();
    snap.horizon = static_cast<std::uint64_t>(instance_.horizon);
    snap.wal_seq = generation;
    snap.metrics = metrics_;
    core::SchedulerState state = scheduler_->export_state();
    snap.lambda = std::move(state.lambda);
    snap.usage = std::move(state.usage);
    snap.covered_watermark = covered_watermark_;
    snap.covered_sparse.assign(covered_sparse_.begin(), covered_sparse_.end());
    return encode_snapshot(snap, admitted_);
}

std::string AdmissionController::encode_delta_locked(std::uint64_t generation) {
    SnapshotDelta delta;
    delta.config_digest = config_digest_;
    delta.generation = generation;
    delta.parent = wal_seq_;
    delta.metrics = metrics_;
    delta.covered_watermark = covered_watermark_;
    delta.covered_sparse.assign(covered_sparse_.begin(), covered_sparse_.end());
    std::sort(dirty_cells_.begin(), dirty_cells_.end());
    const auto horizon = static_cast<std::size_t>(instance_.horizon);
    const edge::ResourceLedger& ledger = scheduler_->ledger();
    delta.cells.reserve(dirty_cells_.size());
    for (const std::size_t cell : dirty_cells_) {
        const std::size_t row = cell / horizon;
        const std::size_t slot = cell % horizon;
        const CloudletId j{static_cast<std::int64_t>(row)};
        const auto t = static_cast<TimeSlot>(slot);
        delta.cells.push_back(StateCell{static_cast<std::uint32_t>(row),
                                        static_cast<std::uint32_t>(slot),
                                        scheduler_->lambda(j, t), ledger.usage(j, t)});
    }
    return encode_delta(delta, std::span<const AdmittedRecord>(admitted_).subspan(
                                   admitted_checkpointed_));
}

void AdmissionController::rotate_checkpoint_locked() {
    VNFR_CHECK(wal_->staged_records() == 0,
               "checkpoint with uncommitted staged WAL records");
    const std::uint64_t next_gen = wal_seq_ + 1;
    // A delta unless a base is due or the chain would outgrow the base:
    // then recovery reads at most twice the base's bytes, and each base's
    // cost is spread over the deltas before it.
    std::string bytes = base_due_ ? std::string() : encode_delta_locked(next_gen);
    const bool base = base_due_ || chain_bytes_ + bytes.size() > base_bytes_;
    if (base) bytes = encode_base_locked(next_gen);
    // Rotation order keeps every crash window recoverable: (1) create the
    // next WAL generation; (2) atomically publish the base or delta, which
    // now references it; (3) drop the old generation and, after a base,
    // the chain it folded. A crash between (1) and (2) recovers from the
    // old chain + old WAL (the new file is stale and removed on restart);
    // between (2) and (3) the old WAL and any old deltas are the stale
    // ones. DESIGN.md 6c walks every window.
    WalWriter next = WalWriter::create(*vfs_, wal_path(next_gen), next_gen,
                                       config_digest_, config_.storage_retry);
    if (checkpoint_crash_stage_ == 1) {
        checkpoint_crash_stage_ = 0;
        throw CrashInjected(appends_this_run_);
    }
    publish_state_file(*vfs_,
                       base ? snapshot_path() : delta_path(config_.data_dir, next_gen),
                       bytes, config_.storage_retry, &storage_stats_.transient_retries);
    if (checkpoint_crash_stage_ == 2) {
        checkpoint_crash_stage_ = 0;
        throw CrashInjected(appends_this_run_);
    }
    storage_stats_.transient_retries += wal_->transient_retries();
    wal_->close();
    // With retention the rotated-out generation stays on disk for the
    // replication shipper; release_wals_below() retires it once acked.
    if (!config_.retain_wals) {
        try {
            vfs_->unlink(wal_path(wal_seq_));
        } catch (const VfsError&) {
            // The snapshot already supersedes the old generation; the
            // next recovery's stale-file sweep retries the unlink.
        }
    }
    if (base) {
        // Up to next_gen inclusive: a delta publish that failed after its
        // rename may have left snapshot.bin.<next_gen> behind.
        for (std::uint64_t g = base_generation_ + 1; g <= next_gen; ++g) {
            try {
                vfs_->unlink(delta_path(config_.data_dir, g));
            } catch (const VfsError&) {
                // The new base supersedes it; recovery sweeps it later.
            }
        }
        base_generation_ = next_gen;
        base_bytes_ = bytes.size();
        chain_bytes_ = 0;
        base_due_ = false;
        ++storage_stats_.base_checkpoints;
    } else {
        chain_bytes_ += bytes.size();
        ++storage_stats_.delta_checkpoints;
    }
    storage_stats_.checkpoint_bytes += bytes.size();
    for (const std::size_t cell : dirty_cells_) dirty_bits_[cell] = false;
    dirty_cells_.clear();
    admitted_checkpointed_ = admitted_.size();
    wal_.emplace(std::move(next));
    wal_seq_ = next_gen;
    wal_records_ = 0;
}

void AdmissionController::enter_degraded_locked(const char* what,
                                                const VfsError& err) {
    health_ = StorageHealth::kDegraded;
    // Whatever a failed rotation left on disk is not part of any chain the
    // controller tracks; the recovery rotation starts over from a base.
    base_due_ = true;
    degraded_reason_ = std::string(what) + ": " + err.what();
    ++storage_stats_.degraded_entries;
    throw StorageDegradedError("storage degraded — " + degraded_reason_);
}

void AdmissionController::require_storage_healthy_locked(const char* op) {
    if (health_ == StorageHealth::kHealthy) return;
    ++storage_stats_.degraded_refusals;
    if (config_.degraded_probe_every > 0 &&
        storage_stats_.degraded_refusals % config_.degraded_probe_every == 0 &&
        try_recover_locked()) {
        return;
    }
    throw StorageDegradedError(std::string("AdmissionController::") + op +
                               " refused, storage degraded — " +
                               degraded_reason_);
}

bool AdmissionController::try_recover_locked() {
    if (health_ == StorageHealth::kHealthy) return true;
    try {
        // A failed commit may have left un-synced garbage past the
        // durable WAL prefix; truncate it away so retained generations
        // end on a clean record boundary for tailers and recovery alike.
        wal_->repair();
        // A full rotation is the writability proof: it exercises create,
        // write, fsync, rename, and directory sync — and leaves the
        // freshly-checkpointed state as the durable baseline.
        rotate_checkpoint_locked();
    } catch (const VfsError&) {
        return false;  // still broken; stay degraded
    }
    health_ = StorageHealth::kHealthy;
    degraded_reason_.clear();
    ++storage_stats_.recoveries;
    return true;
}

bool AdmissionController::try_recover_storage() {
    const common::MutexLock lock(&mu_);
    return try_recover_locked();
}

StorageStats AdmissionController::storage_stats() const {
    const common::MutexLock lock(&mu_);
    StorageStats stats = storage_stats_;
    // The live writer's absorbed retries roll into the total at rotation;
    // count the current generation's on the fly.
    stats.transient_retries += wal_->transient_retries();
    return stats;
}

std::uint64_t AdmissionController::state_digest() const {
    const common::MutexLock lock(&mu_);
    common::Fnv1a digest;
    digest.mix(static_cast<std::uint64_t>(scheme_));
    digest.mix(config_digest_);
    digest.mix(metrics_.processed);
    digest.mix(metrics_.admitted);
    digest.mix(metrics_.rejected);
    digest.mix(metrics_.shed);
    digest.mix(metrics_.revenue);
    digest.mix(metrics_.shed_revenue);
    digest.mix(covered_watermark_);
    digest.mix(static_cast<std::uint64_t>(covered_sparse_.size()));
    for (const std::uint64_t seq : covered_sparse_) digest.mix(seq);
    digest.mix(static_cast<std::uint64_t>(admitted_.size()));
    for (const AdmittedRecord& rec : admitted_) {
        digest.mix(rec.seq);
        digest.mix(static_cast<std::uint64_t>(rec.request_id));
        digest.mix(rec.payment);
        digest.mix(static_cast<std::uint64_t>(rec.sites.size()));
        for (const auto& [cloudlet, replicas] : rec.sites) {
            digest.mix(static_cast<std::uint64_t>(cloudlet));
            digest.mix(static_cast<std::uint64_t>(replicas));
        }
    }
    const core::SchedulerState state = scheduler_->export_state();
    for (const auto& row : state.lambda) {
        for (const double v : row) digest.mix(v);
    }
    for (const double v : state.usage) digest.mix(v);
    return digest.value();
}

}  // namespace vnfr::serve
