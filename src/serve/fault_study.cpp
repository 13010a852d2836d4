#include "serve/fault_study.hpp"

#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <set>
#include <stdexcept>
#include <utility>

#include "common/rng.hpp"
#include "core/verify.hpp"
#include "serve/admission_controller.hpp"
#include "serve/replication/failover.hpp"
#include "serve/replication/standby.hpp"
#include "serve/replication/wal_shipper.hpp"
#include "serve/vfs.hpp"
#include "serve/wal.hpp"
#include "serve/wal_scrubber.hpp"

namespace vnfr::serve {

namespace {

using replication::FailoverCoordinator;
using replication::ShipTransport;
using replication::StandbyController;
using replication::TransportFaultPlan;
using replication::TransportStats;
using replication::WalShipper;

// FaultyVfs runs keep their state under this name in its flat namespace.
constexpr const char* kFaultDiskDir = "/faultdisk";
constexpr std::size_t kTransportCapacity = 4;  // frames: backpressure realism
constexpr int kRetryMaxAttempts = 6;           // per unit of burst length
// A torn tail keeps the WAL header plus this margin, so the cut lands
// inside the final record, not across older ones.
constexpr std::uint64_t kTornTailMargin = 16;

// RNG stream ids and plan-seed salts per source: fixed, so kill points
// and fault plans reproduce exactly.
constexpr std::uint64_t kPatternStream = 1;
constexpr std::uint64_t kKillStream = 1000;
constexpr std::uint64_t kPromotionStream = 2000;
constexpr std::uint64_t kPowerCutStream = 2000;
constexpr std::uint64_t kDiskFullStream = 3000;
constexpr std::uint64_t kDegradedPrimaryStream = 5000;
constexpr std::uint64_t kPromotionLinkSalt = 0xFA017EE0ULL;
constexpr std::uint64_t kDegradedLinkSalt = 0xDE64ADE0ULL;
constexpr std::uint64_t kPowerCutSalt = 0xD15C0C07ULL;
constexpr std::uint64_t kTransientSalt = 0xD15CF417ULL;

std::string wal_file(const std::string& dir, std::uint64_t generation) {
    return dir + "/wal-" + std::to_string(generation) + ".log";
}

void make_dir(const std::string& path) {
    if (::mkdir(path.c_str(), 0755) != 0 && errno != EEXIST) {
        throw std::invalid_argument("fault study: cannot create directory " + path);
    }
}

/// Creates `dir` on the real disk if needed and removes the controller
/// state a previous trial left in it.
void fresh_state_dir(const std::string& dir) {
    make_dir(dir);
    Vfs& vfs = posix_vfs();
    for (const std::string& name : vfs.list_dir(dir)) {
        if (name.starts_with("wal-") || name.starts_with("snapshot.bin")) {
            vfs.unlink(dir + "/" + name);
        }
    }
}

/// Tears 1..12 bytes off the newest WAL in `dir`, as an interrupted
/// append would. A generation no longer than the header plus the margin
/// (such as the fresh one a stage-1 rotation kill leaves) stays whole.
void tear_tail(const std::string& dir, common::Rng& rng, FaultTrial& trial) {
    Vfs& vfs = posix_vfs();
    const std::vector<std::uint64_t> gens = list_wal_generations(vfs, dir);
    if (gens.empty()) return;
    const std::string wal = wal_file(dir, gens.back());
    const std::uint64_t size = vfs.read_file(wal).size();
    if (size <= kWalHeaderSize + kTornTailMargin) return;
    trial.truncated_bytes = static_cast<std::uint64_t>(rng.uniform_int(1, 12));
    VfsFdGuard fd(vfs, vfs.open_append(wal));
    vfs.ftruncate(fd.get(), wal, size - trial.truncated_bytes);
    trial.torn_tail_applied = true;
}

/// Flips one bit of `victim` at `offset`: the scrub must report it, and
/// be clean once the flip is undone.
bool scrub_catches_flip(FaultyVfs& disk, const std::string& victim,
                        std::uint64_t offset) {
    disk.corrupt_durable_byte(victim, offset, 0x10);
    const bool detected = !scrub_data_dir(disk, kFaultDiskDir).clean();
    disk.corrupt_durable_byte(victim, offset, 0x10);
    return detected && scrub_data_dir(disk, kFaultDiskDir).clean();
}

/// Proves the scrubber catches latent corruption: flip one bit in a
/// record of the oldest retained generation holding one (never the
/// newest, where a flip could pass as a legal torn tail), else in the
/// snapshot; then, when the chain has one, in the newest delta.
bool prove_corruption_detection(FaultyVfs& disk) {
    const std::vector<std::uint64_t> gens = list_wal_generations(disk, kFaultDiskDir);
    std::string victim = std::string(kFaultDiskDir) + "/snapshot.bin";
    for (std::size_t i = 0; i + 1 < gens.size(); ++i) {
        const std::string path = wal_file(kFaultDiskDir, gens[i]);
        if (disk.read_file(path).size() > kWalHeaderSize + kTornTailMargin) {
            victim = path;
            break;
        }
    }
    if (!disk.file_exists(victim)) return false;
    // In the first record: the header's own CRC is a different code path.
    const std::uint64_t offset =
        kWalHeaderSize + 5 < disk.read_file(victim).size() ? kWalHeaderSize + 5 : 8;
    if (!scrub_catches_flip(disk, victim, offset)) return false;
    // Past the delta's magic and version, inside its config digest.
    const std::vector<std::uint64_t> deltas = list_delta_generations(disk, kFaultDiskDir);
    return deltas.empty() ||
           scrub_catches_flip(disk, delta_path(kFaultDiskDir, deltas.back()), 12);
}

/// Audits a durable admitted ledger (everything else default-rejected)
/// with core::verify_schedule.
bool capacity_ok(const core::Instance& instance,
                 const std::vector<AdmittedRecord>& admitted) {
    std::vector<core::Decision> decisions(instance.requests.size());
    for (const AdmittedRecord& rec : admitted) {
        if (rec.seq >= decisions.size()) continue;  // caught by admitted_match
        core::Decision& d = decisions[static_cast<std::size_t>(rec.seq)];
        d.admitted = true;
        d.placement.request = instance.requests[static_cast<std::size_t>(rec.seq)].id;
        for (const auto& [cloudlet, replicas] : rec.sites) {
            d.placement.sites.push_back(
                core::Site{CloudletId{cloudlet}, static_cast<int>(replicas)});
        }
    }
    return core::verify_schedule(instance, decisions).ok();
}

TransportFaultPlan lossy_link(std::uint64_t seed) {
    TransportFaultPlan plan;
    plan.seed = seed;
    plan.drop = 0.08;
    plan.truncate = 0.08;
    plan.duplicate = 0.08;
    plan.reorder = 0.08;
    return plan;
}

/// Pumps the link of a live primary until it is drained and quiescent.
void settle_link(WalShipper& shipper, StandbyController& standby,
                 ShipTransport& transport) {
    for (int i = 0; i < 10000; ++i) {
        const std::size_t sent = shipper.pump();
        const std::size_t got = standby.poll();
        if (sent == 0 && got == 0 && transport.in_flight() == 0) return;
    }
    throw std::logic_error("fault study: replication link failed to settle");
}

/// Where the stream stood when a fault unwound the driver.
struct DriveProgress {
    std::size_t submitted{0};  ///< completed submit() calls
    bool in_drain{false};      ///< the fault interrupted a drain
};

class Study {
  public:
    Study(const core::Instance& instance, const FaultStudyConfig& config)
        : instance_(instance),
          config_(config),
          primary_dir_(config.work_dir + "/primary"),
          standby_dir_(config.work_dir + "/standby") {
        // Strictly more submissions than queue slots between drains: the
        // overload guard sheds every cycle, so faults land in shed paths.
        common::Rng pattern = common::stream_rng(config.master_seed, kPatternStream);
        drain_every_ = config.queue_capacity +
                       static_cast<std::size_t>(pattern.uniform_int(
                           1, static_cast<std::int64_t>(config.queue_capacity)));
        result_.scheme = config.scheme;
    }

    FaultStudyResult run() {
        run_baseline();
        const bool exhaustive = config_.exhaustive;
        const std::size_t kills =
            exhaustive && config_.kills > 0
                ? static_cast<std::size_t>(
                      std::max<std::uint64_t>(1, result_.baseline.outcomes()) - 1)
                : config_.kills;
        for (std::size_t t = 0; t < kills; ++t) add(kill_trial(t));
        if (config_.promotions + config_.degraded_primaries > 0) run_sync_control();
        for (std::size_t t = 0; t < config_.promotions; ++t) {
            add(failover_trial(FaultSource::kPromotion, t));
        }
        for (std::size_t t = 0; t < config_.degraded_primaries; ++t) {
            add(failover_trial(FaultSource::kDegradedPrimary, t));
        }
        const std::size_t cuts =
            exhaustive && config_.power_cuts > 0
                ? static_cast<std::size_t>(result_.baseline_mutating_ops)
                : config_.power_cuts;
        for (std::size_t t = 0; t < cuts; ++t) add(power_cut_trial(t));
        for (std::size_t t = 0; t < config_.transient_bursts; ++t) {
            add(transient_trial(t));
        }
        for (std::size_t t = 0; t < config_.disk_fulls; ++t) add(disk_full_trial(t));
        return std::move(result_);
    }

  private:
    /// The controller config of every run; only the storage differs.
    /// Rotated generations are retained, so the shipper can tail them
    /// and every scrub audits the run's whole WAL history.
    [[nodiscard]] ServeConfig serve_config(const std::string& dir,
                                           Vfs* vfs = nullptr) const {
        ServeConfig cfg;
        cfg.data_dir = dir;
        cfg.vfs = vfs;
        cfg.checkpoint_every = config_.checkpoint_every;
        cfg.queue_capacity = config_.queue_capacity;
        cfg.group_commit = config_.group_commit;
        cfg.retain_wals = true;
        cfg.storage_retry.max_attempts = kRetryMaxAttempts;
        return cfg;
    }

    /// Drives requests [start, N): a drain after every drain_every-th
    /// submit (position-based, so interrupted and resumed runs fire the
    /// same drains) plus a final one. `refire` first completes a drain the
    /// fault interrupted, restoring the uninterrupted decision order.
    /// `tick` runs after every submit and drain.
    template <typename Tick>
    void drive(AdmissionController& c, std::size_t start, bool refire,
               DriveProgress& progress, Tick&& tick) const {
        const auto drain = [&] {
            progress.in_drain = true;
            c.drain();
            progress.in_drain = false;
            tick();
        };
        progress.submitted = start;
        if (refire) drain();
        for (std::size_t i = start; i < instance_.requests.size(); ++i) {
            c.submit(i, instance_.requests[i]);
            progress.submitted = i + 1;
            tick();
            if ((i + 1) % drain_every_ == 0) drain();
        }
        drain();
    }

    void drive(AdmissionController& c, DriveProgress& progress) const {
        drive(c, 0, false, progress, [] {});
    }

    /// Pumps the shipper and polls the standby every ship_every steps.
    [[nodiscard]] auto beat(WalShipper& shipper, StandbyController& standby) const {
        return [&shipper, &standby, every = std::max<std::size_t>(1, config_.ship_every),
                steps = std::size_t{0}]() mutable {
            if (++steps % every == 0) {
                shipper.pump();
                standby.poll();
            }
        };
    }

    /// The resume path every faulted trial ends with. A new process
    /// (`rebuild`) first resubmits the fault-time queue through the
    /// normal submit path: covered seqs skip, shedding stays active.
    void finish(FaultTrial& trial, AdmissionController& c, const std::string& dir,
                const DriveProgress& at_fault, bool rebuild) const {
        if (rebuild) {
            for (std::uint64_t i = c.resume_cursor(); i < at_fault.submitted; ++i) {
                c.submit(i, instance_.requests[static_cast<std::size_t>(i)]);
            }
        }
        DriveProgress rest;
        drive(c, at_fault.submitted, at_fault.in_drain, rest, [] {});
        trial.gates = judge(instance_, result_.baseline, c, dir);
    }

    /// Runs the trace on a new controller over `cfg` until `Fault`
    /// unwinds it (the constructor included); true when it did.
    template <typename Fault, typename Arm>
    bool run_until(const ServeConfig& cfg, DriveProgress& progress, Arm&& arm) const {
        try {
            AdmissionController victim(instance_, config_.scheme, cfg);
            arm(victim);
            drive(victim, progress);
        } catch (const Fault&) {
            return true;
        }
        return false;
    }

    /// Restarts a controller on what the fault left in `cfg`'s directory.
    void revive(FaultTrial& trial, const ServeConfig& cfg,
                const DriveProgress& at_fault) const {
        AdmissionController revived(instance_, config_.scheme, cfg);
        trial.recovered_torn_tail_bytes = revived.recovery_stats().torn_tail_bytes;
        trial.recovered_torn_tail_records = revived.recovery_stats().torn_tail_records;
        finish(trial, revived, cfg.data_dir, at_fault, /*rebuild=*/true);
    }

    void add_link_stats(const ShipTransport& transport, const WalShipper& shipper) {
        const TransportStats s = transport.stats();
        TransportStats& into = result_.transport_totals;
        into.frames_sent += s.frames_sent;
        into.frames_delivered += s.frames_delivered;
        into.frames_dropped += s.frames_dropped;
        into.frames_truncated += s.frames_truncated;
        into.frames_duplicated += s.frames_duplicated;
        into.frames_reordered += s.frames_reordered;
        into.sends_rejected_full += s.sends_rejected_full;
        into.acks_recorded += s.acks_recorded;
        result_.resync_rewinds += shipper.stats().resync_rewinds;
    }

    void add(const FaultTrial& trial) {
        if (!trial.ok()) ++result_.failed_trials;
        result_.trials.push_back(trial);
    }

    /// One uninterrupted run on a fault-free FaultyVfs: its mutating ops
    /// are the power-cut domain, its writes scale the ENOSPC onset.
    void run_baseline() {
        FaultyVfs disk;
        const ServeConfig cfg = serve_config(kFaultDiskDir, &disk);
        {
            AdmissionController baseline(instance_, config_.scheme, cfg);
            DriveProgress progress;
            drive(baseline, progress);
            result_.baseline = capture_baseline(baseline);
            result_.baseline_mutating_ops = disk.op_count();
            baseline_writes_ = disk.stats().writes;
            result_.baseline_capacity_ok =
                capacity_ok(instance_, result_.baseline.admitted);
            baseline.checkpoint();
        }
        {
            AdmissionController reloaded(instance_, config_.scheme, cfg);
            result_.baseline_reload_ok =
                reloaded.state_digest() == result_.baseline.digest;
        }
        result_.baseline_scrub_clean = scrub_data_dir(disk, kFaultDiskDir).clean();
        result_.corruption_detected = prove_corruption_detection(disk);
    }

    void run_sync_control() {
        fresh_state_dir(primary_dir_);
        fresh_state_dir(standby_dir_);
        ShipTransport transport(kTransportCapacity);
        AdmissionController primary(instance_, config_.scheme,
                                    serve_config(primary_dir_));
        StandbyController standby(instance_, config_.scheme,
                                  serve_config(standby_dir_), transport);
        WalShipper shipper(primary, primary_dir_, transport);
        DriveProgress progress;
        drive(primary, 0, false, progress, beat(shipper, standby));
        settle_link(shipper, standby, transport);
        const auto report = FailoverCoordinator(primary_dir_).promote(standby);
        result_.sync_promote_ok = report.disk_records_applied == 0 &&
                                  report.promoted_digest == result_.baseline.digest;
        result_.sync_release_ok = shipper.stats().generations_released > 0;
    }

    /// 1 .. outcomes-1 WAL appends: a kill there always lands mid-trace.
    [[nodiscard]] std::uint64_t random_wal_append(common::Rng& rng) const {
        return static_cast<std::uint64_t>(rng.uniform_int(
            1, std::max<std::int64_t>(
                   1, static_cast<std::int64_t>(result_.baseline.outcomes()) - 1)));
    }

    FaultTrial kill_trial(std::size_t t) const {
        common::Rng rng = common::stream_rng(config_.master_seed, kKillStream + t);
        FaultTrial trial;
        trial.source = FaultSource::kKill;
        trial.fault_point = config_.exhaustive ? static_cast<std::uint64_t>(t + 1)
                                               : random_wal_append(rng);
        trial.mid_batch = trial.fault_point % config_.group_commit != 0;
        const ServeConfig cfg = serve_config(config_.work_dir + "/trial");
        fresh_state_dir(cfg.data_dir);
        DriveProgress progress;
        trial.fired = run_until<CrashInjected>(
            cfg, progress,
            [&](AdmissionController& c) { c.crash_after_records(trial.fault_point); });
        trial.submitted_at_fault = progress.submitted;
        if (!trial.fired) return trial;
        if (t % 2 == 0) tear_tail(cfg.data_dir, rng, trial);
        revive(trial, cfg, progress);
        return trial;
    }

    /// Runs a shipping primary into its fault (a kill, or for
    /// kDegradedPrimary a full disk), then promotes the standby from the
    /// primary's disk and finishes the trace on it.
    FaultTrial failover_trial(FaultSource source, std::size_t t) {
        const bool degrade = source == FaultSource::kDegradedPrimary;
        common::Rng rng = common::stream_rng(
            config_.master_seed,
            (degrade ? kDegradedPrimaryStream : kPromotionStream) + t);
        FaultTrial trial;
        trial.source = source;
        trial.faulty_transport = t % 2 == 1;
        std::size_t arm_at = 0;
        if (degrade) {
            // ENOSPC from a write index well below the trace's write
            // count, so the primary always degrades mid-stream.
            const auto writes = static_cast<std::int64_t>(
                result_.baseline.outcomes() /
                (2 * std::max<std::size_t>(1, config_.group_commit)));
            trial.fault_point = static_cast<std::uint64_t>(
                rng.uniform_int(2, std::max<std::int64_t>(3, writes)));
        } else {
            trial.checkpoint_crash_stage = t % 5 == 3 ? 1 : t % 5 == 4 ? 2 : 0;
            // A rotation kill arms after a randomized prefix of submits,
            // so different trials die at different rotations.
            const auto half = static_cast<std::int64_t>(instance_.requests.size()) / 2;
            arm_at = static_cast<std::size_t>(rng.uniform_int(0, half));
            if (trial.checkpoint_crash_stage == 0) {
                trial.fault_point = random_wal_append(rng);
            }
            fresh_state_dir(primary_dir_);
        }
        fresh_state_dir(standby_dir_);
        ShipTransport transport(kTransportCapacity);
        if (trial.faulty_transport) {
            const std::uint64_t salt = degrade ? kDegradedLinkSalt : kPromotionLinkSalt;
            transport.set_fault_plan(lossy_link(config_.master_seed ^ (salt + t)));
        }
        StandbyController standby(instance_, config_.scheme,
                                  serve_config(standby_dir_), transport);
        FaultyVfs disk;  // a degraded primary's private, about-to-fill disk
        Vfs& primary_vfs = degrade ? static_cast<Vfs&>(disk) : posix_vfs();
        AdmissionController primary(instance_, config_.scheme,
                                    serve_config(primary_dir_, &primary_vfs));
        WalShipper shipper(primary, primary_dir_, transport);
        if (degrade) {
            disk.script_fault(VfsOp::kWrite, trial.fault_point, -1, ENOSPC, false);
        } else if (trial.fault_point != 0) {
            primary.crash_after_records(trial.fault_point);
        }
        bool armed = trial.checkpoint_crash_stage == 0;
        auto ship = beat(shipper, standby);
        DriveProgress progress;
        try {
            drive(primary, 0, false, progress, [&] {
                if (!armed && progress.submitted >= arm_at) {
                    primary.crash_at_checkpoint_stage(trial.checkpoint_crash_stage);
                    armed = true;
                }
                ship();
            });
        } catch (const CrashInjected&) {
            trial.fired = true;
        } catch (const StorageDegradedError&) {
            if (!degrade) throw;
            trial.fired = primary.storage_health() == StorageHealth::kDegraded;
        }
        trial.submitted_at_fault = progress.submitted;
        if (degrade) {
            // A degraded primary still serves reads: ship all it made
            // durable before the disk filled.
            settle_link(shipper, standby, transport);
        } else {
            standby.poll();  // frames already on the wire may still arrive
        }
        add_link_stats(transport, shipper);
        trial.standby_applied_at_kill = standby.stats().records_applied;
        if (!trial.fired) return trial;
        if (!degrade && t % 2 == 0) tear_tail(primary_dir_, rng, trial);
        const auto report =
            FailoverCoordinator(primary_dir_, primary_vfs).promote(standby);
        trial.disk_records_applied = report.disk_records_applied;
        trial.disk_records_skipped = report.disk_records_skipped;
        trial.recovered_torn_tail_bytes = report.torn_tail_bytes;
        trial.recovered_torn_tail_records = report.torn_tail_records;
        finish(trial, standby.controller(), standby_dir_, progress, /*rebuild=*/true);
        return trial;
    }

    FaultTrial power_cut_trial(std::size_t t) const {
        common::Rng rng = common::stream_rng(config_.master_seed, kPowerCutStream + t);
        FaultTrial trial;
        trial.source = FaultSource::kPowerCut;
        const auto ops = static_cast<std::int64_t>(
            std::max<std::uint64_t>(1, result_.baseline_mutating_ops));
        trial.fault_point = static_cast<std::uint64_t>(
            config_.exhaustive ? static_cast<std::int64_t>(t + 1)
                               : rng.uniform_int(1, ops));
        DiskFaultPlan plan;
        plan.seed = config_.master_seed ^ (kPowerCutSalt + t);
        plan.power_cut_at_op = trial.fault_point;
        plan.power_cut_keeps_prefix = true;  // torn-tail crash shape
        FaultyVfs disk(plan);
        const ServeConfig cfg = serve_config(kFaultDiskDir, &disk);
        DriveProgress progress;
        trial.fired =
            run_until<PowerLossInjected>(cfg, progress, [](AdmissionController&) {});
        trial.submitted_at_fault = progress.submitted;
        if (trial.fired) revive(trial, cfg, progress);
        return trial;
    }

    FaultTrial transient_trial(std::size_t t) const {
        FaultTrial trial;
        trial.source = FaultSource::kTransientBurst;
        DiskFaultPlan plan;
        plan.seed = config_.master_seed ^ (kTransientSalt + t);
        plan.write_error_rate = 0.05;
        plan.sync_error_rate = 0.05;
        plan.short_write_rate = 0.03;
        plan.transient_failures = 1 + static_cast<int>(t % 2);
        FaultyVfs disk(plan);
        ServeConfig cfg = serve_config(kFaultDiskDir, &disk);
        // A burst of length B eats B attempts per fire, so the budget
        // scales with it: a fixed budget would likely run out over a long
        // trace once fresh draws chain onto burst continuations.
        cfg.storage_retry.max_attempts = kRetryMaxAttempts * plan.transient_failures;
        try {
            AdmissionController controller(instance_, config_.scheme, cfg);
            DriveProgress progress;
            drive(controller, progress);
            trial.stayed_healthy =
                controller.storage_health() == StorageHealth::kHealthy;
            trial.retries_absorbed = controller.storage_stats().transient_retries;
            trial.gates = judge(instance_, result_.baseline, controller, kFaultDiskDir);
        } catch (const StorageDegradedError&) {
            trial.stayed_healthy = false;
        }
        trial.faults_injected = disk.stats().injected_errors;
        return trial;
    }

    /// The queue survives degradation in-process, so it is not rebuilt.
    FaultTrial disk_full_trial(std::size_t t) const {
        common::Rng rng = common::stream_rng(config_.master_seed, kDiskFullStream + t);
        FaultTrial trial;
        trial.source = FaultSource::kDiskFull;
        FaultyVfs disk;
        ServeConfig cfg = serve_config(kFaultDiskDir, &disk);
        cfg.degraded_probe_every = 8;
        // Past the constructor's one write, ENOSPC every write from a
        // seeded index on.
        const auto writes = static_cast<std::int64_t>(baseline_writes_);
        trial.fault_point = static_cast<std::uint64_t>(
            rng.uniform_int(2, std::max<std::int64_t>(3, writes / 2)));
        disk.script_fault(VfsOp::kWrite, trial.fault_point, -1, ENOSPC, false);
        AdmissionController controller(instance_, config_.scheme, cfg);
        DriveProgress progress;
        try {
            drive(controller, progress);
        } catch (const StorageDegradedError&) {
            trial.fired = controller.storage_health() == StorageHealth::kDegraded;
        }
        trial.submitted_at_fault = progress.submitted;
        if (!trial.fired) return trial;

        // pump(0) decides nothing but walks the degraded path, where every
        // probe_every-th refusal retries recovery.
        const auto refused_pump = [&controller] {
            try {
                (void)controller.pump(0);
            } catch (const StorageDegradedError&) {
            }
        };
        for (int i = 0; i < 3; ++i) refused_pump();  // still full: probes fail
        disk.clear_scripted_faults();                // the disk "frees space"
        if (t % 2 == 0) {
            trial.recovered = controller.try_recover_storage();
        } else {
            for (int i = 0;
                 i < 64 && controller.storage_health() == StorageHealth::kDegraded; ++i) {
                refused_pump();
            }
            trial.recovered = controller.storage_health() == StorageHealth::kHealthy;
            trial.recovered_via_probe = true;
        }
        trial.degraded_refusals = controller.storage_stats().degraded_refusals;
        if (trial.recovered) finish(trial, controller, kFaultDiskDir, progress, false);
        return trial;
    }

    const core::Instance& instance_;
    const FaultStudyConfig& config_;
    const std::string primary_dir_;
    const std::string standby_dir_;
    std::size_t drain_every_{1};
    std::uint64_t baseline_writes_{0};
    FaultStudyResult result_;
};

}  // namespace

FaultBaseline capture_baseline(const AdmissionController& controller) {
    return FaultBaseline{controller.state_digest(), controller.metrics(),
                         controller.admitted_records()};
}

FaultGates judge(const core::Instance& instance, const FaultBaseline& baseline,
                 const AdmissionController& controller, const std::string& data_dir) {
    FaultGates gates;
    const ServeMetrics m = controller.metrics();
    const ServeMetrics& b = baseline.metrics;
    const std::vector<AdmittedRecord> admitted = controller.admitted_records();
    gates.digest_match = controller.state_digest() == baseline.digest;
    gates.revenue_match = m.revenue == b.revenue && m.shed_revenue == b.shed_revenue;
    gates.metrics_match = m.processed == b.processed && m.admitted == b.admitted &&
                          m.rejected == b.rejected && m.shed == b.shed;
    gates.admitted_match = std::equal(
        admitted.begin(), admitted.end(), baseline.admitted.begin(),
        baseline.admitted.end(), [](const AdmittedRecord& x, const AdmittedRecord& y) {
            return x.seq == y.seq && x.request_id == y.request_id &&
                   x.payment == y.payment && x.sites == y.sites;
        });
    std::set<std::uint64_t> seqs;
    std::set<std::int64_t> ids;
    gates.no_double_admits =
        std::all_of(admitted.begin(), admitted.end(), [&](const AdmittedRecord& rec) {
            return seqs.insert(rec.seq).second && ids.insert(rec.request_id).second;
        });
    gates.capacity_ok = capacity_ok(instance, admitted);
    gates.scrub_clean = scrub_data_dir(controller.vfs(), data_dir).clean();
    return gates;
}

std::size_t FaultStudyResult::count(FaultSource source) const {
    return static_cast<std::size_t>(std::count_if(
        trials.begin(), trials.end(),
        [source](const FaultTrial& t) { return t.source == source; }));
}

std::size_t FaultStudyResult::failed(FaultSource source) const {
    return static_cast<std::size_t>(std::count_if(
        trials.begin(), trials.end(),
        [source](const FaultTrial& t) { return t.source == source && !t.ok(); }));
}

bool FaultStudyResult::ok() const {
    const bool replicated =
        count(FaultSource::kPromotion) + count(FaultSource::kDegradedPrimary) > 0;
    std::uint64_t injected = 0;
    for (const FaultTrial& t : trials) injected += t.faults_injected;
    return baseline_reload_ok && baseline_capacity_ok && baseline_scrub_clean &&
           corruption_detected && failed_trials == 0 &&
           (!replicated || (sync_promote_ok && sync_release_ok)) &&
           (count(FaultSource::kTransientBurst) == 0 || injected > 0);
}

FaultStudyResult run_fault_study(const core::Instance& instance,
                                 const FaultStudyConfig& config) {
    if (instance.requests.empty()) {
        throw std::invalid_argument("fault study: instance has no requests");
    }
    if (config.kills + config.promotions + config.degraded_primaries > 0) {
        if (config.work_dir.empty()) {
            throw std::invalid_argument("fault study: work_dir not set");
        }
        make_dir(config.work_dir);
    }
    return Study(instance, config).run();
}

}  // namespace vnfr::serve
