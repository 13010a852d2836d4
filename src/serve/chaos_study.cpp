#include "serve/chaos_study.hpp"

#include <unistd.h>

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "common/rng.hpp"
#include "core/verify.hpp"
#include "serve/admission_controller.hpp"
#include "serve/chaos_support.hpp"
#include "serve/wal_scrubber.hpp"
#include "serve/wire.hpp"

namespace vnfr::serve {

namespace {

// The drive pattern and equivalence predicates are shared with the
// failover study so both harnesses judge runs with identical code.
using chaos::assemble_decisions;
using chaos::DriveProgress;
using chaos::drive;
using chaos::file_size;
using chaos::fresh_state_dir;
using chaos::metrics_equal;
using chaos::newest_wal_file;
using chaos::rebuild_queue;
using chaos::same_admitted;
using chaos::unique_admitted;

}  // namespace

ChaosStudyResult run_chaos_study(const core::Instance& instance,
                                 const ChaosStudyConfig& config) {
    const std::vector<workload::Request>& requests = instance.requests;
    if (requests.empty()) {
        throw std::invalid_argument("chaos study: instance has no requests");
    }
    if (config.work_dir.empty()) {
        throw std::invalid_argument("chaos study: work_dir not set");
    }
    if (::mkdir(config.work_dir.c_str(), 0755) != 0 && errno != EEXIST) {
        throw std::invalid_argument("chaos study: cannot create work_dir " +
                                    config.work_dir);
    }

    // Drain cadence overflows the queue on purpose: strictly more
    // submissions than queue slots between drains, so the overload guard
    // sheds every cycle and crashes land in shed paths too.
    common::Rng pattern_rng = common::stream_rng(config.master_seed, 1);
    const std::size_t drain_every =
        config.queue_capacity +
        static_cast<std::size_t>(pattern_rng.uniform_int(
            1, static_cast<std::int64_t>(config.queue_capacity)));

    ServeConfig serve;
    serve.checkpoint_every = config.checkpoint_every;
    serve.queue_capacity = config.queue_capacity;
    serve.group_commit = config.group_commit;

    ChaosStudyResult result;
    result.scheme = config.scheme;

    // Baseline: one uninterrupted run.
    const std::string baseline_dir = config.work_dir + "/baseline";
    fresh_state_dir(baseline_dir);
    std::vector<AdmittedRecord> baseline_admitted;
    {
        ServeConfig cfg = serve;
        cfg.data_dir = baseline_dir;
        AdmissionController baseline(instance, config.scheme, cfg);
        DriveProgress progress;
        drive(baseline, requests, 0, false, drain_every, progress);
        result.baseline_digest = baseline.state_digest();
        result.baseline_metrics = baseline.metrics();
        result.baseline_outcomes =
            baseline.metrics().processed + baseline.metrics().shed;
        baseline_admitted = baseline.admitted_records();
        result.baseline_capacity_ok =
            core::verify_schedule(instance, assemble_decisions(instance, baseline)).ok();
        baseline.checkpoint();
    }
    {
        // Reopening the checkpointed directory must reproduce the digest.
        ServeConfig cfg = serve;
        cfg.data_dir = baseline_dir;
        AdmissionController reloaded(instance, config.scheme, cfg);
        result.baseline_reload_ok =
            reloaded.state_digest() == result.baseline_digest;
    }
    result.baseline_scrub_clean = scrub_data_dir(baseline_dir).clean();

    // Kill trials. Exhaustive mode walks every crash point of the
    // baseline run; sampled mode draws kill_points of them.
    const std::string trial_dir = config.work_dir + "/trial";
    const std::size_t trial_count =
        config.exhaustive_kill_points
            ? static_cast<std::size_t>(
                  std::max<std::uint64_t>(1, result.baseline_outcomes) - 1)
            : config.kill_points;
    for (std::size_t trial = 0; trial < trial_count; ++trial) {
        common::Rng rng = common::stream_rng(config.master_seed, 1000 + trial);
        ChaosTrial outcome;
        // Crash after 1 .. outcomes-1 WAL appends: always mid-trace.
        outcome.kill_after_records =
            config.exhaustive_kill_points
                ? static_cast<std::uint64_t>(trial + 1)
                : static_cast<std::uint64_t>(rng.uniform_int(
                      1, std::max<std::int64_t>(
                             1, static_cast<std::int64_t>(result.baseline_outcomes) -
                                    1)));
        outcome.mid_batch = outcome.kill_after_records % config.group_commit != 0;

        fresh_state_dir(trial_dir);
        ServeConfig cfg = serve;
        cfg.data_dir = trial_dir;
        DriveProgress progress;
        {
            AdmissionController victim(instance, config.scheme, cfg);
            victim.crash_after_records(outcome.kill_after_records);
            try {
                drive(victim, requests, 0, false, drain_every, progress);
            } catch (const CrashInjected&) {
                outcome.crashed = true;
            }
        }
        outcome.submitted_at_crash = progress.submitted;

        // Optionally tear the WAL tail, as an interrupted append would.
        if (outcome.crashed && config.torn_tails && trial % 2 == 0) {
            const std::string wal = newest_wal_file(trial_dir);
            const std::uint64_t size = wal.empty() ? 0 : file_size(wal);
            // Keep the 32-byte header plus a safety margin so the cut
            // lands inside the final record, not across older ones.
            if (size > 32 + 16) {
                outcome.truncated_bytes =
                    static_cast<std::uint64_t>(rng.uniform_int(1, 12));
                if (::truncate(wal.c_str(),
                               static_cast<off_t>(size - outcome.truncated_bytes)) == 0) {
                    outcome.torn_tail_applied = true;
                }
            }
        }

        if (outcome.crashed) {
            // Restart from disk, rebuild the queue, complete any
            // interrupted drain, then finish the trace.
            AdmissionController revived(instance, config.scheme, cfg);
            outcome.recovered_torn_tail_bytes =
                revived.recovery_stats().torn_tail_bytes;
            outcome.recovered_torn_tail_records =
                revived.recovery_stats().torn_tail_records;
            rebuild_queue(revived, requests, progress.submitted);
            DriveProgress rest;
            drive(revived, requests, progress.submitted, progress.in_drain,
                  drain_every, rest);

            outcome.digest_match = revived.state_digest() == result.baseline_digest;
            const ServeMetrics& m = revived.metrics();
            outcome.revenue_match =
                m.revenue == result.baseline_metrics.revenue &&
                m.shed_revenue == result.baseline_metrics.shed_revenue;
            outcome.metrics_match = metrics_equal(m, result.baseline_metrics);
            outcome.admitted_match =
                same_admitted(revived.admitted_records(), baseline_admitted);
            outcome.no_double_admits = unique_admitted(revived.admitted_records());
            outcome.capacity_ok =
                core::verify_schedule(instance, assemble_decisions(instance, revived))
                    .ok();
            outcome.scrub_clean = scrub_data_dir(trial_dir).clean();
        }

        if (!outcome.ok()) ++result.failed_trials;
        result.trials.push_back(outcome);
    }
    return result;
}

}  // namespace vnfr::serve
