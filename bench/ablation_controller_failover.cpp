// Controller failover ablation: primary-kill/standby-promote equivalence
// of the replicated admission controller.
//
// For each scheme ({onsite, offsite}) and each standby-lag setting
// (replication beats every 1 / every 7 drive steps), one
// paper-environment trace is first served uninterrupted (the baseline),
// then re-served dozens of times with the primary killed at a randomized
// point — after a random WAL append, or inside checkpoint rotation —
// with torn WAL tails on half the crashed trials and an adversarial
// replication link (drop/truncate/duplicate/reorder) on odd trials. The
// standby is promoted from the dead primary's on-disk WAL tail and
// finishes the trace. Emits BENCH_controller_failover.json and exits
// nonzero when any acceptance gate fails:
//
//   * every trial's promoted standby reaches a bit-identical state
//     digest, equal revenue bits, the same admitted set (no
//     double-admits), zero capacity violations, and a clean WAL scrub;
//   * the no-kill control promotes a fully shipped standby to the
//     baseline digest with zero records recovered from disk, and the
//     shipper released at least one acked generation (bounded retention);
//   * across the full matrix at least one trial recovered real standby
//     lag from the disk tail, and the faulty-link trials actually
//     dropped frames (the adversarial paths ran).
//
// Usage: ablation_controller_failover [output.json]
//   VNFR_BENCH_QUICK=1  shrink the trace and trial counts for smoke/CI
#include <sys/stat.h>

#include <iostream>
#include <string>

#include "bench_common.hpp"

using namespace vnfr;

int main(int argc, char** argv) {
    const std::string out_path =
        argc > 1 ? argv[1] : std::string("BENCH_controller_failover.json");

    const std::size_t requests = bench::quick_mode() ? 100 : 240;
    // >= 25 randomized kill points per scheme across the lag settings
    // (the acceptance criterion), plus the rotation-stage kills mixed in.
    const std::size_t kills_per_cell = bench::quick_mode() ? 5 : 13;
    const std::size_t lag_settings[] = {1, 7};
    const std::uint64_t master = bench::scenario_seed("controller_failover", requests);

    std::cout << "== Controller failover ablation: kill/promote equivalence ==\n";
    bench::print_thread_note();
    const core::Instance instance = bench::fault_bench_instance(
        master, requests,
        std::to_string(kills_per_cell) + " kill points per (scheme, lag) cell");

    const std::string work_root = "controller_failover_state";
    ::mkdir(work_root.c_str(), 0755);  // studies manage their own subdirs

    report::JsonValue cells = report::JsonValue::array();
    bool all_ok = true;
    std::uint64_t total_trials = 0;
    std::uint64_t total_failed = 0;
    std::uint64_t total_disk_applied = 0;
    std::uint64_t total_dropped = 0;
    for (const core::Scheme scheme : {core::Scheme::kOnsite, core::Scheme::kOffsite}) {
        for (const std::size_t lag : lag_settings) {
            std::string tag = "lag";
            tag += std::to_string(lag);
            serve::FaultStudyConfig cfg;
            cfg.scheme = scheme;
            // Same kill-point stream for every lag cell of a scheme: the
            // matrix varies replication cadence, not the crashes.
            cfg.master_seed =
                common::stream_seed(master, 1 + static_cast<std::uint64_t>(scheme));
            cfg.promotions = kills_per_cell;
            cfg.checkpoint_every = 16;
            cfg.queue_capacity = 8;
            cfg.group_commit = 4;
            cfg.ship_every = lag;
            cfg.work_dir = work_root + "/" + bench::scheme_name(scheme) + "_" + tag;

            const bench::FaultCell cell = bench::run_fault_cell(instance, cfg, tag);
            const serve::FaultStudyResult& study = cell.study;
            std::size_t torn = 0;
            std::size_t rotation_kills = 0;
            std::uint64_t disk_applied = 0;
            for (const serve::FaultTrial& t : study.trials) {
                if (t.torn_tail_applied) ++torn;
                if (t.checkpoint_crash_stage != 0) ++rotation_kills;
                disk_applied += t.disk_records_applied;
            }
            total_trials += study.trials.size();
            total_failed += study.failed_trials;
            total_disk_applied += disk_applied;
            total_dropped += study.transport_totals.frames_dropped;
            std::cout << study.trials.size() << " kill trials (" << rotation_kills
                      << " mid-rotation, " << torn << " torn tails), "
                      << study.failed_trials << " failed; sync-promote "
                      << (study.sync_promote_ok ? "ok" : "FAILED") << ", release "
                      << (study.sync_release_ok ? "ok" : "FAILED") << "; disk catch-up "
                      << disk_applied << " records, "
                      << study.transport_totals.frames_dropped << " frames dropped, ";
            all_ok = bench::end_fault_cell(cell) && all_ok;

            report::JsonValue row = bench::fault_cell_row(cell);
            row.set("ship_every", static_cast<std::uint64_t>(lag));
            row.set("sync_promote_ok", study.sync_promote_ok);
            row.set("sync_release_ok", study.sync_release_ok);
            row.set("kill_trials", static_cast<std::uint64_t>(study.trials.size()));
            row.set("resync_rewinds", study.resync_rewinds);
            row.set("frames_sent", study.transport_totals.frames_sent);
            row.set("frames_dropped", study.transport_totals.frames_dropped);
            row.set("frames_truncated", study.transport_totals.frames_truncated);
            row.set("frames_duplicated", study.transport_totals.frames_duplicated);
            row.set("frames_reordered", study.transport_totals.frames_reordered);
            report::JsonValue trials = report::JsonValue::array();
            for (const serve::FaultTrial& t : study.trials) {
                report::JsonValue tr = report::JsonValue::object();
                tr.set("kill_after_records", t.fault_point);
                tr.set("checkpoint_crash_stage",
                       static_cast<std::int64_t>(t.checkpoint_crash_stage));
                tr.set("faulty_transport", t.faulty_transport);
                tr.set("torn_tail", t.torn_tail_applied);
                tr.set("truncated_bytes", t.truncated_bytes);
                // Operator-visible torn-tail signal surfaced from recovery.
                tr.set("promote_torn_tail_bytes", t.recovered_torn_tail_bytes);
                tr.set("standby_applied_at_kill", t.standby_applied_at_kill);
                tr.set("disk_records_applied", t.disk_records_applied);
                tr.set("disk_records_skipped", t.disk_records_skipped);
                tr.set("digest_match", t.gates.digest_match);
                tr.set("revenue_match", t.gates.revenue_match);
                tr.set("admitted_match", t.gates.admitted_match);
                tr.set("no_double_admits", t.gates.no_double_admits);
                tr.set("capacity_ok", t.gates.capacity_ok);
                tr.set("scrub_clean", t.gates.scrub_clean);
                trials.push(std::move(tr));
            }
            row.set("trials", std::move(trials));
            cells.push(std::move(row));
        }
    }
    if (total_disk_applied == 0) {
        std::cout << "GATE FAILED: no trial recovered standby lag from disk\n";
        all_ok = false;
    }
    if (total_dropped == 0) {
        std::cout << "GATE FAILED: the adversarial link never dropped a frame\n";
        all_ok = false;
    }
    std::cout << '\n';

    report::JsonValue doc = bench::fault_bench_doc("controller_failover", requests, master);
    doc.set("failover_recovery_rate", bench::pass_rate(total_failed, total_trials));
    doc.set("total_trials", total_trials);
    doc.set("total_failed", total_failed);
    doc.set("total_disk_records_applied", total_disk_applied);
    doc.set("cells", std::move(cells));
    return bench::finish_fault_bench(
        doc, out_path, all_ok,
        "every promoted standby recovered bit-identically with zero lost decisions "
        "and zero double-charges",
        "failover promotion gates failed");
}
