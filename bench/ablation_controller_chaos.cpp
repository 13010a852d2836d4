// Controller chaos ablation: crash-restart equivalence of the serve
// layer's admission controller under both backup schemes, across WAL
// group-commit sizes.
//
// For each scheme and each group_commit size, one paper-environment trace is first served
// uninterrupted (the baseline), then re-served dozens of times with the
// controller killed at a randomized WAL-append point — half the trials
// additionally tear the WAL tail — and restarted from its snapshot +
// WAL. Emits BENCH_controller_chaos.json and exits nonzero when any
// acceptance gate fails:
//
//   * every kill trial recovers to a bit-identical state digest, equal
//     revenue bits, the same admitted set (no double-admits), zero
//     capacity violations under core::verify_schedule, and a clean WAL
//     scrub;
//   * reopening the baseline's own checkpoint reproduces its digest;
//   * all group sizes of a scheme agree on the baseline digest — group
//     commit must not change decisions.
//
// Usage: ablation_controller_chaos [output.json]
//   VNFR_BENCH_QUICK=1  shrink the trace and trial counts for smoke/CI
#include <sys/stat.h>

#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"

using namespace vnfr;

namespace {

/// The group sizes the acceptance gate sweeps: the per-record-fdatasync
/// controller, a small group, and a fully batched one.
constexpr std::size_t kGroupSizes[] = {1, 4, 32};

}  // namespace

int main(int argc, char** argv) {
    const std::string out_path =
        argc > 1 ? argv[1] : std::string("BENCH_controller_chaos.json");

    const std::size_t requests = bench::quick_mode() ? 100 : 240;
    const std::size_t kills_per_config = bench::quick_mode() ? 4 : 12;
    const std::uint64_t master = bench::scenario_seed("controller_chaos", requests);

    std::cout << "== Controller chaos ablation: kill/restart equivalence ==\n";
    bench::print_thread_note();
    const core::Instance instance = bench::fault_bench_instance(
        master, requests,
        std::to_string(kills_per_config) + " kill points per (scheme, group) cell");

    const std::string work_root = "controller_chaos_state";
    ::mkdir(work_root.c_str(), 0755);  // studies manage their own subdirs

    report::JsonValue configs = report::JsonValue::array();
    bool all_ok = true;
    bool digests_consistent = true;
    std::uint64_t total_trials = 0;
    std::uint64_t total_failed = 0;
    for (const core::Scheme scheme : {core::Scheme::kOnsite, core::Scheme::kOffsite}) {
        std::uint64_t group1_digest = 0;
        for (const std::size_t group : kGroupSizes) {
            std::string tag = "g";
            tag += std::to_string(group);
            serve::FaultStudyConfig cfg;
            cfg.scheme = scheme;
            // Same kill-point stream for every cell of a scheme: the
            // matrix varies the group size, not the crashes.
            cfg.master_seed =
                common::stream_seed(master, 1 + static_cast<std::uint64_t>(scheme));
            cfg.kills = kills_per_config;
            cfg.checkpoint_every = 16;
            cfg.queue_capacity = 8;
            cfg.group_commit = group;
            cfg.work_dir = work_root + "/" + bench::scheme_name(scheme) + "_" + tag;

            const bench::FaultCell cell = bench::run_fault_cell(instance, cfg, tag);
            const serve::FaultStudyResult& study = cell.study;
            std::size_t torn = 0;
            for (const serve::FaultTrial& t : study.trials) {
                if (t.torn_tail_applied) ++torn;
            }
            total_trials += study.trials.size();
            total_failed += study.failed_trials;
            std::cout << study.trials.size() << " kill trials (" << torn
                      << " with torn WAL tails), " << study.failed_trials
                      << " failed, reload-ok "
                      << (study.baseline_reload_ok ? "yes" : "no") << ", ";
            all_ok = bench::end_fault_cell(cell) && all_ok;
            if (group == kGroupSizes[0]) {
                group1_digest = study.baseline.digest;
            } else if (study.baseline.digest != group1_digest) {
                std::cout << "  GATE FAILED: " << cell.label
                          << " baseline digest differs from group 1\n";
                digests_consistent = false;
                all_ok = false;
            }

            report::JsonValue row = bench::fault_cell_row(cell);
            row.set("group_commit", static_cast<std::uint64_t>(group));
            row.set("kill_trials", static_cast<std::uint64_t>(study.trials.size()));
            report::JsonValue trials = report::JsonValue::array();
            for (const serve::FaultTrial& t : study.trials) {
                report::JsonValue tr = report::JsonValue::object();
                tr.set("kill_after_records", t.fault_point);
                tr.set("mid_batch", t.mid_batch);
                tr.set("torn_tail", t.torn_tail_applied);
                tr.set("truncated_bytes", t.truncated_bytes);
                // What recovery actually observed and dropped on revival —
                // the operator-visible counterpart of the injected tear.
                tr.set("recovered_torn_tail_bytes", t.recovered_torn_tail_bytes);
                tr.set("recovered_torn_tail_records", t.recovered_torn_tail_records);
                tr.set("digest_match", t.gates.digest_match);
                tr.set("revenue_match", t.gates.revenue_match);
                tr.set("admitted_match", t.gates.admitted_match);
                tr.set("no_double_admits", t.gates.no_double_admits);
                tr.set("capacity_ok", t.gates.capacity_ok);
                tr.set("scrub_clean", t.gates.scrub_clean);
                trials.push(std::move(tr));
            }
            row.set("trials", std::move(trials));
            configs.push(std::move(row));
        }
    }
    std::cout << '\n';

    report::JsonValue doc = bench::fault_bench_doc("controller_chaos", requests, master);
    doc.set("configs", std::move(configs));
    // Exact gate, not a statistical one: any failed trial drops the rate
    // below the baseline floor of 1.0 (tolerance 1.0).
    doc.set("kill_recovery_rate", bench::pass_rate(total_failed, total_trials));
    doc.set("digests_consistent", digests_consistent);
    return bench::finish_fault_bench(
        doc, out_path, all_ok,
        "all kill trials recovered bit-identically across every group size",
        "chaos recovery gates failed");
}
