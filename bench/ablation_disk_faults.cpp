// Disk-fault ablation: storage-failure resilience of the serve layer's
// admission controller under both backup schemes, across group-commit
// configurations, on a fully simulated faulty disk (FaultyVfs).
//
// For each (scheme, group_commit) cell, one paper-environment trace is
// served uninterrupted as the baseline, then re-served under three fault
// families: power cuts at scripted mutating-op indices (exhaustive over
// every such op in full mode — including both checkpoint-rotation stages
// and mid-group-commit appends), seeded transient EIO/short-write bursts
// the retry layer must absorb invisibly, and persistent ENOSPC that must
// degrade the controller into loud read-only mode and recover once space
// frees. Emits BENCH_disk_faults.json and exits nonzero when any gate
// fails:
//
//   * every power-cut trial revives to a bit-identical state digest,
//     equal revenue bits, the same admitted set (zero lost acked
//     admissions, zero double-charges), and zero capacity violations;
//   * every transient trial completes healthy with the baseline digest;
//   * every degraded trial refuses loudly while full, recovers (explicit
//     call and automatic probe paths both exercised), and finishes to
//     the baseline digest;
//   * every surviving directory passes a read-only WAL scrub, and the
//     scrubber demonstrably detects a single flipped durable bit.
//
// Usage: ablation_disk_faults [output.json]
//   VNFR_BENCH_QUICK=1  sampled cut points and a smaller trace for CI
#include <iostream>
#include <string>

#include "bench_common.hpp"

using namespace vnfr;

namespace {

constexpr std::size_t kGroupCommits[] = {1, 4};

}  // namespace

int main(int argc, char** argv) {
    using serve::FaultSource;
    const std::string out_path =
        argc > 1 ? argv[1] : std::string("BENCH_disk_faults.json");

    const bool quick = bench::quick_mode();
    const std::size_t requests = quick ? 80 : 160;
    const std::uint64_t master = bench::scenario_seed("disk_faults", requests);

    std::cout << "== Disk-fault ablation: power cuts, transient EIO, ENOSPC "
                 "degradation ==\n";
    bench::print_thread_note();
    const core::Instance instance = bench::fault_bench_instance(
        master, requests,
        std::string("power cuts ") +
            (quick ? "sampled (12 per cell)" : "exhaustive over every mutating op"));

    report::JsonValue cells = report::JsonValue::array();
    bool all_ok = true;
    std::uint64_t cut_trials = 0;
    std::uint64_t cut_failed = 0;
    std::uint64_t transient_trials = 0;
    std::uint64_t transient_failed = 0;
    std::uint64_t degraded_trials = 0;
    std::uint64_t degraded_failed = 0;
    for (const core::Scheme scheme : {core::Scheme::kOnsite, core::Scheme::kOffsite}) {
        for (const std::size_t group_commit : kGroupCommits) {
            serve::FaultStudyConfig cfg;
            cfg.scheme = scheme;
            // Same fault streams for every group-commit cell of a scheme:
            // the sweep varies the commit batching, not the faults.
            cfg.master_seed =
                common::stream_seed(master, 1 + static_cast<std::uint64_t>(scheme));
            cfg.exhaustive = !quick;
            cfg.power_cuts = 12;
            cfg.transient_bursts = quick ? 3 : 8;
            cfg.disk_fulls = quick ? 2 : 6;
            cfg.checkpoint_every = 16;
            cfg.queue_capacity = 8;
            cfg.group_commit = group_commit;

            std::string tag = "g";
            tag += std::to_string(group_commit);
            const bench::FaultCell cell = bench::run_fault_cell(instance, cfg, tag);
            const serve::FaultStudyResult& study = cell.study;
            std::uint64_t faults_injected = 0;
            std::uint64_t retries_absorbed = 0;
            for (const serve::FaultTrial& t : study.trials) {
                faults_injected += t.faults_injected;
                retries_absorbed += t.retries_absorbed;
            }
            const std::size_t cuts = study.count(FaultSource::kPowerCut);
            const std::size_t transients = study.count(FaultSource::kTransientBurst);
            const std::size_t fulls = study.count(FaultSource::kDiskFull);
            cut_trials += cuts;
            cut_failed += study.failed(FaultSource::kPowerCut);
            transient_trials += transients;
            transient_failed += study.failed(FaultSource::kTransientBurst);
            degraded_trials += fulls;
            degraded_failed += study.failed(FaultSource::kDiskFull);

            std::cout << cuts << " power cuts over " << study.baseline_mutating_ops
                      << " mutating ops (" << study.failed(FaultSource::kPowerCut)
                      << " failed), " << transients << " transient trials ("
                      << faults_injected << " faults absorbed via " << retries_absorbed
                      << " retries), " << fulls << " ENOSPC trials ("
                      << study.failed(FaultSource::kDiskFull) << " failed), scrub "
                      << (study.baseline_scrub_clean ? "clean" : "DIRTY")
                      << ", corruption-detect "
                      << (study.corruption_detected ? "yes" : "NO") << ", ";
            all_ok = bench::end_fault_cell(cell) && all_ok;

            report::JsonValue row = bench::fault_cell_row(cell);
            row.set("group_commit", static_cast<std::uint64_t>(group_commit));
            row.set("power_cut_trials", static_cast<std::uint64_t>(cuts));
            row.set("failed_power_cut_trials",
                    static_cast<std::uint64_t>(study.failed(FaultSource::kPowerCut)));
            row.set("transient_trials", static_cast<std::uint64_t>(transients));
            row.set("failed_transient_trials",
                    static_cast<std::uint64_t>(study.failed(FaultSource::kTransientBurst)));
            row.set("transient_faults_injected", faults_injected);
            row.set("transient_retries_absorbed", retries_absorbed);
            row.set("degraded_trials", static_cast<std::uint64_t>(fulls));
            row.set("failed_degraded_trials",
                    static_cast<std::uint64_t>(study.failed(FaultSource::kDiskFull)));
            report::JsonValue degraded = report::JsonValue::array();
            for (const serve::FaultTrial& t : study.trials) {
                if (t.source != FaultSource::kDiskFull) continue;
                report::JsonValue tr = report::JsonValue::object();
                tr.set("fail_from_write", t.fault_point);
                tr.set("entered_degraded", t.fired);
                tr.set("degraded_refusals", t.degraded_refusals);
                tr.set("recovered", t.recovered);
                tr.set("recovered_via_probe", t.recovered_via_probe);
                tr.set("digest_match", t.gates.digest_match);
                tr.set("scrub_clean", t.gates.scrub_clean);
                degraded.push(std::move(tr));
            }
            row.set("degraded", std::move(degraded));
            cells.push(std::move(row));
        }
    }
    std::cout << '\n';

    report::JsonValue doc = bench::fault_bench_doc("disk_faults", requests, master);
    doc.set("cells", std::move(cells));
    // Exact gates, not statistical ones: any failed trial drops the rate
    // below the baseline floor of 1.0 (tolerance 1.0).
    doc.set("power_cut_recovery_rate", bench::pass_rate(cut_failed, cut_trials));
    doc.set("transient_absorption_rate",
            bench::pass_rate(transient_failed, transient_trials));
    doc.set("degraded_recovery_rate", bench::pass_rate(degraded_failed, degraded_trials));
    return bench::finish_fault_bench(
        doc, out_path, all_ok,
        "every power cut, transient burst, and ENOSPC episode recovered "
        "bit-identically across the sweep",
        "disk-fault resilience gates failed");
}
