// Shared environment for the figure-reproduction benches.
//
// Section VI of the paper: a real topology with randomly attached
// cloudlets, 10 VNF types (reliability 0.9-0.9999, demand 1-3 units),
// requests with random requirements/payments, revenue averaged over seeds.
// The environment itself lives in src/sim/scenarios.{hpp,cpp} so the
// golden regression tests pin down exactly what the benches sweep.
//
// Seeding contract: every scenario's master seed comes from
// scenario_seed(bench name, scenario index) — a pure function routed
// through the counter-based RNG streams in common/rng.hpp. Re-running a
// bench therefore reproduces it bit-for-bit, at any VNFR_THREADS setting.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/instance.hpp"
#include "report/json.hpp"
#include "report/table.hpp"
#include "serve/fault_study.hpp"
#include "sim/experiment.hpp"
#include "sim/scenarios.hpp"

namespace vnfr::bench {

/// True when VNFR_BENCH_QUICK is set: shrinks sweeps for smoke runs.
inline bool quick_mode() { return std::getenv("VNFR_BENCH_QUICK") != nullptr; }

/// The paper's evaluation environment (see sim::paper_environment).
inline core::InstanceConfig paper_environment(std::size_t request_count) {
    return sim::paper_environment(request_count);
}

inline sim::InstanceFactory make_factory(core::InstanceConfig cfg) {
    return sim::make_config_factory(std::move(cfg));
}

/// Deterministic master seed for scenario `scenario` of the named bench:
/// an FNV-1a hash of the name fed into the counter-based stream hash.
/// Never derived from wall clock or run order, so bench output is
/// reproducible run-to-run and scenario seeds never collide across benches.
inline std::uint64_t scenario_seed(std::string_view bench_name, std::uint64_t scenario) {
    std::uint64_t name_hash = 0xcbf29ce484222325ULL;
    for (const char c : bench_name) {
        name_hash ^= static_cast<unsigned char>(c);
        name_hash *= 0x100000001b3ULL;
    }
    return common::stream_seed(name_hash, scenario);
}

/// One line recording the replication parallelism, so saved bench logs are
/// attributable to a thread configuration.
inline void print_thread_note() {
    std::cout << "threads: " << common::ThreadPool::default_thread_count()
              << " (override with VNFR_THREADS; results are thread-count-invariant)\n\n";
}

/// One row of a figure series: the swept x plus per-algorithm outcomes.
struct SeriesRow {
    double x{0};
    sim::ExperimentOutcome outcome;
};

/// Prints a figure as an aligned table (mean +/- 95% CI per algorithm) and
/// as a CSV block for replotting.
inline void print_series(const std::string& title, const std::string& x_label,
                         const std::vector<sim::Algorithm>& algorithms,
                         const std::vector<SeriesRow>& rows, bool with_offline_bound) {
    std::cout << "== " << title << " ==\n\n";
    std::vector<std::string> headers{x_label};
    for (const sim::Algorithm a : algorithms) {
        headers.emplace_back(sim::algorithm_name(a));
    }
    if (with_offline_bound) headers.emplace_back("offline-bound");
    report::Table table(headers);
    for (const SeriesRow& row : rows) {
        std::vector<std::string> cells{report::format_double(row.x, 0)};
        for (const auto& alg : row.outcome.per_algorithm) {
            cells.push_back(report::format_mean_ci(alg.revenue.mean(),
                                                   alg.revenue.ci95_halfwidth()));
        }
        if (with_offline_bound) {
            cells.push_back(report::format_double(row.outcome.offline_bound.mean(), 1));
        }
        table.add_row(std::move(cells));
    }
    std::cout << table.to_text() << "\ncsv:\n" << x_label;
    for (const sim::Algorithm a : algorithms) std::cout << ',' << sim::algorithm_name(a);
    if (with_offline_bound) std::cout << ",offline-bound";
    std::cout << '\n';
    for (const SeriesRow& row : rows) {
        std::cout << row.x;
        for (const auto& alg : row.outcome.per_algorithm) {
            std::cout << ',' << alg.revenue.mean();
        }
        if (with_offline_bound) std::cout << ',' << row.outcome.offline_bound.mean();
        std::cout << '\n';
    }
    std::cout << '\n';
}

/// Revenue improvement of the first algorithm over the second at the last
/// sweep point, as the paper quotes ("outperforms greedy by X%").
inline void print_final_gap(const std::vector<SeriesRow>& rows) {
    if (rows.empty() || rows.back().outcome.per_algorithm.size() < 2) return;
    const auto& last = rows.back().outcome.per_algorithm;
    const double a = last[0].revenue.mean();
    const double b = last[1].revenue.mean();
    if (b > 0.0) {
        std::cout << "final-point improvement of " << sim::algorithm_name(last[0].algorithm)
                  << " over " << sim::algorithm_name(last[1].algorithm) << ": "
                  << report::format_double((a / b - 1.0) * 100.0, 1) << "%\n\n";
    }
}

inline const char* scheme_name(core::Scheme scheme) {
    return scheme == core::Scheme::kOnsite ? "onsite" : "offsite";
}

// ---- Fault benches (ablation_controller_chaos / _failover / disk_faults):
// one fault study per (scheme, setting) cell over one shared trace.

/// The fault benches' trace: a paper-environment instance seeded from
/// stream 0 of `master`, announced with its shape and `detail`.
inline core::Instance fault_bench_instance(std::uint64_t master, std::size_t requests,
                                           const std::string& detail) {
    common::Rng rng = common::stream_rng(master, 0);
    core::Instance instance = make_factory(paper_environment(requests))(rng);
    std::cout << "instance: " << instance.requests.size() << " requests, "
              << instance.network.cloudlet_count() << " cloudlets, horizon "
              << instance.horizon << "; " << detail << "\n\n";
    return instance;
}

struct FaultCell {
    std::string label;  ///< "<scheme> [<setting>]"
    serve::FaultStudyResult study;
    double seconds{0};
};

/// Runs and times one cell and starts its report line with the baseline;
/// the bench appends its own trial summary, then calls end_fault_cell.
inline FaultCell run_fault_cell(const core::Instance& instance,
                                const serve::FaultStudyConfig& cfg,
                                const std::string& setting) {
    FaultCell cell;
    cell.label = std::string(scheme_name(cfg.scheme)) + " [" + setting + "]";
    const auto start = std::chrono::steady_clock::now();
    cell.study = serve::run_fault_study(instance, cfg);
    cell.seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    const serve::ServeMetrics& m = cell.study.baseline.metrics;
    std::cout << cell.label << ": baseline revenue " << m.revenue << " (admitted "
              << m.admitted << ", shed " << m.shed << "), digest "
              << report::hex_u64(cell.study.baseline.digest) << "\n  ";
    return cell;
}

/// Ends a cell's report line; returns (and announces a failure of) its gate.
inline bool end_fault_cell(const FaultCell& cell) {
    std::cout << report::format_double(cell.seconds, 2) << "s\n";
    if (cell.study.ok()) return true;
    std::cout << "  GATE FAILED for " << cell.label << "\n";
    return false;
}

/// The baseline and verdict fields every fault-bench cell row carries.
inline report::JsonValue fault_cell_row(const FaultCell& cell) {
    const serve::FaultStudyResult& s = cell.study;
    const serve::ServeMetrics& m = s.baseline.metrics;
    report::JsonValue row = report::JsonValue::object();
    row.set("scheme", scheme_name(s.scheme));
    row.set("baseline_digest", report::hex_u64(s.baseline.digest));
    row.set("baseline_revenue", m.revenue);
    row.set("baseline_admitted", m.admitted);
    row.set("baseline_rejected", m.rejected);
    row.set("baseline_shed", m.shed);
    row.set("baseline_shed_revenue", m.shed_revenue);
    row.set("baseline_mutating_ops", s.baseline_mutating_ops);
    row.set("baseline_reload_ok", s.baseline_reload_ok);
    row.set("baseline_capacity_ok", s.baseline_capacity_ok);
    row.set("baseline_scrub_clean", s.baseline_scrub_clean);
    row.set("corruption_detected", s.corruption_detected);
    row.set("failed_trials", static_cast<std::uint64_t>(s.failed_trials));
    row.set("seconds", cell.seconds);
    return row;
}

/// Share of `total` trials that passed; no trials at all is no evidence.
inline double pass_rate(std::uint64_t failed, std::uint64_t total) {
    return total == 0 ? 0.0
                      : static_cast<double>(total - failed) / static_cast<double>(total);
}

inline report::JsonValue fault_bench_doc(const char* bench, std::size_t requests,
                                         std::uint64_t master) {
    report::JsonValue doc = report::JsonValue::object();
    doc.set("bench", bench);
    doc.set("quick", quick_mode());
    doc.set("requests", static_cast<std::uint64_t>(requests));
    doc.set("master_seed", report::hex_u64(master));
    return doc;
}

/// Stamps the verdict into `doc`, writes it to `out_path`, and returns
/// the process exit code.
inline int finish_fault_bench(report::JsonValue& doc, const std::string& out_path,
                              bool all_ok, const char* pass, const char* fail) {
    doc.set("all_gates_passed", all_ok);
    std::ofstream out(out_path);
    out << doc.dump() << '\n';
    std::cout << "wrote " << out_path << '\n';
    if (!all_ok) {
        std::cerr << "FAIL: " << fail << '\n';
        return 1;
    }
    std::cout << "PASS: " << pass << '\n';
    return 0;
}

}  // namespace vnfr::bench
