// Serve-layer throughput bench: admissions/sec of the crash-safe
// admission controller across its performance knobs — WAL group-commit
// size and pipeline producer count.
//
// Two sweeps over the same paper-environment trace:
//
//   * group sweep — a single thread drives the bare controller at
//     group_commit {1, 4, 32}. group 1 is the original per-record
//     write+fdatasync controller; larger groups amortize ONE fdatasync
//     over the batch. This isolates the durability cost.
//   * pipeline sweep — N producer threads feed ShardedAdmissionPipeline
//     (bounded MPSC transport, seq reordering, batched pumps) into the
//     controller at group 32, end to end.
//
// Controller construction (recovery, generation-0 files) stays outside
// every timed window.
//
// Emits BENCH_serve_throughput.json and exits nonzero when a gate fails:
//
//   * amortization gate: admissions/sec at group 32 must be >= 5x the
//     per-record-fdatasync baseline (group 1);
//   * equivalence gate: every configuration — any group size or
//     producer count — ends at the SAME state digest (batching and
//     concurrent producers must not change decisions).
//
// tools/check_bench_regression.py compares the emitted numbers against
// bench/baselines/serve_throughput_baseline.json in CI.
//
// Usage: serve_throughput [output.json]
//   VNFR_BENCH_QUICK=1  shrink the trace for smoke/CI
#include <sys/stat.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "report/json.hpp"
#include "serve/admission_controller.hpp"
#include "serve/admission_pipeline.hpp"

using namespace vnfr;

namespace {

std::string fresh_dir(const std::string& root, const std::string& name) {
    const std::filesystem::path dir = std::filesystem::path(root) / name;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir.string();
}

double seconds_since(const std::chrono::steady_clock::time_point& start) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
        .count();
}

struct GroupRun {
    std::size_t group{1};
    double seconds{0};
    double admissions_per_sec{0};
    std::uint64_t digest{0};
};

/// Single-threaded bare-controller drive: submit everything, then drain.
/// With a queue bound of n nothing sheds, so every request is decided and
/// WAL-logged — the measured rate is the durable-admission rate.
GroupRun run_group(const core::Instance& instance, std::size_t group,
                   const std::string& dir) {
    serve::ServeConfig cfg;
    cfg.data_dir = dir;
    cfg.checkpoint_every = 1024;
    cfg.queue_capacity = instance.requests.size();
    cfg.group_commit = group;
    serve::AdmissionController controller(instance, core::Scheme::kOnsite, cfg);
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < instance.requests.size(); ++i) {
        controller.submit(i, instance.requests[i]);
    }
    controller.drain();
    GroupRun r;
    r.group = group;
    r.seconds = seconds_since(start);
    r.admissions_per_sec =
        static_cast<double>(instance.requests.size()) / r.seconds;
    r.digest = controller.state_digest();
    return r;
}

struct PipelineRun {
    std::size_t producers{1};
    std::size_t group{1};
    double seconds{0};
    double admissions_per_sec{0};
    std::uint64_t digest{0};
    std::uint64_t max_reorder_depth{0};
};

/// End-to-end pipeline drive: P producers round-robin the stream into the
/// MPSC transport; the consumer reorders to seq order and pumps batches.
PipelineRun run_pipeline(const core::Instance& instance, std::size_t producers,
                         std::size_t group, const std::string& dir) {
    serve::ServeConfig cfg;
    cfg.data_dir = dir;
    cfg.checkpoint_every = 1024;
    cfg.queue_capacity = instance.requests.size();  // no sheds: pure throughput
    cfg.group_commit = group;

    PipelineRun r;
    r.producers = producers;
    r.group = group;
    serve::AdmissionController controller(instance, core::Scheme::kOnsite, cfg);
    const auto start = std::chrono::steady_clock::now();
    {
        serve::PipelineConfig pcfg;
        pcfg.transport_capacity = 256;
        pcfg.max_batch = group;
        serve::ShardedAdmissionPipeline pipeline(controller, pcfg);
        std::vector<std::thread> workers;
        workers.reserve(producers);
        for (std::size_t p = 0; p < producers; ++p) {
            workers.emplace_back([&, p] {
                for (std::size_t i = p; i < instance.requests.size(); i += producers) {
                    pipeline.submit(i, instance.requests[i]);
                }
            });
        }
        for (std::thread& t : workers) t.join();
        pipeline.stop();
        r.max_reorder_depth = pipeline.stats().max_reorder_depth;
    }
    r.seconds = seconds_since(start);
    r.admissions_per_sec =
        static_cast<double>(instance.requests.size()) / r.seconds;
    r.digest = controller.state_digest();
    return r;
}

}  // namespace

int main(int argc, char** argv) {
    const std::string out_path =
        argc > 1 ? argv[1] : std::string("BENCH_serve_throughput.json");

    const std::size_t requests = bench::quick_mode() ? 1500 : 8000;
    const std::uint64_t master = bench::scenario_seed("serve_throughput", requests);

    std::cout << "== Serve throughput: group commit + pipeline ==\n";
    bench::print_thread_note();

    common::Rng rng = common::stream_rng(master, 0);
    const core::Instance instance =
        bench::make_factory(bench::paper_environment(requests))(rng);
    std::cout << "instance: " << instance.requests.size() << " requests, "
              << instance.network.cloudlet_count() << " cloudlets, horizon "
              << instance.horizon << "\n\n";

    const std::string work_root = "serve_throughput_state";
    ::mkdir(work_root.c_str(), 0755);

    // --- group sweep: the durability amortization curve -------------------
    std::vector<GroupRun> group_runs;
    for (const std::size_t group : {std::size_t{1}, std::size_t{4}, std::size_t{32}}) {
        GroupRun r = run_group(instance, group,
                               fresh_dir(work_root, "group_" + std::to_string(group)));
        std::cout << "group " << group << ": "
                  << report::format_double(r.admissions_per_sec, 0)
                  << " admissions/s (" << report::format_double(r.seconds, 3)
                  << "s), digest " << report::hex_u64(r.digest) << "\n";
        group_runs.push_back(r);
    }
    const double per_record_rate = group_runs.front().admissions_per_sec;
    const double group32_rate = group_runs.back().admissions_per_sec;
    const double speedup = group32_rate / per_record_rate;
    std::cout << "group-commit speedup (32 vs per-record fdatasync): "
              << report::format_double(speedup, 1) << "x\n\n";

    // --- pipeline sweep: producers at group 32 ----------------------------
    const std::size_t kPipelineGroup = 32;
    std::vector<PipelineRun> pipeline_runs;
    for (const std::size_t producers :
         {std::size_t{1}, std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
        const std::string tag = std::to_string(producers) + "p";
        PipelineRun r = run_pipeline(instance, producers, kPipelineGroup,
                                     fresh_dir(work_root, "pipe_" + tag));
        std::cout << producers << " producers: "
                  << report::format_double(r.admissions_per_sec, 0)
                  << " admissions/s (reorder depth " << r.max_reorder_depth
                  << "), digest " << report::hex_u64(r.digest) << "\n";
        pipeline_runs.push_back(r);
    }
    std::cout << '\n';

    // --- gates ------------------------------------------------------------
    bool digests_match = true;
    for (const GroupRun& r : group_runs) {
        digests_match = digests_match && r.digest == group_runs.front().digest;
    }
    for (const PipelineRun& r : pipeline_runs) {
        digests_match = digests_match && r.digest == group_runs.front().digest;
    }
    const double kSpeedupGate = 5.0;
    const bool speedup_ok = speedup >= kSpeedupGate;
    const bool all_ok = digests_match && speedup_ok;

    report::JsonValue doc = report::JsonValue::object();
    doc.set("bench", "serve_throughput");
    doc.set("quick", bench::quick_mode());
    doc.set("requests", static_cast<std::uint64_t>(requests));
    doc.set("master_seed", report::hex_u64(master));
    report::JsonValue groups = report::JsonValue::array();
    for (const GroupRun& r : group_runs) {
        report::JsonValue row = report::JsonValue::object();
        row.set("group_commit", static_cast<std::uint64_t>(r.group));
        row.set("seconds", r.seconds);
        row.set("admissions_per_sec", r.admissions_per_sec);
        row.set("digest", report::hex_u64(r.digest));
        groups.push(std::move(row));
    }
    doc.set("group_sweep", std::move(groups));
    doc.set("per_record_admissions_per_sec", per_record_rate);
    doc.set("group32_admissions_per_sec", group32_rate);
    doc.set("group_commit_speedup", speedup);
    report::JsonValue pipes = report::JsonValue::array();
    for (const PipelineRun& r : pipeline_runs) {
        report::JsonValue row = report::JsonValue::object();
        row.set("producers", static_cast<std::uint64_t>(r.producers));
        row.set("group_commit", static_cast<std::uint64_t>(r.group));
        row.set("seconds", r.seconds);
        row.set("admissions_per_sec", r.admissions_per_sec);
        row.set("max_reorder_depth", r.max_reorder_depth);
        row.set("digest", report::hex_u64(r.digest));
        pipes.push(std::move(row));
    }
    doc.set("pipeline_sweep", std::move(pipes));
    double pipeline_min = pipeline_runs.front().admissions_per_sec;
    for (const PipelineRun& r : pipeline_runs) {
        pipeline_min = std::min(pipeline_min, r.admissions_per_sec);
    }
    doc.set("pipeline_min_admissions_per_sec", pipeline_min);
    doc.set("digests_match", digests_match);
    doc.set("speedup_gate", kSpeedupGate);
    doc.set("speedup_gate_passed", speedup_ok);
    doc.set("all_gates_passed", all_ok);

    std::ofstream out(out_path);
    out << doc.dump() << '\n';
    std::cout << "wrote " << out_path << '\n';

    if (!all_ok) {
        if (!speedup_ok) {
            std::cerr << "FAIL: group-commit speedup " << speedup << " < "
                      << kSpeedupGate << "x\n";
        }
        if (!digests_match) {
            std::cerr << "FAIL: configurations disagree on the final state digest\n";
        }
        return 1;
    }
    std::cout << "PASS: " << report::format_double(speedup, 1)
              << "x over per-record fdatasync, all digests identical\n";
    return 0;
}
