// Serve-layer throughput bench: admissions/sec of the crash-safe
// admission controller across its performance knobs — WAL group-commit
// size, pipeline producer count, and horizon length.
//
// Three sweeps over paper-environment traces:
//
//   * group sweep — a single thread drives the bare controller at
//     group_commit {1, 4, 32}. group 1 is the original per-record
//     write+fdatasync controller; larger groups amortize ONE fdatasync
//     over the batch. This isolates the durability cost.
//   * pipeline sweep — N producer threads feed ShardedAdmissionPipeline
//     (bounded MPSC transport, seq reordering, batched pumps) into the
//     controller at group 32, end to end.
//   * horizon sweep — group 32 on traces whose horizon T is 24, 2400 and
//     24000 slots (same request count, m = 8). Controller state is
//     O(m*T); this shows which serve-path costs still scale with it.
//
// Every configuration is measured kSamples times. One sample drives the
// whole trace through fresh controllers, again and again, until at least
// kMinSampleSeconds of timed drive have accumulated, and reports
// admissions/sec over that time; the JSON carries the median and the
// min/max of the samples. Controller construction (recovery,
// generation-0 files) stays outside every timed window.
//
// Emits BENCH_serve_throughput.json and exits nonzero when a gate fails:
//
//   * amortization gate: median admissions/sec at group 32 must be >= 5x
//     the per-record-fdatasync baseline (group 1);
//   * equivalence gate: every run of every group-sweep and pipeline
//     configuration ends at the SAME state digest (batching and
//     concurrent producers must not change decisions), and every run of
//     one horizon ends at the same digest;
//
// The horizon sweep is reported, not gated: the T = 24000 / T = 24 rate
// ratio (horizon_rate_ratio) still reflects two O(m*T) costs per drive,
// the per-group rollback copy of the scheduler state in pump() and the
// first checkpoint on a fresh directory, which must be a full base.
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
#include <functional>
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

constexpr int kSamples = 5;
constexpr double kMinSampleSeconds = 0.1;

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

serve::ServeConfig throughput_config(const core::Instance& instance, std::size_t group,
                                     const std::string& dir) {
    serve::ServeConfig cfg;
    cfg.data_dir = dir;
    cfg.checkpoint_every = 1024;
    cfg.queue_capacity = instance.requests.size();  // no sheds: pure throughput
    cfg.group_commit = group;
    return cfg;
}

/// One drive of the whole trace through a fresh controller.
struct Drive {
    double seconds{0};  ///< timed part only (construction excluded)
    std::uint64_t digest{0};
    std::uint64_t max_reorder_depth{0};
};

/// Single-threaded bare-controller drive: submit everything, then drain.
/// With a queue bound of n nothing sheds, so every request is decided and
/// WAL-logged — the measured rate is the durable-admission rate.
Drive drive_group(const core::Instance& instance, std::size_t group,
                  const std::string& dir) {
    serve::AdmissionController controller(instance, core::Scheme::kOnsite,
                                          throughput_config(instance, group, dir));
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < instance.requests.size(); ++i) {
        controller.submit(i, instance.requests[i]);
    }
    controller.drain();
    Drive d;
    d.seconds = seconds_since(start);
    d.digest = controller.state_digest();
    return d;
}

/// End-to-end pipeline drive: P producers round-robin the stream into the
/// MPSC transport; the consumer reorders to seq order and pumps batches.
Drive drive_pipeline(const core::Instance& instance, std::size_t producers,
                     std::size_t group, const std::string& dir) {
    serve::AdmissionController controller(instance, core::Scheme::kOnsite,
                                          throughput_config(instance, group, dir));
    Drive d;
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
        d.max_reorder_depth = pipeline.stats().max_reorder_depth;
    }
    d.seconds = seconds_since(start);
    d.digest = controller.state_digest();
    return d;
}

/// kSamples samples of one configuration (see the file comment).
struct Measured {
    double median{0};  ///< admissions/sec
    double min{0};
    double max{0};
    double timed_seconds{0};  ///< total timed drive over all samples
    std::uint64_t drives{0};
    std::uint64_t digest{0};  ///< of the first drive
    bool digests_stable{true};  ///< every drive ended at `digest`
    std::uint64_t max_reorder_depth{0};
};

Measured measure(std::size_t requests, const std::function<Drive()>& drive) {
    Measured m;
    std::vector<double> rates;
    for (int sample = 0; sample < kSamples; ++sample) {
        double seconds = 0;
        std::uint64_t drives = 0;
        while (seconds < kMinSampleSeconds) {
            const Drive d = drive();
            if (m.drives == 0) m.digest = d.digest;
            m.digests_stable = m.digests_stable && d.digest == m.digest;
            m.max_reorder_depth = std::max(m.max_reorder_depth, d.max_reorder_depth);
            seconds += d.seconds;
            ++drives;
            ++m.drives;
        }
        m.timed_seconds += seconds;
        rates.push_back(static_cast<double>(requests * drives) / seconds);
    }
    std::sort(rates.begin(), rates.end());
    m.median = rates[rates.size() / 2];
    m.min = rates.front();
    m.max = rates.back();
    return m;
}

std::string describe(const Measured& m) {
    return report::format_double(m.median, 0) + " admissions/s (min " +
           report::format_double(m.min, 0) + ", max " + report::format_double(m.max, 0) +
           ", " + std::to_string(m.drives) + " drives)";
}

report::JsonValue row_json(const Measured& m) {
    report::JsonValue row = report::JsonValue::object();
    row.set("admissions_per_sec", m.median);
    row.set("admissions_per_sec_min", m.min);
    row.set("admissions_per_sec_max", m.max);
    row.set("samples", static_cast<std::uint64_t>(kSamples));
    row.set("drives", m.drives);
    row.set("timed_seconds", m.timed_seconds);
    row.set("digest", report::hex_u64(m.digest));
    return row;
}

}  // namespace

int main(int argc, char** argv) {
    const std::string out_path =
        argc > 1 ? argv[1] : std::string("BENCH_serve_throughput.json");

    const std::size_t requests = bench::quick_mode() ? 1500 : 8000;
    const std::uint64_t master = bench::scenario_seed("serve_throughput", requests);

    std::cout << "== Serve throughput: group commit + pipeline + horizon ==\n";
    bench::print_thread_note();

    common::Rng rng = common::stream_rng(master, 0);
    const core::Instance instance =
        bench::make_factory(bench::paper_environment(requests))(rng);
    std::cout << "instance: " << instance.requests.size() << " requests, "
              << instance.network.cloudlet_count() << " cloudlets, horizon "
              << instance.horizon << "; " << kSamples << " samples of >= "
              << kMinSampleSeconds << " s timed drive per configuration\n\n";

    const std::string work_root = "serve_throughput_state";
    ::mkdir(work_root.c_str(), 0755);

    // --- group sweep: the durability amortization curve -------------------
    const std::vector<std::size_t> groups = {1, 4, 32};
    std::vector<Measured> group_runs;
    for (const std::size_t group : groups) {
        const std::string name = "group_" + std::to_string(group);
        group_runs.push_back(measure(requests, [&] {
            return drive_group(instance, group, fresh_dir(work_root, name));
        }));
        std::cout << "group " << group << ": " << describe(group_runs.back())
                  << ", digest " << report::hex_u64(group_runs.back().digest) << "\n";
    }
    const double per_record_rate = group_runs.front().median;
    const double group32_rate = group_runs.back().median;
    const double speedup = group32_rate / per_record_rate;
    std::cout << "group-commit speedup (32 vs per-record fdatasync): "
              << report::format_double(speedup, 1) << "x\n\n";

    // --- pipeline sweep: producers at group 32 ----------------------------
    const std::size_t kPipelineGroup = 32;
    const std::vector<std::size_t> producer_counts = {1, 2, 4, 8};
    std::vector<Measured> pipeline_runs;
    for (const std::size_t producers : producer_counts) {
        const std::string name = "pipe_" + std::to_string(producers) + "p";
        pipeline_runs.push_back(measure(requests, [&] {
            return drive_pipeline(instance, producers, kPipelineGroup,
                                  fresh_dir(work_root, name));
        }));
        std::cout << producers << " producers: " << describe(pipeline_runs.back())
                  << ", reorder depth " << pipeline_runs.back().max_reorder_depth
                  << ", digest " << report::hex_u64(pipeline_runs.back().digest) << "\n";
    }
    std::cout << '\n';

    // --- horizon sweep: group 32 as the O(m*T) state grows ----------------
    const std::vector<TimeSlot> horizons = {24, 2400, 24000};
    std::vector<Measured> horizon_runs;
    for (std::size_t h = 0; h < horizons.size(); ++h) {
        core::InstanceConfig cfg = bench::paper_environment(requests);
        cfg.workload.horizon = horizons[h];
        common::Rng horizon_rng = common::stream_rng(master, 1 + h);
        const core::Instance wide = bench::make_factory(cfg)(horizon_rng);
        const std::string name = "horizon_" + std::to_string(horizons[h]);
        horizon_runs.push_back(measure(requests, [&] {
            return drive_group(wide, kPipelineGroup, fresh_dir(work_root, name));
        }));
        std::cout << "T = " << horizons[h] << ": " << describe(horizon_runs.back())
                  << "\n";
    }
    const double horizon_rate_ratio = horizon_runs.back().median / horizon_runs.front().median;
    std::cout << "T = 24000 runs at " << report::format_double(horizon_rate_ratio, 2)
              << "x the rate of T = 24\n\n";

    // --- gates ------------------------------------------------------------
    bool digests_match = true;
    for (const Measured& r : group_runs) {
        digests_match = digests_match && r.digests_stable &&
                        r.digest == group_runs.front().digest;
    }
    for (const Measured& r : pipeline_runs) {
        digests_match = digests_match && r.digests_stable &&
                        r.digest == group_runs.front().digest;
    }
    for (const Measured& r : horizon_runs) digests_match = digests_match && r.digests_stable;
    const double kSpeedupGate = 5.0;
    const bool speedup_ok = speedup >= kSpeedupGate;
    const bool all_ok = digests_match && speedup_ok;

    report::JsonValue doc = report::JsonValue::object();
    doc.set("bench", "serve_throughput");
    doc.set("quick", bench::quick_mode());
    doc.set("requests", static_cast<std::uint64_t>(requests));
    doc.set("master_seed", report::hex_u64(master));
    doc.set("samples", static_cast<std::uint64_t>(kSamples));
    doc.set("min_sample_seconds", kMinSampleSeconds);
    report::JsonValue group_rows = report::JsonValue::array();
    for (std::size_t i = 0; i < groups.size(); ++i) {
        report::JsonValue row = row_json(group_runs[i]);
        row.set("group_commit", static_cast<std::uint64_t>(groups[i]));
        group_rows.push(std::move(row));
    }
    doc.set("group_sweep", std::move(group_rows));
    doc.set("per_record_admissions_per_sec", per_record_rate);
    doc.set("group32_admissions_per_sec", group32_rate);
    doc.set("group_commit_speedup", speedup);
    report::JsonValue pipe_rows = report::JsonValue::array();
    double pipeline_min = pipeline_runs.front().median;
    for (std::size_t i = 0; i < producer_counts.size(); ++i) {
        report::JsonValue row = row_json(pipeline_runs[i]);
        row.set("producers", static_cast<std::uint64_t>(producer_counts[i]));
        row.set("group_commit", static_cast<std::uint64_t>(kPipelineGroup));
        row.set("max_reorder_depth", pipeline_runs[i].max_reorder_depth);
        pipe_rows.push(std::move(row));
        pipeline_min = std::min(pipeline_min, pipeline_runs[i].median);
    }
    doc.set("pipeline_sweep", std::move(pipe_rows));
    doc.set("pipeline_min_admissions_per_sec", pipeline_min);
    report::JsonValue horizon_rows = report::JsonValue::array();
    for (std::size_t i = 0; i < horizons.size(); ++i) {
        report::JsonValue row = row_json(horizon_runs[i]);
        row.set("horizon", static_cast<std::int64_t>(horizons[i]));
        row.set("group_commit", static_cast<std::uint64_t>(kPipelineGroup));
        horizon_rows.push(std::move(row));
    }
    doc.set("horizon_sweep", std::move(horizon_rows));
    doc.set("horizon_rate_ratio", horizon_rate_ratio);
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
            std::cerr << "FAIL: drives disagree on the final state digest\n";
        }
        return 1;
    }
    std::cout << "PASS: " << report::format_double(speedup, 1)
              << "x over per-record fdatasync, all digests identical\n";
    return 0;
}
