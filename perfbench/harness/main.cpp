// vnfr_perfbench: runs one workload of the serve-path benchmark and prints
// its metrics. See README.md in this directory for the workloads, the
// metrics and the layer each per-layer metric belongs to.
//
// Usage:
//   vnfr_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  --state-dir DIR [--spans-out FILE]
//
// A run builds the workload's instance from the seed several times (the
// set-up samples), then repeats the whole workload on a fresh controller
// until S seconds have passed, reopening the finished directory after
// each repetition. With --trace 0 it prints the end-to-end metrics; with
// --trace 1 it alternates untraced and traced repetitions and prints the
// per-layer metrics. The last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}; the exit code is 0 only
// when every correctness gate passed.
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/digest.hpp"
#include "core/offsite_primal_dual.hpp"
#include "core/onsite_primal_dual.hpp"
#include "harness/stats.hpp"
#include "harness/timing_vfs.hpp"
#include "harness/trace.hpp"
#include "harness/workloads.hpp"

using namespace perfbench;

namespace {

struct Args {
    std::string workload;
    std::uint64_t seed{0};
    double seconds{0};
    bool trace{false};
    std::string state_dir;
    std::string spans_out;
};

std::optional<Args> parse_args(int argc, char** argv) {
    Args a;
    bool have_seed = false;
    bool have_seconds = false;
    bool have_trace = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string value = argv[i + 1];
        try {
            if (key == "--workload") {
                a.workload = value;
            } else if (key == "--seed") {
                a.seed = std::stoull(value);
                have_seed = true;
            } else if (key == "--seconds") {
                a.seconds = std::stod(value);
                have_seconds = a.seconds > 0;
            } else if (key == "--trace") {
                if (value != "0" && value != "1") return std::nullopt;
                a.trace = value == "1";
                have_trace = true;
            } else if (key == "--state-dir") {
                a.state_dir = value;
            } else if (key == "--spans-out") {
                a.spans_out = value;
            } else {
                return std::nullopt;
            }
        } catch (const std::exception&) {
            return std::nullopt;
        }
    }
    if (argc % 2 != 1 || a.workload.empty() || a.state_dir.empty() || !have_seed ||
        !have_seconds || !have_trace) {
        return std::nullopt;
    }
    return a;
}

double seconds_between(std::int64_t a, std::int64_t b) {
    return static_cast<double>(b - a) / 1e9;
}

double peak_rss_mb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::uint64_t instance_fingerprint(const vnfr::core::Instance& instance) {
    vnfr::common::Fnv1a digest;
    for (const vnfr::workload::Request& r : instance.requests) {
        digest.mix(static_cast<std::uint64_t>(r.id.value));
        digest.mix(static_cast<std::uint64_t>(r.vnf.value));
        digest.mix(r.requirement);
        digest.mix(static_cast<std::uint64_t>(r.arrival));
        digest.mix(static_cast<std::uint64_t>(r.duration));
        digest.mix(r.payment);
    }
    for (const vnfr::edge::Cloudlet& c : instance.network.cloudlets()) {
        digest.mix(c.capacity);
        digest.mix(c.reliability);
    }
    return digest.value();
}

/// Correctness gates: each is recorded by name and printed.
class Gates {
  public:
    void check(const std::string& name, bool ok) {
        auto [it, inserted] = gates_.emplace(name, ok);
        if (!inserted) it->second = it->second && ok;
    }
    [[nodiscard]] bool all() const {
        for (const auto& [name, ok] : gates_) {
            if (!ok) return false;
        }
        return true;
    }
    void print(std::ostream& out) const {
        for (const auto& [name, ok] : gates_) {
            out << "gate " << name << ": " << (ok ? "ok" : "FAIL") << '\n';
        }
    }

  private:
    std::map<std::string, bool> gates_;
};

struct Metric {
    std::string name;
    double value;
    std::string unit;
};

/// Checkpoint stalls of the pipeline workloads, whose pumps run inside
/// the pipeline where the benchmark cannot wrap them. A rotation's
/// storage calls all fall between two WAL group commits; its stall runs
/// from the end of the previous commit's fdatasync (after which the
/// controller applies the group and serialises the snapshot) to the end
/// of the rotation's last storage call. Durations in microseconds.
std::vector<double> storage_checkpoint_stalls(std::vector<Span> spans) {
    std::erase_if(spans, [](const Span& s) {
        return std::string_view(s.name).rfind("vfs.", 0) != 0 ||
               std::string_view(s.name) == "vfs.read";
    });
    std::sort(spans.begin(), spans.end(),
              [](const Span& a, const Span& b) { return a.start_ns < b.start_ns; });
    std::vector<double> stalls;
    std::optional<std::int64_t> last_commit_end;
    bool open = false;
    bool has_snapshot = false;
    std::int64_t open_start = 0;
    std::int64_t open_end = 0;
    const auto close_segment = [&] {
        if (open && has_snapshot) {
            stalls.push_back(static_cast<double>(open_end - open_start) / 1e3);
        }
        open = false;
    };
    for (const Span& s : spans) {
        const std::string_view name(s.name);
        if (name == "vfs.wal.write") {
            close_segment();
        } else if (name == "vfs.wal.sync") {
            close_segment();
            last_commit_end = s.end_ns;
        } else if (last_commit_end) {
            if (!open) {
                open = true;
                has_snapshot = false;
                open_start = *last_commit_end;
            }
            open_end = s.end_ns;
            has_snapshot = has_snapshot || name.rfind("vfs.snapshot.", 0) == 0;
        }
    }
    close_segment();
    return stalls;
}

/// Every per-layer metric with its unit, in output order (BENCHMARK.json
/// lists the same names).
constexpr std::pair<const char*, const char*> kLayerMetrics[] = {
    {"core.decide_ns_per_req", "ns"},
    {"core.decide_share", "ratio"},
    {"core.accept_ratio", "ratio"},
    {"core.reject_priced_out", "count"},
    {"core.reject_no_capacity", "count"},
    {"core.reject_infeasible", "count"},
    {"serve.export_state_us", "us"},
    {"serve.export_share", "ratio"},
    {"serve.pump_s", "s"},
    {"serve.pump_self_s", "s"},
    {"serve.pump_p99_us", "us"},
    {"serve.cpu_us_per_decision", "us"},
    {"ckpt.count", "count"},
    {"ckpt.stall_s", "s"},
    {"ckpt.stall_p50_ms", "ms"},
    {"ckpt.snapshot_bytes", "bytes"},
    {"ckpt.share", "ratio"},
    {"wal.commits", "count"},
    {"wal.records_per_commit", "ratio"},
    {"wal.fdatasync_p50_us", "us"},
    {"wal.fdatasync_p99_us", "us"},
    {"wal.fdatasync_s", "s"},
    {"wal.bytes_per_decision", "bytes"},
    {"vfs.bytes_written_per_decision", "bytes"},
    {"vfs.sync_count", "count"},
    {"vfs.meta_s", "s"},
    {"pipe.submit_s", "s"},
    {"pipe.transport_full", "count"},
    {"pipe.max_reorder_depth", "count"},
    {"pipe.batch_flushes", "count"},
    {"pipe.timeout_flushes", "count"},
    {"pipe.mean_batch", "ratio"},
    {"recovery.records_replayed", "count"},
    {"recovery.snapshot_bytes", "bytes"},
    {"gen.instance_s", "s"},
    {"gen.late_p99_us", "us"},
    {"trace.overhead", "ratio"},
    {"trace.pump_coverage", "ratio"},
    {"trace.pump_attributed", "ratio"},
    {"trace.spans", "count"},
};

double sum(const std::vector<double>& v) {
    double s = 0;
    for (const double x : v) s += x;
    return s;
}

/// Per-layer metrics of one traced repetition.
std::map<std::string, double> layer_metrics(const WorkloadSpec& spec, const RepResult& r,
                                            const TimingVfs& vfs,
                                            const std::vector<Span>& spans,
                                            double decide_ns_per_req) {
    std::map<std::string, double> m;
    const double decisions = static_cast<double>(r.metrics.processed);
    const double wall_us = r.wall_s * 1e6;
    const bool closed = spec.load == Load::kClosed;
    const std::map<std::string, NameTotals> totals = totals_by_name(spans);
    const auto total_s = [&](const char* name) {
        const auto it = totals.find(name);
        return it == totals.end() ? 0.0 : static_cast<double>(it->second.total_ns) / 1e9;
    };

    m["core.decide_share"] = decide_ns_per_req * decisions / 1e3 / wall_us;

    const std::vector<double> wal_sync = vfs.wal_sync_us();
    const auto commits = static_cast<double>(wal_sync.size());
    m["serve.export_state_us"] = r.export_state_us;
    m["serve.export_share"] = r.export_state_us * commits / wall_us;
    m["serve.pump_s"] = closed ? sum(r.pump_us) / 1e6 : 0.0;
    m["serve.pump_self_s"] =
        closed && totals.contains("pump")
            ? static_cast<double>(totals.at("pump").self_ns) / 1e9
            : 0.0;
    m["serve.pump_p99_us"] = closed ? quantile(r.pump_us, 0.99) : 0.0;
    m["serve.cpu_us_per_decision"] = r.cpu_s * 1e6 / decisions;

    const std::vector<double> stalls = closed ? r.ckpt_pump_us : storage_checkpoint_stalls(spans);
    const OpTotals snap_writes = vfs.totals(FileClass::kSnapshot, StorageOp::kWrite);
    m["ckpt.count"] = static_cast<double>(stalls.size());
    m["ckpt.stall_s"] = sum(stalls) / 1e6;
    m["ckpt.stall_p50_ms"] = median(stalls) / 1e3;
    m["ckpt.snapshot_bytes"] =
        snap_writes.count > 0
            ? static_cast<double>(snap_writes.bytes) / static_cast<double>(snap_writes.count)
            : 0.0;
    m["ckpt.share"] = sum(stalls) / wall_us;

    const OpTotals wal_writes = vfs.totals(FileClass::kWal, StorageOp::kWrite);
    m["wal.commits"] = commits;
    m["wal.records_per_commit"] = commits > 0 ? decisions / commits : 0.0;
    m["wal.fdatasync_p50_us"] = median(wal_sync);
    m["wal.fdatasync_p99_us"] = quantile(wal_sync, 0.99);
    m["wal.fdatasync_s"] = sum(wal_sync) / 1e6;
    m["wal.bytes_per_decision"] = static_cast<double>(wal_writes.bytes) / decisions;

    double written = 0;
    double syncs = 0;
    double meta_ns = 0;
    for (std::size_t c = 0; c < kFileClasses; ++c) {
        const auto file = static_cast<FileClass>(c);
        written += static_cast<double>(vfs.totals(file, StorageOp::kWrite).bytes);
        syncs += static_cast<double>(vfs.totals(file, StorageOp::kSync).count);
        meta_ns += static_cast<double>(vfs.totals(file, StorageOp::kMeta).ns);
    }
    meta_ns += static_cast<double>(vfs.totals(FileClass::kDirectory, StorageOp::kSync).ns);
    m["vfs.bytes_written_per_decision"] = written / decisions;
    m["vfs.sync_count"] = syncs;
    m["vfs.meta_s"] = meta_ns / 1e9;

    const double flushes =
        static_cast<double>(r.pipe.batch_flushes + r.pipe.timeout_flushes);
    m["pipe.submit_s"] = total_s("pipeline.submit");
    m["pipe.transport_full"] = static_cast<double>(r.pipe.transport_full);
    m["pipe.max_reorder_depth"] = static_cast<double>(r.pipe.max_reorder_depth);
    m["pipe.batch_flushes"] = static_cast<double>(r.pipe.batch_flushes);
    m["pipe.timeout_flushes"] = static_cast<double>(r.pipe.timeout_flushes);
    m["pipe.mean_batch"] =
        flushes > 0 ? static_cast<double>(r.pipe.processed) / flushes : 0.0;

    m["gen.late_p99_us"] = r.late_us.empty() ? 0.0 : quantile(r.late_us, 0.99);
    m["trace.pump_coverage"] = closed ? subtree_self_coverage(spans, "pump") : 0.0;
    // Share of pump time a layer accounts for: storage spans inside the
    // pumps plus the probed decide() and export_state() costs. The rest is
    // serve-layer work no span or probe reaches yet (snapshot encoding,
    // WAL record encoding, applying outcomes).
    const double pump_us = closed ? sum(r.pump_us) : 0.0;
    const double pump_storage_us =
        closed && totals.contains("pump")
            ? pump_us - static_cast<double>(totals.at("pump").self_ns) / 1e3
            : 0.0;
    m["trace.pump_attributed"] =
        pump_us > 0 ? (pump_storage_us + decide_ns_per_req * decisions / 1e3 +
                       r.export_state_us * commits) /
                          pump_us
                    : 0.0;
    m["trace.spans"] = static_cast<double>(spans.size());
    return m;
}

std::string format_number(double v) {
    std::ostringstream out;
    out << std::setprecision(std::numeric_limits<double>::max_digits10) << v;
    return out.str();
}

}  // namespace

int main(int argc, char** argv) {
    const std::optional<Args> parsed = parse_args(argc, argv);
    if (!parsed) {
        std::cerr << "usage: vnfr_perfbench --workload NAME --seed N --seconds S "
                     "--trace 0|1 --state-dir DIR [--spans-out FILE]\n";
        return 2;
    }
    const Args& args = *parsed;
    const WorkloadSpec* spec_ptr = find_workload(args.workload);
    if (spec_ptr == nullptr) {
        std::cerr << "unknown workload '" << args.workload << "'\n";
        return 2;
    }
    const WorkloadSpec& spec = *spec_ptr;
    const std::string setup_dir = args.state_dir + "/setup";
    const std::string run_dir = args.state_dir + "/run";
    Gates gates;

    // --- set-up: instance build plus controller construction, repeated ---
    constexpr int kSetupSamples = 11;
    constexpr int kReopensPerRep = 5;
    // No repetition starts after this long, whatever --seconds says, so a
    // run always ends within three minutes.
    constexpr double kMaxMeasureSeconds = 120;
    std::optional<vnfr::core::Instance> instance;
    std::uint64_t fingerprint = 0;
    std::vector<double> setup_s;
    std::vector<double> instance_s;
    for (int k = 0; k < kSetupSamples; ++k) {
        std::filesystem::remove_all(setup_dir);
        const std::int64_t t0 = now_ns();
        vnfr::core::Instance built = build_instance(spec, args.seed);
        const std::int64_t t1 = now_ns();
        std::filesystem::create_directories(setup_dir);
        {
            const vnfr::serve::AdmissionController controller(built, spec.scheme,
                                                              serve_config(setup_dir, nullptr));
            setup_s.push_back(seconds_between(t0, now_ns()));
        }
        instance_s.push_back(seconds_between(t0, t1));
        const std::uint64_t fp = instance_fingerprint(built);
        if (k == 0) {
            fingerprint = fp;
            instance.emplace(std::move(built));
        }
        gates.check("instance_deterministic", fp == fingerprint);
    }
    std::filesystem::remove_all(setup_dir);
    const std::size_t n = instance->requests.size();
    const std::vector<double> schedule =
        spec.load == Load::kOpenLoop ? poisson_schedule(args.seed, n, spec.rate_per_s)
                                     : std::vector<double>{};

    // --- repetitions --------------------------------------------------------
    std::vector<double> untraced_dps;
    std::vector<double> traced_dps;
    // Latency percentiles: the median over repetitions of each repetition's
    // percentile when a repetition alone has the samples for a p99 (one slow
    // disk spike then moves one repetition, not the result); otherwise the
    // percentiles of all repetitions' samples pooled.
    std::vector<double> rep_p50_ms;
    std::vector<double> rep_p99_ms;
    std::vector<double> pooled_latency_ms;
    std::size_t latency_samples = 0;
    PercentileReport top_latency;
    std::vector<double> recovery_s;
    std::uint64_t reference_digest = 0;
    vnfr::serve::ServeMetrics final_metrics;
    vnfr::serve::RecoveryStats recovery_stats;
    double recovery_snapshot_bytes = 0;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<RepResult> traced_reps;
    std::vector<std::unique_ptr<TimingVfs>> traced_vfs;
    std::vector<std::vector<Span>> traced_spans;

    // Warm-up: the stream once through a closed loop on a fresh controller,
    // untimed, so allocator and page-cache state settle before the timed
    // repetitions (without it the first repetitions run ~20% slower).
    // Its digest is the reference every timed repetition must reproduce.
    {
        WorkloadSpec closed = spec;
        closed.load = Load::kClosed;
        fresh_dir(run_dir);
        const RepResult warm = run_rep(closed, *instance, {}, run_dir, nullptr, false);
        gates.check("no_refusals_or_sheds", warm.refused == 0 && warm.metrics.shed == 0);
        gates.check("all_decided", warm.metrics.processed == n);
        reference_digest = warm.digest;
    }

    const std::int64_t measure_start = now_ns();
    for (int rep = 0;; ++rep) {
        const double elapsed = seconds_between(measure_start, now_ns());
        const bool enough_reps =
            args.trace ? !traced_dps.empty() && !untraced_dps.empty() : untraced_dps.size() >= 2;
        const bool enough_latency =
            args.trace || !rep_p99_ms.empty() || reportable(pooled_latency_ms.size(), 0.99);
        const bool done = elapsed >= args.seconds && enough_reps && enough_latency;
        if (done || elapsed > kMaxMeasureSeconds) break;

        const bool traced = args.trace && rep % 2 == 1;
        std::unique_ptr<TimingVfs> vfs;
        if (traced) {
            vfs = std::make_unique<TimingVfs>(TimingVfs::Mode::kStats);
        } else if (spec.load != Load::kClosed) {
            vfs = std::make_unique<TimingVfs>(TimingVfs::Mode::kCapture);
        }
        fresh_dir(run_dir);
        Tracer::global().set_enabled(traced);
        RepResult r = run_rep(spec, *instance, schedule, run_dir, vfs.get(), traced);
        Tracer::global().set_enabled(false);

        attempted += n;
        const std::uint64_t not_durable =
            r.metrics.processed < n ? n - r.metrics.processed : 0;
        failed += r.refused + r.metrics.shed + not_durable;
        gates.check("no_refusals_or_sheds", r.refused == 0 && r.metrics.shed == 0);
        gates.check("all_decided", r.metrics.processed == n);
        gates.check("digest_stable_across_reps", r.digest == reference_digest);
        if (spec.load != Load::kClosed && !traced) {
            gates.check("wal_capture_covers_stream", r.captured == n);
        }
        final_metrics = r.metrics;

        // Reopen the finished directory: snapshot load plus WAL tail replay.
        // Reopening adds no record, so each reopen repeats the same work.
        for (int k = 0; k < kReopensPerRep; ++k) {
            const std::int64_t t0 = now_ns();
            const vnfr::serve::AdmissionController reopened(*instance, spec.scheme,
                                                            serve_config(run_dir, nullptr));
            const double reopen_s = seconds_between(t0, now_ns());
            gates.check("reopen_digest_matches", reopened.state_digest() == r.digest);
            recovery_stats = reopened.recovery_stats();
            if (!traced) recovery_s.push_back(reopen_s);
        }
        const std::filesystem::path snapshot = std::filesystem::path(run_dir) / "snapshot.bin";
        recovery_snapshot_bytes = std::filesystem::exists(snapshot)
                                      ? static_cast<double>(std::filesystem::file_size(snapshot))
                                      : 0.0;

        const double dps = static_cast<double>(r.metrics.processed) / r.wall_s;
        if (traced) {
            traced_dps.push_back(dps);
            traced_spans.push_back(Tracer::global().take());
            traced_vfs.push_back(std::move(vfs));
            traced_reps.push_back(std::move(r));
        } else {
            untraced_dps.push_back(dps);
            latency_samples += r.latency_ms.size();
            if (reportable(r.latency_ms.size(), 0.99)) {
                rep_p50_ms.push_back(quantile(r.latency_ms, 0.5));
                rep_p99_ms.push_back(quantile(r.latency_ms, 0.99));
                top_latency = highest_reportable(r.latency_ms);
            } else {
                pooled_latency_ms.insert(pooled_latency_ms.end(), r.latency_ms.begin(),
                                         r.latency_ms.end());
                top_latency = highest_reportable(pooled_latency_ms);
            }
        }
    }
    std::filesystem::remove_all(run_dir);

    // --- out-of-band replay through a fresh scheduler -------------------------
    std::unique_ptr<vnfr::core::OnlineScheduler> scheduler;
    if (spec.scheme == vnfr::core::Scheme::kOnsite) {
        vnfr::core::OnsitePrimalDualConfig cfg;
        cfg.track_deltas = false;
        scheduler = std::make_unique<vnfr::core::OnsitePrimalDual>(*instance, cfg);
    } else {
        scheduler = std::make_unique<vnfr::core::OffsitePrimalDual>(*instance);
    }
    const std::int64_t replay_start = now_ns();
    const vnfr::core::ScheduleResult replay = vnfr::core::run_online(*instance, *scheduler);
    const double decide_ns_per_req =
        static_cast<double>(now_ns() - replay_start) / static_cast<double>(n);
    gates.check("replay_revenue_bit_exact",
                std::bit_cast<std::uint64_t>(replay.revenue) ==
                    std::bit_cast<std::uint64_t>(final_metrics.revenue));
    gates.check("replay_admitted_equal", replay.admitted == final_metrics.admitted);
    const double fail_ratio = static_cast<double>(failed) / static_cast<double>(attempted);
    gates.check("fail_ratio_zero", failed == 0);

    // --- metrics --------------------------------------------------------------
    std::vector<Metric> metrics;
    std::cout << "workload " << spec.name << " seed " << args.seed << ": " << n
              << " requests, " << spec.cloudlets << " cloudlets (" << spec.topology
              << "), horizon " << spec.horizon << ", flush policy group " << kGroupCommit
              << " / checkpoint " << kCheckpointEvery << "\n";
    std::cout << "repetitions: " << untraced_dps.size() << " untraced, " << traced_dps.size()
              << " traced; state digest " << std::hex << reference_digest << std::dec
              << "; fail_ratio " << fail_ratio << " (" << failed << " of " << attempted
              << ")\n";
    std::cout << "decisions/s per repetition:";
    for (const double dps : untraced_dps) std::cout << ' ' << static_cast<std::int64_t>(dps);
    std::cout << " (untraced);";
    for (const double dps : traced_dps) std::cout << ' ' << static_cast<std::int64_t>(dps);
    std::cout << " (traced)\n";
    if (!args.trace) {
        const bool per_rep = !rep_p99_ms.empty();
        std::cout << "latency: " << latency_samples << " samples, percentiles "
                  << (per_rep ? "per repetition (median reported)" : "pooled")
                  << "; highest reportable p" << top_latency.q * 100 << " = "
                  << top_latency.value << " ms of " << top_latency.samples << " samples\n";
        if (per_rep) {
            std::cout << "p99 ms per repetition:";
            for (const double v : rep_p99_ms) std::cout << ' ' << v;
            std::cout << '\n';
        }
        metrics = {
            {"decisions_per_s", median(untraced_dps), "1/s"},
            {"latency_p50_ms",
             per_rep ? median(rep_p50_ms) : quantile(pooled_latency_ms, 0.5), "ms"},
            {"latency_p99_ms",
             per_rep ? median(rep_p99_ms) : quantile(pooled_latency_ms, 0.99), "ms"},
            {"setup_s", median(setup_s), "s"},
            {"recovery_s", median(recovery_s), "s"},
            {"revenue", final_metrics.revenue, "payment"},
            {"peak_rss_mb", peak_rss_mb(), "MB"},
        };
    } else {
        const vnfr::core::RejectionBreakdown rejects = vnfr::core::rejection_breakdown(replay);
        std::map<std::string, std::vector<double>> per_rep;
        for (std::size_t k = 0; k < traced_reps.size(); ++k) {
            for (const auto& [name, value] : layer_metrics(spec, traced_reps[k], *traced_vfs[k],
                                                           traced_spans[k], decide_ns_per_req)) {
                per_rep[name].push_back(value);
            }
            if (spec.load == Load::kClosed) {
                gates.check("trace_pump_coverage_90pct",
                            subtree_self_coverage(traced_spans[k], "pump") >= 0.9);
            }
        }
        std::map<std::string, double> values;
        for (const auto& [name, samples] : per_rep) values[name] = median(samples);
        values["core.decide_ns_per_req"] = decide_ns_per_req;
        values["core.accept_ratio"] = vnfr::core::acceptance_ratio(replay, *instance);
        values["core.reject_priced_out"] = static_cast<double>(rejects.priced_out);
        values["core.reject_no_capacity"] = static_cast<double>(rejects.no_capacity);
        values["core.reject_infeasible"] =
            static_cast<double>(rejects.infeasible_requirement);
        values["recovery.records_replayed"] =
            static_cast<double>(recovery_stats.wal_records_replayed);
        values["recovery.snapshot_bytes"] = recovery_snapshot_bytes;
        values["gen.instance_s"] = median(instance_s);
        values["trace.overhead"] = median(untraced_dps) / median(traced_dps) - 1.0;

        bool complete = values.size() == std::size(kLayerMetrics);
        for (const auto& [name, unit] : kLayerMetrics) {
            const auto it = values.find(name);
            complete = complete && it != values.end();
            metrics.push_back({name, it == values.end() ? 0.0 : it->second, unit});
        }
        gates.check("per_layer_metrics_complete", complete);

        if (!args.spans_out.empty() && !traced_spans.empty()) {
            std::filesystem::create_directories(
                std::filesystem::path(args.spans_out).parent_path());
            std::ofstream out(args.spans_out);
            write_spans(out, traced_spans.back());
        }
    }

    bool names_ok = true;
    bool values_ok = true;
    for (const Metric& m : metrics) {
        names_ok = names_ok && valid_metric_name(m.name);
        values_ok = values_ok && std::isfinite(m.value);
        std::cout << "metric " << m.name << " = " << format_number(m.value) << ' ' << m.unit
                  << '\n';
    }
    gates.check("metric_names_valid", names_ok);
    gates.check("metric_values_finite", values_ok);
    gates.print(std::cout);

    const bool correct = gates.all();
    std::ostringstream json;
    json << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
         << ", \"failed\": " << failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric& m = metrics[i];
        json << (i == 0 ? "" : ", ") << '"' << m.name << "\": {\"value\": "
             << (std::isfinite(m.value) ? format_number(m.value) : "0") << ", \"unit\": \""
             << m.unit << "\"}";
    }
    json << "}}";
    std::cout << json.str() << std::endl;
    return correct ? 0 : 1;
}
