#include "harness/workloads.hpp"

#include <time.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <thread>

#include "common/rng.hpp"
#include "harness/stats.hpp"
#include "harness/timing_vfs.hpp"
#include "harness/trace.hpp"
#include "net/topology_zoo.hpp"
#include "serve/wal.hpp"
#include "sim/scenarios.hpp"

namespace perfbench {

using vnfr::core::Scheme;

const std::vector<WorkloadSpec>& workloads() {
    // Sizes follow the paper's Section VI environment (GEANT, 8 cloudlets,
    // request windows of 4-16 slots); see README.md for why each exists.
    static const std::vector<WorkloadSpec> specs = {
        {"stream_closed", "geant", 8, 3000, 100000, Scheme::kOnsite, Load::kClosed, 1, 0},
        {"long_horizon", "geant", 8, 24000, 20000, Scheme::kOffsite, Load::kClosed, 1, 0},
        {"wide_pipeline", "cost266", 32, 240, 100000, Scheme::kOnsite, Load::kPipeline, 1,
         0},
        {"trickle_open", "cost266", 32, 240, 16000, Scheme::kOnsite, Load::kOpenLoop, 2,
         4000},
    };
    return specs;
}

const WorkloadSpec* find_workload(std::string_view name) {
    for (const WorkloadSpec& spec : workloads()) {
        if (name == spec.name) return &spec;
    }
    return nullptr;
}

vnfr::core::Instance build_instance(const WorkloadSpec& spec, std::uint64_t seed) {
    vnfr::core::InstanceConfig cfg = vnfr::sim::paper_environment(spec.requests);
    cfg.workload.horizon = spec.horizon;
    cfg.cloudlets.count = spec.cloudlets;
    // The MEC network and the VNF catalog are the deployment under test and
    // stay fixed; the seed draws the request stream. Drawing the cloudlets
    // from the seed too would move revenue and admitted count by ~15%
    // from seed to seed and hide any change smaller than that.
    vnfr::common::Rng infra = vnfr::common::stream_rng(kInfrastructureSeed, 0);
    vnfr::core::Instance instance{
        vnfr::edge::MecNetwork(vnfr::net::load_topology(spec.topology)),
        vnfr::vnf::Catalog::paper_default(infra), spec.horizon, {}};
    instance.network.attach_random_cloudlets(cfg.cloudlets, infra);

    vnfr::common::Rng rng = vnfr::common::stream_rng(seed, 1);
    instance.requests = vnfr::workload::generate(cfg.workload, instance.catalog, rng);
    const auto nodes = static_cast<std::int64_t>(instance.network.graph().node_count());
    for (vnfr::workload::Request& r : instance.requests) {
        r.source = vnfr::NodeId{rng.uniform_int(0, nodes - 1)};
    }
    instance.validate();
    return instance;
}

vnfr::serve::ServeConfig serve_config(const std::string& dir, vnfr::serve::Vfs* vfs) {
    vnfr::serve::ServeConfig cfg;
    cfg.data_dir = dir;
    cfg.group_commit = kGroupCommit;
    cfg.checkpoint_every = kCheckpointEvery;
    cfg.queue_capacity = 1 << 16;
    cfg.vfs = vfs;
    return cfg;
}

void fresh_dir(const std::string& dir) {
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
}

namespace {

void back_off() { std::this_thread::sleep_for(std::chrono::microseconds(20)); }

double cpu_seconds() {
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

void drive_closed(const vnfr::core::Instance& instance,
                  vnfr::serve::AdmissionController& controller, RepResult& r) {
    const std::vector<vnfr::workload::Request>& reqs = instance.requests;
    for (std::size_t first = 0; first < reqs.size(); first += kGroupCommit) {
        const std::size_t last = std::min(reqs.size(), first + kGroupCommit);
        const std::int64_t group_start = now_ns();
        const std::uint64_t generation = controller.wal_generation();
        {
            const ScopedSpan span("submit");
            for (std::size_t i = first; i < last; ++i) {
                if (controller.submit(i, reqs[i]) != vnfr::serve::SubmitResult::kQueued) {
                    ++r.refused;
                }
            }
        }
        const std::int64_t pump_start = now_ns();
        {
            const ScopedSpan span("pump");
            (void)controller.pump(last - first);
        }
        const std::int64_t pump_end = now_ns();
        r.latency_ms.push_back(static_cast<double>(pump_end - group_start) / 1e6);
        const double pump_us = static_cast<double>(pump_end - pump_start) / 1e3;
        r.pump_us.push_back(pump_us);
        if (controller.wal_generation() != generation) r.ckpt_pump_us.push_back(pump_us);
    }
}

/// Producers push every `producers`-th seq. In the open loop each request
/// leaves at its due time (the producer sleeps until then, never spins)
/// and its latency counts from that due time; otherwise from the moment
/// the pipeline accepted it.
void drive_pipeline(const WorkloadSpec& spec, const vnfr::core::Instance& instance,
                    const std::vector<double>& schedule,
                    vnfr::serve::AdmissionController& controller,
                    std::vector<std::int64_t>& start_ns, RepResult& r) {
    const std::vector<vnfr::workload::Request>& reqs = instance.requests;
    const bool open_loop = spec.load == Load::kOpenLoop;
    if (open_loop) r.late_us.assign(reqs.size(), 0.0);
    std::atomic<std::uint64_t> refused{0};
    const vnfr::serve::PipelineConfig config;
    vnfr::serve::ShardedAdmissionPipeline pipeline(controller, config);
    // Free-running producers drift apart in a random walk, and the
    // pipeline parks the leader's requests in its unbounded reorder buffer
    // until the laggard catches up: p99 latency then measured scheduler
    // luck (60-320 ms between repetitions of one run). A producer here
    // stays within one transport capacity of the slowest, as a
    // flow-controlled client would. A producer that must wait, for that
    // window or for a full transport, sleeps: spinning producers took
    // cores from the pipeline's consumer and throughput then varied by
    // a third from run to run.
    std::vector<std::atomic<std::size_t>> next(spec.producers);
    const auto slowest = [&] {
        std::size_t low = reqs.size();
        for (const auto& n : next) low = std::min(low, n.load(std::memory_order_acquire));
        return low;
    };
    const std::int64_t origin = now_ns() + 1'000'000;
    std::vector<std::thread> producers;
    producers.reserve(spec.producers);
    for (std::size_t p = 0; p < spec.producers; ++p) {
        producers.emplace_back([&, p] {
            for (std::size_t i = p; i < reqs.size(); i += spec.producers) {
                next[p].store(i, std::memory_order_release);
                while (i > slowest() + config.transport_capacity) back_off();
                if (open_loop) {
                    const auto due = origin + static_cast<std::int64_t>(schedule[i] * 1e9);
                    std::this_thread::sleep_until(
                        Clock::time_point(std::chrono::nanoseconds(due)));
                    r.late_us[i] = static_cast<double>(now_ns() - due) / 1e3;
                    start_ns[i] = due;
                }
                {
                    const ScopedSpan span("pipeline.submit");
                    vnfr::common::MpscPushResult pushed;
                    while ((pushed = pipeline.try_submit(i, reqs[i])) ==
                           vnfr::common::MpscPushResult::kFull) {
                        back_off();
                    }
                    if (pushed != vnfr::common::MpscPushResult::kPushed) refused.fetch_add(1);
                }
                if (!open_loop) start_ns[i] = now_ns();
            }
            next[p].store(reqs.size(), std::memory_order_release);
        });
    }
    for (std::thread& t : producers) t.join();
    pipeline.stop();
    r.pipe = pipeline.stats();
    r.refused += refused.load();
}

}  // namespace

RepResult run_rep(const WorkloadSpec& spec, const vnfr::core::Instance& instance,
                  const std::vector<double>& schedule, const std::string& dir,
                  TimingVfs* vfs, bool probe_export) {
    RepResult r;
    vnfr::serve::AdmissionController controller(instance, spec.scheme,
                                                serve_config(dir, vfs));
    std::vector<std::int64_t> start_ns(instance.requests.size(), 0);
    const double cpu0 = cpu_seconds();
    const std::int64_t t0 = now_ns();
    if (spec.load == Load::kClosed) {
        drive_closed(instance, controller, r);
    } else {
        drive_pipeline(spec, instance, schedule, controller, start_ns, r);
    }
    const std::int64_t t1 = now_ns();
    r.cpu_s = cpu_seconds() - cpu0;
    // The open loop starts its schedule 1 ms after t0; that lead is idle.
    r.wall_s = static_cast<double>(t1 - t0) / 1e9 - (spec.load == Load::kOpenLoop ? 1e-3 : 0);
    r.digest = controller.state_digest();
    r.metrics = controller.metrics();

    if (spec.load != Load::kClosed && vfs != nullptr) {
        // Map every seq to the fdatasync that made it durable.
        std::vector<std::int64_t> durable(instance.requests.size(), -1);
        for (const WalCommit& commit : vfs->take_commits()) {
            for (const vnfr::serve::WalRecord& rec :
                 vnfr::serve::decode_wal_record_stream(commit.bytes, "wal capture", 0)) {
                if (rec.seq < durable.size() && durable[rec.seq] < 0) {
                    durable[rec.seq] = commit.durable_ns;
                }
            }
        }
        for (std::size_t i = 0; i < durable.size(); ++i) {
            if (durable[i] < 0) continue;
            ++r.captured;
            r.latency_ms.push_back(static_cast<double>(durable[i] - start_ns[i]) / 1e6);
        }
    }

    if (probe_export) {
        const ScopedSpan span("probe.export_state");
        std::vector<double> us;
        for (int k = 0; k < 15; ++k) {
            const std::int64_t a = now_ns();
            (void)controller.scheduler().export_state();
            us.push_back(static_cast<double>(now_ns() - a) / 1e3);
        }
        r.export_state_us = median(us);
    }
    return r;
}

}  // namespace perfbench
