// The benchmark's workloads and the drivers that run one repetition of
// each through the public serve API (AdmissionController and
// ShardedAdmissionPipeline). README.md in this directory records why
// each workload exists and which layer it stresses.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/instance.hpp"
#include "core/offline.hpp"
#include "serve/admission_controller.hpp"
#include "serve/admission_pipeline.hpp"

namespace perfbench {

class TimingVfs;

/// How load reaches the controller.
enum class Load : std::uint8_t {
    /// One client submits a group, calls pump(group) and waits.
    kClosed,
    /// Producers push through ShardedAdmissionPipeline as fast as its
    /// backpressure allows.
    kPipeline,
    /// Producers push through the pipeline on a seeded Poisson schedule.
    kOpenLoop,
};

struct WorkloadSpec {
    const char* name;
    const char* topology;
    std::size_t cloudlets;
    vnfr::TimeSlot horizon;
    std::size_t requests;
    vnfr::core::Scheme scheme;
    Load load;
    std::size_t producers;  ///< pipeline and open-loop producers
    double rate_per_s;      ///< open-loop arrival rate
};

/// The fixed flush policy of every workload: one fdatasync per WAL group
/// of kGroupCommit records, a checkpoint every kCheckpointEvery records.
inline constexpr std::size_t kGroupCommit = 32;
inline constexpr std::size_t kCheckpointEvery = 1024;

[[nodiscard]] const std::vector<WorkloadSpec>& workloads();
[[nodiscard]] const WorkloadSpec* find_workload(std::string_view name);

/// Seed of the fixed MEC network and VNF catalog every instance shares.
inline constexpr std::uint64_t kInfrastructureSeed = 0x1cdc5019;

/// The workload's instance, a pure function of (spec, seed): the fixed
/// infrastructure plus a request stream drawn from `seed`.
[[nodiscard]] vnfr::core::Instance build_instance(const WorkloadSpec& spec,
                                                  std::uint64_t seed);

/// Controller configuration: the fixed flush policy, a queue far larger
/// than any backlog the drivers build (so nothing is shed), and `vfs`
/// (null = the process-wide PosixVfs).
[[nodiscard]] vnfr::serve::ServeConfig serve_config(const std::string& dir,
                                                    vnfr::serve::Vfs* vfs);

/// Removes and recreates `dir`.
void fresh_dir(const std::string& dir);

/// What one repetition measured.
struct RepResult {
    double wall_s{0};  ///< first submit to the last outcome durable
    double cpu_s{0};   ///< process CPU time over the same window
    /// Submit-to-durable latencies (ms): per group in the closed loop,
    /// per request otherwise. Empty for pipeline reps with a kStats Vfs.
    std::vector<double> latency_ms;
    std::uint64_t digest{0};
    vnfr::serve::ServeMetrics metrics;
    /// Submits the controller or the pipeline did not accept.
    std::uint64_t refused{0};
    /// Requests whose durable time the WAL capture saw (pipeline reps
    /// with a kCapture Vfs).
    std::uint64_t captured{0};
    /// Closed loop: duration of every pump and of the pumps across which
    /// wal_generation() changed (checkpoint stalls), in microseconds.
    std::vector<double> pump_us;
    std::vector<double> ckpt_pump_us;
    /// Open loop: how late each request left the generator (us).
    std::vector<double> late_us;
    vnfr::serve::PipelineStats pipe;
    /// Median export_state() time at the final state (us); measured only
    /// when requested.
    double export_state_us{0};
};

/// Runs the whole workload once on a fresh controller over `dir`.
/// `schedule` holds the open-loop due offsets (empty otherwise). With
/// `probe_export`, export_state() is timed on the final state.
[[nodiscard]] RepResult run_rep(const WorkloadSpec& spec,
                                const vnfr::core::Instance& instance,
                                const std::vector<double>& schedule,
                                const std::string& dir, TimingVfs* vfs,
                                bool probe_export);

}  // namespace perfbench
