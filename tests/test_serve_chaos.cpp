// End-to-end chaos tests: kill the controller at randomized WAL points,
// restart from disk, and require the recovered run to be indistinguishable
// from an uninterrupted one. A compact version of the
// ablation_controller_chaos bench gate, sized for the unit suite, plus
// checks that the fault study's gates have teeth and that a study mixing
// every fault source replays exactly.
#include <gtest/gtest.h>

#include "helpers.hpp"
#include "serve/admission_controller.hpp"
#include "serve/fault_study.hpp"
#include "serve/vfs.hpp"

namespace vnfr::serve {
namespace {

using vnfr::testing::fresh_dir;
using vnfr::testing::small_instance;
using vnfr::testing::tight_instance;

FaultStudyConfig study_config(core::Scheme scheme, const std::string& dir) {
    FaultStudyConfig cfg;
    cfg.scheme = scheme;
    cfg.master_seed = 0xC0FFEEull;
    cfg.kills = 6;
    cfg.checkpoint_every = 8;
    cfg.queue_capacity = 4;
    cfg.work_dir = dir;
    return cfg;
}

void expect_study_ok(const FaultStudyResult& result) {
    EXPECT_TRUE(result.baseline_reload_ok);
    EXPECT_TRUE(result.baseline_capacity_ok);
    EXPECT_EQ(result.failed_trials, 0u);
    ASSERT_EQ(result.trials.size(), 6u);
    std::size_t torn = 0;
    for (const FaultTrial& trial : result.trials) {
        EXPECT_TRUE(trial.fired) << "kill point " << trial.fault_point;
        EXPECT_TRUE(trial.gates.digest_match) << "kill point " << trial.fault_point;
        EXPECT_TRUE(trial.gates.revenue_match) << "kill point " << trial.fault_point;
        EXPECT_TRUE(trial.gates.no_double_admits);
        EXPECT_TRUE(trial.gates.capacity_ok);
        if (trial.torn_tail_applied) ++torn;
    }
    EXPECT_GT(torn, 0u);  // the torn-tail path was actually exercised
    EXPECT_TRUE(result.ok());
}

TEST(ServeChaos, OnsiteSurvivesRandomizedKillsBitIdentically) {
    const core::Instance inst = tight_instance(48);
    const FaultStudyResult result = run_fault_study(
        inst, study_config(core::Scheme::kOnsite, fresh_dir("chaos_onsite")));
    EXPECT_EQ(result.baseline.outcomes(), 48u);  // every request decided or shed
    EXPECT_GT(result.baseline.metrics.shed, 0u);
    expect_study_ok(result);
}

TEST(ServeChaos, OffsiteSurvivesRandomizedKillsBitIdentically) {
    const core::Instance inst = tight_instance(48);
    const FaultStudyResult result = run_fault_study(
        inst, study_config(core::Scheme::kOffsite, fresh_dir("chaos_offsite")));
    EXPECT_EQ(result.baseline.outcomes(), 48u);
    expect_study_ok(result);
}

TEST(ServeChaos, StudyIsDeterministicForAFixedSeed) {
    const core::Instance inst = tight_instance(32);
    FaultStudyConfig cfg = study_config(core::Scheme::kOnsite, fresh_dir("chaos_repeat_a"));
    cfg.kills = 3;
    const FaultStudyResult a = run_fault_study(inst, cfg);
    cfg.work_dir = fresh_dir("chaos_repeat_b");
    const FaultStudyResult b = run_fault_study(inst, cfg);
    EXPECT_EQ(a.baseline.digest, b.baseline.digest);
    ASSERT_EQ(a.trials.size(), b.trials.size());
    for (std::size_t i = 0; i < a.trials.size(); ++i) {
        EXPECT_EQ(a.trials[i].fault_point, b.trials[i].fault_point);
        EXPECT_EQ(a.trials[i].submitted_at_fault, b.trials[i].submitted_at_fault);
        EXPECT_EQ(a.trials[i].torn_tail_applied, b.trials[i].torn_tail_applied);
    }
}

TEST(ServeChaos, RejectsAnEmptyTrace) {
    const core::Instance inst = small_instance({0.98}, 10.0, 4, {});
    EXPECT_THROW(run_fault_study(inst, study_config(core::Scheme::kOnsite,
                                                    fresh_dir("chaos_empty"))),
                 std::invalid_argument);
}

/// Serves requests [0, n) of `inst` on an in-memory disk, draining after
/// every submit so no request is shed and decisions form a strict prefix.
void serve_prefix(AdmissionController& controller, const core::Instance& inst,
                  std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
        controller.submit(i, inst.requests[i]);
        controller.drain();
    }
}

TEST(ServeFaultStudy, JudgeFailsAControllerThatDivergedFromTheBaseline) {
    const core::Instance inst = tight_instance(32);
    ServeConfig cfg;
    cfg.data_dir = "/faultdisk";
    cfg.checkpoint_every = 8;
    FaultyVfs baseline_disk;
    cfg.vfs = &baseline_disk;
    AdmissionController baseline(inst, core::Scheme::kOnsite, cfg);
    serve_prefix(baseline, inst, inst.requests.size());
    const FaultBaseline reference = capture_baseline(baseline);
    ASSERT_FALSE(reference.admitted.empty());
    EXPECT_TRUE(judge(inst, reference, baseline, cfg.data_dir).ok());

    // The diverged controller never received the last admitted request
    // nor anything after it.
    FaultyVfs diverged_disk;
    cfg.vfs = &diverged_disk;
    AdmissionController diverged(inst, core::Scheme::kOnsite, cfg);
    serve_prefix(diverged, inst, static_cast<std::size_t>(reference.admitted.back().seq));
    const FaultGates gates = judge(inst, reference, diverged, cfg.data_dir);
    EXPECT_FALSE(gates.digest_match);
    EXPECT_FALSE(gates.revenue_match);
    EXPECT_FALSE(gates.metrics_match);
    EXPECT_FALSE(gates.admitted_match);
    EXPECT_FALSE(gates.ok());
    // A lost request breaks equivalence, not safety.
    EXPECT_TRUE(gates.no_double_admits);
    EXPECT_TRUE(gates.capacity_ok);
    EXPECT_TRUE(gates.scrub_clean);
}

TEST(ServeFaultStudy, MixedSourcesReplayIdentically) {
    const core::Instance inst = tight_instance(32);
    FaultStudyConfig cfg;
    cfg.master_seed = 0x5EEDull;
    cfg.kills = 2;
    cfg.promotions = 2;
    cfg.degraded_primaries = 1;
    cfg.power_cuts = 2;
    cfg.transient_bursts = 1;
    cfg.disk_fulls = 1;
    cfg.checkpoint_every = 8;
    cfg.queue_capacity = 4;
    cfg.group_commit = 2;
    cfg.ship_every = 2;
    cfg.work_dir = fresh_dir("fault_mix_a");
    const FaultStudyResult a = run_fault_study(inst, cfg);
    cfg.work_dir = fresh_dir("fault_mix_b");
    const FaultStudyResult b = run_fault_study(inst, cfg);
    EXPECT_TRUE(a.ok()) << "failed " << a.failed_trials << "/" << a.trials.size();
    ASSERT_EQ(a.trials.size(), 9u);
    EXPECT_EQ(a.baseline.digest, b.baseline.digest);
    EXPECT_EQ(a.baseline_mutating_ops, b.baseline_mutating_ops);
    EXPECT_EQ(a.trials, b.trials);
}

}  // namespace
}  // namespace vnfr::serve
