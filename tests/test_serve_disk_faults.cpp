// The disk-fault sources of the fault study end to end: power cuts at
// scripted mutating ops, transient EIO bursts absorbed by retries, and
// ENOSPC degradation with both recovery paths — all gated on
// bit-identical equivalence with an undisturbed run. A compact version
// of the ablation_disk_faults bench gate, sized for the unit suite.
#include <gtest/gtest.h>

#include "helpers.hpp"
#include "serve/fault_study.hpp"

namespace vnfr::serve {
namespace {

using vnfr::testing::small_instance;
using vnfr::testing::tight_instance;

FaultStudyConfig study_config(core::Scheme scheme) {
    FaultStudyConfig cfg;
    cfg.scheme = scheme;
    cfg.master_seed = 0xD15CULL;
    cfg.power_cuts = 6;
    cfg.transient_bursts = 2;
    cfg.disk_fulls = 2;
    cfg.checkpoint_every = 8;
    cfg.queue_capacity = 4;
    cfg.group_commit = 4;
    return cfg;
}

std::vector<FaultTrial> trials_of(const FaultStudyResult& result, FaultSource source) {
    std::vector<FaultTrial> out;
    for (const FaultTrial& t : result.trials) {
        if (t.source == source) out.push_back(t);
    }
    return out;
}

void expect_study_ok(const FaultStudyResult& result, const FaultStudyConfig& cfg) {
    EXPECT_TRUE(result.baseline_capacity_ok);
    EXPECT_TRUE(result.baseline_scrub_clean);
    EXPECT_TRUE(result.corruption_detected);
    EXPECT_GT(result.baseline_mutating_ops, 0u);

    const std::vector<FaultTrial> cuts = trials_of(result, FaultSource::kPowerCut);
    ASSERT_EQ(cuts.size(), cfg.power_cuts);
    for (const FaultTrial& trial : cuts) {
        EXPECT_TRUE(trial.fired) << "cut at op " << trial.fault_point;
        EXPECT_TRUE(trial.gates.digest_match) << "cut at op " << trial.fault_point;
        EXPECT_TRUE(trial.gates.no_double_admits) << "cut at op " << trial.fault_point;
        EXPECT_TRUE(trial.gates.scrub_clean) << "cut at op " << trial.fault_point;
    }
    EXPECT_EQ(result.failed(FaultSource::kPowerCut), 0u);

    const std::vector<FaultTrial> bursts = trials_of(result, FaultSource::kTransientBurst);
    ASSERT_EQ(bursts.size(), cfg.transient_bursts);
    std::uint64_t faults_injected = 0;
    for (const FaultTrial& trial : bursts) {
        EXPECT_TRUE(trial.stayed_healthy);
        EXPECT_TRUE(trial.gates.digest_match);
        faults_injected += trial.faults_injected;
    }
    EXPECT_EQ(result.failed(FaultSource::kTransientBurst), 0u);
    EXPECT_GT(faults_injected, 0u);  // actually exposed

    const std::vector<FaultTrial> fulls = trials_of(result, FaultSource::kDiskFull);
    ASSERT_EQ(fulls.size(), cfg.disk_fulls);
    bool via_probe = false;
    for (const FaultTrial& trial : fulls) {
        EXPECT_TRUE(trial.fired) << "ENOSPC from write " << trial.fault_point;
        EXPECT_GT(trial.degraded_refusals, 0u);
        EXPECT_TRUE(trial.recovered);
        EXPECT_TRUE(trial.gates.digest_match) << "ENOSPC from write " << trial.fault_point;
        via_probe = via_probe || trial.recovered_via_probe;
    }
    EXPECT_TRUE(via_probe);  // the automatic probe path was exercised
    EXPECT_EQ(result.failed(FaultSource::kDiskFull), 0u);

    EXPECT_TRUE(result.ok());
}

TEST(ServeDiskFaults, OnsiteSurvivesTheFullFaultMatrix) {
    const core::Instance inst = tight_instance(48);
    const FaultStudyConfig cfg = study_config(core::Scheme::kOnsite);
    const FaultStudyResult result = run_fault_study(inst, cfg);
    EXPECT_EQ(result.baseline.outcomes(), 48u);  // every request decided or shed
    EXPECT_GT(result.baseline.metrics.shed, 0u);
    expect_study_ok(result, cfg);
}

TEST(ServeDiskFaults, OffsiteSurvivesTheFullFaultMatrix) {
    const core::Instance inst = tight_instance(48);
    const FaultStudyConfig cfg = study_config(core::Scheme::kOffsite);
    const FaultStudyResult result = run_fault_study(inst, cfg);
    EXPECT_EQ(result.baseline.outcomes(), 48u);
    expect_study_ok(result, cfg);
}

TEST(ServeDiskFaults, ExhaustiveCutsCoverEveryMutatingOp) {
    const core::Instance inst = tight_instance(24);
    FaultStudyConfig cfg = study_config(core::Scheme::kOnsite);
    cfg.exhaustive = true;
    cfg.transient_bursts = 0;
    cfg.disk_fulls = 0;
    const FaultStudyResult result = run_fault_study(inst, cfg);
    ASSERT_EQ(result.trials.size(), static_cast<std::size_t>(result.baseline_mutating_ops));
    // The cut indices tile [1 .. M]: every write, sync, truncate, create,
    // rename, unlink, and dirsync of the run — including both
    // checkpoint-rotation stages and mid-group-commit appends.
    for (std::size_t i = 0; i < result.trials.size(); ++i) {
        EXPECT_EQ(result.trials[i].fault_point, static_cast<std::uint64_t>(i + 1));
        EXPECT_TRUE(result.trials[i].ok()) << "cut at op " << i + 1;
    }
    EXPECT_EQ(result.failed(FaultSource::kPowerCut), 0u);
    EXPECT_TRUE(result.ok());
}

TEST(ServeDiskFaults, StudyIsDeterministicForAFixedSeed) {
    const core::Instance inst = tight_instance(32);
    FaultStudyConfig cfg = study_config(core::Scheme::kOnsite);
    cfg.power_cuts = 3;
    cfg.transient_bursts = 1;
    cfg.disk_fulls = 1;
    const FaultStudyResult a = run_fault_study(inst, cfg);
    const FaultStudyResult b = run_fault_study(inst, cfg);
    EXPECT_EQ(a.baseline.digest, b.baseline.digest);
    EXPECT_EQ(a.baseline_mutating_ops, b.baseline_mutating_ops);
    for (const FaultSource source :
         {FaultSource::kPowerCut, FaultSource::kTransientBurst, FaultSource::kDiskFull}) {
        const std::vector<FaultTrial> ta = trials_of(a, source);
        const std::vector<FaultTrial> tb = trials_of(b, source);
        ASSERT_EQ(ta.size(), tb.size());
        for (std::size_t i = 0; i < ta.size(); ++i) {
            EXPECT_EQ(ta[i].fault_point, tb[i].fault_point);
            EXPECT_EQ(ta[i].submitted_at_fault, tb[i].submitted_at_fault);
            EXPECT_EQ(ta[i].recovered_torn_tail_bytes, tb[i].recovered_torn_tail_bytes);
            EXPECT_EQ(ta[i].faults_injected, tb[i].faults_injected);
            EXPECT_EQ(ta[i].retries_absorbed, tb[i].retries_absorbed);
            EXPECT_EQ(ta[i].degraded_refusals, tb[i].degraded_refusals);
        }
    }
}

TEST(ServeDiskFaults, RejectsAnEmptyTrace) {
    const core::Instance inst = small_instance({0.98}, 10.0, 4, {});
    EXPECT_THROW(run_fault_study(inst, study_config(core::Scheme::kOnsite)),
                 std::invalid_argument);
}

}  // namespace
}  // namespace vnfr::serve
