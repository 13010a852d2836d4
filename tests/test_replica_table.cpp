// vnf::ReplicaTable against the closed forms it tabulates: every Eq. 3
// replica count equals min_onsite_replicas (including which inputs throw),
// and every Eq. 10 log-failure entry and per-type sum is bit-identical to
// offsite_log_failure summed in cloudlet-index order.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <typeinfo>
#include <vector>

#include "common/rng.hpp"
#include "core/instance.hpp"
#include "net/topology_zoo.hpp"
#include "sim/scenarios.hpp"
#include "vnf/catalog.hpp"
#include "vnf/reliability.hpp"

namespace vnfr::vnf {
namespace {

struct CloudletSet {
    std::string name;
    Catalog catalog;
    std::vector<double> cloudlet_rels;
};

/// perfbench's kInfrastructureSeed (perfbench/harness/workloads.hpp).
constexpr std::uint64_t kPerfbenchInfrastructureSeed = 0x1cdc5019;

/// The perfbench deployment: the paper catalog and the cloudlets drawn
/// from its fixed infrastructure seed.
CloudletSet perfbench_set(const std::string& topology, std::size_t cloudlets) {
    core::InstanceConfig cfg = sim::paper_environment(0);
    cfg.cloudlets.count = cloudlets;
    common::Rng infra = common::stream_rng(kPerfbenchInfrastructureSeed, 0);
    Catalog catalog = Catalog::paper_default(infra);
    edge::MecNetwork network(net::load_topology(topology));
    network.attach_random_cloudlets(cfg.cloudlets, infra);
    return {topology + "/" + std::to_string(cloudlets), std::move(catalog),
            network.reliabilities()};
}

/// A figure-bench deployment: make_instance over `cfg` at `seed`.
CloudletSet figure_set(const std::string& name, const core::InstanceConfig& cfg,
                       std::uint64_t seed) {
    common::Rng rng(seed);
    core::Instance inst = core::make_instance(cfg, rng);
    return {name, std::move(inst.catalog), inst.network.reliabilities()};
}

std::vector<CloudletSet> cloudlet_sets() {
    std::vector<CloudletSet> sets;
    sets.push_back(perfbench_set("geant", 8));
    sets.push_back(perfbench_set("cost266", 32));
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        sets.push_back(figure_set("paper", sim::paper_environment(10), seed));
        sets.push_back(figure_set("golden", sim::golden_environment(10), seed));
        for (const double k : {1.001, 1.05, 1.10}) {
            // Fig. 2(b): r(c) max fixed at 0.999, min lowered to max / K.
            core::InstanceConfig cfg = sim::paper_environment(10);
            cfg.cloudlets.reliability_max = 0.999;
            cfg.set_reliability_ratio(k);
            sets.push_back(figure_set("fig2b", cfg, seed));
        }
    }
    // Unreliable VNF types: rows hit kReplicaTableWidth, so the closed-form
    // fallback and its kMaxOnsiteReplicas cutoff both run.
    CloudletSet weak{"weak-vnfs", {}, {0.9, 0.95, 0.999, 0.999999}};
    weak.catalog.add("flaky", 1.0, 0.05);
    weak.catalog.add("shaky", 2.0, 0.3);
    weak.catalog.add("hopeless", 1.0, 1e-7);
    sets.push_back(std::move(weak));
    return sets;
}

/// What a replica-count call produced: a count, nullopt, or an exception
/// of some dynamic type.
struct Outcome {
    std::optional<int> replicas;
    std::string thrown;  ///< typeid name; empty when nothing was thrown

    bool operator==(const Outcome&) const = default;
};

template <typename F>
Outcome outcome_of(F&& f) {
    try {
        return {f(), {}};
    } catch (const std::exception& e) {
        return {std::nullopt, typeid(e).name()};
    }
}

std::string show(const Outcome& o) {
    if (!o.thrown.empty()) return "threw " + o.thrown;
    return o.replicas ? std::to_string(*o.replicas) : "nullopt";
}

/// Checks replicas() against the closed form for one requirement; returns
/// the count when both agree on one.
std::optional<int> expect_same(const CloudletSet& set, const ReplicaTable& table,
                               std::size_t i, std::size_t j, double requirement) {
    const VnfTypeId type{static_cast<std::int64_t>(i)};
    const CloudletId cloudlet{static_cast<std::int64_t>(j)};
    const double rc = set.cloudlet_rels[j];
    const double rf = set.catalog.reliability(type);
    const Outcome want =
        outcome_of([&] { return min_onsite_replicas(rc, rf, requirement); });
    const Outcome got =
        outcome_of([&] { return table.replicas(type, cloudlet, requirement); });
    EXPECT_EQ(got, want) << set.name << " type " << i << " (r_f=" << rf << ") cloudlet "
                         << j << " (r_c=" << rc << ") R=" << requirement
                         << ": table " << show(got) << ", closed form " << show(want);
    return got.replicas;
}

TEST(ReplicaTable, RandomRequirementsMatchClosedForm) {
    common::Rng rng(42);
    for (const CloudletSet& set : cloudlet_sets()) {
        const ReplicaTable table(set.catalog, set.cloudlet_rels);
        for (std::size_t i = 0; i < set.catalog.size(); ++i) {
            for (std::size_t j = 0; j < set.cloudlet_rels.size(); ++j) {
                for (int k = 0; k < 100; ++k) {
                    expect_same(set, table, i, j, rng.uniform(0.8, 1.0));
                    expect_same(set, table, i, j, rng.uniform(0.0, 1.0));
                }
            }
        }
    }
}

TEST(ReplicaTable, ThresholdsAndTheirNeighboursMatch) {
    for (const CloudletSet& set : cloudlet_sets()) {
        const ReplicaTable table(set.catalog, set.cloudlet_rels);
        for (std::size_t i = 0; i < set.catalog.size(); ++i) {
            const double rf = set.catalog.types()[i].reliability;
            for (std::size_t j = 0; j < set.cloudlet_rels.size(); ++j) {
                const double rc = set.cloudlet_rels[j];
                for (int n = 1; n <= kReplicaTableWidth + 2; ++n) {
                    const double t = onsite_availability(rc, rf, n);
                    expect_same(set, table, i, j, t);
                    expect_same(set, table, i, j, std::nextafter(t, 0.0));
                    expect_same(set, table, i, j, std::nextafter(t, 1.0));
                }
            }
        }
    }
}

TEST(ReplicaTable, FeasibilityBoundaryMatches) {
    for (const CloudletSet& set : cloudlet_sets()) {
        const ReplicaTable table(set.catalog, set.cloudlet_rels);
        for (std::size_t i = 0; i < set.catalog.size(); ++i) {
            for (std::size_t j = 0; j < set.cloudlet_rels.size(); ++j) {
                const double rc = set.cloudlet_rels[j];
                const double edge = rc - kOnsiteFeasibilityMargin;
                for (const double r : {edge, std::nextafter(edge, 0.0),
                                       std::nextafter(edge, 1.0), rc - 1e-12, rc + 1e-12,
                                       rc}) {
                    expect_same(set, table, i, j, r);
                }
            }
        }
    }
}

TEST(ReplicaTable, OutOfRangeRequirementsThrowLikeClosedForm) {
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    for (const CloudletSet& set : cloudlet_sets()) {
        const ReplicaTable table(set.catalog, set.cloudlet_rels);
        for (std::size_t i = 0; i < set.catalog.size(); ++i) {
            for (std::size_t j = 0; j < set.cloudlet_rels.size(); ++j) {
                // 1e-300 is in range, but 1 - R/r(c) rounds to 1 and the
                // closed form fails its own log-argument check.
                for (const double r : {0.0, -0.0, 1.0, -0.1, 2.0, nan, inf, -inf, 1e-300}) {
                    expect_same(set, table, i, j, r);
                }
            }
        }
    }
    const CloudletSet set = perfbench_set("geant", 8);
    const ReplicaTable table(set.catalog, set.cloudlet_rels);
    for (const double r : {0.0, 1.0, -0.1, nan}) {
        EXPECT_THROW((void)table.replicas(VnfTypeId{0}, CloudletId{0}, r),
                     std::invalid_argument)
            << r;
    }
}

TEST(ReplicaTable, WeakTypesReachTheFallbackAndTheCutoff) {
    const std::vector<CloudletSet> sets = cloudlet_sets();
    const CloudletSet& weak = sets.back();
    ASSERT_EQ(weak.name, "weak-vnfs");
    const ReplicaTable table(weak.catalog, weak.cloudlet_rels);
    // r(f) = 0.05 needs ~72 replicas for R = 0.97 on r(c) = 0.999999: past
    // the row, so the answer comes from the closed form.
    const std::optional<int> beyond = expect_same(weak, table, 0, 3, 0.97);
    ASSERT_TRUE(beyond.has_value());
    EXPECT_GT(*beyond, kReplicaTableWidth);
    // r(f) = 1e-7 would need more than kMaxOnsiteReplicas instances.
    EXPECT_FALSE(expect_same(weak, table, 2, 2, 0.99).has_value());
    EXPECT_FALSE(min_onsite_replicas(0.999, 1e-7, 0.99).has_value());
}

TEST(ReplicaTable, OffsiteEntriesAreBitIdentical) {
    for (const CloudletSet& set : cloudlet_sets()) {
        const ReplicaTable table(set.catalog, set.cloudlet_rels);
        for (const VnfType& type : set.catalog.types()) {
            double sum = 0.0;
            for (std::size_t j = 0; j < set.cloudlet_rels.size(); ++j) {
                const double want = offsite_log_failure(type.reliability, set.cloudlet_rels[j]);
                const double got =
                    table.log_failure(type.id, CloudletId{static_cast<std::int64_t>(j)});
                EXPECT_EQ(std::bit_cast<std::uint64_t>(got), std::bit_cast<std::uint64_t>(want))
                    << set.name << " type " << type.id << " cloudlet " << j;
                sum += want;
            }
            EXPECT_EQ(std::bit_cast<std::uint64_t>(table.log_failure_all(type.id)),
                      std::bit_cast<std::uint64_t>(sum))
                << set.name << " type " << type.id;
        }
    }
}

TEST(ReplicaTable, RejectsUnreliableInputs) {
    Catalog catalog;
    catalog.add("fw", 1.0, 0.9);
    const std::vector<double> bad_high{0.99, 1.0};
    const std::vector<double> bad_low{0.0};
    EXPECT_THROW(ReplicaTable(catalog, bad_high), std::invalid_argument);
    EXPECT_THROW(ReplicaTable(catalog, bad_low), std::invalid_argument);
}

}  // namespace
}  // namespace vnfr::vnf
