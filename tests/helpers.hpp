// Shared builders for small deterministic test instances and scratch
// directories.
#pragma once

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "core/instance.hpp"
#include "net/generators.hpp"
#include "vnf/catalog.hpp"
#include "workload/request.hpp"

namespace vnfr::testing {

/// A catalog with two well-separated types:
///   type 0 "fw":  c = 1, r = 0.95
///   type 1 "lb":  c = 2, r = 0.90
inline vnf::Catalog two_type_catalog() {
    vnf::Catalog cat;
    cat.add("fw", 1.0, 0.95);
    cat.add("lb", 2.0, 0.90);
    return cat;
}

/// An instance over a 4-node ring with `reliabilities.size()` cloudlets of
/// capacity `capacity` each, horizon `horizon`, and the given requests.
inline core::Instance small_instance(std::vector<double> reliabilities, double capacity,
                                     TimeSlot horizon,
                                     std::vector<workload::Request> requests) {
    const std::size_t m = reliabilities.size();
    core::Instance inst{edge::MecNetwork(net::ring(std::max<std::size_t>(m, 3))),
                        two_type_catalog(), horizon, std::move(requests)};
    for (std::size_t j = 0; j < m; ++j) {
        inst.network.add_cloudlet(NodeId{static_cast<std::int64_t>(j)}, capacity,
                                  reliabilities[j]);
    }
    inst.validate();
    return inst;
}

/// Convenience request literal.
inline workload::Request make_request(std::int64_t id, std::int64_t vnf, double requirement,
                                      TimeSlot arrival, TimeSlot duration, double payment) {
    workload::Request r;
    r.id = RequestId{id};
    r.vnf = VnfTypeId{vnf};
    r.requirement = requirement;
    r.arrival = arrival;
    r.duration = duration;
    r.payment = payment;
    return r;
}

/// A deterministic `n`-request trace mixing both catalog types over three
/// tight cloudlets, so admission, rejection and shedding all occur.
inline core::Instance tight_instance(std::size_t n) {
    std::vector<workload::Request> reqs;
    reqs.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        reqs.push_back(make_request(static_cast<std::int64_t>(i),
                                    static_cast<std::int64_t>(i % 2),
                                    0.90 + 0.004 * static_cast<double>(i % 10),
                                    static_cast<TimeSlot>((i * 7) / n),
                                    1 + static_cast<TimeSlot>(i % 3),
                                    1.0 + static_cast<double>((i * 11) % 17)));
    }
    return small_instance({0.98, 0.97, 0.99}, 10.0, 10, std::move(reqs));
}

/// Creates (or wipes) a scratch state directory under the test temp root.
inline std::string fresh_dir(const std::string& name) {
    const std::filesystem::path dir = std::filesystem::path(::testing::TempDir()) / name;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir.string();
}

/// A random-but-deterministic instance for property tests: `m` cloudlets on
/// an Erdos-Renyi graph, `n` requests from the uniform workload model.
inline core::Instance random_instance(common::Rng& rng, std::size_t n, std::size_t m,
                                      TimeSlot horizon, double capacity_lo = 20,
                                      double capacity_hi = 40) {
    net::Graph g = net::erdos_renyi(std::max<std::size_t>(m + 2, 6), 0.4, rng);
    core::Instance inst{edge::MecNetwork(std::move(g)), vnf::Catalog::paper_default(rng),
                        horizon, {}};
    edge::CloudletAttachment attach;
    attach.count = m;
    attach.capacity_min = capacity_lo;
    attach.capacity_max = capacity_hi;
    attach.reliability_min = 0.95;
    attach.reliability_max = 0.999;
    inst.network.attach_random_cloudlets(attach, rng);

    workload::GeneratorConfig wl;
    wl.horizon = horizon;
    wl.count = n;
    wl.duration_min = 1;
    wl.duration_max = std::max<TimeSlot>(1, horizon / 3);
    wl.requirement_min = 0.90;
    wl.requirement_max = 0.99;
    inst.requests = workload::generate(wl, inst.catalog, rng);
    inst.validate();
    return inst;
}

}  // namespace vnfr::testing
