// Tests of the benchmark's own helpers: the percentile rule, span
// self-time arithmetic, the open-loop schedule and the metric-name
// grammar, plus the storage-call classification the per-layer metrics
// rest on.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "harness/stats.hpp"
#include "harness/timing_vfs.hpp"
#include "harness/trace.hpp"

namespace perfbench {
namespace {

std::vector<double> one_to(int n) {
    std::vector<double> v;
    for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
    return v;
}

TEST(Percentile, NearestRankQuantileAndMedian) {
    EXPECT_DOUBLE_EQ(quantile(one_to(100), 0.99), 99.0);
    EXPECT_DOUBLE_EQ(quantile(one_to(100), 0.5), 50.0);
    EXPECT_DOUBLE_EQ(quantile(one_to(1), 0.99), 1.0);
    EXPECT_DOUBLE_EQ(median(one_to(5)), 3.0);
    EXPECT_DOUBLE_EQ(median(one_to(4)), 2.5);
    EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(Percentile, NeedsTenSamplesBeyond) {
    EXPECT_EQ(samples_beyond(1000, 0.99), 10u);
    EXPECT_TRUE(reportable(1000, 0.99));
    EXPECT_FALSE(reportable(999, 0.99));
    EXPECT_TRUE(reportable(20, 0.5));
    EXPECT_FALSE(reportable(19, 0.5));
    EXPECT_FALSE(reportable(0, 0.5));
}

TEST(Percentile, HighestReportableCarriesSampleCount) {
    const PercentileReport none = highest_reportable(one_to(19));
    EXPECT_EQ(none.q, 0.0);
    EXPECT_EQ(none.samples, 19u);

    const PercentileReport p90 = highest_reportable(one_to(100));
    EXPECT_DOUBLE_EQ(p90.q, 0.9);
    EXPECT_DOUBLE_EQ(p90.value, 90.0);
    EXPECT_EQ(p90.samples, 100u);

    const PercentileReport p999 = highest_reportable(one_to(10000));
    EXPECT_DOUBLE_EQ(p999.q, 0.999);
    EXPECT_DOUBLE_EQ(p999.value, 9990.0);
    EXPECT_EQ(p999.samples, 10000u);
}

Span span(const char* name, std::uint64_t id, std::uint64_t parent, std::int64_t start,
          std::int64_t end) {
    return Span{name, id, parent, start, end};
}

TEST(SpanSelfTime, SubtractsMergedClippedChildren) {
    const std::vector<Span> spans = {
        span("pump", 1, 0, 0, 100),
        span("vfs.wal.write", 2, 1, 10, 30),
        span("vfs.wal.sync", 3, 1, 20, 50),   // overlaps the write: counted once
        span("vfs.dir", 4, 1, 90, 120),       // clipped to the parent's end
        span("vfs.read", 5, 3, 25, 35),       // grandchild
        span("submit", 6, 0, 200, 210),       // another root
    };
    const std::vector<std::int64_t> self = self_times(spans);
    EXPECT_EQ(self[0], 100 - (50 - 10) - (100 - 90));
    EXPECT_EQ(self[1], 20);
    EXPECT_EQ(self[2], 30 - 10);
    EXPECT_EQ(self[3], 30);
    EXPECT_EQ(self[4], 10);
    EXPECT_EQ(self[5], 10);

    const auto totals = totals_by_name(spans);
    EXPECT_EQ(totals.at("pump").count, 1u);
    EXPECT_EQ(totals.at("pump").total_ns, 100);
    EXPECT_EQ(totals.at("pump").self_ns, 50);
}

TEST(SpanSelfTime, SubtreeCoverageIsOneWhenChildrenNest) {
    const std::vector<Span> nested = {
        span("pump", 1, 0, 0, 100),
        span("vfs.wal.write", 2, 1, 10, 30),
        span("vfs.wal.sync", 3, 1, 30, 80),
        span("pump", 4, 0, 200, 300),
        span("submit", 5, 0, 150, 190),  // not under a pump
    };
    EXPECT_DOUBLE_EQ(subtree_self_coverage(nested, "pump"), 1.0);
    EXPECT_DOUBLE_EQ(subtree_self_coverage(nested, "missing"), 0.0);

    // A child that outlives its parent is counted with its own full self
    // time, so the coverage exceeds one and exposes the broken nesting.
    const std::vector<Span> leaking = {
        span("pump", 1, 0, 0, 100),
        span("vfs.wal.sync", 2, 1, 50, 150),
    };
    EXPECT_DOUBLE_EQ(subtree_self_coverage(leaking, "pump"), 1.5);
}

TEST(SpanSelfTime, ScopedSpansRecordParentsOnlyWhenEnabled) {
    Tracer& tracer = Tracer::global();
    (void)tracer.take();
    { const ScopedSpan ignored("off"); }
    EXPECT_TRUE(tracer.take().empty());

    tracer.set_enabled(true);
    {
        const ScopedSpan outer("outer");
        const ScopedSpan inner("inner");
    }
    tracer.set_enabled(false);
    const std::vector<Span> spans = tracer.take();
    ASSERT_EQ(spans.size(), 2u);
    EXPECT_STREQ(spans[0].name, "inner");  // closes first
    EXPECT_STREQ(spans[1].name, "outer");
    EXPECT_EQ(spans[0].parent, spans[1].id);
    EXPECT_EQ(spans[1].parent, 0u);
    EXPECT_LE(spans[1].start_ns, spans[0].start_ns);
    EXPECT_GE(spans[1].end_ns, spans[0].end_ns);
}

TEST(Schedule, SameSeedSameSchedule) {
    EXPECT_EQ(poisson_schedule(7, 5000, 4000.0), poisson_schedule(7, 5000, 4000.0));
    EXPECT_NE(poisson_schedule(7, 5000, 4000.0), poisson_schedule(8, 5000, 4000.0));
}

TEST(Schedule, IncreasingAtTheRequestedRate) {
    const std::vector<double> due = poisson_schedule(3, 20000, 4000.0);
    ASSERT_EQ(due.size(), 20000u);
    for (std::size_t i = 1; i < due.size(); ++i) ASSERT_GT(due[i], due[i - 1]);
    const double rate = static_cast<double>(due.size()) / due.back();
    EXPECT_NEAR(rate, 4000.0, 4000.0 * 0.05);
}

TEST(MetricNames, Grammar) {
    for (const char* ok : {"decisions_per_s", "core.decide_ns_per_req", "a-b_c.1", "9x"}) {
        EXPECT_TRUE(valid_metric_name(ok)) << ok;
    }
    for (const char* bad : {"", "_lead", ".lead", "has space", "x/y", "p99%", "é"}) {
        EXPECT_FALSE(valid_metric_name(bad)) << bad;
    }
    EXPECT_TRUE(valid_metric_name(std::string(64, 'a')));
    EXPECT_FALSE(valid_metric_name(std::string(65, 'a')));
}

TEST(StorageClassification, WalSnapshotAndHeaderFiles) {
    EXPECT_EQ(classify_path("d/wal-3.log"), FileClass::kWal);
    EXPECT_EQ(classify_path("d/wal-3.log.tmp"), FileClass::kWal);
    EXPECT_EQ(classify_path("d/snapshot.bin.tmp"), FileClass::kSnapshot);
    EXPECT_EQ(classify_path("d/other"), FileClass::kOther);
    EXPECT_TRUE(is_wal_generation("d/wal-12.log"));
    EXPECT_FALSE(is_wal_generation("d/wal-12.log.tmp"));
    EXPECT_STREQ(storage_span_name("d/wal-1.log", FileClass::kWal, StorageOp::kSync),
                 "vfs.wal.sync");
    EXPECT_STREQ(storage_span_name("d/wal-1.log.tmp", FileClass::kWal, StorageOp::kWrite),
                 "vfs.wal.header");
    EXPECT_STREQ(storage_span_name("d/snapshot.bin", FileClass::kSnapshot, StorageOp::kMeta),
                 "vfs.snapshot.meta");
}

}  // namespace
}  // namespace perfbench
