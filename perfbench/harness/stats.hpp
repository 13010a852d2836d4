// Small numeric helpers of the benchmark: medians, the percentile rule,
// the metric-name grammar and the open-loop arrival schedule. Kept apart
// from the drivers so the benchmark's own tests cover them directly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

namespace perfbench {

/// Median of `values` (mean of the two middle values for an even count);
/// 0 for an empty vector.
[[nodiscard]] double median(std::vector<double> values);

/// Nearest-rank quantile: the smallest sample with at least `q` of all
/// samples at or below it. `q` in (0, 1]; 0 for an empty vector.
[[nodiscard]] double quantile(std::vector<double> values, double q);

/// Samples strictly above the nearest-rank `q` quantile of `n` samples.
[[nodiscard]] std::size_t samples_beyond(std::size_t n, double q);

/// A percentile report: which percentile, its value and the sample count.
struct PercentileReport {
    double q{0};
    double value{0};
    std::size_t samples{0};
};

/// The highest of p50, p90, p99, p99.9 and p99.99 that still has at least
/// ten samples beyond it. With fewer than 20 samples not even the median
/// qualifies and the report carries q = 0.
[[nodiscard]] PercentileReport highest_reportable(const std::vector<double>& values);

/// True when `q` may be reported for `n` samples under the rule above.
[[nodiscard]] bool reportable(std::size_t n, double q);

/// Metric names follow [A-Za-z0-9_.-]+, start with a letter or digit and
/// have at most 64 characters.
[[nodiscard]] bool valid_metric_name(std::string_view name);

/// Due offsets, in seconds from the start of the run, of `count` requests
/// arriving as a Poisson process of `rate_per_s`. A pure function of
/// `seed`: exponential gaps drawn from the counter-based stream
/// vnfr::common::stream_rng(seed, kScheduleStream).
[[nodiscard]] std::vector<double> poisson_schedule(std::uint64_t seed,
                                                   std::size_t count,
                                                   double rate_per_s);

/// RNG stream reserved for the open-loop schedule, disjoint from the
/// streams the instance builders draw from.
inline constexpr std::uint64_t kScheduleStream = 0x5c4ed;

}  // namespace perfbench
