#include "harness/stats.hpp"

#include <algorithm>
#include <cmath>

#include "common/rng.hpp"

namespace perfbench {

double median(std::vector<double> values) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t mid = values.size() / 2;
    if (values.size() % 2 == 1) return values[mid];
    return (values[mid - 1] + values[mid]) / 2.0;
}

namespace {

/// 1-based nearest rank of quantile q among n samples.
std::size_t nearest_rank(std::size_t n, double q) {
    const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
    return std::clamp<std::size_t>(rank, 1, n);
}

}  // namespace

double quantile(std::vector<double> values, double q) {
    if (values.empty()) return 0.0;
    const std::size_t rank = nearest_rank(values.size(), q);
    std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                     values.end());
    return values[rank - 1];
}

std::size_t samples_beyond(std::size_t n, double q) {
    if (n == 0) return 0;
    return n - nearest_rank(n, q);
}

bool reportable(std::size_t n, double q) { return samples_beyond(n, q) >= 10; }

PercentileReport highest_reportable(const std::vector<double>& values) {
    PercentileReport report;
    report.samples = values.size();
    for (const double q : {0.5, 0.9, 0.99, 0.999, 0.9999}) {
        if (!reportable(values.size(), q)) break;
        report.q = q;
    }
    if (report.q > 0) report.value = quantile(values, report.q);
    return report;
}

bool valid_metric_name(std::string_view name) {
    if (name.empty() || name.size() > 64) return false;
    const auto alnum = [](char c) {
        return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9');
    };
    if (!alnum(name.front())) return false;
    return std::all_of(name.begin(), name.end(), [&](char c) {
        return alnum(c) || c == '_' || c == '.' || c == '-';
    });
}

std::vector<double> poisson_schedule(std::uint64_t seed, std::size_t count,
                                     double rate_per_s) {
    vnfr::common::Rng rng = vnfr::common::stream_rng(seed, kScheduleStream);
    std::vector<double> due;
    due.reserve(count);
    double t = 0.0;
    for (std::size_t i = 0; i < count; ++i) {
        t += rng.exponential(rate_per_s);
        due.push_back(t);
    }
    return due;
}

}  // namespace perfbench
