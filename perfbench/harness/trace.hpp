// In-memory span recorder of the benchmark. A span records a name, start,
// end and the span that was open on the same thread when it began (its
// parent). Spans stay in memory while the benchmark runs and are written
// out when it ends, so recording costs two clock reads and one short
// critical section. Disabled (the default), a ScopedSpan costs one
// relaxed atomic load.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

struct Span {
    const char* name{""};  ///< a string literal (static storage)
    std::uint64_t id{0};
    std::uint64_t parent{0};  ///< 0 for a root span
    std::int64_t start_ns{0};
    std::int64_t end_ns{0};
};

class Tracer {
  public:
    void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
    [[nodiscard]] bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

    /// Hands every span recorded so far to the caller and forgets them.
    [[nodiscard]] std::vector<Span> take();

    /// The process-wide tracer the ScopedSpans record into.
    static Tracer& global();

  private:
    friend class ScopedSpan;
    std::atomic<bool> enabled_{false};
    std::atomic<std::uint64_t> next_id_{1};
    std::mutex mu_;
    std::vector<Span> spans_;  // guarded by mu_
};

/// Records one span over its own lifetime when the global tracer is on.
class ScopedSpan {
  public:
    explicit ScopedSpan(const char* name);
    ~ScopedSpan();
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

  private:
    Span span_;
    bool active_{false};
};

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (children clipped to the parent, overlapping
/// children counted once). Parallel to `spans`.
[[nodiscard]] std::vector<std::int64_t> self_times(const std::vector<Span>& spans);

struct NameTotals {
    std::uint64_t count{0};
    std::int64_t total_ns{0};
    std::int64_t self_ns{0};
};

/// Count, total and self time per span name.
[[nodiscard]] std::map<std::string, NameTotals> totals_by_name(
    const std::vector<Span>& spans);

/// Sum of the self times of every span at or below a span named `root`,
/// as a share of the summed durations of the `root` spans. 1.0 when the
/// spans under each root nest inside it; 0 when there is no such root.
[[nodiscard]] double subtree_self_coverage(const std::vector<Span>& spans,
                                           const std::string& root);

/// Writes one line per span: id, parent, name, start and end (ns).
void write_spans(std::ostream& out, const std::vector<Span>& spans);

}  // namespace perfbench
