#include "harness/trace.hpp"

#include <algorithm>
#include <unordered_map>
#include <utility>

namespace perfbench {

namespace {

/// Ids of the spans open on this thread, innermost last.
thread_local std::vector<std::uint64_t> open_spans;

}  // namespace

Tracer& Tracer::global() {
    static Tracer tracer;
    return tracer;
}

std::vector<Span> Tracer::take() {
    const std::lock_guard<std::mutex> lock(mu_);
    return std::exchange(spans_, {});
}

ScopedSpan::ScopedSpan(const char* name) {
    Tracer& tracer = Tracer::global();
    if (!tracer.enabled()) return;
    active_ = true;
    span_.name = name;
    span_.id = tracer.next_id_.fetch_add(1, std::memory_order_relaxed);
    span_.parent = open_spans.empty() ? 0 : open_spans.back();
    open_spans.push_back(span_.id);
    span_.start_ns = now_ns();
}

ScopedSpan::~ScopedSpan() {
    if (!active_) return;
    span_.end_ns = now_ns();
    open_spans.pop_back();
    Tracer& tracer = Tracer::global();
    const std::lock_guard<std::mutex> lock(tracer.mu_);
    tracer.spans_.push_back(span_);
}

std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
    std::unordered_map<std::uint64_t, std::size_t> index;
    index.reserve(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) index.emplace(spans[i].id, i);

    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(spans.size());
    for (const Span& s : spans) {
        const auto it = index.find(s.parent);
        if (s.parent == 0 || it == index.end()) continue;
        const Span& p = spans[it->second];
        const std::int64_t lo = std::max(s.start_ns, p.start_ns);
        const std::int64_t hi = std::min(s.end_ns, p.end_ns);
        if (hi > lo) children[it->second].emplace_back(lo, hi);
    }

    std::vector<std::int64_t> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        auto& kids = children[i];
        std::sort(kids.begin(), kids.end());
        std::int64_t covered = 0;
        std::int64_t run_lo = 0;
        std::int64_t run_hi = 0;
        bool open = false;
        for (const auto& [lo, hi] : kids) {
            if (open && lo <= run_hi) {
                run_hi = std::max(run_hi, hi);
                continue;
            }
            if (open) covered += run_hi - run_lo;
            run_lo = lo;
            run_hi = hi;
            open = true;
        }
        if (open) covered += run_hi - run_lo;
        self[i] = (spans[i].end_ns - spans[i].start_ns) - covered;
    }
    return self;
}

std::map<std::string, NameTotals> totals_by_name(const std::vector<Span>& spans) {
    const std::vector<std::int64_t> self = self_times(spans);
    std::map<std::string, NameTotals> totals;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        NameTotals& t = totals[spans[i].name];
        t.count += 1;
        t.total_ns += spans[i].end_ns - spans[i].start_ns;
        t.self_ns += self[i];
    }
    return totals;
}

double subtree_self_coverage(const std::vector<Span>& spans, const std::string& root) {
    std::unordered_map<std::uint64_t, std::size_t> index;
    index.reserve(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) index.emplace(spans[i].id, i);
    const std::vector<std::int64_t> self = self_times(spans);

    std::int64_t root_total = 0;
    std::int64_t covered = 0;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        if (spans[i].name == root) {
            root_total += spans[i].end_ns - spans[i].start_ns;
        }
        // Walk up to the first ancestor named `root`, if any.
        for (std::size_t at = i;;) {
            if (spans[at].name == root) {
                covered += self[i];
                break;
            }
            const auto it = index.find(spans[at].parent);
            if (spans[at].parent == 0 || it == index.end()) break;
            at = it->second;
        }
    }
    return root_total > 0 ? static_cast<double>(covered) / static_cast<double>(root_total)
                          : 0.0;
}

void write_spans(std::ostream& out, const std::vector<Span>& spans) {
    out << "id\tparent\tname\tstart_ns\tend_ns\n";
    for (const Span& s : spans) {
        out << s.id << '\t' << s.parent << '\t' << s.name << '\t' << s.start_ns << '\t'
            << s.end_ns << '\n';
    }
}

}  // namespace perfbench
