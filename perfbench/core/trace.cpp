#include "core/trace.hpp"

#include <algorithm>

namespace perfbench {

std::size_t SpanSet::count(std::string_view name, double lo, double hi) const {
    std::size_t n = 0;
    for (const auto& s : spans_) {
        n += s.name == name && s.t0_s >= lo && s.t0_s < hi;
    }
    return n;
}

double SpanSet::busy(std::string_view name, double lo, double hi) const {
    double total = 0.0;
    for (const auto& s : spans_) {
        if (s.name == name && s.t0_s >= lo && s.t0_s < hi) {
            total += s.t1_s - s.t0_s;
        }
    }
    return total;
}

double SpanSet::covered(std::string_view prefix, double lo, double hi) const {
    // spans_ is in start order (SpanCollector::merged), so one sweep
    // merges overlapping intervals.
    double total = 0.0, cur0 = 0.0, cur1 = -1.0;
    for (const auto& s : spans_) {
        if (std::string_view(s.name).substr(0, prefix.size()) != prefix) continue;
        const double a = std::max(s.t0_s, lo), b = std::min(s.t1_s, hi);
        if (b <= a) continue;
        if (a > cur1) {
            if (cur1 > cur0) total += cur1 - cur0;
            cur0 = a;
            cur1 = b;
        } else {
            cur1 = std::max(cur1, b);
        }
    }
    if (cur1 > cur0) total += cur1 - cur0;
    return total;
}

bool SpanSet::find(std::string_view name, double lo, double hi, double& t0,
                   double& t1) const {
    for (const auto& s : spans_) {
        if (s.name == name && s.t0_s >= lo && s.t0_s < hi) {
            t0 = s.t0_s;
            t1 = s.t1_s;
            return true;
        }
    }
    return false;
}

}  // namespace perfbench
