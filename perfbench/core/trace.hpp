#pragma once
// Reading the spans of one traced window: the library's own spans
// (sweep.map, sweep.point, pdf.convolve, mc.is.round, mc.direct.round)
// and the benchmark's spans around each public entry-point call, all
// recorded into obs::SpanCollector::global().

#include <cstddef>
#include <string_view>
#include <vector>

#include "obs/trace_span.hpp"

namespace perfbench {

class SpanSet {
public:
    SpanSet() = default;
    explicit SpanSet(std::vector<gcdr::obs::SpanCollector::Span> spans)
        : spans_(std::move(spans)) {}

    /// Spans named `name` that start inside [lo, hi).
    [[nodiscard]] std::size_t count(std::string_view name, double lo,
                                    double hi) const;
    /// Summed durations of those spans (busy time across threads).
    [[nodiscard]] double busy(std::string_view name, double lo,
                              double hi) const;
    /// Wall time inside [lo, hi) covered by at least one span whose name
    /// starts with `prefix` (the union of their intervals, clipped).
    [[nodiscard]] double covered(std::string_view prefix, double lo,
                                 double hi) const;
    /// The first span named `name` starting inside [lo, hi); false if none.
    bool find(std::string_view name, double lo, double hi, double& t0,
              double& t1) const;

private:
    std::vector<gcdr::obs::SpanCollector::Span> spans_;
};

}  // namespace perfbench
