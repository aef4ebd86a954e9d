#pragma once
// Order statistics and the two sampling rules the benchmark reports by:
//   - a percentile is reported only with at least kMinTail samples beyond
//     it (p95 needs >= 200 samples);
//   - a traffic mix must keep each reported percentile at least a margin
//     away from every boundary between latency classes, so the percentile
//     never flips from one class (hit, ber miss, eye miss, ...) to the
//     next between runs.

#include <cstddef>
#include <vector>

namespace perfbench {

inline constexpr std::size_t kMinTail = 10;

/// q-quantile (q in [0,1]) by linear interpolation between order
/// statistics (the "type 7" definition). 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] double median(const std::vector<double>& v);

/// Median over consecutive windows of `window` samples (in time order;
/// a short last window is dropped unless it is the only one) of each
/// window's q-quantile. A burst of host noise then moves a few windows,
/// not the result. Each window must itself satisfy tail_supported.
[[nodiscard]] double windowed_quantile(const std::vector<double>& v, double q,
                                       std::size_t window);

/// True when n samples leave at least kMinTail beyond the q-quantile.
[[nodiscard]] bool tail_supported(std::size_t n, double q);

/// Class-boundary rule. `shares` are the classes' shares of all requests
/// in increasing order of expected latency (they must sum to 1); every
/// percentile in `percentiles` (fractions, e.g. 0.5 and 0.95) must sit at
/// least `margin` away from each interior cumulative boundary.
[[nodiscard]] bool percentiles_clear_of_boundaries(
    const std::vector<double>& shares, const std::vector<double>& percentiles,
    double margin = 0.03);

}  // namespace perfbench
