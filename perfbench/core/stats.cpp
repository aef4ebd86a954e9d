#include "core/stats.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

double quantile(std::vector<double> v, double q) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = std::clamp(q, 0.0, 1.0) *
                       static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return v[lo] + frac * (v[hi] - v[lo]);
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double windowed_quantile(const std::vector<double>& v, double q,
                         std::size_t window) {
    if (v.size() < 2 * window) return quantile(v, q);
    std::vector<double> per_window;
    for (std::size_t i = 0; i + window <= v.size(); i += window) {
        per_window.push_back(quantile(
            std::vector<double>(v.begin() + static_cast<std::ptrdiff_t>(i),
                                v.begin() + static_cast<std::ptrdiff_t>(i + window)),
            q));
    }
    return median(per_window);
}

bool tail_supported(std::size_t n, double q) {
    // Round away float noise: 200 * (1 - 0.95) must count as 10.
    const double beyond = static_cast<double>(n) * (1.0 - q);
    return beyond + 1e-9 >= static_cast<double>(kMinTail);
}

bool percentiles_clear_of_boundaries(const std::vector<double>& shares,
                                     const std::vector<double>& percentiles,
                                     double margin) {
    double total = 0.0;
    for (double s : shares) {
        if (!(s > 0.0)) return false;
        total += s;
    }
    if (std::abs(total - 1.0) > 1e-9) return false;
    double boundary = 0.0;
    for (std::size_t i = 0; i + 1 < shares.size(); ++i) {
        boundary += shares[i];
        for (double p : percentiles) {
            if (std::abs(p - boundary) < margin - 1e-12) return false;
        }
    }
    return true;
}

}  // namespace perfbench
