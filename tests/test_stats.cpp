// Tests for stats/: grid PDFs, moments, tails and convolution — the engine
// the statistical BER model relies on.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "stats/grid_pdf.hpp"
#include "util/mathx.hpp"
#include "util/rng.hpp"

namespace gcdr::stats {
namespace {

constexpr double kDx = 1e-3;

TEST(GridPdf, DiracHasUnitMassAtPoint) {
    const auto p = GridPdf::dirac(0.25, kDx);
    EXPECT_NEAR(p.mass(), 1.0, 1e-12);
    EXPECT_NEAR(p.mean(), 0.25, 1e-12);
    EXPECT_NEAR(p.variance(), 0.0, 1e-15);
}

TEST(GridPdf, UniformMoments) {
    const auto p = GridPdf::uniform(0.4, kDx);
    EXPECT_NEAR(p.mass(), 1.0, 1e-9);
    EXPECT_NEAR(p.mean(), 0.0, 1e-9);
    // Var of U(-0.2, 0.2) = (0.4)^2/12.
    EXPECT_NEAR(p.variance(), 0.4 * 0.4 / 12.0, 1e-4);
}

TEST(GridPdf, GaussianMomentsAndTails) {
    const double sigma = 0.021;
    const auto p = GridPdf::gaussian(sigma, kDx);
    EXPECT_NEAR(p.mass(), 1.0, 1e-9);
    EXPECT_NEAR(p.mean(), 0.0, 1e-9);
    EXPECT_NEAR(p.stddev(), sigma, 1e-4);
    // One-sided 3-sigma tail ~ Q(3) = 1.35e-3.
    EXPECT_NEAR(p.tail_above(3.0 * sigma), q_function(3.0), 2e-4);
    EXPECT_NEAR(p.tail_below(-3.0 * sigma), q_function(3.0), 2e-4);
}

TEST(GridPdf, GaussianDeepTailRepresentable) {
    // The 1e-12 BER integration depends on far-tail fidelity.
    const double sigma = 0.02;
    const auto p = GridPdf::gaussian(sigma, 1e-4);
    const double t7 = p.tail_above(7.0 * sigma);
    EXPECT_GT(t7, 1e-13);
    EXPECT_LT(t7, 1e-11);
}

TEST(GridPdf, ArcsineMomentsAndShape) {
    const double amp = 0.15;
    const auto p = GridPdf::arcsine(amp, kDx);
    EXPECT_NEAR(p.mass(), 1.0, 1e-9);
    EXPECT_NEAR(p.mean(), 0.0, 1e-9);
    // Var of arcsine on [-a, a] is a^2/2.
    EXPECT_NEAR(p.variance(), amp * amp / 2.0, 1e-4);
    // Density at the edges exceeds density at the center.
    const auto& d = p.density();
    EXPECT_GT(d.front(), d[d.size() / 2]);
    // Strictly bounded support.
    EXPECT_NEAR(p.tail_above(amp + 2 * kDx), 0.0, 1e-15);
}

TEST(GridPdf, FromSamplesRecoversMoments) {
    Rng rng(31);
    std::vector<double> xs;
    for (int i = 0; i < 100000; ++i) xs.push_back(rng.gaussian(1.0, 0.1));
    const auto p = GridPdf::from_samples(xs, 5e-3);
    EXPECT_NEAR(p.mass(), 1.0, 1e-9);
    EXPECT_NEAR(p.mean(), 1.0, 5e-3);
    EXPECT_NEAR(p.stddev(), 0.1, 5e-3);
}

TEST(GridPdf, ConvolutionAddsMeansAndVariances) {
    const auto u = GridPdf::uniform(0.4, kDx);
    const auto g = GridPdf::gaussian(0.03, kDx);
    auto c = u.convolve(g);
    EXPECT_NEAR(c.mass(), 1.0, 1e-6);
    EXPECT_NEAR(c.mean(), u.mean() + g.mean(), 1e-6);
    EXPECT_NEAR(c.variance(), u.variance() + g.variance(), 1e-5);
}

TEST(GridPdf, ConvolveTwoUniformsGivesTriangle) {
    const auto u = GridPdf::uniform(0.4, kDx);
    const auto tri = u.convolve(u);
    // Triangular on [-0.4, 0.4]: peak at center, zero past the ends.
    EXPECT_NEAR(tri.mean(), 0.0, 1e-9);
    EXPECT_NEAR(tri.variance(), 2.0 * 0.4 * 0.4 / 12.0, 2e-4);
    EXPECT_NEAR(tri.tail_above(0.41), 0.0, 1e-12);
    EXPECT_NEAR(tri.tail_below(-0.41), 0.0, 1e-12);
    // P(X < -0.2) for the triangle = 1/8.
    EXPECT_NEAR(tri.tail_below(-0.2), 0.125, 2e-3);
}

TEST(GridPdf, ShiftMovesSupport) {
    auto g = GridPdf::gaussian(0.01, kDx);
    g.shift(0.5);
    EXPECT_NEAR(g.mean(), 0.5, 1e-9);
    EXPECT_NEAR(g.tail_below(0.4), 0.0, 1e-12);
}

TEST(GridPdf, CdfIsMonotoneFromZeroToOne) {
    const auto g = GridPdf::gaussian(0.05, kDx);
    double prev = -1.0;
    for (double x = -0.3; x <= 0.3; x += 0.01) {
        const double c = g.cdf(x);
        EXPECT_GE(c, prev - 1e-12);
        EXPECT_GE(c, 0.0);
        EXPECT_LE(c, 1.0 + 1e-9);
        prev = c;
    }
    EXPECT_NEAR(g.cdf(0.0), 0.5, 2e-3);
}

// GridPdf::cdf before its O(log n) search, kept verbatim as the reference
// it must match bit for bit: a left-to-right scan over the bins, capped at
// mass() recomputed as (sum of densities) * dx.
double linear_scan_cdf(const GridPdf& p, double x) {
    if (p.empty()) return 0.0;
    const auto& d = p.density();
    const double dx = p.dx();
    double acc = 0.0;
    for (std::size_t i = 0; i < d.size(); ++i) {
        const double left = p.x_at(i) - dx / 2.0;
        if (x >= left + dx) {
            acc += d[i] * dx;
        } else if (x > left) {
            acc += d[i] * (x - left);
            break;
        } else {
            break;
        }
    }
    double sum = 0.0;
    for (double v : d) sum += v;
    return std::min(acc, sum * dx);
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

// cdf and tail_below against the linear scan at every bin edge (as the
// scan computes it), one ulp either side, every bin centre, beyond both
// ends of the support, at the infinities and at NaN.
void expect_cdf_matches_linear_scan(const GridPdf& p) {
    constexpr double kInf = std::numeric_limits<double>::infinity();
    std::vector<double> xs = {-kInf, kInf,
                              std::numeric_limits<double>::quiet_NaN()};
    const double dx = p.dx();
    const double first = p.x0() - dx / 2.0;
    const double last = p.x_at(p.empty() ? 0 : p.size() - 1) + dx / 2.0;
    for (double x : {first - 10.0 * dx, first - dx, last + dx,
                     last + 10.0 * dx}) {
        xs.push_back(x);
    }
    for (std::size_t i = 0; i < p.size(); ++i) {
        const double left = p.x_at(i) - dx / 2.0;
        for (double edge : {left, left + dx}) {
            xs.push_back(edge);
            xs.push_back(std::nextafter(edge, -kInf));
            xs.push_back(std::nextafter(edge, kInf));
        }
        xs.push_back(p.x_at(i));
    }
    for (double x : xs) {
        const double want = linear_scan_cdf(p, x);
        EXPECT_EQ(bits(p.cdf(x)), bits(want)) << "x = " << x;
        EXPECT_EQ(bits(p.tail_below(x)), bits(want)) << "x = " << x;
    }
    double sum = 0.0;
    for (double v : p.density()) sum += v;
    EXPECT_EQ(bits(p.mass()), bits(sum * dx));
}

TEST(GridPdf, CdfIsBitIdenticalToLinearScan) {
    {
        SCOPED_TRACE("dirac");
        expect_cdf_matches_linear_scan(GridPdf::dirac(0.25, kDx));
    }
    {
        SCOPED_TRACE("empty");
        expect_cdf_matches_linear_scan(GridPdf());
    }
    {
        SCOPED_TRACE("normalized, with zero bins");
        std::vector<double> d;
        for (int i = 0; i < 257; ++i) d.push_back(i % 7 == 3 ? 0.0 : 0.1 * i);
        GridPdf p{-0.1234, kDx, std::move(d)};
        expect_cdf_matches_linear_scan(p);
        p.normalize();
        expect_cdf_matches_linear_scan(p);
    }
    {
        SCOPED_TRACE("shifted by a non-multiple of dx");
        auto g = GridPdf::gaussian(0.02, kDx);
        g.shift(0.37 * kDx + 1e-9);
        expect_cdf_matches_linear_scan(g);
    }
    {
        SCOPED_TRACE("pruned convolution");
        const auto c = GridPdf::gaussian(0.02, kDx)
                           .convolve(GridPdf::uniform(0.1, kDx), 1e-18);
        expect_cdf_matches_linear_scan(c);
    }
}

TEST(GridPdf, TailOutsideSplitsMass) {
    const auto u = GridPdf::uniform(1.0, kDx);
    EXPECT_NEAR(u.tail_outside(-0.25, 0.25), 0.5, 5e-3);
}

TEST(GridPdf, ConvolveAllHandlesDiracsAndEmpties) {
    std::vector<GridPdf> parts;
    parts.push_back(GridPdf::dirac(0.1, kDx));
    parts.push_back(GridPdf());  // empty: skipped
    parts.push_back(GridPdf::gaussian(0.02, kDx));
    parts.push_back(GridPdf::dirac(-0.3, kDx));
    const auto c = convolve_all(parts, kDx);
    EXPECT_NEAR(c.mean(), 0.1 - 0.3, 1e-6);
    EXPECT_NEAR(c.stddev(), 0.02, 1e-4);
    EXPECT_NEAR(c.mass(), 1.0, 1e-6);
}

TEST(GridPdf, ConvolveAllOfNothingIsDiracAtZero) {
    const auto c = convolve_all({}, kDx);
    EXPECT_NEAR(c.mass(), 1.0, 1e-12);
    EXPECT_NEAR(c.mean(), 0.0, 1e-12);
}

TEST(GridPdf, FftAndDirectPathsAgree) {
    // Large operands trigger the FFT path; compare against direct conv of
    // the same data through small slices of the API.
    const auto a = GridPdf::gaussian(0.3, 1e-4);   // ~ 6000 bins
    const auto b = GridPdf::uniform(0.5, 1e-4);    // ~ 5000 bins
    ASSERT_GT(a.size(), 2048u);
    ASSERT_GT(b.size(), 2048u);
    const auto c = a.convolve(b);
    EXPECT_NEAR(c.mass(), 1.0, 1e-6);
    EXPECT_NEAR(c.variance(), a.variance() + b.variance(), 1e-4);
    // No negative densities leaked from FFT rounding.
    for (double v : c.density()) EXPECT_GE(v, 0.0);
}

TEST(GridPdf, ConvolvePruneFloorTrimsOnlySubFloorTails) {
    const auto g = GridPdf::gaussian(0.02, kDx);   // tails reach ~1e-19
    const auto u = GridPdf::uniform(0.1, kDx);
    const auto full = g.convolve(u);               // default: no pruning
    const auto pruned = g.convolve(u, 1e-18);
    // Support shrinks, bulk statistics don't.
    ASSERT_LT(pruned.size(), full.size());
    EXPECT_NEAR(pruned.mass(), full.mass(), 1e-15);
    EXPECT_NEAR(pruned.mean(), full.mean(), 1e-12);
    EXPECT_NEAR(pruned.stddev(), full.stddev(), 1e-12);
    // x0 shifted by exactly the trimmed leading bins, so surviving bins
    // sit at identical positions with identical densities.
    const auto offset = static_cast<std::size_t>(
        std::round((pruned.x0() - full.x0()) / kDx));
    ASSERT_GT(offset, 0u);
    for (std::size_t i = 0; i < pruned.size(); ++i) {
        EXPECT_EQ(pruned.density()[i], full.density()[i + offset]);
        EXPECT_GE(pruned.density()[i] + 1.0, 1.0);  // finite, non-NaN
    }
    // Every trimmed bin really was below the floor.
    for (std::size_t i = 0; i < offset; ++i) {
        EXPECT_LT(full.density()[i], 1e-18);
    }
    // Interior bins stay even if pruning is requested with a huge floor:
    // the result never collapses below one bin.
    const auto extreme = g.convolve(u, 1e100);
    EXPECT_GE(extreme.size(), 1u);
}

TEST(GridPdf, ConvolvePruneFloorDefaultOffIsBitIdentical) {
    // prune_floor = 0 must take the historical path exactly: same support,
    // same bits, so seeded statmodel outputs cannot move.
    const auto g = GridPdf::gaussian(0.015, kDx);
    const auto u = GridPdf::uniform(0.2, kDx);
    const auto a = g.convolve(u);
    const auto b = g.convolve(u, 0.0);
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(a.x0(), b.x0());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a.density()[i], b.density()[i]);
    }
}

TEST(GridPdf, ConvolveAllForwardsPruneFloor) {
    std::vector<GridPdf> parts;
    parts.push_back(GridPdf::gaussian(0.02, kDx));
    parts.push_back(GridPdf::uniform(0.1, kDx));
    parts.push_back(GridPdf::gaussian(0.01, kDx));
    const auto full = convolve_all(parts, kDx);
    const auto pruned = convolve_all(parts, kDx, 1e-18);
    ASSERT_LT(pruned.size(), full.size());
    EXPECT_NEAR(pruned.mass(), full.mass(), 1e-14);
    // Tail integrals above the measurement floor are unaffected.
    const double x = full.mean() + 6.0 * full.stddev();
    EXPECT_NEAR(pruned.tail_above(x), full.tail_above(x),
                1e-15 + 1e-9 * full.tail_above(x));
}

TEST(GridPdf, TripleConvolutionMatchesAnalyticGaussian) {
    // Sum of three Gaussians is Gaussian with summed variances; check a
    // far-tail value against the closed form.
    const auto g1 = GridPdf::gaussian(0.01, 2e-4);
    const auto g2 = GridPdf::gaussian(0.02, 2e-4);
    const auto g3 = GridPdf::gaussian(0.02, 2e-4);
    const auto c = g1.convolve(g2).convolve(g3);
    const double sigma = std::sqrt(0.01 * 0.01 + 2 * 0.02 * 0.02);
    const double tail = c.tail_below(-5.0 * sigma);
    EXPECT_NEAR(tail / q_function(5.0), 1.0, 0.05);
}

}  // namespace
}  // namespace gcdr::stats
