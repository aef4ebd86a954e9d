#pragma once
// Seeded input generators. Everything the program sees — scenario
// documents and daemon request bodies with their arrival times — is made
// here from the benchmark's --seed, and the same seed always gives
// byte-identical inputs (the self-test checks it). The generators use
// their own SplitMix64 stream, not the library's RNG, so a change to the
// program's random numbers never changes the benchmark's inputs.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class SplitMix64 {
public:
    explicit SplitMix64(std::uint64_t seed) : s_(seed) {}
    std::uint64_t next();
    /// Uniform in [0, 1).
    double uniform();
    double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

private:
    std::uint64_t s_;
};

/// Fig 9-shaped ber_surface scenario: 13 x 7 grid over SJ frequency x SJ
/// amplitude plus a 13-frequency JTOL contour at 1e-12; the seed jitters
/// the axis ranges and the Table 1 jitter budget by +-10%.
[[nodiscard]] std::string ber_surface_doc(std::uint64_t seed);

/// Two-task scenario: a health_probe over a homogeneous 16-lane PRBS7
/// netlist (seeded start offsets and wire skews) and a differential task
/// (importance sampling plus behavioral direct MC) at a seeded SJ point
/// whose BER keeps both legs running.
[[nodiscard]] std::string lane_sim_doc(std::uint64_t seed);

// --- serve_mix --------------------------------------------------------------

/// Request classes in increasing order of expected latency. A repeated
/// spec is a kHit whatever its job type; the others are first sends.
enum class ReqClass { kHit, kBer, kScenario, kEye, kSweep, kMc };
inline constexpr std::size_t kNumClasses = 6;
[[nodiscard]] const char* class_name(ReqClass c);

/// Shares of the ladder steps' traffic, indexed by ReqClass (sum 1).
[[nodiscard]] const std::vector<double>& serve_mix_shares();

struct Step {
    std::string name;
    double rate_rps = 0.0;
    double t0_s = 0.0;  ///< step start, seconds after the schedule start
    double t1_s = 0.0;
    bool ladder = false;   ///< counts for max_ok_rps (warm-up does not)
    bool nominal = false;  ///< the step req_p50_ms / req_p95_ms come from
    std::size_t first = 0; ///< index of its first request
    std::size_t count = 0;
};

struct Request {
    double due_s = 0.0;  ///< seconds after the schedule start
    ReqClass cls = ReqClass::kHit;
    std::size_t spec = 0;  ///< index into Schedule::specs
};

struct Schedule {
    std::vector<std::string> specs;       ///< request bodies, first-send order
    std::vector<Request> requests;        ///< in due order
    std::vector<Step> steps;
};

/// Minimum age of a spec before it may be repeated as a cache read.
inline constexpr double kRepeatAgeS = 2.0;

/// The open-loop schedule for a run of `seconds`: a warm-up of first
/// sends, then the rate ladder. Arrivals are Poisson within each step
/// (a fixed count per step, uniformly spread), classes follow
/// serve_mix_shares() exactly in every block of 200 requests, and every
/// hit repeats a spec
/// first sent at least kRepeatAgeS earlier.
[[nodiscard]] Schedule serve_schedule(std::uint64_t seed, double seconds);

}  // namespace perfbench
