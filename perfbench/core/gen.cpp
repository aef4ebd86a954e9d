#include "core/gen.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>

namespace perfbench {

std::uint64_t SplitMix64::next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

double SplitMix64::uniform() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

namespace {

std::string num(double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.6g", v);
    return buf;
}

/// Table 1 jitter budget (DJ 0.4 UIpp, RJ 0.021 UIrms, CKJ 0.01 UIrms),
/// each scaled by its own factor in [0.9, 1.1], as JSON members.
std::string jittered_budget(SplitMix64& rng) {
    const double dj = 0.4 * rng.uniform(0.9, 1.1);
    const double rj = 0.021 * rng.uniform(0.9, 1.1);
    const double ckj = 0.01 * rng.uniform(0.9, 1.1);
    return "\"dj_uipp\": " + num(dj) + ", \"rj_uirms\": " + num(rj) +
           ", \"ckj_uirms\": " + num(ckj);
}

std::string logspace(double from, double to, int points) {
    return "\"logspace\": {\"from\": " + num(from) + ", \"to\": " +
           num(to) + ", \"points\": " + std::to_string(points) + "}";
}

/// A netlist of `lanes` identical channels, each driven by its own PRBS7
/// source with a seeded start offset and wire skew.
std::string netlist(SplitMix64& rng, int lanes, int bits) {
    std::string inst, wires;
    for (int i = 0; i < lanes; ++i) {
        const std::string k = std::to_string(i);
        inst += "\"src" + k + "\": {\"kind\": \"source\", \"bits\": " +
                std::to_string(bits) + ", \"prbs\": 7, \"start_ns\": " +
                num(rng.uniform(4.0, 6.0)) + "}, ";
        inst += "\"lane" + k +
                "\": {\"kind\": \"channel\", \"f_osc_hz\": 2.5e9, "
                "\"ckj_uirms\": 0.01}";
        if (i + 1 < lanes) inst += ", ";
        wires += "{\"from\": \"src" + k + ".out\", \"to\": \"lane" + k +
                 ".din\", \"skew_ps\": " + num(rng.uniform(0.0, 150.0)) + "}";
        if (i + 1 < lanes) wires += ", ";
    }
    return "{\"instances\": {" + inst + "}, \"wires\": [" + wires + "]}";
}

}  // namespace

std::string ber_surface_doc(std::uint64_t seed) {
    SplitMix64 rng(seed ^ 0xbe5f0ace5ull);
    // One factor scales every jitter term and the PDF grid step together:
    // the seed changes the BER values while the PDFs keep their size in
    // grid bins, so every seed costs the same work.
    const double f = rng.uniform(0.9, 1.1);
    const std::string budget =
        "\"dj_uipp\": " + num(0.4 * f) + ", \"rj_uirms\": " + num(0.021 * f) +
        ", \"ckj_uirms\": " + num(0.01 * f) +
        ", \"trigger_mismatch_uirms\": " + num(0.01 * f) +
        ", \"grid_dx\": " + num(0.001 * f);
    const double f_lo = 1e-4 * rng.uniform(0.9, 1.1);
    const double f_hi = 0.5 * rng.uniform(0.9, 1.1);
    const double a_scale = rng.uniform(0.9, 1.1);
    std::string amps;
    const double base_amps[] = {0.1, 0.2, 0.35, 0.5, 0.7, 1.0, 1.5};
    for (double a : base_amps) {
        if (!amps.empty()) amps += ", ";
        amps += num(a * a_scale);
    }
    // The contour starts at 2e-4 (Fig 9: 1e-4) so that its lowest point
    // stays below the 100 UIpp search cap for every seed: a capped point
    // skips its bisection, and the work would then depend on the seed.
    const double j_lo = 2e-4 * rng.uniform(0.9, 1.1);
    const double j_hi = 0.5 * rng.uniform(0.9, 1.1);
    return "{\"schema\": \"gcdr.scenario/v1\", \"name\": \"pb_ber_surface\", "
           "\"model\": {" + budget + "}, "
           "\"tasks\": [{\"kind\": \"ber_surface\", \"prefix\": \"surf\", "
           "\"axes\": [{\"name\": \"sj_freq_norm\", " +
           logspace(f_lo, f_hi, 13) +
           "}, {\"name\": \"sj_uipp\", \"values\": [" + amps + "]}], "
           "\"jtol\": {\"freqs\": {" + logspace(j_lo, j_hi, 13) + "}" +
           ", \"ber_target\": 1e-12, \"mask\": \"infiniband_2g5\"}}]}";
}

std::string lane_sim_doc(std::uint64_t seed) {
    SplitMix64 rng(seed ^ 0x1a9e5100ull);
    // SJ point of the differential task, around xval_sj030 (0.30 UIpp at
    // f/f_bit = 0.5): the statmodel BER stays within 7e-4..5e-3, above
    // behavioral_min_ber (3e-4), so both the IS and the behavioral leg
    // run, and low enough that 8192 behavioral runs never converge early.
    const double sj = rng.uniform(0.30, 0.34);
    const double fn = rng.uniform(0.45, 0.5);
    return "{\"schema\": \"gcdr.scenario/v1\", \"name\": \"pb_lane_sim\", "
           "\"model\": {\"grid_dx\": 0.001, \"sj_uipp\": " + num(sj) +
           ", \"sj_freq_norm\": " + num(fn) + "}, "
           "\"mc\": {\"max_evals\": 340000, \"target_rel_err\": 0.001}, "
           "\"netlist\": " + netlist(rng, 16, 20000) + ", "
           "\"tasks\": [{\"kind\": \"health_probe\", \"prefix\": \"lanes\", "
           "\"frames\": 8}, {\"kind\": \"differential\", \"prefix\": \"xval\", "
           "\"behavioral_runs\": 8192, \"behavioral_min_ber\": 0.0003, "
           "\"behavioral_tau\": 5.0}]}";
}

// --- serve_mix --------------------------------------------------------------

const char* class_name(ReqClass c) {
    switch (c) {
        case ReqClass::kHit: return "hit";
        case ReqClass::kBer: return "ber";
        case ReqClass::kScenario: return "scenario";
        case ReqClass::kEye: return "eye";
        case ReqClass::kSweep: return "sweep";
        case ReqClass::kMc: return "mc";
    }
    return "?";
}

const std::vector<double>& serve_mix_shares() {
    // hit, ber, scenario, eye, sweep, mc. Cumulative boundaries at 0.80,
    // 0.98, 0.985, 0.99, 0.995: p50 sits 30 points inside the hits and
    // p95 3 points inside the ber misses (the self-test checks the rule).
    // Cheap, frequent ber misses keep the workers' busy periods short:
    // a hit that finds both workers busy waits a few ms, a few hits wait
    // per busy period (so the four connections are rarely all taken),
    // and the share of hits that wait averages over thousands of busy
    // periods per run, which keeps hit_p95_ms steady.
    static const std::vector<double> shares = {0.80, 0.18, 0.005,
                                               0.005, 0.005, 0.005};
    return shares;
}

namespace {

// Ladder rates (requests/s): about 30%, 40% and 50% of the daemon's
// measured capacity (2 workers x 1 job thread, 4-core x86-64 box); see
// README.md.
constexpr double kWarmRps = 60.0;
constexpr double kWarmS = 2.5;
constexpr double kLadderRps[] = {260.0, 350.0, 440.0};
constexpr double kLadderShare[] = {0.20, 0.55, 0.25};
constexpr const char* kLadderName[] = {"low", "nominal", "high"};

std::string new_spec(SplitMix64& rng, ReqClass cls, std::uint64_t seed) {
    const std::string budget = jittered_budget(rng);
    const std::string tail = ", \"seed\": " + std::to_string(seed) + "}";
    switch (cls) {
        case ReqClass::kBer:
            return "{\"type\": \"ber\", \"config\": {" + budget +
                   ", \"sj_uipp\": " + num(rng.uniform(0.05, 0.4)) +
                   ", \"sj_freq_norm\": " + num(rng.uniform(0.05, 0.5)) +
                   "}" + tail;
        case ReqClass::kSweep: {
            const double a = rng.uniform(0.05, 0.15);
            const double f = rng.uniform(0.05, 0.25);
            return "{\"type\": \"sweep\", \"config\": {" + budget +
                   ", \"grid_dx\": 0.001}, \"axes\": [{\"name\": \"sj_uipp\", "
                   "\"values\": [" + num(a) + ", " + num(2 * a) + ", " +
                   num(3 * a) + "]}, {\"name\": \"sj_freq_norm\", \"values\": [" +
                   num(f) + ", " + num(f + 0.25) + "]}]" + tail;
        }
        case ReqClass::kMc:
            // One importance-sampling round (41 strata x 4096 draws); a
            // second would not fit the budget, so the cost is fixed.
            return "{\"type\": \"mc\", \"config\": {" + budget +
                   ", \"sj_uipp\": " + num(rng.uniform(0.25, 0.35)) +
                   ", \"sj_freq_norm\": " + num(rng.uniform(0.3, 0.5)) +
                   "}, \"mc\": {\"max_evals\": 170000, \"target_rel_err\": "
                   "0.01}" + tail;
        case ReqClass::kScenario:
            return "{\"type\": \"scenario\", \"scenario\": {\"schema\": "
                   "\"gcdr.scenario/v1\", \"name\": \"pb_serve_lanes\", "
                   "\"model\": {\"grid_dx\": 0.001, " + budget +
                   "}, \"netlist\": " + netlist(rng, 4, 1500) +
                   ", \"tasks\": [{\"kind\": \"netlist_run\", \"prefix\": "
                   "\"lanes\"}]}" + tail;
        case ReqClass::kEye:
            return "{\"type\": \"eye\", \"config\": {" + budget +
                   ", \"grid_dx\": 0.002}, \"ber_target\": 1e-12" + tail;
        case ReqClass::kHit:
            break;
    }
    return {};
}

/// `count` Poisson arrivals spread over [t0, t1): uniform order
/// statistics, drawn as normalized exponential gaps.
std::vector<double> arrivals(SplitMix64& rng, std::size_t count, double t0,
                             double t1) {
    std::vector<double> cum(count + 1);
    double acc = 0.0;
    for (double& c : cum) {
        acc += -std::log1p(-rng.uniform());
        c = acc;
    }
    std::vector<double> out(count);
    for (std::size_t k = 0; k < count; ++k) {
        out[k] = t0 + (t1 - t0) * cum[k] / acc;
    }
    return out;
}

/// Class of each of `count` requests: every block of kBlock consecutive
/// requests holds exactly round(share * kBlock) of each class (remainder
/// to hits) in seeded random order, so the mix, and with it the load the
/// misses put on the workers, is the same in every part of a step.
std::vector<ReqClass> class_sequence(SplitMix64& rng, std::size_t count,
                                     const std::vector<double>& shares) {
    constexpr std::size_t kBlock = 200;
    std::vector<ReqClass> seq;
    while (seq.size() < count) {
        std::vector<ReqClass> block;
        for (std::size_t c = 1; c < shares.size(); ++c) {
            const auto n = static_cast<std::size_t>(
                std::llround(shares[c] * static_cast<double>(kBlock)));
            block.insert(block.end(), n, static_cast<ReqClass>(c));
        }
        block.resize(kBlock, ReqClass::kHit);
        for (std::size_t i = block.size(); i > 1; --i) {
            std::swap(block[i - 1], block[rng.next() % i]);
        }
        seq.insert(seq.end(), block.begin(), block.end());
    }
    seq.resize(count);
    return seq;
}

}  // namespace

Schedule serve_schedule(std::uint64_t seed, double seconds) {
    SplitMix64 rng(seed ^ 0x5e77e1ull);
    Schedule s;
    // Warm-up: first sends only, in the ladder's miss proportions.
    std::vector<double> warm_shares = serve_mix_shares();
    const double miss_total = 1.0 - warm_shares[0];
    warm_shares[0] = 0.0;
    for (double& w : warm_shares) w /= miss_total;

    const double rest = std::max(seconds - kWarmS, 3.0);
    double t = 0.0;
    for (int k = -1; k < 3; ++k) {
        Step st;
        st.name = k < 0 ? "warmup" : kLadderName[k];
        st.rate_rps = k < 0 ? kWarmRps : kLadderRps[k];
        st.t0_s = t;
        st.t1_s = t + (k < 0 ? kWarmS : rest * kLadderShare[k]);
        st.ladder = k >= 0;
        st.nominal = k == 1;
        st.first = s.requests.size();
        st.count = static_cast<std::size_t>(
            std::llround(st.rate_rps * (st.t1_s - st.t0_s)));
        t = st.t1_s;
        const std::vector<double> due = arrivals(rng, st.count, st.t0_s, st.t1_s);
        const std::vector<ReqClass> cls = class_sequence(
            rng, st.count, k < 0 ? warm_shares : serve_mix_shares());
        std::size_t eligible = 0;  // specs first sent >= kRepeatAgeS ago
        std::vector<double> first_due;
        for (const Request& r : s.requests) {
            if (r.cls != ReqClass::kHit) first_due.push_back(r.due_s);
        }
        for (std::size_t i = 0; i < st.count; ++i) {
            Request r;
            r.due_s = due[i];
            r.cls = cls[i];
            while (eligible < first_due.size() &&
                   first_due[eligible] <= r.due_s - kRepeatAgeS) {
                ++eligible;
            }
            if (r.cls == ReqClass::kHit && eligible == 0) {
                r.cls = ReqClass::kBer;  // nothing old enough yet
            }
            if (r.cls == ReqClass::kHit) {
                r.spec = static_cast<std::size_t>(rng.next() % eligible);
            } else {
                r.spec = s.specs.size();
                s.specs.push_back(new_spec(rng, r.cls, seed));
                first_due.push_back(r.due_s);
            }
            s.requests.push_back(r);
        }
        s.steps.push_back(st);
    }
    return s;
}

}  // namespace perfbench
