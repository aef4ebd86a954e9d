#pragma once
// What one benchmark run reports: the end-to-end metrics (tracing off),
// the per-layer metrics (traced run), and the outcome of its output
// checks. The metric name/unit tables mirror BENCHMARK.json; every
// workload prints every name, 0 where a layer does no work on it. The
// serve_mix latency percentiles are reported with the per-layer metrics,
// which carry no bound: on a shared VM they swing with host CPU steal
// far beyond any usable bound (see README.md).

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    int seconds = 10;
    bool trace = false;
    std::string goldens_path;
    std::string workdir;  ///< scratch space for the daemon's cache files
};

struct MetricDef {
    const char* name;
    const char* unit;
};

inline const std::vector<MetricDef>& end_to_end_metrics() {
    static const std::vector<MetricDef> defs = {
        {"setup_s", "s"},
        {"time_to_result_s", "s"},
        {"max_ok_rps", "req/s"},
        {"peak_rss_mb", "MB"},
    };
    return defs;
}

inline const std::vector<MetricDef>& per_layer_metrics() {
    static const std::vector<MetricDef> defs = {
        {"scenario.load_s", "s"},
        {"scenario.compile_s", "s"},
        {"scenario.payload_s", "s"},
        {"scenario.task_s.ber_surface", "s"},
        {"scenario.task_s.health_probe", "s"},
        {"scenario.task_s.differential", "s"},
        {"exec.items", "count"},
        {"exec.lane_busy_frac", "ratio"},
        {"statmodel.ber_points", "count"},
        {"statmodel.ber_points_per_s", "1/s"},
        {"statmodel.jtol_s", "s"},
        {"stats.convolves", "count"},
        {"stats.convolve_s", "s"},
        {"statmodel.tail_s", "s"},
        {"sim.lane_decisions", "count"},
        {"sim.decisions_per_s", "1/s"},
        {"health.frames", "count"},
        {"mc.is_samples", "count"},
        {"mc.is_ess_frac", "ratio"},
        {"mc.is_s", "s"},
        {"mc.direct_runs", "count"},
        {"mc.direct_s", "s"},
        {"mc.direct_runs_per_s", "1/s"},
        {"req_p50_ms", "ms"},
        {"req_p95_ms", "ms"},
        {"hit_p95_ms", "ms"},
        {"serve.parse_us", "us"},
        {"serve.key_us", "us"},
        {"serve.queue_wait_p50_ms", "ms"},
        {"serve.queue_wait_p95_ms", "ms"},
        {"serve.request_p95_ms", "ms"},
        {"serve.transport_p50_ms", "ms"},
        {"serve.cache_hit_ratio", "ratio"},
        {"serve.miss_p50_ms.ber", "ms"},
        {"serve.miss_p50_ms.eye", "ms"},
        {"serve.miss_p50_ms.sweep", "ms"},
        {"serve.miss_p50_ms.mc", "ms"},
        {"serve.miss_p50_ms.scenario", "ms"},
        {"loadgen.sent", "count"},
        {"loadgen.late_p95_ms", "ms"},
        {"unattributed_frac", "ratio"},
        {"trace.overhead_frac", "ratio"},
    };
    return defs;
}

struct RunResult {
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::map<std::string, double> metrics;  ///< end-to-end and per-layer
    std::vector<std::string> notes;         ///< human-readable lines

    void fail(const std::string& why) {
        correct = false;
        notes.push_back("FAIL: " + why);
    }
};

/// Digest-only mode: compute the workload's payload digest for one seed
/// without timing anything (used to write goldens.txt).
std::uint64_t batch_digest(const Options& o);
std::uint64_t serve_mix_digest(const Options& o);

RunResult run_batch(const Options& o,
                    const std::map<std::string, std::uint64_t>& goldens);
RunResult run_serve_mix(const Options& o,
                        const std::map<std::string, std::uint64_t>& goldens);

}  // namespace perfbench
