// perfbench: the repo benchmark's workload binary. perfbench/run.py builds
// and runs it; see perfbench/README.md for the workloads and metrics.
//
//   perfbench --workload ber_surface|lane_sim|serve_mix --seed N
//             --seconds S --trace 0|1 --goldens FILE --workdir DIR
//   perfbench --digest --workload W --seed N --seconds S
//
// Prints one "name value unit" line per metric, the output-check notes,
// and, last, the JSON result line. Exits 1 when an output check failed.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>

#include "core/digest.hpp"
#include "core/result.hpp"
#include "obs/log.hpp"
#include "util/hash.hpp"

using namespace perfbench;

namespace {

int usage(const char* why) {
    std::fprintf(stderr, "perfbench: %s\n", why);
    return 2;
}

void print_metric(const char* name, double value, const char* unit) {
    std::printf("  %-30s %16.6f %s\n", name, value, unit);
}

}  // namespace

int main(int argc, char** argv) {
    Options o;
    bool digest_only = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const bool has_value = i + 1 < argc;
        if (a == "--digest") {
            digest_only = true;
        } else if (a == "--workload" && has_value) {
            o.workload = argv[++i];
        } else if (a == "--seed" && has_value) {
            o.seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (a == "--seconds" && has_value) {
            o.seconds = std::atoi(argv[++i]);
        } else if (a == "--trace" && has_value) {
            o.trace = std::strcmp(argv[++i], "0") != 0;
        } else if (a == "--goldens" && has_value) {
            o.goldens_path = argv[++i];
        } else if (a == "--workdir" && has_value) {
            o.workdir = argv[++i];
        } else {
            return usage(("unknown argument " + a).c_str());
        }
    }
    const bool batch = o.workload == "ber_surface" || o.workload == "lane_sim";
    if (!batch && o.workload != "serve_mix") return usage("unknown --workload");
    if (o.seconds < 1) return usage("--seconds must be >= 1");
    // The daemon access-logs every request at info level; keep the
    // benchmark's output to its own lines.
    gcdr::obs::Logger::global().set_level(gcdr::obs::LogLevel::kWarn);

    if (digest_only) {
        const std::uint64_t d = batch ? batch_digest(o) : serve_mix_digest(o);
        std::printf("%s %s\n", golden_key(o.workload, o.seed, o.seconds).c_str(),
                    gcdr::util::hash_hex(d).c_str());
        return d == 0 ? 1 : 0;
    }
    if (o.workdir.empty()) return usage("--workdir is required");

    std::map<std::string, std::uint64_t> goldens;
    if (!o.goldens_path.empty()) {
        std::string err;
        if (!load_goldens(o.goldens_path, goldens, err)) return usage(err.c_str());
    }

    RunResult r = batch ? run_batch(o, goldens) : run_serve_mix(o, goldens);

    const auto& defs = o.trace ? per_layer_metrics() : end_to_end_metrics();
    std::printf("%s seed %llu, %d s, %s\n", o.workload.c_str(),
                static_cast<unsigned long long>(o.seed), o.seconds,
                o.trace ? "traced (per-layer metrics)" : "untraced (end-to-end metrics)");
    for (const MetricDef& d : defs) print_metric(d.name, r.metrics[d.name], d.unit);
    const double failed_frac = r.attempted
                                   ? static_cast<double>(r.failed) /
                                         static_cast<double>(r.attempted)
                                   : 1.0;
    print_metric("failed_frac", failed_frac, "ratio");
    for (const std::string& n : r.notes) std::printf("  %s\n", n.c_str());

    std::string json = "{\"correct\": ";
    json += r.correct && r.failed == 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(r.attempted);
    json += ", \"failed\": " + std::to_string(r.failed);
    json += ", \"metrics\": {";
    bool first = true;
    for (const MetricDef& d : defs) {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.12g", r.metrics[d.name]);
        if (!first) json += ", ";
        first = false;
        json += "\"" + std::string(d.name) + "\": {\"value\": " + buf +
                ", \"unit\": \"" + d.unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return r.correct && r.failed == 0 ? 0 : 1;
}
