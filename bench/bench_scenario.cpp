// Declarative-scenario runner: load a gcdr.scenario/v1 config
// (--scenario FILE), validate it, compile it onto the existing object
// graph and execute its tasks. This is the one bench path for the
// workloads scenarios describe (Fig 8, Fig 9, the baseline-architecture
// JTOL comparison, ...): CI diffs each committed scenario's --json report
// against its golden bench/reports/BENCH_scenario_<name>.json with
// scripts/bench_diff.py --require-identical-counters.
//
//   bench_scenario --scenario scenarios/fig9_ber_sj.json --json out.json
//   bench_scenario --fuzz-seed 42        # scenario::random_valid(42)
//   bench_scenario --scenario f.json --print-resolved   # canonical form
//
// Without --quiet, ber_surface and baseline_jtol tasks print the paper's
// tables (log10(BER) grid, JTOL vs mask, architecture comparison) from
// their deterministic TaskResult series.
// --check exits nonzero when any task gate fails (differential
// disagreement, JTOL mask violation, unlocked netlist channel).
// Validation failures print every diagnostic (file:line:col) and exit 2.

#include <cstdio>
#include <cstring>
#include <string>

#include "bench_common.hpp"
#include "masks/jtol_mask.hpp"
#include "scenario/compile.hpp"
#include "scenario/fuzz.hpp"
#include "scenario/run.hpp"
#include "scenario/scenario_doc.hpp"
#include "util/hash.hpp"
#include "util/units.hpp"

using namespace gcdr;

namespace {

const std::vector<double>& series(const scenario::TaskResult& r,
                                  const std::string& name) {
    static const std::vector<double> kNone;
    for (const auto& [key, values] : r.series) {
        if (key == name) return values;
    }
    return kNone;
}

// Rows are the grid's leading axes (row-major, last axis fastest), columns
// the last axis: for Fig 9, SJ frequency rows by SJ amplitude columns.
void print_ber_surface(const scenario::TaskSpec& task,
                       const scenario::TaskResult& r) {
    const std::vector<double>& ber = series(r, "ber");
    const std::size_t lead = task.axes.size() - 1;
    const std::vector<double>& cols = task.axes.back().values;
    std::string title = "log10(BER) surface (";
    for (std::size_t a = 0; a < lead; ++a) {
        title += (a ? " x " : "rows: ") + task.axes[a].name;
    }
    bench::section(title + (lead ? ", cols: " : "cols: ") +
                   task.axes.back().name + ")");
    std::printf("%*s", static_cast<int>(10 * lead), "");
    for (double v : cols) std::printf(" %6.3g", v);
    std::printf("\n");
    for (std::size_t row = 0; row * cols.size() < ber.size(); ++row) {
        std::vector<double> coords(lead);
        for (std::size_t a = lead, rem = row; a-- > 0;) {
            const std::vector<double>& vals = task.axes[a].values;
            coords[a] = vals[rem % vals.size()];
            rem /= vals.size();
        }
        for (double c : coords) std::printf("%10.2e", c);
        for (std::size_t c = 0; c < cols.size(); ++c) {
            std::printf(" %s",
                        bench::log_ber(ber[row * cols.size() + c]).c_str());
        }
        std::printf("\n");
    }
    if (!task.has_jtol) return;

    const std::vector<double>& tol = series(r, "jtol_uipp");
    const bool masked = task.jtol.mask != "none";
    const auto mask = masks::JtolMask::infiniband_2g5();
    char buf[96];
    std::snprintf(buf, sizeof buf, "JTOL contour at BER = %g%s",
                  task.jtol.ber_target,
                  masked ? " vs InfiniBand mask" : "");
    bench::section(buf);
    std::printf("%10s %14s %12s", "f/fd", "freq [Hz]", "JTOL [UIpp]");
    if (masked) std::printf(" %12s %6s", "mask [UIpp]", "OK?");
    std::printf("\n");
    for (std::size_t i = 0; i < tol.size(); ++i) {
        const double f_hz = task.jtol.freqs[i] * kPaperRate.bits_per_second();
        std::printf("%10.2e %14.4g %12.3f", task.jtol.freqs[i], f_hz, tol[i]);
        if (masked) {
            const double need = mask.amplitude_at(f_hz);
            std::printf(" %12.3f %6s", need, tol[i] >= need ? "yes" : "NO");
        }
        std::printf("\n");
    }
}

void print_baseline_jtol(const scenario::TaskSpec& task,
                         const scenario::TaskResult& r) {
    const std::vector<double>& go = series(r, "jtol_gated_osc_uipp");
    const std::vector<double>& bb = series(r, "jtol_bang_bang_uipp");
    const std::vector<double>& pi = series(r, "jtol_phase_int_uipp");
    const auto mask = masks::JtolMask::infiniband_2g5();
    char buf[96];
    std::snprintf(buf, sizeof buf,
                  "jitter tolerance [UIpp] at BER %g (cap %g UIpp)",
                  task.ber_target, task.amp_cap);
    bench::section(buf);
    std::printf("%10s %12s %12s %12s %12s\n", "f/fd", "gated-osc",
                "bang-bang", "phase-int", "IB mask");
    for (std::size_t i = 0; i < go.size(); ++i) {
        const double fn = task.jtol_freqs[i];
        std::printf("%10.2e %12.3f %12.3f %12.3f %12.3f\n", fn, go[i], bb[i],
                    pi[i],
                    mask.amplitude_at(fn * kPaperRate.bits_per_second()));
    }
    if (task.offsets.empty()) return;

    const std::vector<double>& gb = series(r, "offset_gated_osc_ber");
    const std::vector<double>& be = series(r, "offset_bang_bang_errors");
    const std::vector<double>& pe = series(r, "offset_phase_int_errors");
    std::snprintf(buf, sizeof buf,
                  "frequency-offset sensitivity (no SJ), errors per %llu bits",
                  static_cast<unsigned long long>(task.offset_bits));
    bench::section(buf);
    std::printf("%10s %12s %12s %12s\n", "offset", "gated-osc*",
                "bang-bang", "phase-int");
    for (std::size_t i = 0; i < gb.size(); ++i) {
        std::printf("%9.2f%% %12s %12.0f %12.0f\n", task.offsets[i] * 100,
                    bench::log_ber(gb[i]).c_str(), be[i], pe[i]);
    }
    std::printf("* statistical-model log10(BER), not an error count.\n");
}

}  // namespace

int main(int argc, char** argv) {
    auto opts = bench::Options::parse(argc, argv);
    bool check = false;
    bool print_resolved = false;
    bool have_fuzz_seed = false;
    std::uint64_t fuzz_seed = 0;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--check") == 0) check = true;
        if (std::strcmp(argv[i], "--print-resolved") == 0) {
            print_resolved = true;
        }
        if (std::strcmp(argv[i], "--fuzz-seed") == 0 && i + 1 < argc) {
            have_fuzz_seed = true;
            fuzz_seed = std::strtoull(argv[++i], nullptr, 10);
        }
    }
    if (opts.scenario_path.empty() && !have_fuzz_seed) {
        std::fprintf(stderr,
                     "usage: bench_scenario --scenario FILE [--check] "
                     "[--print-resolved] | --fuzz-seed N\n");
        return 2;
    }

    scenario::ScenarioDoc doc;
    std::string source_name;
    if (have_fuzz_seed) {
        doc = scenario::random_valid(fuzz_seed);
        source_name = "<fuzz:" + std::to_string(fuzz_seed) + ">";
    } else {
        std::vector<scenario::Diagnostic> diags;
        if (!scenario::scenario_from_file(opts.scenario_path, doc,
                                          diags)) {
            for (const auto& d : diags) {
                std::fprintf(stderr, "%s\n", d.render().c_str());
            }
            std::fprintf(stderr, "%zu diagnostic(s); scenario rejected\n",
                         diags.size());
            return 2;
        }
        source_name = opts.scenario_path;
    }
    const std::uint64_t hash = scenario::scenario_hash(doc);
    const std::string hash_hex = util::hash_hex(hash);
    if (print_resolved) {
        std::printf("%s\n", scenario::resolved_json(doc).c_str());
        return 0;
    }

    bench::RunReport report(opts, "scenario_" + doc.name,
                            doc.title.empty() ? "declarative scenario run"
                                              : doc.title);
    report.set_scenario(source_name, hash_hex);
    // Workload identity for ledger trend keys: the scenario name + config
    // hash, so two runs of a changed file never share a key.
    report.set_config("--scenario " + doc.name + "#" + hash_hex);
    auto& reg = report.metrics();
    auto& pool = report.pool();
    if (!opts.quiet) {
        bench::header("Scenario",
                      doc.name + " (config " + hash_hex + ")");
        std::printf("[%zu task(s), pool: %zu lane(s), seed %llu]\n",
                    doc.tasks.size(), pool.size(),
                    static_cast<unsigned long long>(report.seed()));
    }

    scenario::ScenarioContext ctx;
    ctx.metrics = &reg;
    ctx.pool = &pool;
    ctx.seed = report.seed();
    ctx.verbose = !opts.quiet;
    ctx.flight = report.flight();
    const scenario::ScenarioResult result =
        scenario::run_scenario(doc, ctx);
    for (const auto& t : result.tasks) {
        // A health_probe task's final snapshot becomes the report's (and
        // ledger record's) "health" block.
        if (!t.health_json.empty()) report.set_health_json(t.health_json);
    }

    // No scenario.* summary gauges: a run must carry exactly its golden
    // report's metric keys (bench_diff gates on gauge presence). The
    // outcome lives in --check's exit code and the report's "run"
    // provenance.
    if (!opts.quiet) {
        for (std::size_t i = 0; i < doc.tasks.size(); ++i) {
            const scenario::TaskSpec& task = doc.tasks[i];
            if (task.kind == scenario::TaskSpec::Kind::kBerSurface) {
                print_ber_surface(task, result.tasks[i]);
            } else if (task.kind == scenario::TaskSpec::Kind::kBaselineJtol) {
                print_baseline_jtol(task, result.tasks[i]);
            }
        }
        bench::section("result");
        for (const auto& t : result.tasks) {
            std::printf("%-12s %-14s %s\n", t.prefix.c_str(),
                        t.kind.c_str(), t.ok ? "ok" : "FAILED");
        }
        std::printf("\nscenario %s: %s\n", doc.name.c_str(),
                    result.ok ? "all task gates passed"
                              : "TASK GATE FAILED");
    }
    const bool report_ok = report.write();
    if (check && !result.ok) return 1;
    return report_ok ? 0 : 1;
}
