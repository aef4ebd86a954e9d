// ber_surface and lane_sim: one seeded scenario document driven through
// the scenario layer's public entry points (scenario_from_string ->
// compile -> run_scenario -> result_payload_json) on a 2-lane pool.
//
// Untraced runs time whole-document runs back to back until --seconds
// are used. Traced runs alternate an untraced run with a traced one:
// the traced run repeats the set-up and calls run_scenario once per task,
// each inside a benchmark-owned span, with the global SpanCollector on
// and the pool's exec.* telemetry attached.

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "core/digest.hpp"
#include "core/gen.hpp"
#include "core/result.hpp"
#include "core/stats.hpp"
#include "core/trace.hpp"
#include "exec/thread_pool.hpp"
#include "obs/json_parse.hpp"
#include "obs/metrics.hpp"
#include "obs/process_stats.hpp"
#include "obs/trace_span.hpp"
#include "scenario/compile.hpp"
#include "scenario/run.hpp"
#include "scenario/scenario_doc.hpp"
#include "util/hash.hpp"

namespace perfbench {

namespace {

using gcdr::obs::SpanCollector;
using gcdr::obs::TraceSpan;
namespace sc = gcdr::scenario;

constexpr std::size_t kLanes = 2;
/// Set-up is timed in a block of this many seconds before every timed
/// run, so that its median samples the host over the whole run rather
/// than in one burst of a few milliseconds at the start.
constexpr double kSetupBlockS = 0.04;

double now_s() {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::string doc_text(const Options& o) {
    return o.workload == "ber_surface" ? ber_surface_doc(o.seed)
                                       : lane_sim_doc(o.seed);
}

struct Prepared {
    sc::ScenarioDoc doc;
    std::unique_ptr<gcdr::exec::ThreadPool> pool;
};

/// The program's set-up before the first timed operation: parse and
/// validate, resolve to the canonical form, compile every task, start
/// the pool. Spans are no-ops unless the collector is on.
bool set_up(const std::string& text, std::uint64_t seed, Prepared& p,
            std::string& error) {
    {
        TraceSpan span("scenario.load");
        std::vector<sc::Diagnostic> diags;
        if (!sc::scenario_from_string(text, p.doc, diags)) {
            error = diags.empty() ? "invalid scenario" : diags[0].render();
            return false;
        }
        (void)sc::scenario_hash(p.doc);  // resolved_json + fnv1a64
    }
    {
        TraceSpan span("scenario.compile");
        if (p.doc.has_netlist) (void)sc::compile_netlist(p.doc.netlist);
        for (const sc::TaskSpec& t : p.doc.tasks) {
            if (t.kind == sc::TaskSpec::Kind::kBerSurface) {
                (void)sc::compile_grid(t);
            }
        }
        (void)sc::compile_budget(p.doc.mc, seed);
    }
    {
        TraceSpan span("scenario.pool_start");
        p.pool = std::make_unique<gcdr::exec::ThreadPool>(kLanes);
    }
    return true;
}

const char* task_span_name(sc::TaskSpec::Kind k) {
    switch (k) {
        case sc::TaskSpec::Kind::kBerSurface: return "scenario.task.ber_surface";
        case sc::TaskSpec::Kind::kHealthProbe: return "scenario.task.health_probe";
        case sc::TaskSpec::Kind::kDifferential: return "scenario.task.differential";
        default: return "scenario.task.other";
    }
}

/// Semantic checks on a payload beyond byte identity: the workload did
/// the work it claims (grid size, both differential legs, lanes locked).
std::string check_payload(const std::string& workload,
                          const std::string& payload) {
    gcdr::obs::JsonValue v;
    std::string err;
    if (!gcdr::obs::json_parse(payload, v, &err)) return "payload: " + err;
    const gcdr::obs::JsonValue* ok = v.find("ok");
    if (!ok || !ok->boolean) return "scenario reports ok=false";
    const gcdr::obs::JsonValue* tasks = v.find("tasks");
    if (!tasks) return "payload has no tasks";
    auto scalar = [&](const char* task, const char* key) {
        const gcdr::obs::JsonValue* t = tasks->find(task);
        const gcdr::obs::JsonValue* s = t ? t->find("scalars") : nullptr;
        const gcdr::obs::JsonValue* x = s ? s->find(key) : nullptr;
        return x ? x->number_or(-1.0) : -1.0;
    };
    if (workload == "ber_surface") {
        const gcdr::obs::JsonValue* t = tasks->find("surf");
        const gcdr::obs::JsonValue* s = t ? t->find("series") : nullptr;
        const gcdr::obs::JsonValue* ber = s ? s->find("ber") : nullptr;
        const gcdr::obs::JsonValue* jtol = s ? s->find("jtol_uipp") : nullptr;
        if (!ber || ber->items.size() != 91) return "BER surface is not 13 x 7";
        for (const auto& b : ber->items) {
            if (!(b.number >= 0.0 && b.number <= 0.5)) return "BER out of [0, 0.5]";
        }
        if (!jtol || jtol->items.size() != 13) return "JTOL contour is not 13 points";
        for (const auto& j : jtol->items) {
            if (!(j.number > 0.0)) return "JTOL amplitude not positive";
        }
    } else {
        if (scalar("lanes", "locked_channels") != 16.0) return "not all 16 lanes locked";
        if (scalar("xval", "in_regime") != 1.0) return "differential point out of regime";
        if (scalar("xval", "beh_agree") != 1.0) return "behavioral leg did not run or disagreed";
    }
    return {};
}

struct Iteration {
    double seconds = 0.0;
    std::string payload;
};

Iteration run_untraced(const Prepared& p, std::uint64_t seed) {
    gcdr::obs::MetricsRegistry reg;
    sc::ScenarioContext ctx;
    ctx.metrics = &reg;
    ctx.pool = p.pool.get();
    ctx.seed = seed;
    Iteration it;
    const double t0 = now_s();
    const sc::ScenarioResult res = sc::run_scenario(p.doc, ctx);
    it.payload = sc::result_payload_json(p.doc, res);
    it.seconds = now_s() - t0;
    return it;
}

/// One traced run: set-up, each task as its own run_scenario call, the
/// payload; then the per-layer numbers of that window.
Iteration run_traced(const std::string& text, std::uint64_t seed,
                     std::map<std::string, double>& layer,
                     std::string& error) {
    SpanCollector& coll = SpanCollector::global();
    coll.clear();
    coll.enable(1u << 14);  // cleared every traced run
    const double w0 = coll.now_s();
    Prepared p;
    Iteration it;
    if (!set_up(text, seed, p, error)) {
        coll.disable();
        return it;
    }
    gcdr::obs::MetricsRegistry reg;
    p.pool->attach_metrics(&reg, "exec");
    std::uint64_t frames = 0;
    sc::ScenarioContext ctx;
    ctx.metrics = &reg;
    ctx.pool = p.pool.get();
    ctx.seed = seed;
    ctx.health_frame_sink = [&frames](const std::string&) { ++frames; };

    sc::ScenarioResult all;
    const double t0 = now_s();
    for (const sc::TaskSpec& task : p.doc.tasks) {
        sc::ScenarioDoc one = p.doc;
        one.tasks = {task};
        TraceSpan span(task_span_name(task.kind));
        sc::ScenarioResult r = sc::run_scenario(one, ctx);
        all.ok = all.ok && r.ok;
        all.tasks.push_back(std::move(r.tasks.front()));
    }
    {
        TraceSpan span("scenario.payload");
        it.payload = sc::result_payload_json(p.doc, all);
    }
    it.seconds = now_s() - t0;
    const double w1 = coll.now_s();
    coll.disable();
    p.pool->attach_metrics(nullptr);

    const SpanSet spans(coll.merged());
    const double inf = w1 + 1.0;
    auto task_s = [&](const char* name) { return spans.busy(name, w0, inf); };
    layer["scenario.load_s"] = spans.busy("scenario.load", w0, inf);
    layer["scenario.compile_s"] = spans.busy("scenario.compile", w0, inf);
    layer["scenario.payload_s"] = spans.busy("scenario.payload", w0, inf);
    const double surf = task_s("scenario.task.ber_surface");
    const double probe = task_s("scenario.task.health_probe");
    const double diff = task_s("scenario.task.differential");
    layer["scenario.task_s.ber_surface"] = surf;
    layer["scenario.task_s.health_probe"] = probe;
    layer["scenario.task_s.differential"] = diff;

    const double task_wall = surf + probe + diff;
    layer["exec.items"] = static_cast<double>(reg.counter("exec.items").value());
    layer["exec.lane_busy_frac"] =
        task_wall > 0.0 ? reg.histogram("exec.item_seconds").sum() /
                              (static_cast<double>(kLanes) * task_wall)
                        : 0.0;

    layer["stats.convolves"] =
        static_cast<double>(spans.count("pdf.convolve", w0, inf));
    layer["stats.convolve_s"] = spans.covered("pdf.convolve", w0, inf);
    double a = 0.0, b = 0.0;
    if (spans.find("scenario.task.ber_surface", w0, inf, a, b)) {
        const double map_s = spans.covered("sweep.map", a, b);
        const auto points = spans.count("sweep.point", a, b);
        layer["statmodel.ber_points"] = static_cast<double>(points);
        layer["statmodel.ber_points_per_s"] =
            map_s > 0.0 ? static_cast<double>(points) / map_s : 0.0;
        layer["statmodel.jtol_s"] = (b - a) - map_s;
        layer["statmodel.tail_s"] = (b - a) - spans.covered("pdf.convolve", a, b);
    }
    for (const sc::TaskSpec& task : p.doc.tasks) {
        if (task.kind != sc::TaskSpec::Kind::kHealthProbe) continue;
        double decisions = 0.0;
        for (std::size_t ch = 0; ch < p.doc.netlist.channels.size(); ++ch) {
            decisions += static_cast<double>(
                reg.counter(task.prefix + ".cdr.ch" + std::to_string(ch) +
                            ".decisions")
                    .value());
        }
        layer["sim.lane_decisions"] = decisions;
        layer["sim.decisions_per_s"] = probe > 0.0 ? decisions / probe : 0.0;
        layer["health.frames"] = static_cast<double>(frames);
    }
    const double is_samples =
        static_cast<double>(reg.counter("mc.is.samples").value());
    layer["mc.is_samples"] = is_samples;
    layer["mc.is_ess_frac"] =
        is_samples > 0.0 ? reg.gauge("mc.is.ess").value() / is_samples : 0.0;
    layer["mc.is_s"] = spans.covered("mc.is.round", w0, inf);
    const double runs = static_cast<double>(reg.counter("mc.direct.runs").value());
    const double direct_s = spans.covered("mc.direct.round", w0, inf);
    layer["mc.direct_runs"] = runs;
    layer["mc.direct_s"] = direct_s;
    layer["mc.direct_runs_per_s"] = direct_s > 0.0 ? runs / direct_s : 0.0;
    layer["unattributed_frac"] =
        w1 > w0 ? 1.0 - spans.covered("scenario.", w0, inf) / (w1 - w0) : 0.0;
    return it;
}

}  // namespace

std::uint64_t batch_digest(const Options& o) {
    Prepared p;
    std::string err;
    if (!set_up(doc_text(o), o.seed, p, err)) return 0;
    return digest_payloads({run_untraced(p, o.seed).payload});
}

RunResult run_batch(const Options& o,
                    const std::map<std::string, std::uint64_t>& goldens) {
    RunResult r;
    const std::string text = doc_text(o);

    // Set-up: once for the timed runs, then a block of repeats before
    // each timed run (see kSetupBlockS).
    std::vector<double> setup_s;
    auto timed_set_up = [&](Prepared& q) {
        std::string err;
        const double t0 = now_s();
        const bool ok = set_up(text, o.seed, q, err);
        setup_s.push_back(now_s() - t0);
        if (!ok) r.fail("set-up: " + err);
        return ok;
    };
    Prepared p;
    if (!timed_set_up(p)) {
        r.attempted = r.failed = 1;
        return r;
    }
    auto set_up_block = [&] {
        const double end = now_s() + kSetupBlockS;
        do {
            Prepared q;
            if (!timed_set_up(q)) {
                ++r.attempted;
                ++r.failed;
                return;
            }
        } while (now_s() < end);
    };

    std::vector<double> untraced_s, traced_s;
    std::vector<std::map<std::string, double>> layers;
    std::string first_payload;
    auto check = [&](const std::string& payload, const char* what) {
        ++r.attempted;
        if (first_payload.empty()) {
            first_payload = payload;
            if (const std::string e = check_payload(o.workload, payload);
                !e.empty()) {
                ++r.failed;
                r.fail(e);
            }
        } else if (payload != first_payload) {
            ++r.failed;
            r.fail(std::string(what) + " payload differs from the first run's");
        }
    };

    const double t_end = now_s() + o.seconds;
    do {
        set_up_block();
        const Iteration u = run_untraced(p, o.seed);
        untraced_s.push_back(u.seconds);
        check(u.payload, "untraced");
        if (o.trace) {
            std::map<std::string, double> layer;
            std::string err;
            const Iteration t = run_traced(text, o.seed, layer, err);
            if (!err.empty()) r.fail("traced set-up: " + err);
            traced_s.push_back(t.seconds);
            check(t.payload, "traced");
            layers.push_back(std::move(layer));
        }
    } while (now_s() < t_end || untraced_s.size() < 2);

    const std::uint64_t digest = digest_payloads({first_payload});
    const std::string key = golden_key(o.workload, o.seed, o.seconds);
    const GoldenStatus gs = check_golden(goldens, key, digest);
    r.notes.push_back("digest " + gcdr::util::hash_hex(digest) + " (" +
                      key + ": " + golden_status_name(gs) + ")");
    if (gs == GoldenStatus::kMismatch) {
        ++r.failed;
        r.fail("payload digest does not match the golden");
    }

    // End-to-end. Runs go back to back (closed loop), so the
    // sustained rate is runs per second.
    double total = 0.0;
    for (double s : untraced_s) total += s;
    r.metrics["setup_s"] = median(setup_s);
    r.metrics["time_to_result_s"] = median(untraced_s);
    r.metrics["max_ok_rps"] = static_cast<double>(untraced_s.size()) / total;
    r.metrics["peak_rss_mb"] =
        static_cast<double>(gcdr::obs::process_peak_rss_bytes()) / 1048576.0;
    r.notes.push_back(std::to_string(untraced_s.size()) +
                      " untraced scenario runs, " +
                      std::to_string(traced_s.size()) + " traced, " +
                      std::to_string(setup_s.size()) + " set-ups");

    if (o.trace) {
        for (const MetricDef& d : per_layer_metrics()) {
            std::vector<double> v;
            for (const auto& l : layers) {
                const auto it = l.find(d.name);
                v.push_back(it == l.end() ? 0.0 : it->second);
            }
            r.metrics[d.name] = median(v);
        }
        r.metrics["trace.overhead_frac"] =
            median(traced_s) / median(untraced_s) - 1.0;
    }
    return r;
}

}  // namespace perfbench
