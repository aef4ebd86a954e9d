#include "scenario/run.hpp"

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "ber/bert.hpp"
#include "cdr/baseline.hpp"
#include "cdr/multichannel.hpp"
#include "encoding/prbs.hpp"
#include "exec/sweep.hpp"
#include "jitter/jitter.hpp"
#include "masks/jtol_mask.hpp"
#include "mc/direct.hpp"
#include "mc/importance.hpp"
#include "mc/margin_model.hpp"
#include "obs/canonical.hpp"
#include "obs/health/health_monitor.hpp"
#include "obs/json.hpp"
#include "obs/sharded.hpp"
#include "scenario/compile.hpp"
#include "statmodel/gated_osc_model.hpp"
#include "statmodel/model_fields.hpp"
#include "util/rng.hpp"

namespace gcdr::scenario {

namespace {

// --- ber_surface ---------------------------------------------------------
// Fig 9's flow: one SweepRunner map over the grid (ShardedCounter on
// <prefix>.ber_evals), histograms recorded serially in row-major order
// afterwards, then one jtol_curve parallel_for over the contour
// frequencies. Two pool jobs total; the counters match the golden report
// bench/reports/BENCH_scenario_fig9_ber_sj.json.

TaskResult run_ber_surface(const ScenarioDoc& doc, const TaskSpec& task,
                           const ScenarioContext& ctx) {
    obs::MetricsRegistry& reg = *ctx.metrics;
    exec::ThreadPool& pool = *ctx.pool;
    TaskResult result;
    result.prefix = task.prefix;
    result.kind = task_kind_name(task.kind);

    const statmodel::ModelConfig base = doc.model;
    const exec::SweepGrid grid = compile_grid(task);
    const exec::SweepRunner runner(pool, grid, ctx.seed);

    auto* evals = &reg.counter(task.prefix + ".ber_evals");
    auto* ber_hist = &reg.histogram(task.prefix + ".ber");
    std::vector<double> surface;
    {
        obs::ScopedTimer t(&reg, task.prefix + ".surface_seconds");
        obs::ShardedCounter eval_shards(*evals, pool.size());
        surface = runner.map<double>([&](const exec::SweepPoint& p) {
            statmodel::ModelConfig cfg = base;
            for (std::size_t a = 0; a < task.axes.size(); ++a) {
                (void)statmodel::set_model_field(cfg, task.axes[a].name,
                                                 p.value[a]);
            }
            eval_shards.inc(exec::ThreadPool::lane_index());
            return statmodel::ber_of(cfg);
        });
        eval_shards.flush();
    }
    for (double ber : surface) ber_hist->record(ber);
    result.series.emplace_back("ber", surface);
    result.scalars.emplace_back("grid_points",
                                static_cast<double>(surface.size()));

    if (task.has_jtol) {
        std::vector<masks::MaskPoint> contour;
        {
            obs::ScopedTimer t(&reg, task.prefix + ".jtol_contour_seconds");
            contour = statmodel::jtol_curve(base, task.jtol.freqs,
                                            kPaperRate,
                                            task.jtol.ber_target, &pool);
        }
        const bool masked = task.jtol.mask != "none";
        const auto mask = masks::JtolMask::infiniband_2g5();
        bool all_ok = true;
        std::vector<double> tol;
        for (const masks::MaskPoint& pt : contour) {
            reg.histogram(task.prefix + ".jtol_uipp").record(pt.amp_uipp);
            tol.push_back(pt.amp_uipp);
            if (masked) {
                all_ok =
                    all_ok && pt.amp_uipp >= mask.amplitude_at(pt.freq_hz);
            }
        }
        result.series.emplace_back("jtol_uipp", std::move(tol));
        if (masked) {
            // mask_met is the paper's *finding*, not a gate: the
            // reproduced contour intentionally drops below the mask near
            // the data rate. Gating would fail every faithful run.
            reg.gauge(task.prefix + ".mask_met").set(all_ok ? 1.0 : 0.0);
            result.scalars.emplace_back("mask_met", all_ok ? 1.0 : 0.0);
        }
    }
    return result;
}

// --- baseline_jtol -------------------------------------------------------
// The architecture comparison: sweep 1 maps the three architectures over
// the JTOL frequencies; sweep 2 (when the document asks for it) maps the
// frequency-offset sensitivity; ErrorCounters attach after the sweep and
// replay the per-point error totals.

TaskResult run_baseline_jtol(const ScenarioDoc& doc, const TaskSpec& task,
                             const ScenarioContext& ctx) {
    obs::MetricsRegistry& reg = *ctx.metrics;
    exec::ThreadPool& pool = *ctx.pool;
    TaskResult result;
    result.prefix = task.prefix;
    result.kind = task_kind_name(task.kind);

    const statmodel::ModelConfig gcco_cfg = doc.model;
    jitter::JitterSpec base = doc.model.spec;
    base.sj_uipp = 0.0;  // SJ amplitude is the swept quantity

    const cdr::BangBangCdr bb({});
    const cdr::PhaseInterpolatorCdr pi({});

    struct JtolRow {
        double gated_osc = 0.0;
        double bang_bang = 0.0;
        double phase_int = 0.0;
    };
    std::vector<JtolRow> rows;
    {
        obs::ScopedTimer t(&reg, task.prefix + ".jtol_sweep_seconds");
        exec::SweepGrid grid;
        grid.axis("sj_freq_norm", task.jtol_freqs);
        rows = exec::SweepRunner(pool, grid, ctx.seed)
                   .map<JtolRow>([&](const exec::SweepPoint& p) {
                       const double fn = p.value[0];
                       JtolRow r;
                       r.gated_osc = statmodel::jtol_amplitude(
                           gcco_cfg, fn, task.ber_target, task.amp_cap);
                       r.bang_bang = cdr::baseline_jtol_amplitude(
                           bb, fn, base, kPaperRate, task.jtol_bits,
                           p.seed, task.ber_target, task.amp_cap);
                       r.phase_int = cdr::baseline_jtol_amplitude(
                           pi, fn, base, kPaperRate, task.jtol_bits,
                           p.seed, task.ber_target, task.amp_cap);
                       return r;
                   });
    }
    std::vector<double> go, bbv, piv;
    for (const JtolRow& r : rows) {
        reg.counter(task.prefix + ".jtol_points").inc();
        reg.histogram(task.prefix + ".jtol_gated_osc_uipp")
            .record(r.gated_osc);
        reg.histogram(task.prefix + ".jtol_bang_bang_uipp")
            .record(r.bang_bang);
        reg.histogram(task.prefix + ".jtol_phase_int_uipp")
            .record(r.phase_int);
        go.push_back(r.gated_osc);
        bbv.push_back(r.bang_bang);
        piv.push_back(r.phase_int);
    }
    result.series.emplace_back("jtol_bang_bang_uipp", std::move(bbv));
    result.series.emplace_back("jtol_gated_osc_uipp", std::move(go));
    result.series.emplace_back("jtol_phase_int_uipp", std::move(piv));

    if (!task.offsets.empty()) {
        struct OffsetRow {
            double gated_osc_ber = 0.0;
            std::uint64_t bang_bang_errors = 0;
            std::uint64_t phase_int_errors = 0;
        };
        std::vector<OffsetRow> offset_rows;
        {
            obs::ScopedTimer t(&reg,
                               task.prefix + ".freq_offset_seconds");
            exec::SweepGrid grid;
            grid.axis("freq_offset", task.offsets);
            offset_rows =
                exec::SweepRunner(pool, grid, ctx.seed)
                    .map<OffsetRow>([&](const exec::SweepPoint& p) {
                        const double d = p.value[0];
                        statmodel::ModelConfig g = gcco_cfg;
                        g.freq_offset = d;
                        OffsetRow r;
                        r.gated_osc_ber = statmodel::ber_of(g);

                        cdr::BangBangCdr::Config bc;
                        bc.freq_offset = d;
                        cdr::PhaseInterpolatorCdr::Config pc;
                        pc.freq_offset = d;
                        Rng r1(p.seed), r2(p.seed);
                        encoding::PrbsGenerator gen1(
                            encoding::PrbsOrder::kPrbs7);
                        encoding::PrbsGenerator gen2(
                            encoding::PrbsOrder::kPrbs7);
                        const std::size_t n =
                            static_cast<std::size_t>(task.offset_bits);
                        r.bang_bang_errors =
                            cdr::BangBangCdr(bc)
                                .run(gen1.bits(n), base, kPaperRate, r1)
                                .errors;
                        r.phase_int_errors =
                            cdr::PhaseInterpolatorCdr(pc)
                                .run(gen2.bits(n), base, kPaperRate, r2)
                                .errors;
                        return r;
                    });
        }
        ber::ErrorCounter bb_errors, pi_errors;
        bb_errors.attach_metrics(reg, task.prefix + ".bang_bang");
        pi_errors.attach_metrics(reg, task.prefix + ".phase_int");
        std::vector<double> gb, be, pe;
        for (const OffsetRow& r : offset_rows) {
            bb_errors.record_bits(task.offset_bits, r.bang_bang_errors);
            pi_errors.record_bits(task.offset_bits, r.phase_int_errors);
            gb.push_back(r.gated_osc_ber);
            be.push_back(static_cast<double>(r.bang_bang_errors));
            pe.push_back(static_cast<double>(r.phase_int_errors));
        }
        result.series.emplace_back("offset_bang_bang_errors",
                                   std::move(be));
        result.series.emplace_back("offset_gated_osc_ber", std::move(gb));
        result.series.emplace_back("offset_phase_int_errors",
                                   std::move(pe));
    }
    return result;
}

// --- netlist stimulus ----------------------------------------------------
// netlist_run and health_probe drive their receivers the same way: lane i
// gets its source's bits (PRBS stream, or the explicit pattern tiled
// `repeat` times) as one jittered edge stream at the source's data-rate
// offset, starting at start_ns plus the wire skew.

encoding::PrbsOrder prbs_order(int order) {
    switch (order) {
        case 9:
            return encoding::PrbsOrder::kPrbs9;
        case 15:
            return encoding::PrbsOrder::kPrbs15;
        case 23:
            return encoding::PrbsOrder::kPrbs23;
        case 31:
            return encoding::PrbsOrder::kPrbs31;
        default:
            return encoding::PrbsOrder::kPrbs7;
    }
}

std::vector<bool> lane_bits(const CompiledLane& lane) {
    if (lane.pattern.empty()) {
        encoding::PrbsGenerator gen(prbs_order(lane.prbs));
        return gen.bits(static_cast<std::size_t>(lane.bits));
    }
    std::vector<bool> bits;
    bits.reserve(lane.pattern.size() * static_cast<std::size_t>(lane.repeat));
    for (std::uint64_t r = 0; r < lane.repeat; ++r) {
        for (int b : lane.pattern) bits.push_back(b != 0);
    }
    return bits;
}

/// Drive every lane of `rx` and return the run end: the latest lane start
/// plus 4 ns of settling plus the longest lane's bit time. One RNG draws
/// every lane's jitter realization (like the example receiver); lane edge
/// streams stay deterministic because drive order is the canonical
/// channel order.
SimTime drive_lanes(cdr::MultiChannelCdr& rx, const CompiledNetlist& cn,
                    const jitter::JitterSpec& spec, std::uint64_t seed) {
    Rng rng(seed);
    std::uint64_t max_bits = 0;
    double last_start_ns = 0.0;
    for (std::size_t i = 0; i < cn.lanes.size(); ++i) {
        const CompiledLane& lane = cn.lanes[i];
        const std::vector<bool> bits = lane_bits(lane);
        jitter::StreamParams sp;
        sp.spec = spec;
        sp.data_rate_offset = lane.rate_offset;
        sp.start =
            SimTime::ns(lane.start_ns) + SimTime::ps(lane.skew_ps);
        rx.drive(static_cast<int>(i), jitter::jittered_edges(bits, sp, rng));
        max_bits = std::max<std::uint64_t>(max_bits, bits.size());
        last_start_ns = std::max(last_start_ns,
                                 lane.start_ns + lane.skew_ps * 1e-3);
    }
    return SimTime::ns(last_start_ns + 4.0) +
           kPaperRate.ui_to_time(static_cast<double>(max_bits));
}

// --- netlist_run ---------------------------------------------------------

TaskResult run_netlist(const ScenarioDoc& doc, const TaskSpec& task,
                       const ScenarioContext& ctx) {
    obs::MetricsRegistry& reg = *ctx.metrics;
    TaskResult result;
    result.prefix = task.prefix;
    result.kind = task_kind_name(task.kind);

    const CompiledNetlist cn = compile_netlist(doc.netlist);
    cdr::MultiChannelCdr rx(ctx.seed, cn.config);
    rx.attach_metrics(reg, task.prefix + ".cdr");
    rx.run_until(drive_lanes(rx, cn, doc.model.spec, ctx.seed), ctx.pool);

    const auto lanes = rx.drain_elastic();
    for (std::size_t i = 0; i < lanes.size(); ++i) {
        const std::string key = "ch" + std::to_string(i);
        result.scalars.emplace_back(
            key + "_recovered_bits",
            static_cast<double>(lanes[i].size()));
        result.scalars.emplace_back(
            key + "_elastic_skips",
            static_cast<double>(rx.elastic(static_cast<int>(i))
                                    .skips_inserted() +
                                rx.elastic(static_cast<int>(i))
                                    .skips_dropped()));
        if (ctx.verbose) {
            std::printf("[%s] lane %zu (%s): %zu bits recovered\n",
                        task.prefix.c_str(), i,
                        cn.lanes[i].channel.c_str(), lanes[i].size());
        }
    }
    rx.update_lock_metrics();
    const double locked =
        reg.gauge(task.prefix + ".cdr.locked_channels").value();
    result.scalars.emplace_back("locked_channels", locked);
    result.ok = locked ==
                static_cast<double>(cn.config.n_channels);
    return result;
}

// --- health_probe --------------------------------------------------------
// A netlist run with per-lane obs/health monitors attached. The run is
// sliced into `frames` equal femtosecond spans; after each slice the
// context's health_frame_sink (when set) receives a gcdr.health/v1
// snapshot — this is the daemon's /v1/watch live stream. Slicing is
// behavior-neutral (event-driven execution: run_until(a); run_until(b)
// executes the same events as run_until(b)), so decisions, counters and
// the final snapshot are identical for any frame count or thread count.
// A lost lane is a *finding*, not a task failure: result.ok stays true
// and CI asserts detection from the health block instead.

TaskResult run_health_probe(const ScenarioDoc& doc, const TaskSpec& task,
                            const ScenarioContext& ctx) {
    obs::MetricsRegistry& reg = *ctx.metrics;
    TaskResult result;
    result.prefix = task.prefix;
    result.kind = task_kind_name(task.kind);

    const CompiledNetlist cn = compile_netlist(doc.netlist);
    cdr::MultiChannelCdr rx(ctx.seed, cn.config);
    rx.attach_metrics(reg, task.prefix + ".cdr");
    obs::health::HealthHub hub;
    rx.attach_health(hub);
    if (ctx.flight) rx.enable_flight_recorder(*ctx.flight);

    const SimTime t_end = drive_lanes(rx, cn, doc.model.spec, ctx.seed);
    const std::int64_t end_fs = t_end.femtoseconds();
    const std::uint64_t frames = task.frames == 0 ? 1 : task.frames;
    for (std::uint64_t k = 1; k <= frames; ++k) {
        const std::int64_t slice_fs =
            end_fs * static_cast<std::int64_t>(k) /
            static_cast<std::int64_t>(frames);
        rx.run_until(SimTime{slice_fs}, ctx.pool);
        if (ctx.health_frame_sink && k < frames) {
            ctx.health_frame_sink(hub.snapshot_json());
        }
    }
    // The final snapshot is taken once and handed to both the sink and
    // the result, so a /v1/watch client's last frame matches the report's
    // health block byte for byte.
    result.health_json = hub.snapshot_json();
    if (ctx.health_frame_sink) ctx.health_frame_sink(result.health_json);

    rx.update_lock_metrics();
    hub.publish(reg, task.prefix + ".cdr");

    const auto lanes = rx.drain_elastic();
    for (std::size_t i = 0; i < lanes.size(); ++i) {
        const std::string key = "ch" + std::to_string(i);
        const obs::health::LaneHealthMonitor& m = hub.lane(i);
        result.scalars.emplace_back(
            key + "_recovered_bits",
            static_cast<double>(lanes[i].size()));
        result.scalars.emplace_back(
            key + "_health_state",
            static_cast<double>(static_cast<int>(m.state())));
        result.scalars.emplace_back(key + "_health_score", m.score());
        result.scalars.emplace_back(key + "_settle_ui", m.settle_ui());
        if (ctx.verbose) {
            std::printf("[%s] lane %zu (%s): %zu bits, health %s "
                        "(score %.3f)\n",
                        task.prefix.c_str(), i,
                        cn.lanes[i].channel.c_str(), lanes[i].size(),
                        obs::health::lock_state_name(m.state()),
                        m.score());
        }
    }
    result.scalars.emplace_back(
        "health_locked_lanes", static_cast<double>(hub.locked_lanes()));
    result.scalars.emplace_back(
        "locked_channels",
        reg.gauge(task.prefix + ".cdr.locked_channels").value());
    return result;
}

// --- differential --------------------------------------------------------
// The fuzzer's oracle. Strict gate: importance sampling on the analytic
// margin model (same equations as the statmodel) must agree with
// statmodel::ber_of — IS 95% CI containing the value, or the ratio within
// [1/3, 3] when the CI is razor-thin. Loose gate: the behavioral
// event-driven channel, sampled directly, must bracket the statmodel
// value inside a tau-inflated CI — the two layers differ by genuine
// channel physics, so tau absorbs the modeling gap, not sampling noise.

TaskResult run_differential(const ScenarioDoc& doc, const TaskSpec& task,
                            const ScenarioContext& ctx) {
    obs::MetricsRegistry& reg = *ctx.metrics;
    exec::ThreadPool& pool = *ctx.pool;
    TaskResult result;
    result.prefix = task.prefix;
    result.kind = task_kind_name(task.kind);

    const statmodel::ModelConfig cfg = doc.model;
    const double sm = statmodel::ber_of(cfg);
    reg.gauge(task.prefix + ".statmodel").set(sm);
    result.scalars.emplace_back("statmodel", sm);

    // Outside [1e-13, 0.1] the statmodel itself is out of its valid
    // regime (gridded-PDF underflow below, saturation above), so there is
    // nothing meaningful to differentiate against.
    const bool in_regime = sm >= 1e-13 && sm <= 0.1;
    result.scalars.emplace_back("in_regime", in_regime ? 1.0 : 0.0);

    bool strict_ok = true;
    if (in_regime) {
        mc::AnalyticMarginModel model(cfg);
        mc::ImportanceSampler::Config ic;
        ic.budget = compile_budget(doc.mc, ctx.seed);
        mc::ImportanceSampler is(model, ic, &reg);
        const auto ie = is.estimate(pool);
        const double ratio = sm > 0.0 ? ie.mean / sm : 0.0;
        strict_ok = ie.contains(sm) ||
                    (ratio >= 1.0 / 3.0 && ratio <= 3.0);
        reg.gauge(task.prefix + ".is_ber").set(ie.mean);
        reg.gauge(task.prefix + ".is_rel_err").set(ie.rel_err());
        reg.gauge(task.prefix + ".is_ci_lo").set(ie.ci.lo);
        reg.gauge(task.prefix + ".is_ci_hi").set(ie.ci.hi);
        reg.counter(task.prefix + ".is_samples").inc(ie.n_samples);
        result.scalars.emplace_back("is_ber", ie.mean);
        result.scalars.emplace_back("is_rel_err", ie.rel_err());
        if (ctx.verbose) {
            std::printf("[%s] statmodel %.3e vs IS %.3e (rel %.2f) -> %s\n",
                        task.prefix.c_str(), sm, ie.mean, ie.rel_err(),
                        strict_ok ? "agree" : "DISAGREE");
        }
    }
    reg.gauge(task.prefix + ".agree").set(strict_ok ? 1.0 : 0.0);
    result.scalars.emplace_back("agree", strict_ok ? 1.0 : 0.0);

    bool beh_ok = true;
    if (task.behavioral_runs > 0 && in_regime &&
        sm >= task.behavioral_min_ber) {
        auto bp = mc::BehavioralMarginModel::params_from(cfg);
        mc::BehavioralMarginModel beh(bp);
        mc::DirectSampler::Config dc;
        dc.budget.max_evals = task.behavioral_runs;
        dc.budget.base_seed = ctx.seed;
        dc.runs_per_round =
            std::min<std::uint64_t>(task.behavioral_runs, 4096);
        mc::DirectSampler direct(beh, dc, &reg);
        const auto de = direct.estimate(pool);
        // tau-inflated Clopper-Pearson bracket around the behavioral
        // estimate; a zero-error run still has a positive CI upper bound.
        const double lo = std::max(
            0.0, de.mean - task.behavioral_tau * (de.mean - de.ci.lo));
        const double hi =
            de.mean + task.behavioral_tau * (de.ci.hi - de.mean);
        // Ratio fallback, wider than the strict gate's: with enough
        // runs the tau-band collapses around the behavioral mean, and
        // behavioral-vs-analytic agreement is order-of-magnitude by
        // construction (bench_xval_ber's long-standing caveat — lock
        // dynamics and SJ trajectory sampling that the statmodel
        // integrates out). One decade still convicts a broken decoder
        // (BER pinned at 0.5 or 0).
        const double bratio = sm > 0.0 ? de.mean / sm : 0.0;
        beh_ok = (sm >= lo && sm <= hi) || (bratio >= 0.1 && bratio <= 10.0);
        reg.gauge(task.prefix + ".beh_ber").set(de.mean);
        reg.counter(task.prefix + ".beh_runs").inc(de.n_samples);
        reg.gauge(task.prefix + ".beh_agree").set(beh_ok ? 1.0 : 0.0);
        result.scalars.emplace_back("beh_agree", beh_ok ? 1.0 : 0.0);
        result.scalars.emplace_back("beh_ber", de.mean);
        if (ctx.verbose) {
            std::printf("[%s] behavioral %.3e in tau-band [%.1e, %.1e] "
                        "-> %s\n",
                        task.prefix.c_str(), de.mean, lo, hi,
                        beh_ok ? "agree" : "DISAGREE");
        }
    }
    result.ok = strict_ok && beh_ok;
    return result;
}

}  // namespace

ScenarioResult run_scenario(const ScenarioDoc& doc,
                            const ScenarioContext& ctx) {
    ScenarioResult result;
    for (const TaskSpec& task : doc.tasks) {
        TaskResult tr;
        switch (task.kind) {
            case TaskSpec::Kind::kBerSurface:
                tr = run_ber_surface(doc, task, ctx);
                break;
            case TaskSpec::Kind::kBaselineJtol:
                tr = run_baseline_jtol(doc, task, ctx);
                break;
            case TaskSpec::Kind::kNetlistRun:
                tr = run_netlist(doc, task, ctx);
                break;
            case TaskSpec::Kind::kDifferential:
                tr = run_differential(doc, task, ctx);
                break;
            case TaskSpec::Kind::kHealthProbe:
                tr = run_health_probe(doc, task, ctx);
                break;
        }
        result.ok = result.ok && tr.ok;
        result.tasks.push_back(std::move(tr));
    }
    return result;
}

namespace {

void append_field(std::string& out, bool& first, std::string_view key,
                  std::string_view rendered) {
    if (!first) out += ',';
    first = false;
    out += '"';
    out += key;
    out += "\":";
    out += rendered;
}

}  // namespace

std::string result_payload_json(const ScenarioDoc& doc,
                                const ScenarioResult& result) {
    std::string out = "{\"name\":\"" + obs::JsonWriter::escape(doc.name) +
                      "\",\"ok\":" + (result.ok ? "true" : "false") +
                      ",\"tasks\":{";
    // Tasks keyed by prefix; prefixes are unique (loader-enforced), so
    // sorting them yields a canonical object.
    std::vector<const TaskResult*> tasks;
    for (const TaskResult& t : result.tasks) tasks.push_back(&t);
    std::sort(tasks.begin(), tasks.end(),
              [](const TaskResult* a, const TaskResult* b) {
                  return a->prefix < b->prefix;
              });
    for (std::size_t i = 0; i < tasks.size(); ++i) {
        const TaskResult& t = *tasks[i];
        if (i) out += ',';
        out += '"' + obs::JsonWriter::escape(t.prefix) + "\":{";
        bool first = true;
        if (!t.health_json.empty()) {
            // Already-canonical compact JSON (gcdr.health/v1); spliced
            // verbatim so the payload stays byte-comparable with the
            // daemon's final watch frame. "health" sorts before the
            // other keys.
            append_field(out, first, "health", t.health_json);
        }
        append_field(out, first, "kind",
                     "\"" + obs::JsonWriter::escape(t.kind) + "\"");
        append_field(out, first, "ok", t.ok ? "true" : "false");
        {
            auto scalars = t.scalars;
            std::sort(scalars.begin(), scalars.end());
            std::string s = "{";
            for (std::size_t k = 0; k < scalars.size(); ++k) {
                if (k) s += ',';
                s += '"' + obs::JsonWriter::escape(scalars[k].first) +
                     "\":" + obs::canonical_number(scalars[k].second, {});
            }
            s += '}';
            append_field(out, first, "scalars", s);
        }
        {
            auto series = t.series;
            std::sort(series.begin(), series.end(),
                      [](const auto& a, const auto& b) {
                          return a.first < b.first;
                      });
            std::string s = "{";
            for (std::size_t k = 0; k < series.size(); ++k) {
                if (k) s += ',';
                s += '"' + obs::JsonWriter::escape(series[k].first) +
                     "\":[";
                for (std::size_t j = 0; j < series[k].second.size(); ++j) {
                    if (j) s += ',';
                    s += obs::canonical_number(series[k].second[j], {});
                }
                s += ']';
            }
            s += '}';
            append_field(out, first, "series", s);
        }
        out += '}';
    }
    out += "}}";
    return out;
}

}  // namespace gcdr::scenario
