// Tests for the observability stack added with the tracing PR: causal
// event tracing (obs/trace_causal + Scheduler hooks), span profiling
// (obs/trace_span), and the flight recorder (obs/flight_recorder) wired
// through GccoChannel, MultiChannelCdr and the behavioral margin model.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cdr/channel.hpp"
#include "cdr/elastic_buffer.hpp"
#include "cdr/multichannel.hpp"
#include "encoding/prbs.hpp"
#include "mc/margin_model.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/trace_causal.hpp"
#include "obs/trace_span.hpp"
#include "sim/scheduler.hpp"

namespace gcdr {
namespace {

std::string slurp(const std::string& path) {
    std::ifstream f(path);
    std::ostringstream os;
    os << f.rdbuf();
    return os.str();
}

std::string fresh_dir(const std::string& leaf) {
    const auto dir = std::filesystem::temp_directory_path() /
                     ("gcdr_trace_test_" + leaf);
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir.string();
}

// ---------------------------------------------------------------- causal

TEST(CausalTracer, SchedulerRecordsParentLinks) {
    sim::Scheduler sched;
    obs::CausalTracer tracer;
    sched.attach_tracer(&tracer);
    ASSERT_EQ(sched.tracer(), &tracer);

    struct Ctx {
        sim::Scheduler* s;
        std::uint64_t ida = 0, idb = 0, idc = 0;
    } ctx{&sched};

    sched.schedule_at(SimTime::ps(100), [&ctx] {
        ctx.ida = ctx.s->current_event_id();
        ctx.s->schedule_in(SimTime::ps(10), [&ctx] {
            ctx.idb = ctx.s->current_event_id();
            ctx.s->schedule_in(SimTime::ps(10), [&ctx] {
                ctx.idc = ctx.s->current_event_id();
            });
        });
    });
    sched.run();

    // Ids are nonzero while executing, 0 between events.
    EXPECT_NE(ctx.ida, 0u);
    EXPECT_NE(ctx.idc, 0u);
    EXPECT_EQ(sched.current_event_id(), 0u);

    const auto chain = tracer.chain(ctx.idc);
    ASSERT_EQ(chain.size(), 3u);
    EXPECT_EQ(chain[0].id, ctx.idc);
    EXPECT_EQ(chain[0].parent, ctx.idb);
    EXPECT_EQ(chain[1].id, ctx.idb);
    EXPECT_EQ(chain[1].parent, ctx.ida);
    EXPECT_EQ(chain[2].id, ctx.ida);
    EXPECT_EQ(chain[2].parent, 0u);  // scheduled from outside any event
    EXPECT_EQ(chain[2].time_fs, SimTime::ps(100).femtoseconds());
}

TEST(CausalTracer, RingEvictionTruncatesChain) {
    obs::CausalTracer tracer(4);
    EXPECT_EQ(tracer.capacity(), 4u);
    for (std::uint64_t id = 1; id <= 10; ++id) {
        tracer.on_schedule(id, id - 1, static_cast<std::int64_t>(id) * 100);
    }
    EXPECT_EQ(tracer.recorded(), 10u);
    // Only the newest `capacity` ids survive.
    EXPECT_EQ(tracer.find(3), nullptr);
    EXPECT_EQ(tracer.find(6), nullptr);
    ASSERT_NE(tracer.find(10), nullptr);
    EXPECT_EQ(tracer.find(10)->parent, 9u);
    // 10 -> 9 -> 8 -> 7, then 6 is evicted: clean truncation.
    const auto chain = tracer.chain(10);
    ASSERT_EQ(chain.size(), 4u);
    EXPECT_EQ(chain.back().id, 7u);

    tracer.clear();
    EXPECT_EQ(tracer.find(10), nullptr);
}

TEST(CausalTracer, DetachedSchedulerKeepsIdZero) {
    sim::Scheduler sched;
    EXPECT_EQ(sched.tracer(), nullptr);
    std::uint64_t seen = 1;
    sched.schedule_at(SimTime::ps(10),
                      [&] { seen = sched.current_event_id(); });
    sched.run();
    EXPECT_EQ(seen, 0u);  // no tracer => no id bookkeeping
}

TEST(Scheduler, PastScheduleInvokesFaultHookThenThrows) {
    sim::Scheduler sched;
    std::string fault_kind;
    std::string fault_detail;
    sched.set_fault_hook([&](const char* kind, const std::string& detail) {
        fault_kind = kind;
        fault_detail = detail;
    });
    sched.schedule_at(SimTime::ps(100), [] {});
    sched.run();
    ASSERT_EQ(sched.now(), SimTime::ps(100));
    EXPECT_THROW(sched.schedule_at(SimTime::ps(50), [] {}),
                 std::logic_error);
    EXPECT_EQ(fault_kind, "schedule_in_past");
    EXPECT_FALSE(fault_detail.empty());
}

// ---------------------------------------------------------------- spans

TEST(SpanCollector, DisabledRecordsNothing) {
    obs::SpanCollector c;
    EXPECT_FALSE(c.enabled());
    { obs::TraceSpan span("never", c); }
    c.record("never", 0.0, 1.0);
    EXPECT_TRUE(c.merged().empty());
    EXPECT_EQ(c.dropped(), 0u);
}

TEST(SpanCollector, MergeIsDeterministicAcrossThreads) {
    obs::SpanCollector c;
    c.enable();
    constexpr int kThreads = 4;
    constexpr int kPerThread = 50;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&c, t] {
            for (int i = 0; i < kPerThread; ++i) {
                const double t0 = t * 0.001 + i;  // deterministic times
                c.record(t % 2 == 0 ? "even.phase" : "odd.phase", t0,
                         t0 + 0.5);
            }
        });
    }
    for (auto& th : threads) th.join();
    c.disable();

    const auto merged = c.merged();
    ASSERT_EQ(merged.size(),
              static_cast<std::size_t>(kThreads * kPerThread));
    // Sorted by (t0, t1, name, tid, seq): a pure function of the span set.
    for (std::size_t i = 1; i < merged.size(); ++i) {
        EXPECT_LE(merged[i - 1].t0_s, merged[i].t0_s);
    }
    const auto again = c.merged();
    for (std::size_t i = 0; i < merged.size(); ++i) {
        EXPECT_EQ(merged[i].name, again[i].name);
        EXPECT_EQ(merged[i].tid, again[i].tid);
        EXPECT_EQ(merged[i].seq, again[i].seq);
    }

    const auto sums = c.summaries();
    ASSERT_EQ(sums.size(), 2u);  // sorted by name
    EXPECT_EQ(sums[0].name, "even.phase");
    EXPECT_EQ(sums[1].name, "odd.phase");
    EXPECT_EQ(sums[0].count + sums[1].count,
              static_cast<std::uint64_t>(kThreads * kPerThread));
    EXPECT_NEAR(sums[0].max_s, 0.5, 1e-12);
}

TEST(SpanCollector, ChromeTraceJsonShape) {
    obs::SpanCollector c;
    c.enable();
    { obs::TraceSpan span("unit.work", c); }
    c.record("unit.work", 1.0, 1.25);
    c.disable();
    const auto json = c.chrome_trace_json();
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
    EXPECT_NE(json.find("\"unit.work\""), std::string::npos);
    EXPECT_NE(json.find("gcdr.trace/v1"), std::string::npos);
    // 1.0 s -> 1e6 us timestamps, 0.25 s -> 250000 us duration.
    EXPECT_NE(json.find("250000"), std::string::npos);
}

TEST(SpanCollector, FullBufferCountsDrops) {
    obs::SpanCollector c;
    c.enable(4);
    for (int i = 0; i < 10; ++i) {
        c.record("spill", static_cast<double>(i), i + 0.5);
    }
    c.disable();
    EXPECT_EQ(c.merged().size(), 4u);
    EXPECT_EQ(c.dropped(), 6u);
    c.clear();
    EXPECT_TRUE(c.merged().empty());
    EXPECT_EQ(c.dropped(), 0u);
}

// ------------------------------------------------------------- recorder

TEST(FlightRing, KeepsNewestAndRoundsCapacity) {
    obs::FlightRing ring("unit", 3);  // rounded up to 4
    EXPECT_EQ(ring.capacity(), 4u);
    for (int i = 1; i <= 10; ++i) {
        ring.append(i * 100, "tick", static_cast<double>(i));
    }
    EXPECT_EQ(ring.appended(), 10u);
    const auto snap = ring.snapshot();
    ASSERT_EQ(snap.size(), 4u);
    EXPECT_EQ(snap.front().time_fs, 700);  // oldest retained
    EXPECT_EQ(snap.back().time_fs, 1000);  // newest
    EXPECT_STREQ(snap.back().kind, "tick");
}

TEST(FlightRecorder, DumpWritesJsonAndHonorsMaxDumps) {
    obs::FlightRecorder::Config cfg;
    cfg.ring_capacity = 8;
    cfg.dump_dir = fresh_dir("dump");
    cfg.max_dumps = 2;
    cfg.window_fs = 1000;
    obs::FlightRecorder rec(cfg);

    obs::CausalTracer tracer;
    tracer.on_schedule(1, 0, 400);
    tracer.on_schedule(2, 1, 500);
    auto& ring = rec.ring("ch0");
    ring.set_tracer(&tracer);
    ring.append(400, "gcco_gate", 0.0, 1);
    ring.append(500, "decision", 1.0, 2);

    std::vector<std::string> hook_paths;
    rec.set_waveform_dump([&](const std::string& stem, std::int64_t t0,
                              std::int64_t t1) {
        EXPECT_LE(t0, 500);
        EXPECT_GE(t1, 500);
        hook_paths.push_back(stem + ".vcd");
        return hook_paths;
    });

    const auto path = rec.dump("unit_reason");
    ASSERT_FALSE(path.empty());
    ASSERT_TRUE(std::filesystem::exists(path));
    const auto doc = slurp(path);
    EXPECT_NE(doc.find("gcdr.flight.dump/v1"), std::string::npos);
    EXPECT_NE(doc.find("unit_reason"), std::string::npos);
    EXPECT_NE(doc.find("causal_chain"), std::string::npos);
    EXPECT_NE(doc.find("gcco_gate"), std::string::npos);
    ASSERT_EQ(hook_paths.size(), 1u);
    EXPECT_NE(doc.find(hook_paths[0]), std::string::npos);

    EXPECT_FALSE(rec.dump("second").empty());
    EXPECT_TRUE(rec.dump("beyond_cap").empty());  // capped, still counted
    EXPECT_EQ(rec.triggers(), 3u);
    EXPECT_EQ(rec.dump_paths().size(), 2u);
    ring.set_tracer(nullptr);
}

TEST(ElasticBuffer, FaultHookFiresOnOverflowAndUnderflow) {
    cdr::ElasticBuffer eb(4);
    std::vector<std::string> kinds;
    eb.set_fault_hook([&](const char* kind) { kinds.emplace_back(kind); });
    // Drain the half-full priming fill, then one read past empty.
    while (eb.occupancy() > 0) EXPECT_TRUE(eb.read().has_value());
    EXPECT_FALSE(eb.read().has_value());
    ASSERT_FALSE(kinds.empty());
    EXPECT_EQ(kinds.back(), "elastic_underflow");
    for (int i = 0; i < 8; ++i) eb.write(i % 2 == 0);
    EXPECT_GE(eb.overflows(), 1u);
    EXPECT_NE(std::find(kinds.begin(), kinds.end(), "elastic_overflow"),
              kinds.end());
}

// ---------------------------------------------------- end-to-end chains

// The acceptance walk: a sampled bit's causal chain must reach back to a
// GCCO gating/restart event (EDET pulse edge) through the trace ring.
TEST(FlightIntegration, DecisionChainReachesGccoGating) {
    sim::Scheduler sched;
    obs::CausalTracer tracer(1 << 16);
    sched.attach_tracer(&tracer);
    Rng rng(7);
    auto cfg = cdr::ChannelConfig::nominal(2.5e9);
    cdr::GccoChannel ch(sched, rng, cfg);
    obs::FlightRing ring("ch0", 8192);
    ring.set_tracer(&tracer);
    ch.record_flight(ring);

    encoding::PrbsGenerator gen(encoding::PrbsOrder::kPrbs7);
    const std::size_t n_bits = 300;
    jitter::StreamParams sp;
    sp.spec = jitter::JitterSpec::paper_table1();
    sp.start = SimTime::ns(4);
    ch.drive(jitter::jittered_edges(gen.bits(n_bits), sp, rng));
    sched.run_until(sp.start +
                    cfg.rate.ui_to_time(static_cast<double>(n_bits)));

    const auto events = ring.snapshot();
    ASSERT_FALSE(events.empty());
    std::set<std::string> kinds;
    std::set<std::uint64_t> gating_ids;
    std::uint64_t decision_cause = 0;
    for (const auto& e : events) {
        kinds.insert(e.kind);
        const std::string kind = e.kind;
        if ((kind == "gcco_gate" || kind == "gcco_restart") &&
            e.cause_id != 0) {
            gating_ids.insert(e.cause_id);
        }
        if (kind == "decision" && e.cause_id != 0) {
            decision_cause = e.cause_id;  // newest decision wins
        }
    }
    EXPECT_TRUE(kinds.count("din"));
    EXPECT_TRUE(kinds.count("gcco_gate"));
    EXPECT_TRUE(kinds.count("gcco_restart"));
    EXPECT_TRUE(kinds.count("sample_clk_rise"));
    ASSERT_TRUE(kinds.count("decision"));
    ASSERT_NE(decision_cause, 0u);
    ASSERT_FALSE(gating_ids.empty());

    const auto chain = tracer.chain(decision_cause, 4096);
    ASSERT_GE(chain.size(), 2u);
    bool reaches_gating = false;
    for (const auto& rec : chain) {
        if (gating_ids.count(rec.id)) reaches_gating = true;
    }
    EXPECT_TRUE(reaches_gating)
        << "decision chain of " << chain.size()
        << " events never crossed a GCCO gate/restart";
    ring.set_tracer(nullptr);
}

TEST(FlightIntegration, MultiChannelLockLossDumpsPostMortem) {
    obs::FlightRecorder::Config fcfg;
    fcfg.ring_capacity = 256;
    fcfg.dump_dir = fresh_dir("lockloss");
    obs::FlightRecorder rec(fcfg);

    Rng rng(3);
    auto cfg = cdr::MultiChannelConfig::paper_receiver();
    cfg.n_channels = 2;
    cdr::MultiChannelCdr mc(/*seed=*/3, cfg);
    mc.enable_flight_recorder(rec, 1024);

    encoding::PrbsGenerator gen(encoding::PrbsOrder::kPrbs7);
    jitter::StreamParams sp;
    sp.start = SimTime::ns(4);
    mc.drive(0, jitter::jittered_edges(gen.bits(100), sp, rng));
    mc.run_until(SimTime::ns(60));

    // Impossible tolerance: every channel transitions locked -> unlocked
    // (channels start assumed locked), so each dumps a post-mortem.
    mc.update_lock_metrics(0.0);
    EXPECT_GE(rec.triggers(), 1u);
    const auto paths = rec.dump_paths();
    ASSERT_FALSE(paths.empty());
    const auto doc = slurp(paths.front());
    EXPECT_NE(doc.find("lock_loss:ch"), std::string::npos);
    EXPECT_NE(doc.find("causal_chain"), std::string::npos);
    // The waveform hook wrote a bounded VCD window per channel.
    bool found_vcd = false;
    for (const auto& entry :
         std::filesystem::directory_iterator(fcfg.dump_dir)) {
        if (entry.path().extension() == ".vcd") found_vcd = true;
    }
    EXPECT_TRUE(found_vcd);
}

TEST(FlightIntegration, MarginModelErrorLeavesLaneDump) {
    obs::FlightRecorder::Config fcfg;
    fcfg.ring_capacity = 256;
    fcfg.dump_dir = fresh_dir("mc");
    obs::FlightRecorder rec(fcfg);

    // A hopeless operating point (huge SJ + frequency offset) so a
    // high-sigma closing edge decodes the wrong bit count quickly.
    statmodel::ModelConfig cfg;
    cfg.spec.sj_uipp = 0.6;
    cfg.sj_freq_norm = 0.5;
    cfg.freq_offset = 0.08;
    auto bp = mc::BehavioralMarginModel::params_from(cfg);
    bp.flight = &rec;
    mc::BehavioralMarginModel model(bp);

    mc::RunSample s;
    s.run_length = model.max_run_length();
    s.u_dj = 0.999;
    s.u_phase = 0.25;
    for (double z = 0.0; z <= 8.0 && rec.triggers() == 0; z += 2.0) {
        s.z_edge = z;
        s.noise_seed = static_cast<std::uint64_t>(z) + 1;
        (void)model.margin_ui(s);
    }
    EXPECT_GE(rec.triggers(), 1u);
    ASSERT_FALSE(rec.dump_paths().empty());
    const auto doc = slurp(rec.dump_paths().front());
    EXPECT_NE(doc.find("mc_margin_error"), std::string::npos);
    EXPECT_NE(doc.find("mc.lane"), std::string::npos);
}

}  // namespace
}  // namespace gcdr
