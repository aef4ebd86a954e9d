// Tests for the declarative scenario subsystem (src/scenario/): the
// strict loader/validator and its diagnostics (scenario_doc.hpp), the
// canonical resolved serialization and its fixed-point/hashing contract,
// netlist compilation (compile.hpp), the committed golden configs under
// scenarios/ (GCDR_SCENARIOS_DIR), the deterministic scenario fuzzer
// (fuzz.hpp), and the daemon's scenario job kind (serve/protocol.hpp).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <iterator>
#include <string>
#include <vector>

#include "exec/thread_pool.hpp"
#include "obs/json_parse.hpp"
#include "obs/metrics.hpp"
#include "scenario/compile.hpp"
#include "scenario/fuzz.hpp"
#include "scenario/run.hpp"
#include "scenario/scenario_doc.hpp"
#include "serve/cache.hpp"
#include "serve/executor.hpp"
#include "serve/protocol.hpp"
#include "serve/queue.hpp"
#include "util/hash.hpp"

#ifndef GCDR_SCENARIOS_DIR
#define GCDR_SCENARIOS_DIR "scenarios"
#endif

namespace gcdr::scenario {
namespace {

// Minimal valid document the malformed cases below are mutations of.
constexpr const char* kMinimalDoc = R"({
  "schema": "gcdr.scenario/v1",
  "name": "minimal",
  "tasks": [{"kind": "differential", "prefix": "diff"}]
})";

bool load(const std::string& text, ScenarioDoc& doc,
          std::vector<Diagnostic>& diags) {
    diags.clear();
    return scenario_from_string(text, doc, diags, "<test>");
}

bool any_diag_contains(const std::vector<Diagnostic>& diags,
                       const std::string& needle) {
    for (const auto& d : diags) {
        if (d.render().find(needle) != std::string::npos) return true;
    }
    return false;
}

// --- loader basics -------------------------------------------------------

TEST(ScenarioDoc, MinimalDocumentLoads) {
    ScenarioDoc doc;
    std::vector<Diagnostic> diags;
    ASSERT_TRUE(load(kMinimalDoc, doc, diags))
        << (diags.empty() ? "" : diags[0].render());
    EXPECT_EQ(doc.name, "minimal");
    ASSERT_EQ(doc.tasks.size(), 1u);
    EXPECT_EQ(doc.tasks[0].kind, TaskSpec::Kind::kDifferential);
    EXPECT_EQ(doc.tasks[0].prefix, "diff");
    // Unset sections keep their documented defaults.
    EXPECT_EQ(doc.mc.max_evals, 200'000u);
    EXPECT_FALSE(doc.has_netlist);
}

TEST(ScenarioDoc, ParseErrorCarriesLineAndColumn) {
    ScenarioDoc doc;
    std::vector<Diagnostic> diags;
    // Broken JSON on line 3.
    EXPECT_FALSE(load("{\n  \"schema\": \"gcdr.scenario/v1\",\n  !\n}", doc,
                      diags));
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_NE(diags[0].message.find("JSON parse error"), std::string::npos);
    EXPECT_EQ(diags[0].line, 3u);
    EXPECT_EQ(diags[0].file, "<test>");
}

TEST(ScenarioDoc, ValidationDiagnosticPointsAtOffendingValue) {
    ScenarioDoc doc;
    std::vector<Diagnostic> diags;
    const std::string text = "{\n"
                             "  \"schema\": \"gcdr.scenario/v1\",\n"
                             "  \"name\": \"x\",\n"
                             "  \"mc\": {\"max_evals\": 0},\n"
                             "  \"tasks\": [{\"kind\": \"differential\", "
                             "\"prefix\": \"d\"}]\n"
                             "}";
    EXPECT_FALSE(load(text, doc, diags));
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].path, "mc.max_evals");
    EXPECT_EQ(diags[0].line, 4u);  // the 0 literal sits on line 4
    EXPECT_GT(diags[0].column, 0u);
}

// --- malformed-scenario table --------------------------------------------

struct MalformedCase {
    const char* label;
    const char* text;
    const char* expect;    ///< substring of some rendered diagnostic
    const char* rendered;  ///< every rendered diagnostic, '\n'-joined
};

// Every rejection class named in the format doc gets a table row; these
// strings are the subsystem's user interface, so changes to them are
// breaking and must show up here.
const MalformedCase kMalformed[] = {
    {"wrong schema",
     R"({"schema":"gcdr.scenario/v0","name":"x",
         "tasks":[{"kind":"differential","prefix":"d"}]})",
     "schema",
     "<test>:1:11: at schema: want \"gcdr.scenario/v1\""},
    {"unknown top-level key",
     R"({"schema":"gcdr.scenario/v1","name":"x","bogus":1,
         "tasks":[{"kind":"differential","prefix":"d"}]})",
     "unknown key \"bogus\"",
     "<test>:1:49: at bogus: unknown key \"bogus\""},
    {"unknown model key",
     R"({"schema":"gcdr.scenario/v1","name":"x","model":{"gri_dx":0.01},
         "tasks":[{"kind":"differential","prefix":"d"}]})",
     "unknown key \"gri_dx\"",
     "<test>:1:59: at model.gri_dx: unknown key \"gri_dx\""},
    {"unknown task key for kind",
     R"({"schema":"gcdr.scenario/v1","name":"x",
         "tasks":[{"kind":"differential","prefix":"d","axes":[]}]})",
     "unknown key \"axes\" for kind \"differential\"",
     "<test>:2:62: at tasks[0].axes: unknown key \"axes\" for kind "
     "\"differential\""},
    {"zero mc budget",
     R"({"schema":"gcdr.scenario/v1","name":"x","mc":{"max_evals":0},
         "tasks":[{"kind":"differential","prefix":"d"}]})",
     "mc.max_evals must be >= 1",
     "<test>:1:59: at mc.max_evals: mc.max_evals must be >= 1 (a zero "
     "budget computes nothing)"},
    {"negative sweep step",
     R"({"schema":"gcdr.scenario/v1","name":"x","tasks":[
         {"kind":"ber_surface","prefix":"s","axes":[
          {"name":"sj_uipp","steps":{"from":0.5,"to":0.1,"step":-0.1}}]}]})",
     "sweep step must be positive",
     "<test>:3:37: at tasks[0].axes[0].steps.step: sweep step must be "
     "positive, got -0.100000\n"
     "<test>:3:11: at tasks[0].axes[0]: axis needs values (literal or "
     "generator)\n"
     "<test>:2:10: at tasks[0]: ber_surface needs \"axes\""},
    {"duplicate task prefix",
     R"({"schema":"gcdr.scenario/v1","name":"x","tasks":[
         {"kind":"differential","prefix":"d"},
         {"kind":"differential","prefix":"d"}]})",
     "duplicate metric prefix \"d\"",
     "<test>:1:1: at tasks[1]: duplicate metric prefix \"d\" (metrics "
     "would collide)"},
    {"netlist_run without netlist",
     R"({"schema":"gcdr.scenario/v1","name":"x",
         "tasks":[{"kind":"netlist_run","prefix":"n"}]})",
     "needs a \"netlist\" section",
     "<test>:1:1: at tasks[0]: netlist_run task needs a \"netlist\" "
     "section"},
    {"unconnected channel input",
     R"({"schema":"gcdr.scenario/v1","name":"x","netlist":{
         "instances":{"s":{"kind":"source"},"c":{"kind":"channel"},
                      "m":{"kind":"monitor"}},
         "wires":[{"from":"c.dout","to":"m.in"}]},
         "tasks":[{"kind":"netlist_run","prefix":"n"}]})",
     "input din is not driven by any wire",
     "<test>:4:18: at netlist.wires: channel \"c\" input din is not "
     "driven by any wire\n"
     "<test>:4:18: at netlist.wires: source \"s\" output out drives "
     "nothing"},
    {"doubly-driven channel input",
     R"({"schema":"gcdr.scenario/v1","name":"x","netlist":{
         "instances":{"s0":{"kind":"source"},"s1":{"kind":"source"},
                      "c":{"kind":"channel"},"m":{"kind":"monitor"}},
         "wires":[{"from":"s0.out","to":"c.din"},
                  {"from":"s1.out","to":"c.din"},
                  {"from":"c.dout","to":"m.in"}]},
         "tasks":[{"kind":"netlist_run","prefix":"n"}]})",
     "input din is driven more than once",
     "<test>:4:18: at netlist.wires: channel \"c\" input din is driven "
     "more than once"},
    {"dangling source output",
     R"({"schema":"gcdr.scenario/v1","name":"x","netlist":{
         "instances":{"s":{"kind":"source"},"s2":{"kind":"source"},
                      "c":{"kind":"channel"},"m":{"kind":"monitor"}},
         "wires":[{"from":"s.out","to":"c.din"},
                  {"from":"c.dout","to":"m.in"}]},
         "tasks":[{"kind":"netlist_run","prefix":"n"}]})",
     "output out drives nothing",
     "<test>:4:18: at netlist.wires: source \"s2\" output out drives "
     "nothing"},
    {"mismatched channel params",
     R"({"schema":"gcdr.scenario/v1","name":"x","netlist":{
         "instances":{"s":{"kind":"source"},
                      "c0":{"kind":"channel","ckj_uirms":0.01},
                      "c1":{"kind":"channel","ckj_uirms":0.02},
                      "m0":{"kind":"monitor"},"m1":{"kind":"monitor"}},
         "wires":[{"from":"s.out","to":"c0.din"},
                  {"from":"s.out","to":"c1.din"},
                  {"from":"c0.dout","to":"m0.in"},
                  {"from":"c1.dout","to":"m1.in"}]},
         "tasks":[{"kind":"netlist_run","prefix":"n"}]})",
     "channel parameters must match",
     "<test>:2:22: at netlist.instances.c1: channel parameters must "
     "match across instances (the multichannel receiver shares one "
     "channel template); \"c1\" differs from \"c0\""},
    {"bad grid_dx",
     R"({"schema":"gcdr.scenario/v1","name":"x","model":{"grid_dx":0.5},
         "tasks":[{"kind":"differential","prefix":"d"}]})",
     "grid_dx",
     "<test>:1:49: at model.grid_dx: want in (0, 0.1]"},
    {"bad prefix charset",
     R"({"schema":"gcdr.scenario/v1","name":"x",
         "tasks":[{"kind":"differential","prefix":"Bad Prefix"}]})",
     "prefix",
     "<test>:2:51: at tasks[0].prefix: metric prefix must be "
     "[a-z0-9_.]{1,64}"},
    {"pattern combined with prbs",
     R"({"schema":"gcdr.scenario/v1","name":"x","netlist":{
         "instances":{"s":{"kind":"source","pattern":[1,0],"prbs":7},
                      "c":{"kind":"channel"},"m":{"kind":"monitor"}},
         "wires":[{"from":"s.out","to":"c.din"},
                  {"from":"c.dout","to":"m.in"}]},
         "tasks":[{"kind":"netlist_run","prefix":"n"}]})",
     "cannot be combined with \"bits\" or \"prbs\"",
     "<test>:2:27: at netlist.instances.s: \"pattern\" replaces the "
     "PRBS stream; it cannot be combined with \"bits\" or \"prbs\""},
    {"repeat without pattern",
     R"({"schema":"gcdr.scenario/v1","name":"x","netlist":{
         "instances":{"s":{"kind":"source","repeat":4},
                      "c":{"kind":"channel"},"m":{"kind":"monitor"}},
         "wires":[{"from":"s.out","to":"c.din"},
                  {"from":"c.dout","to":"m.in"}]},
         "tasks":[{"kind":"netlist_run","prefix":"n"}]})",
     "\"repeat\" only applies to a \"pattern\" source",
     "<test>:2:27: at netlist.instances.s: \"repeat\" only applies to a "
     "\"pattern\" source"},
    {"non-bit pattern element",
     R"({"schema":"gcdr.scenario/v1","name":"x","netlist":{
         "instances":{"s":{"kind":"source","pattern":[1,2]},
                      "c":{"kind":"channel"},"m":{"kind":"monitor"}},
         "wires":[{"from":"s.out","to":"c.din"},
                  {"from":"c.dout","to":"m.in"}]},
         "tasks":[{"kind":"netlist_run","prefix":"n"}]})",
     "pattern bits must be 0 or 1",
     "<test>:2:57: at netlist.instances.s.pattern[1]: pattern bits must "
     "be 0 or 1"},
    {"rate_offset out of range",
     R"({"schema":"gcdr.scenario/v1","name":"x","netlist":{
         "instances":{"s":{"kind":"source","rate_offset":0.75},
                      "c":{"kind":"channel"},"m":{"kind":"monitor"}},
         "wires":[{"from":"s.out","to":"c.din"},
                  {"from":"c.dout","to":"m.in"}]},
         "tasks":[{"kind":"netlist_run","prefix":"n"}]})",
     "want in [-0.5, 0.5]",
     "<test>:2:58: at netlist.instances.s.rate_offset: want in [-0.5, "
     "0.5]"},
    {"health_probe without netlist",
     R"({"schema":"gcdr.scenario/v1","name":"x",
         "tasks":[{"kind":"health_probe","prefix":"h"}]})",
     "health_probe task needs a \"netlist\" section",
     "<test>:1:1: at tasks[0]: health_probe task needs a \"netlist\" "
     "section"},
    {"health_probe frames out of range",
     R"({"schema":"gcdr.scenario/v1","name":"x","netlist":{
         "instances":{"s":{"kind":"source"},
                      "c":{"kind":"channel"},"m":{"kind":"monitor"}},
         "wires":[{"from":"s.out","to":"c.din"},
                  {"from":"c.dout","to":"m.in"}]},
         "tasks":[{"kind":"health_probe","prefix":"h","frames":0}]})",
     "want an integer in [1, 1000]",
     "<test>:6:64: at tasks[0].frames: want an integer in [1, 1000]"},
    {"jtol mask not in the enum set",
     R"({"schema":"gcdr.scenario/v1","name":"x","tasks":[
         {"kind":"ber_surface","prefix":"s",
          "axes":[{"name":"sj_uipp","values":[0.1]}],
          "jtol":{"freqs":[0.1],"mask":"sonet"}}]})",
     "want \"infiniband_2g5\" or \"none\"",
     "<test>:4:40: at tasks[0].jtol.mask: want \"infiniband_2g5\" or "
     "\"none\""},
    {"jtol ber_target out of range",
     R"({"schema":"gcdr.scenario/v1","name":"x","tasks":[
         {"kind":"ber_surface","prefix":"s",
          "axes":[{"name":"sj_uipp","values":[0.1]}],
          "jtol":{"freqs":[0.1],"ber_target":1}}]})",
     "want in (0, 1)",
     "<test>:4:46: at tasks[0].jtol.ber_target: want in (0, 1)"},
    {"jtol_bits out of range",
     R"({"schema":"gcdr.scenario/v1","name":"x","tasks":[
         {"kind":"baseline_jtol","prefix":"b","jtol_freqs":[0.1],
          "jtol_bits":999}]})",
     "want an integer in [1000, 10000000]",
     "<test>:3:23: at tasks[0].jtol_bits: want an integer in [1000, "
     "10000000]"},
    {"behavioral_tau below one",
     R"({"schema":"gcdr.scenario/v1","name":"x",
         "tasks":[{"kind":"differential","prefix":"d",
                   "behavioral_tau":0.5}]})",
     "want >= 1",
     "<test>:3:37: at tasks[0].behavioral_tau: want >= 1"},
    {"unsupported PRBS order",
     R"({"schema":"gcdr.scenario/v1","name":"x","netlist":{
         "instances":{"s":{"kind":"source","prbs":8},
                      "c":{"kind":"channel"},"m":{"kind":"monitor"}},
         "wires":[{"from":"s.out","to":"c.din"},
                  {"from":"c.dout","to":"m.in"}]},
         "tasks":[{"kind":"netlist_run","prefix":"n"}]})",
     "want a PRBS order: 7, 9, 15, 23 or 31",
     "<test>:2:51: at netlist.instances.s.prbs: want a PRBS order: 7, "
     "9, 15, 23 or 31"},
    {"non-positive oscillator frequency",
     R"({"schema":"gcdr.scenario/v1","name":"x","netlist":{
         "instances":{"s":{"kind":"source"},
                      "c":{"kind":"channel","f_osc_hz":0},
                      "m":{"kind":"monitor"}},
         "wires":[{"from":"s.out","to":"c.din"},
                  {"from":"c.dout","to":"m.in"}]},
         "tasks":[{"kind":"netlist_run","prefix":"n"}]})",
     "want > 0",
     "<test>:3:56: at netlist.instances.c.f_osc_hz: want > 0"},
    {"mc confidence out of range",
     R"({"schema":"gcdr.scenario/v1","name":"x","mc":{"confidence":1},
         "tasks":[{"kind":"differential","prefix":"d"}]})",
     "want in (0, 1)",
     "<test>:1:60: at mc.confidence: want in (0, 1)"},
    {"non-positive logspace endpoint",
     R"({"schema":"gcdr.scenario/v1","name":"x","tasks":[
         {"kind":"ber_surface","prefix":"s","axes":[
          {"name":"sj_freq_norm",
           "logspace":{"from":0,"to":0.1,"points":3}}]}]})",
     "logspace endpoints must be positive",
     "<test>:4:23: at tasks[0].axes[0].logspace: logspace endpoints "
     "must be positive\n"
     "<test>:3:11: at tasks[0].axes[0]: axis needs values (literal or "
     "generator)\n"
     "<test>:2:10: at tasks[0]: ber_surface needs \"axes\""},
    {"unknown axis name",
     R"({"schema":"gcdr.scenario/v1","name":"x","tasks":[
         {"kind":"ber_surface","prefix":"s",
          "axes":[{"name":"sj_uipx","values":[0.1]}]}]})",
     "unknown model field \"sj_uipx\"",
     "<test>:3:27: at tasks[0].axes[0].name: unknown model field "
     "\"sj_uipx\""},
    {"steps generator over the point cap",
     R"({"schema":"gcdr.scenario/v1","name":"x","tasks":[
         {"kind":"ber_surface","prefix":"s","axes":[
          {"name":"sj_uipp","steps":{"from":0,"to":20000,"step":1}}]}]})",
     "steps generator yields 20001 points, cap is 10000",
     "<test>:3:37: at tasks[0].axes[0].steps: steps generator yields "
     "20001 points, cap is 10000\n"
     "<test>:3:11: at tasks[0].axes[0]: axis needs values (literal or "
     "generator)\n"
     "<test>:2:10: at tasks[0]: ber_surface needs \"axes\""},
    {"steps span too large for a point count",
     R"({"schema":"gcdr.scenario/v1","name":"x","tasks":[
         {"kind":"ber_surface","prefix":"s","axes":[
          {"name":"sj_uipp","steps":{"from":0,"to":1e30,"step":1}}]}]})",
     "cap is 10000",
     "<test>:3:37: at tasks[0].axes[0].steps: steps generator yields "
     "1e+30 points, cap is 10000\n"
     "<test>:3:11: at tasks[0].axes[0]: axis needs values (literal or "
     "generator)\n"
     "<test>:2:10: at tasks[0]: ber_surface needs \"axes\""},
    {"steps span overflowing to infinity",
     R"({"schema":"gcdr.scenario/v1","name":"x","tasks":[
         {"kind":"ber_surface","prefix":"s","axes":[
          {"name":"sj_uipp",
           "steps":{"from":0,"to":1e308,"step":1e-308}}]}]})",
     "cap is 10000",
     "<test>:4:20: at tasks[0].axes[0].steps: steps generator yields "
     "infinitely many points, cap is 10000\n"
     "<test>:3:11: at tasks[0].axes[0]: axis needs values (literal or "
     "generator)\n"
     "<test>:2:10: at tasks[0]: ber_surface needs \"axes\""},
};

TEST(ScenarioDoc, MalformedDocumentsAreRejectedLoudly) {
    for (const auto& c : kMalformed) {
        ScenarioDoc doc;
        std::vector<Diagnostic> diags;
        EXPECT_FALSE(load(c.text, doc, diags)) << c.label;
        EXPECT_FALSE(diags.empty()) << c.label;
        EXPECT_TRUE(any_diag_contains(diags, c.expect))
            << c.label << ": wanted \"" << c.expect << "\", got \""
            << (diags.empty() ? "" : diags[0].render()) << "\"";
        std::string all;
        for (const auto& d : diags) {
            if (!all.empty()) all += '\n';
            all += d.render();
        }
        EXPECT_EQ(all, c.rendered) << c.label;
    }
}

TEST(ScenarioDoc, CollectsMultipleDiagnosticsInOnePass) {
    // Two independent faults — the loader reports both, not just the
    // first (a config author fixes a whole file per iteration).
    ScenarioDoc doc;
    std::vector<Diagnostic> diags;
    EXPECT_FALSE(load(
        R"({"schema":"gcdr.scenario/v1","name":"x","mc":{"max_evals":0},
            "tasks":[{"kind":"differential","prefix":"d","bogus":1}]})",
        doc, diags));
    EXPECT_TRUE(any_diag_contains(diags, "mc.max_evals must be >= 1"));
    EXPECT_TRUE(any_diag_contains(diags, "unknown key \"bogus\""));
}

// --- canonical form ------------------------------------------------------

TEST(ScenarioCanonical, ResolvedJsonIsAFixedPoint) {
    ScenarioDoc doc;
    std::vector<Diagnostic> diags;
    ASSERT_TRUE(load(kMinimalDoc, doc, diags));
    const std::string r1 = resolved_json(doc);
    ScenarioDoc doc2;
    ASSERT_TRUE(scenario_from_string(r1, doc2, diags, "<resolved>"))
        << (diags.empty() ? "" : diags[0].render());
    EXPECT_EQ(resolved_json(doc2), r1);
    EXPECT_EQ(scenario_hash(doc2), scenario_hash(doc));
}

TEST(ScenarioCanonical, HashIgnoresKeyOrderAndFloatSpelling) {
    ScenarioDoc a, b;
    std::vector<Diagnostic> diags;
    ASSERT_TRUE(load(
        R"({"schema":"gcdr.scenario/v1","name":"x",
            "model":{"sj_uipp":0.3,"grid_dx":0.002},
            "tasks":[{"kind":"differential","prefix":"d"}]})",
        a, diags));
    ASSERT_TRUE(load(
        R"({"tasks":[{"prefix":"d","kind":"differential"}],
            "model":{"grid_dx":2e-3,"sj_uipp":0.30},
            "name":"x","schema":"gcdr.scenario/v1"})",
        b, diags));
    EXPECT_EQ(resolved_json(a), resolved_json(b));
    EXPECT_EQ(scenario_hash(a), scenario_hash(b));
}

TEST(ScenarioCanonical, HashSeparatesDifferentWorkloads) {
    ScenarioDoc a, b;
    std::vector<Diagnostic> diags;
    ASSERT_TRUE(load(kMinimalDoc, a, diags));
    ASSERT_TRUE(load(
        R"({"schema":"gcdr.scenario/v1","name":"minimal",
            "model":{"sj_uipp":0.1},
            "tasks":[{"kind":"differential","prefix":"diff"}]})",
        b, diags));
    EXPECT_NE(scenario_hash(a), scenario_hash(b));
}

TEST(ScenarioCanonical, SweepGeneratorsExpandDeterministically) {
    ScenarioDoc doc;
    std::vector<Diagnostic> diags;
    ASSERT_TRUE(load(
        R"({"schema":"gcdr.scenario/v1","name":"x","tasks":[
            {"kind":"ber_surface","prefix":"s","axes":[
             {"name":"sj_uipp","steps":{"from":0.1,"to":0.5,"step":0.1}},
             {"name":"sj_freq_norm",
              "logspace":{"from":0.001,"to":0.1,"points":3}}]}]})",
        doc, diags))
        << (diags.empty() ? "" : diags[0].render());
    ASSERT_EQ(doc.tasks.size(), 1u);
    ASSERT_EQ(doc.tasks[0].axes.size(), 2u);
    const auto& steps = doc.tasks[0].axes[0].values;
    ASSERT_EQ(steps.size(), 5u);
    EXPECT_DOUBLE_EQ(steps.front(), 0.1);
    EXPECT_DOUBLE_EQ(steps.back(), 0.5);
    const auto& logs = doc.tasks[0].axes[1].values;
    ASSERT_EQ(logs.size(), 3u);
    EXPECT_NEAR(logs[1], 0.01, 1e-12);
}

TEST(ScenarioCanonical, PatternSourceAndHealthProbeRoundTrip) {
    // The health subsystem's fault-injection knobs: an explicit bit
    // pattern (replacing the PRBS stream) with a repeat count and a TX
    // rate offset, driven by a health_probe task. All three must survive
    // the resolved-form round trip byte for byte.
    ScenarioDoc doc;
    std::vector<Diagnostic> diags;
    ASSERT_TRUE(load(
        R"({"schema":"gcdr.scenario/v1","name":"x","netlist":{
            "instances":{
              "s":{"kind":"source","pattern":[1,1,0,0],"repeat":10,
                   "rate_offset":0.05,"start_ns":4.0},
              "c":{"kind":"channel"},"m":{"kind":"monitor"}},
            "wires":[{"from":"s.out","to":"c.din"},
                     {"from":"c.dout","to":"m.in"}]},
            "tasks":[{"kind":"health_probe","prefix":"h","frames":3}]})",
        doc, diags))
        << (diags.empty() ? "" : diags[0].render());
    ASSERT_EQ(doc.tasks.size(), 1u);
    EXPECT_EQ(doc.tasks[0].kind, TaskSpec::Kind::kHealthProbe);
    EXPECT_EQ(doc.tasks[0].frames, 3u);
    ASSERT_EQ(doc.netlist.sources.size(), 1u);
    const SourceSpec& s = doc.netlist.sources[0];
    EXPECT_EQ(s.pattern, (std::vector<int>{1, 1, 0, 0}));
    EXPECT_EQ(s.repeat, 10u);
    EXPECT_DOUBLE_EQ(s.rate_offset, 0.05);
    const std::string r1 = resolved_json(doc);
    ScenarioDoc doc2;
    ASSERT_TRUE(scenario_from_string(r1, doc2, diags, "<resolved>"))
        << (diags.empty() ? "" : diags[0].render());
    EXPECT_EQ(resolved_json(doc2), r1);
    EXPECT_EQ(scenario_hash(doc2), scenario_hash(doc));
}

// --- golden configs ------------------------------------------------------

TEST(ScenarioGoldens, CommittedScenariosLoadAndRoundTrip) {
    const char* goldens[] = {"fig9_ber_sj.json",    "baseline_jtol.json",
                             "multilane_smoke.json", "xval_sj030.json",
                             "fig8_timing.json",     "health_smoke.json"};
    for (const char* g : goldens) {
        const std::string path = std::string(GCDR_SCENARIOS_DIR) + "/" + g;
        ScenarioDoc doc;
        std::vector<Diagnostic> diags;
        ASSERT_TRUE(scenario_from_file(path, doc, diags))
            << path << ": "
            << (diags.empty() ? "unreadable" : diags[0].render());
        // Canonical fixed point: reloading the resolved form reproduces
        // it byte for byte (this is what makes scenario_hash a stable
        // cache/ledger key).
        const std::string r1 = resolved_json(doc);
        ScenarioDoc doc2;
        ASSERT_TRUE(scenario_from_string(r1, doc2, diags, path))
            << path << ": " << (diags.empty() ? "" : diags[0].render());
        EXPECT_EQ(resolved_json(doc2), r1) << path;
        EXPECT_EQ(scenario_hash(doc2), scenario_hash(doc)) << path;
    }
}

TEST(ScenarioGoldens, CanonicalHashesArePinned) {
    // scenario_hash keys the bench ledger and the daemon's persistent
    // cache; a change to any canonical byte re-keys every stored result,
    // so the exact values are part of the on-disk contract.
    const struct {
        const char* file;
        std::uint64_t hash;
    } pins[] = {
        {"fig9_ber_sj.json", 0x15d469506fbdcad4ull},
        {"baseline_jtol.json", 0x37524aada34c4beaull},
        {"multilane_smoke.json", 0xf164c1350a22ac53ull},
        {"xval_sj030.json", 0x710e720f415b097full},
        {"fig8_timing.json", 0x2ba1c0088c600828ull},
        {"health_smoke.json", 0xc013b394be268b91ull},
    };
    for (const auto& pin : pins) {
        const std::string path =
            std::string(GCDR_SCENARIOS_DIR) + "/" + pin.file;
        ScenarioDoc doc;
        std::vector<Diagnostic> diags;
        ASSERT_TRUE(scenario_from_file(path, doc, diags)) << path;
        EXPECT_EQ(scenario_hash(doc), pin.hash) << path;
    }
}

TEST(ScenarioGoldens, MultilaneNetlistCompiles) {
    const std::string path =
        std::string(GCDR_SCENARIOS_DIR) + "/multilane_smoke.json";
    ScenarioDoc doc;
    std::vector<Diagnostic> diags;
    ASSERT_TRUE(scenario_from_file(path, doc, diags));
    ASSERT_TRUE(doc.has_netlist);
    const CompiledNetlist net = compile_netlist(doc.netlist);
    EXPECT_EQ(net.config.n_channels, 4);
    ASSERT_EQ(net.lanes.size(), 4u);
    // Lanes follow channel name order; each carries its source's
    // pattern length and its wire's skew.
    EXPECT_EQ(net.lanes[0].bits, 2000u);
    EXPECT_DOUBLE_EQ(net.lanes[0].skew_ps, 0.0);
    EXPECT_DOUBLE_EQ(net.lanes[3].skew_ps, 105.0);
}

// --- fuzzer --------------------------------------------------------------

TEST(ScenarioFuzz, SameSeedSameDocument) {
    const ScenarioDoc a = random_valid(7);
    const ScenarioDoc b = random_valid(7);
    EXPECT_EQ(resolved_json(a), resolved_json(b));
    EXPECT_EQ(scenario_hash(a), scenario_hash(b));
}

TEST(ScenarioFuzz, CanonicalHashesArePinned) {
    const std::uint64_t pins[] = {
        0x0ba03971041e370aull, 0xd4a4a2296d7474a4ull, 0xb3503194f9d8074dull,
        0x43cd3d7b7e0c0c6dull, 0x36f6b9b4089bb4a5ull,
    };
    for (std::uint64_t seed = 0; seed < std::size(pins); ++seed) {
        EXPECT_EQ(scenario_hash(random_valid(seed)), pins[seed])
            << "seed " << seed;
    }
}

TEST(ScenarioFuzz, SeedsProduceDistinctValidDocuments) {
    std::vector<std::uint64_t> hashes;
    for (std::uint64_t seed = 0; seed < 16; ++seed) {
        const ScenarioDoc doc = random_valid(seed);
        // Every generated document must survive its own validator via
        // the canonical round trip — the fuzzer may only emit documents
        // a user could have written.
        ScenarioDoc reloaded;
        std::vector<Diagnostic> diags;
        ASSERT_TRUE(scenario_from_string(resolved_json(doc), reloaded,
                                         diags, "<fuzz>"))
            << "seed " << seed << ": "
            << (diags.empty() ? "" : diags[0].render());
        hashes.push_back(scenario_hash(doc));
    }
    std::sort(hashes.begin(), hashes.end());
    EXPECT_EQ(std::unique(hashes.begin(), hashes.end()), hashes.end())
        << "fuzz seeds collided on identical documents";
}

// --- execution -----------------------------------------------------------

ScenarioResult run_with_pool(const ScenarioDoc& doc, std::size_t threads,
                             obs::MetricsRegistry& reg) {
    exec::ThreadPool pool(threads);
    ScenarioContext ctx;
    ctx.metrics = &reg;
    ctx.pool = &pool;
    ctx.seed = 1;
    return run_scenario(doc, ctx);
}

TEST(ScenarioRun, NetlistRunDrivesPatternSourceAtItsRateOffset) {
    // netlist_run and health_probe share one lane stimulus: a pattern
    // source drives exactly pattern x repeat bits (20 alternating bits =
    // 20 DIN transitions, not the 2000-bit PRBS default) at the source's
    // rate offset, so both tasks see the same decisions.
    ScenarioDoc doc;
    std::vector<Diagnostic> diags;
    ASSERT_TRUE(load(R"({"schema":"gcdr.scenario/v1","name":"pat",
        "netlist":{"instances":{
            "s":{"kind":"source","pattern":[1,0],"repeat":10,
                 "rate_offset":0.2},
            "c":{"kind":"channel"},"m":{"kind":"monitor"}},
          "wires":[{"from":"s.out","to":"c.din"},
                   {"from":"c.dout","to":"m.in"}]},
        "tasks":[{"kind":"netlist_run","prefix":"nr"},
                 {"kind":"health_probe","prefix":"hp","frames":2}]})",
                     doc, diags))
        << (diags.empty() ? "" : diags[0].render());
    obs::MetricsRegistry reg;
    (void)run_with_pool(doc, 1, reg);
    EXPECT_EQ(reg.counter("nr.cdr.ch0.din.transitions").value(), 20u);
    EXPECT_EQ(reg.counter("hp.cdr.ch0.din.transitions").value(), 20u);
    EXPECT_EQ(reg.counter("nr.cdr.ch0.decisions").value(),
              reg.counter("hp.cdr.ch0.decisions").value());
}

// Every committed scenario: the deterministic payload is byte-identical
// at pool sizes 1 and 4 (the thread-count invariance contract).
std::vector<std::string> committed_scenarios() {
    std::vector<std::string> names;
    for (const auto& e :
         std::filesystem::directory_iterator(GCDR_SCENARIOS_DIR)) {
        if (e.path().extension() == ".json") {
            names.push_back(e.path().stem().string());
        }
    }
    std::sort(names.begin(), names.end());
    return names;
}

class CommittedScenario : public ::testing::TestWithParam<std::string> {};

TEST_P(CommittedScenario, PayloadIsThreadCountInvariant) {
    const std::string path =
        std::string(GCDR_SCENARIOS_DIR) + "/" + GetParam() + ".json";
    ScenarioDoc doc;
    std::vector<Diagnostic> diags;
    ASSERT_TRUE(scenario_from_file(path, doc, diags)) << path;
    obs::MetricsRegistry reg1, reg4;
    const std::string p1 =
        result_payload_json(doc, run_with_pool(doc, 1, reg1));
    const std::string p4 =
        result_payload_json(doc, run_with_pool(doc, 4, reg4));
    EXPECT_EQ(p1, p4) << path;
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, CommittedScenario, ::testing::ValuesIn(committed_scenarios()),
    [](const ::testing::TestParamInfo<std::string>& info) {
        return info.param;
    });

}  // namespace
}  // namespace gcdr::scenario

// --- serve integration ---------------------------------------------------

namespace gcdr::serve {
namespace {

JobSpec parse_or_die(const std::string& text) {
    obs::JsonValue v;
    std::string err;
    EXPECT_TRUE(obs::json_parse(text, v, &err)) << err;
    JobSpec spec;
    EXPECT_TRUE(parse_job(v, spec, err)) << err;
    return spec;
}

constexpr const char* kScenarioJob =
    R"({"type":"scenario","seed":3,"scenario":{
        "schema":"gcdr.scenario/v1","name":"serve_smoke",
        "model":{"grid_dx":0.002},
        "tasks":[{"kind":"differential","prefix":"d",
                  "behavioral_runs":0}]}})";

TEST(ServeScenario, ParsesAndHashesCanonically) {
    const JobSpec spec = parse_or_die(kScenarioJob);
    EXPECT_EQ(spec.type, JobType::kScenario);
    ASSERT_TRUE(spec.has_scenario);
    EXPECT_EQ(spec.scenario.name, "serve_smoke");

    // Key order / float spelling of the embedded document must not
    // change the config hash (same content-addressing contract as the
    // statmodel job kinds).
    const JobSpec re = parse_or_die(
        R"({"scenario":{
            "tasks":[{"behavioral_runs":0,"prefix":"d",
                      "kind":"differential"}],
            "model":{"grid_dx":2e-3},"name":"serve_smoke",
            "schema":"gcdr.scenario/v1"},"seed":3,"type":"scenario"})");
    EXPECT_EQ(resolved_spec_json(spec), resolved_spec_json(re));
    EXPECT_EQ(spec_config_hash(spec), spec_config_hash(re));
}

TEST(ServeScenario, ScenarioJobsUseTheirOwnModelVersion) {
    EXPECT_STREQ(model_version_of(JobType::kScenario), kScenarioModelVersion);
    EXPECT_STREQ(model_version_of(JobType::kBer), kModelVersion);
    // The version stamp is a cache-key component: scenario results and
    // statmodel results can never shadow each other.
    EXPECT_NE(util::fnv1a64(kScenarioModelVersion),
              util::fnv1a64(kModelVersion));
}

TEST(ServeScenario, RejectsMalformedScenarioJobs) {
    const struct {
        const char* text;
        const char* expect;
    } cases[] = {
        {R"({"type":"scenario","seed":1})", "scenario job needs"},
        {R"({"type":"scenario","config":{"grid_dx":0.01},"scenario":{
             "schema":"gcdr.scenario/v1","name":"x",
             "tasks":[{"kind":"differential","prefix":"d"}]}})",
         "not valid for scenario jobs"},
        {R"({"type":"ber","scenario":{
             "schema":"gcdr.scenario/v1","name":"x",
             "tasks":[{"kind":"differential","prefix":"d"}]}})",
         "only valid for scenario jobs"},
        {R"({"type":"scenario","scenario":{
             "schema":"gcdr.scenario/v1","name":"x",
             "tasks":[{"kind":"differential","prefix":"d","bogus":1}]}})",
         "unknown key \"bogus\""},
    };
    for (const auto& c : cases) {
        obs::JsonValue v;
        std::string err;
        ASSERT_TRUE(obs::json_parse(c.text, v, &err)) << err;
        JobSpec spec;
        EXPECT_FALSE(parse_job(v, spec, err)) << c.text;
        EXPECT_NE(err.find(c.expect), std::string::npos)
            << "wanted \"" << c.expect << "\" in \"" << err << "\"";
    }
}

TEST(ServeScenario, ExecutorCachesByteIdenticalPayloads) {
    ResultCache cache;
    JobExecutor exec(cache, nullptr);
    exec::ThreadPool pool(2);
    const JobSpec spec = parse_or_die(kScenarioJob);

    const CacheKey key = JobExecutor::key_of(spec);
    EXPECT_EQ(key.model_hash, util::fnv1a64(kScenarioModelVersion));
    EXPECT_EQ(key.seed, 3u);

    JobState job1(1, spec), job2(2, spec);
    const ExecOutcome first = exec.execute(job1, pool);
    const ExecOutcome second = exec.execute(job2, pool);
    EXPECT_EQ(first.status, JobStatus::kDone);
    EXPECT_EQ(first.cache_misses, 1u);
    EXPECT_EQ(second.cache_hits, 1u);
    EXPECT_EQ(second.cache_misses, 0u);

    // A hit serves the stored bytes verbatim: payloads are identical.
    std::string stored;
    ASSERT_TRUE(cache.lookup(key, stored));
    EXPECT_NE(first.envelope.find("\"payload\":" + stored),
              std::string::npos);
    EXPECT_NE(second.envelope.find("\"payload\":" + stored),
              std::string::npos);
    EXPECT_NE(first.envelope.find(kScenarioModelVersion),
              std::string::npos);
}

}  // namespace
}  // namespace gcdr::serve
