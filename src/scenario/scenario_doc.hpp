#pragma once
// Declarative scenario documents (gcdr.scenario/v1) — the config-file
// netlist layer of ROADMAP item 4. A scenario describes WHAT to simulate
// (channel count and wiring, jitter stack, statmodel knobs, sweep grids,
// MC budgets, tasks) as data; the compiler (scenario/compile.hpp) lowers
// a validated document onto the existing object graph and the runner
// (scenario/run.hpp) executes it with a fixed metric structure per task
// kind, pinned by the golden reports under bench/reports/.
//
// Format sketch (JSON, parsed with the strict obs/json_parse parser):
//
//   {"schema": "gcdr.scenario/v1",
//    "name": "fig9_ber_sj",
//    "title": "...",                          // optional
//    "model": {.. statmodel::ModelConfig surface, all optional ..},
//    "mc": {"max_evals": 200000, "target_rel_err": 0.1},
//    "netlist": {"instances": {..}, "wires": [..]},   // optional
//    "tasks": [{"kind": "ber_surface", ...}, ...]}
//
// Sweep values anywhere a list of numbers is needed accept generator
// forms — [..] literal, {"values": [..]}, {"linspace"|"logspace":
// {"from": a, "to": b, "points": n}}, {"steps": {"from": a, "to": b,
// "step": s}} — expanded at load time through util::linspace/logspace so
// a scenario reproduces the exact grid doubles of the equivalent C++
// util::logspace/linspace call.
//
// Validation follows the qsoc netlist idiom: parse, then structural
// validation that is LOUD — unknown keys anywhere, unconnected or
// doubly-driven wires, direction mismatches, out-of-range parameters are
// all hard errors carrying file/path/line/column diagnostics (byte
// offsets recorded per value by obs/json_parse). A typo must never
// silently fall back to a default: the daemon caches results under the
// document's canonical hash, and a half-understood document would poison
// the cache under a wrong key.
//
// The per-field surface is declarative: each section (mc, model, every
// netlist instance kind, every task kind) is an obs/fields.hpp table
// whose rows carry the key, type, range or choice set, rejection message
// and canonical-emission rule, and the same row drives both the loader
// and resolved_json(). The model table (statmodel/model_fields.hpp) is
// shared with the serving daemon's job "config". Structural netlist
// checks, generator expansion and cross-field rules stay hand-written.
//
// Canonical form: resolved_json() re-serializes a loaded document with
// every field explicit (defaults resolved, generators expanded, keys
// sorted, obs/canonical number rendering, netlist instances and wires in
// name order). It is a fixed point — resolved_json(load(resolved_json(d)))
// is byte-identical — and its fnv1a64 is the scenario's config hash used
// by the bench ledger and the serving daemon's cache keys.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json_parse.hpp"
#include "statmodel/gated_osc_model.hpp"

namespace gcdr::scenario {

inline constexpr const char* kScenarioSchema = "gcdr.scenario/v1";

/// One validation (or parse) failure, pointing as precisely as the
/// source allows: document path always, file and line/column when the
/// loader had the source text.
struct Diagnostic {
    std::string file;     ///< as given to the loader; may be empty
    std::string path;     ///< document path, e.g. "tasks[1].axes[0].step"
    std::size_t line = 0; ///< 1-based; 0 = unknown
    std::size_t column = 0;
    std::string message;

    /// "file:line:col: at <path>: message" with unknown parts omitted.
    [[nodiscard]] std::string render() const;
};

/// A named sweep axis with its values fully expanded.
struct AxisSpec {
    std::string name;
    std::vector<double> values;
};

/// JTOL-contour rider of a ber_surface task (fig9's second half).
struct JtolSpec {
    std::vector<double> freqs;  ///< normalized SJ frequencies
    double ber_target = 1e-12;
    std::string mask = "infiniband_2g5";  ///< or "none"
};

struct TaskSpec {
    enum class Kind {
        kBerSurface,
        kBaselineJtol,
        kNetlistRun,
        kDifferential,
        kHealthProbe
    };
    Kind kind = Kind::kBerSurface;
    /// Metric prefix ("fig9" -> fig9.ber_evals...); unique per document.
    std::string prefix;

    // kBerSurface: statistical-model BER over a sweep grid, optionally
    // followed by a JTOL contour (Fig 9: scenarios/fig9_ber_sj.json).
    std::vector<AxisSpec> axes;
    bool has_jtol = false;
    JtolSpec jtol;

    // kBaselineJtol: gated-oscillator statmodel vs bang-bang vs
    // phase-interpolator CDRs (scenarios/baseline_jtol.json).
    std::vector<double> jtol_freqs;
    std::uint64_t jtol_bits = 40000;
    double ber_target = 1e-12;
    double amp_cap = 32.0;
    std::vector<double> offsets;  ///< empty = skip the offset sweep
    std::uint64_t offset_bits = 50000;

    // kNetlistRun: drive the document's netlist end to end (no extra
    // fields; the netlist is the workload).

    // kDifferential: statistical model vs analytic-margin importance
    // sampling (strict gate), plus an optional behavioral-channel direct
    // MC leg (loose gate — the behavioral layer differs by genuine
    // channel physics).
    std::uint64_t behavioral_runs = 4096;  ///< 0 = analytic-only
    double behavioral_min_ber = 3e-4;  ///< skip behavioral below this BER
    double behavioral_tau = 5.0;       ///< CI inflation of the loose gate

    // kHealthProbe: netlist run with per-lane health monitors attached
    // (obs/health); the run is sliced into `frames` equal femtosecond
    // spans and a gcdr.health/v1 snapshot is emitted after each slice
    // (the daemon's /v1/watch live stream). Event-driven execution makes
    // the slicing behavior-neutral.
    std::uint64_t frames = 8;
};

[[nodiscard]] const char* task_kind_name(TaskSpec::Kind k);

struct McSpec {
    std::uint64_t max_evals = 200'000;
    double target_rel_err = 0.1;
    double confidence = 0.95;
};

// --- netlist -------------------------------------------------------------
// Instance kinds and their ports:
//   source  { bits, prbs, start_ns,           out  (output)
//             pattern, repeat, rate_offset }
//   channel { f_osc_hz, ckj_uirms,            din  (input)
//             improved_sampling }             dout (output)
//   monitor {}                                in   (input)
// Wires run output -> input; a source may fan out to several channels,
// every channel.din and monitor.in must be driven exactly once.

struct SourceSpec {
    std::string name;
    std::uint64_t bits = 2000;
    int prbs = 7;  ///< PRBS order: 7, 9, 15, 23 or 31
    double start_ns = 4.0;
    /// Explicit 0/1 bit pattern; when non-empty it replaces the PRBS
    /// stream (specifying `pattern` together with `bits` or `prbs` is an
    /// error) and the source emits pattern repeated `repeat` times.
    std::vector<int> pattern;
    std::uint64_t repeat = 1;
    /// Relative TX data-rate offset (jitter::StreamParams::data_rate_offset);
    /// a grossly off-rate source makes the lane unlockable — the health
    /// subsystem's fault-injection knob.
    double rate_offset = 0.0;
};

struct ChannelSpec {
    std::string name;
    double f_osc_hz = 2.5e9;
    double ckj_uirms = 0.01;
    bool improved_sampling = false;
};

struct MonitorSpec {
    std::string name;
};

struct WireSpec {
    std::string from_inst, from_port;
    std::string to_inst, to_port;
    double skew_ps = 0.0;
};

struct NetlistSpec {
    // All in name order (the canonical instance order; channel i of the
    // compiled receiver is channels[i]).
    std::vector<SourceSpec> sources;
    std::vector<ChannelSpec> channels;
    std::vector<MonitorSpec> monitors;
    std::vector<WireSpec> wires;  ///< sorted by (from, to)
};

struct ScenarioDoc {
    std::string name;
    std::string title;
    statmodel::ModelConfig model;
    McSpec mc;
    bool has_netlist = false;
    NetlistSpec netlist;
    std::vector<TaskSpec> tasks;
};

/// Build a ScenarioDoc from a parsed JSON value. Collects every
/// diagnostic it can (not just the first); returns true iff none. Pass
/// `source`/`file` when available so diagnostics carry line/column.
[[nodiscard]] bool scenario_from_json(const obs::JsonValue& root,
                                      ScenarioDoc& doc,
                                      std::vector<Diagnostic>& diags,
                                      std::string_view source = {},
                                      std::string_view file = {});

/// Parse + validate one document from text.
[[nodiscard]] bool scenario_from_string(std::string_view text,
                                        ScenarioDoc& doc,
                                        std::vector<Diagnostic>& diags,
                                        std::string_view file = "<string>");

/// Read + parse + validate a scenario file.
[[nodiscard]] bool scenario_from_file(const std::string& path,
                                      ScenarioDoc& doc,
                                      std::vector<Diagnostic>& diags);

/// Canonical resolved serialization (see header comment). Valid JSON;
/// canonicalizing it is the identity.
[[nodiscard]] std::string resolved_json(const ScenarioDoc& doc);

/// fnv1a64(resolved_json(doc)) — the scenario's config hash.
[[nodiscard]] std::uint64_t scenario_hash(const ScenarioDoc& doc);

}  // namespace gcdr::scenario
