#include "scenario/scenario_doc.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <span>
#include <sstream>

#include "obs/canonical.hpp"
#include "obs/fields.hpp"
#include "scenario/compile.hpp"
#include "statmodel/model_fields.hpp"
#include "util/hash.hpp"
#include "util/mathx.hpp"

namespace gcdr::scenario {

namespace {

/// Task kind names, in TaskSpec::Kind order.
constexpr std::string_view kTaskKinds[] = {
    "ber_surface", "baseline_jtol", "netlist_run", "differential",
    "health_probe", "ftol", "channel_sweep"};

/// Bound on expanded sweep values — a generator that asks for more is a
/// config bug, not a workload.
constexpr std::size_t kMaxSweepValues = 10'000;

/// The range object of the linspace/logspace/steps sweep generators;
/// each table's middle row is the generator's third key.
struct SweepRange {
    double from = 0.0, to = 0.0, step = 0.0;
    std::uint64_t points = 0;
};
constexpr obs::Field<SweepRange> kSpaceRange[] = {
    obs::field<&SweepRange::from>("from"),
    obs::field<&SweepRange::points>("points"),
    obs::field<&SweepRange::to>("to"),
};
constexpr obs::Field<SweepRange> kStepsRange[] = {
    obs::field<&SweepRange::from>("from"),
    obs::field<&SweepRange::step>("step"),
    obs::field<&SweepRange::to>("to"),
};

/// The scenario front end's FieldReader: every fail() appends one
/// Diagnostic (with line/column resolved from the value's byte offset
/// when the source text is at hand) and keeps going, so a bad document
/// reports as many problems as one pass can see. Integers must be spelled
/// as integers (5, not 5.0), and number lists accept the sweep generator
/// forms.
class Ctx final : public obs::FieldReader {
public:
    Ctx(std::string_view source, std::string_view file,
        std::vector<Diagnostic>& diags)
        : source_(source), file_(file), diags_(diags) {}

    void fail(const obs::JsonValue& v, const std::string& path,
              const std::string& msg) override {
        Diagnostic d;
        d.file = std::string(file_);
        d.path = path;
        d.message = msg;
        if (!source_.empty()) {
            const obs::LineColumn lc = obs::line_column(source_, v.offset);
            d.line = lc.line;
            d.column = lc.column;
        }
        diags_.push_back(std::move(d));
    }

    bool real(const obs::JsonValue& v, const std::string& path,
              double& out) override {
        if (!v.is_number() || !std::isfinite(v.number)) {
            fail(v, path, "want a finite number");
            return false;
        }
        out = v.number;
        return true;
    }

    bool count(const obs::JsonValue& v, const std::string& path,
               const obs::Rule&, std::uint64_t& out) override {
        const std::uint64_t sentinel = ~std::uint64_t{0};
        const std::uint64_t got = v.is_number() ? v.uint_or(sentinel)
                                                : sentinel;
        if (got == sentinel) {
            fail(v, path, "want a non-negative integer");
            return false;
        }
        out = got;
        return true;
    }

    bool text(const obs::JsonValue& v, const std::string& path,
              std::string& out) override {
        if (!v.is_string()) {
            fail(v, path, "want a string");
            return false;
        }
        out = v.text;
        return true;
    }

    bool boolean(const obs::JsonValue& v, const std::string& path,
                 bool& out) override {
        if (!v.is_bool()) {
            fail(v, path, "want true or false");
            return false;
        }
        out = v.boolean;
        return true;
    }

    /// Expand one values spec — a literal array or a generator object —
    /// to an explicit list. Generators call util::linspace/logspace so
    /// the doubles are bit-identical to the C++ benches that build the
    /// same grids.
    bool values(const obs::JsonValue& v, const std::string& path,
                std::vector<double>& out) override {
        out.clear();
        if (v.is_array()) {
            if (v.items.empty()) {
                fail(v, path, "want at least one value");
                return false;
            }
            for (std::size_t i = 0; i < v.items.size(); ++i) {
                double d = 0.0;
                if (!real(v.items[i], path + "[" + std::to_string(i) + "]",
                          d)) {
                    return false;
                }
                out.push_back(d);
            }
            return true;
        }
        if (!v.is_object() || v.members.size() != 1) {
            fail(v, path,
                 "want an array of numbers or exactly one of "
                 "{\"values\"|\"linspace\"|\"logspace\"|\"steps\"}");
            return false;
        }
        const auto& [key, val] = v.members.front();
        const std::string kp = path + "." + key;
        if (key == "values") {
            if (!val.is_array()) {
                fail(val, kp, "want an array of numbers");
                return false;
            }
            return values(val, kp, out);
        }
        if (key == "linspace" || key == "logspace") {
            SweepRange g;
            if (!range(val, kp, kSpaceRange, g)) return false;
            if (g.points < 2 || g.points > kMaxSweepValues) {
                fail(val, kp + ".points",
                     "want an integer in [2, " +
                         std::to_string(kMaxSweepValues) + "]");
                return false;
            }
            if (key == "logspace" && (g.from <= 0.0 || g.to <= 0.0)) {
                fail(val, kp, "logspace endpoints must be positive");
                return false;
            }
            const auto n = static_cast<std::size_t>(g.points);
            out = key == "linspace" ? linspace(g.from, g.to, n)
                                    : logspace(g.from, g.to, n);
            return true;
        }
        if (key == "steps") {
            SweepRange g;
            if (!range(val, kp, kStepsRange, g)) return false;
            if (g.step <= 0.0) {
                fail(val, kp + ".step",
                     "sweep step must be positive, got " +
                         std::to_string(g.step));
                return false;
            }
            if (g.to < g.from) {
                fail(val, kp, "want from <= to");
                return false;
            }
            // Half-step tolerance on the upper end so from=0.1 to=0.5
            // step=0.1 yields five points despite binary rounding. The
            // count stays a double until it is known to fit: a huge span
            // (or one that overflows to inf) must not wrap through size_t.
            const double n_points =
                std::floor((g.to - g.from) / g.step + 0.5 * 1e-9) + 1.0;
            if (n_points > static_cast<double>(kMaxSweepValues)) {
                fail(val, kp,
                     "steps generator yields " +
                         (std::isfinite(n_points)
                              ? obs::canonical_number(n_points, {})
                              : std::string("infinitely many")) +
                         " points, cap is " +
                         std::to_string(kMaxSweepValues));
                return false;
            }
            const auto n = static_cast<std::size_t>(n_points);
            for (std::size_t i = 0; i < n; ++i) {
                out.push_back(g.from + static_cast<double>(i) * g.step);
            }
            return true;
        }
        unknown(val, kp, key, {});
        return false;
    }

    void unknown(const obs::JsonValue& v, const std::string& path,
                 const std::string& key, std::string_view kind) override {
        std::string msg = "unknown key \"" + key + "\"";
        if (!kind.empty()) msg += " for kind \"" + std::string(kind) + "\"";
        fail(v, path, msg);
    }

private:
    /// Read a generator's range object: every row of `rows` present,
    /// nothing else.
    bool range(const obs::JsonValue& v, const std::string& path,
               std::span<const obs::Field<SweepRange>> rows,
               SweepRange& out) {
        if (!v.is_object()) {
            fail(v, path, "want an object");
            return false;
        }
        const std::size_t before = diags_.size();
        const obs::Seen seen = obs::read_fields(*this, v, path, rows, out);
        if (diags_.size() != before) return false;
        if (seen.present != (std::uint64_t{1} << rows.size()) - 1) {
            fail(v, path, "want {\"from\", \"to\", \"" +
                              std::string(rows[1].key) + "\"}");
            return false;
        }
        return true;
    }

    std::string_view source_;
    std::string_view file_;
    std::vector<Diagnostic>& diags_;
};

bool is_identifier(std::string_view s) {
    if (s.empty() || s.size() > 64) return false;
    for (char c : s) {
        const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '_';
        if (!ok) return false;
    }
    return true;
}

bool is_metric_prefix(std::string_view p) {
    if (p.empty() || p.size() > 64) return false;
    for (char c : p) {
        const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                        c == '_' || c == '.';
        if (!ok) return false;
    }
    return true;
}

// --- field tables ----------------------------------------------------------
// One row per JSON field: it parses the field and emits it in resolved_json,
// so the validator and the canonical form (the scenario hash) stay in step.
// Rows are in key order, which is the canonical member order.

using obs::at_least;
using obs::between;
using obs::field;
using obs::rule;

constexpr obs::Rule kProbability = rule(obs::inside(0, 1), "want in (0, 1)");
constexpr obs::Rule kBitBudget = rule(
    between(1000, 10'000'000), "want an integer in [1000, 10000000]");

constexpr obs::Field<McSpec> kMcFields[] = {
    field<&McSpec::confidence>("confidence", kProbability),
    field<&McSpec::max_evals>(
        "max_evals", rule(at_least(1), "mc.max_evals must be >= 1 (a zero "
                                       "budget computes nothing)")),
    field<&McSpec::target_rel_err>(
        "target_rel_err", rule(obs::above(0), "want a positive number")),
};

constexpr std::string_view kChannelKind[] = {"channel"};
constexpr obs::Field<ChannelSpec> kChannelFields[] = {
    field<&ChannelSpec::ckj_uirms>("ckj_uirms",
                                   rule(at_least(0), "want >= 0")),
    field<&ChannelSpec::f_osc_hz>("f_osc_hz",
                                  rule(obs::above(0), "want > 0")),
    field<&ChannelSpec::improved_sampling>("improved_sampling"),
    obs::tag<ChannelSpec>("kind", kChannelKind),
};

constexpr std::string_view kMonitorKind[] = {"monitor"};
constexpr obs::Field<MonitorSpec> kMonitorFields[] = {
    obs::tag<MonitorSpec>("kind", kMonitorKind),
};

bool read_pattern(obs::FieldReader& r, const obs::Field<SourceSpec>&,
                  const obs::JsonValue& v, const std::string& path,
                  SourceSpec& s) {
    if (!v.is_array() || v.items.empty() || v.items.size() > 4096) {
        r.fail(v, path, "want an array of 0/1 bits, size [1, 4096]");
        return false;
    }
    s.pattern.clear();
    for (std::size_t b = 0; b < v.items.size(); ++b) {
        const obs::JsonValue& bit = v.items[b];
        const std::uint64_t got = bit.uint_or(2);
        if (!bit.is_number() || got > 1) {
            r.fail(bit, path + "[" + std::to_string(b) + "]",
                   "pattern bits must be 0 or 1");
            return false;
        }
        s.pattern.push_back(static_cast<int>(got));
    }
    return true;
}

void write_pattern(std::string& out, const obs::Field<SourceSpec>&,
                   const SourceSpec& s) {
    out += '[';
    for (std::size_t b = 0; b < s.pattern.size(); ++b) {
        if (b) out += ',';
        out += s.pattern[b] ? '1' : '0';
    }
    out += ']';
}

// A pattern source replaces the PRBS stream, so the canonical form holds
// exactly one of the two generator descriptions.
bool is_prbs_source(const SourceSpec& s) { return s.pattern.empty(); }
bool is_pattern_source(const SourceSpec& s) { return !s.pattern.empty(); }

constexpr std::string_view kSourceKind[] = {"source"};
constexpr std::string_view kPrbsOrders[] = {"7", "9", "15", "23", "31"};
constexpr obs::Field<SourceSpec> kSourceFields[] = {
    field<&SourceSpec::bits>(
        "bits",
        rule(between(1, 10'000'000), "want an integer in [1, 10000000]"),
        is_prbs_source),
    obs::tag<SourceSpec>("kind", kSourceKind),
    {"pattern", read_pattern, write_pattern, {}, is_pattern_source},
    field<&SourceSpec::prbs>(
        "prbs",
        obs::one_of(kPrbsOrders, "want a PRBS order: 7, 9, 15, 23 or 31"),
        is_prbs_source),
    field<&SourceSpec::rate_offset>(
        "rate_offset", rule(between(-0.5, 0.5), "want in [-0.5, 0.5]"),
        obs::unless_default<&SourceSpec::rate_offset>),
    field<&SourceSpec::repeat>(
        "repeat", rule(between(1, 100'000), "want an integer in [1, 100000]"),
        is_pattern_source),
    field<&SourceSpec::start_ns>("start_ns", rule(at_least(0), "want >= 0")),
};
constexpr std::uint64_t kBitsBit =
    obs::field_bit<SourceSpec>(kSourceFields, "bits");
constexpr std::uint64_t kPrbsBit =
    obs::field_bit<SourceSpec>(kSourceFields, "prbs");
constexpr std::uint64_t kRepeatBit =
    obs::field_bit<SourceSpec>(kSourceFields, "repeat");

constexpr std::string_view kMasks[] = {"infiniband_2g5", "none"};
constexpr obs::Field<JtolSpec> kJtolFields[] = {
    field<&JtolSpec::ber_target>("ber_target", kProbability),
    field<&JtolSpec::freqs>("freqs"),
    field<&JtolSpec::mask>(
        "mask", obs::one_of(kMasks, "want \"infiniband_2g5\" or \"none\"")),
};
constexpr std::uint64_t kFreqsBit =
    obs::field_bit<JtolSpec>(kJtolFields, "freqs");

/// The names a task's sweep axes may take and the rule each value meets:
/// the model's numeric fields (ber_surface, ftol) or the channel axes
/// (channel_sweep).
struct AxisNames {
    std::string_view what;  ///< "model field" / "channel axis"
    bool (*known)(std::string_view name);
    std::string_view (*error)(std::string_view name, double value);
};
constexpr AxisNames kModelAxisNames{"model field", statmodel::is_model_axis,
                                    statmodel::model_axis_error};
constexpr AxisNames kChannelAxisNames{"channel axis", is_channel_axis,
                                      channel_axis_error};

template <const AxisNames& names>
bool read_axes(obs::FieldReader& r, const obs::Field<TaskSpec>&,
               const obs::JsonValue& v, const std::string& path,
               TaskSpec& task) {
    if (!v.is_array() || v.items.empty()) {
        r.fail(v, path, "want a non-empty array of axes");
        return false;
    }
    for (std::size_t i = 0; i < v.items.size(); ++i) {
        const obs::JsonValue& av = v.items[i];
        const std::string ap = path + "[" + std::to_string(i) + "]";
        if (!av.is_object()) {
            r.fail(av, ap, "want an object");
            continue;
        }
        AxisSpec axis;
        const obs::JsonValue* values_at = nullptr;
        for (const auto& [ak, avv] : av.members) {
            if (ak == "name") {
                if (r.text(avv, ap + ".name", axis.name) &&
                    !names.known(axis.name)) {
                    r.fail(avv, ap + ".name",
                           "unknown " + std::string(names.what) + " \"" +
                               axis.name + "\"");
                }
            } else if (ak == "values" || ak == "linspace" ||
                       ak == "logspace" || ak == "steps") {
                // Re-wrap as a one-member object so values() sees the
                // generator form.
                obs::JsonValue wrap;
                wrap.type = obs::JsonValue::Type::kObject;
                wrap.offset = avv.offset;
                wrap.members.emplace_back(ak, avv);
                (void)r.values(wrap, ap, axis.values);
                values_at = &avv;
            } else {
                r.unknown(avv, ap + "." + ak, ak, {});
            }
        }
        if (axis.name.empty()) {
            r.fail(av, ap, "axis needs a \"name\"");
        } else if (axis.values.empty()) {
            r.fail(av, ap, "axis needs values (literal or generator)");
        } else {
            for (std::size_t k = 0; k < axis.values.size(); ++k) {
                const std::string_view bad =
                    names.error(axis.name, axis.values[k]);
                if (bad.empty()) continue;
                // A literal array points at the value itself; a generator
                // at its own spec.
                const bool literal = values_at->is_array();
                r.fail(literal ? values_at->items[k] : *values_at,
                       ap + ".values[" + std::to_string(k) + "]",
                       std::string(bad));
            }
            task.axes.push_back(std::move(axis));
        }
    }
    return true;
}

void write_axes(std::string& out, const obs::Field<TaskSpec>&,
                const TaskSpec& task) {
    out += '[';
    for (std::size_t i = 0; i < task.axes.size(); ++i) {
        if (i) out += ',';
        out += "{\"name\":";
        obs::write_string(out, task.axes[i].name);
        out += ",\"values\":";
        obs::write_numbers(out, task.axes[i].values);
        out += '}';
    }
    out += ']';
}

bool read_jtol(obs::FieldReader& r, const obs::Field<TaskSpec>&,
               const obs::JsonValue& v, const std::string& path,
               TaskSpec& task) {
    if (!v.is_object()) {
        r.fail(v, path, "want an object");
        return false;
    }
    task.has_jtol = true;
    const obs::Seen seen =
        obs::read_fields(r, v, path, kJtolFields, task.jtol);
    if (!(seen.parsed & kFreqsBit)) {
        r.fail(v, path, "jtol needs \"freqs\"");
    }
    return true;
}

void write_jtol(std::string& out, const obs::Field<TaskSpec>&,
                const TaskSpec& task) {
    obs::write_fields(out, kJtolFields, task.jtol);
}

bool has_jtol(const TaskSpec& task) { return task.has_jtol; }

constexpr obs::Field<TaskSpec> kind_row(TaskSpec::Kind k) {
    return obs::tag<TaskSpec>(
        "kind", std::span<const std::string_view, 1>(
                    &kTaskKinds[static_cast<std::size_t>(k)], 1));
}

constexpr obs::Field<TaskSpec> kPrefixRow = field<&TaskSpec::prefix>(
    "prefix", {.accept = is_metric_prefix,
               .message = "metric prefix must be [a-z0-9_.]{1,64}"});

constexpr obs::Field<TaskSpec> kBerSurfaceFields[] = {
    {"axes", read_axes<kModelAxisNames>, write_axes},
    {"jtol", read_jtol, write_jtol, {}, has_jtol},
    kind_row(TaskSpec::Kind::kBerSurface),
    kPrefixRow,
};

constexpr obs::Field<TaskSpec> kBaselineJtolFields[] = {
    field<&TaskSpec::amp_cap>("amp_cap", rule(obs::above(0), "want > 0")),
    field<&TaskSpec::ber_target>("ber_target", kProbability),
    field<&TaskSpec::jtol_bits>("jtol_bits", kBitBudget),
    field<&TaskSpec::jtol_freqs>("jtol_freqs"),
    kind_row(TaskSpec::Kind::kBaselineJtol),
    field<&TaskSpec::offset_bits>("offset_bits", kBitBudget),
    // Optional sweep: absent from the canonical form while empty.
    field<&TaskSpec::offsets>("offsets", {},
                              obs::unless_default<&TaskSpec::offsets>),
    kPrefixRow,
};

constexpr obs::Field<TaskSpec> kNetlistRunFields[] = {
    kind_row(TaskSpec::Kind::kNetlistRun),
    kPrefixRow,
};

constexpr obs::Field<TaskSpec> kDifferentialFields[] = {
    field<&TaskSpec::behavioral_min_ber>("behavioral_min_ber", kProbability),
    field<&TaskSpec::behavioral_runs>(
        "behavioral_runs", rule(obs::at_most(1'000'000), "want <= 1000000")),
    field<&TaskSpec::behavioral_tau>("behavioral_tau",
                                     rule(at_least(1), "want >= 1")),
    kind_row(TaskSpec::Kind::kDifferential),
    kPrefixRow,
};

constexpr obs::Field<TaskSpec> kHealthProbeFields[] = {
    field<&TaskSpec::frames>(
        "frames", rule(between(1, 1000), "want an integer in [1, 1000]")),
    kind_row(TaskSpec::Kind::kHealthProbe),
    kPrefixRow,
};

constexpr obs::Field<TaskSpec> kFtolFields[] = {
    {"axes", read_axes<kModelAxisNames>, write_axes},
    field<&TaskSpec::ber_target>("ber_target", kProbability),
    kind_row(TaskSpec::Kind::kFtol),
    kPrefixRow,
};

constexpr obs::Field<TaskSpec> kChannelSweepFields[] = {
    {"axes", read_axes<kChannelAxisNames>, write_axes},
    field<&TaskSpec::bits>("bits", kBitBudget),
    field<&TaskSpec::improved_sampling>("improved_sampling"),
    kind_row(TaskSpec::Kind::kChannelSweep),
    kPrefixRow,
};

/// Field table of each task kind, in TaskSpec::Kind order.
constexpr std::span<const obs::Field<TaskSpec>> kTaskFields[] = {
    kBerSurfaceFields,   kBaselineJtolFields, kNetlistRunFields,
    kDifferentialFields, kHealthProbeFields,  kFtolFields,
    kChannelSweepFields};

static_assert(obs::keys_sorted<McSpec>(kMcFields));
static_assert(obs::keys_sorted<ChannelSpec>(kChannelFields));
static_assert(obs::keys_sorted<SourceSpec>(kSourceFields));
static_assert(obs::keys_sorted<JtolSpec>(kJtolFields));
static_assert(obs::keys_sorted<TaskSpec>(kBerSurfaceFields));
static_assert(obs::keys_sorted<TaskSpec>(kBaselineJtolFields));
static_assert(obs::keys_sorted<TaskSpec>(kDifferentialFields));
static_assert(obs::keys_sorted<TaskSpec>(kHealthProbeFields));
static_assert(obs::keys_sorted<TaskSpec>(kFtolFields));
static_assert(obs::keys_sorted<TaskSpec>(kChannelSweepFields));

std::span<const obs::Field<TaskSpec>> task_fields(TaskSpec::Kind k) {
    return kTaskFields[static_cast<std::size_t>(k)];
}

// --- model -----------------------------------------------------------------

void parse_model(Ctx& ctx, const obs::JsonValue& v,
                 statmodel::ModelConfig& cfg) {
    if (!v.is_object()) {
        ctx.fail(v, "model", "want an object");
        return;
    }
    statmodel::read_model_config(ctx, v, "model", cfg);
}

// --- netlist ---------------------------------------------------------------

struct PortRef {
    std::string inst, port;
};

bool split_endpoint(const std::string& text, PortRef& out) {
    const auto dot = text.find('.');
    if (dot == std::string::npos || dot == 0 || dot + 1 >= text.size()) {
        return false;
    }
    out.inst = text.substr(0, dot);
    out.port = text.substr(dot + 1);
    return out.port.find('.') == std::string::npos;
}

enum class InstKind { kSource, kChannel, kMonitor };

/// Each instance kind's ports and their direction.
struct Port {
    InstKind kind;
    std::string_view name;
    bool output;
};
constexpr Port kPorts[] = {{InstKind::kSource, "out", true},
                           {InstKind::kChannel, "din", false},
                           {InstKind::kChannel, "dout", true},
                           {InstKind::kMonitor, "in", false}};

void parse_netlist(Ctx& ctx, const obs::JsonValue& v, NetlistSpec& net) {
    if (!v.is_object()) {
        ctx.fail(v, "netlist", "want an object");
        return;
    }
    const obs::JsonValue* instances = nullptr;
    const obs::JsonValue* wires = nullptr;
    for (const auto& [key, val] : v.members) {
        if (key == "instances") {
            instances = &val;
        } else if (key == "wires") {
            wires = &val;
        } else {
            ctx.unknown(val, "netlist." + key, key, {});
        }
    }
    if (!instances || !instances->is_object()) {
        ctx.fail(instances ? *instances : v, "netlist.instances",
                 "want an object of named instances");
        return;
    }

    // Instances. Names must be identifiers and unique (json_parse keeps
    // duplicate keys, so duplicates are detectable here).
    std::vector<std::pair<std::string, InstKind>> kinds;
    for (const auto& [name, inst] : instances->members) {
        const std::string ip = "netlist.instances." + name;
        if (!is_identifier(name)) {
            ctx.fail(inst, ip, "instance name must be [A-Za-z0-9_]{1,64}");
            continue;
        }
        bool dup = false;
        for (const auto& [seen, k] : kinds) {
            (void)k;
            if (seen == name) dup = true;
        }
        if (dup) {
            ctx.fail(inst, ip, "duplicate instance \"" + name + "\"");
            continue;
        }
        if (!inst.is_object()) {
            ctx.fail(inst, ip, "want an object");
            continue;
        }
        const obs::JsonValue* kindv = inst.find("kind");
        const std::string kind = kindv ? kindv->string_or("") : "";
        if (kind == "source") {
            SourceSpec s;
            s.name = name;
            const obs::Seen seen =
                obs::read_fields(ctx, inst, ip, kSourceFields, s);
            if (!s.pattern.empty() && (seen.present & (kBitsBit | kPrbsBit))) {
                ctx.fail(inst, ip,
                         "\"pattern\" replaces the PRBS stream; it "
                         "cannot be combined with \"bits\" or \"prbs\"");
            }
            if ((seen.present & kRepeatBit) && s.pattern.empty()) {
                ctx.fail(inst, ip,
                         "\"repeat\" only applies to a \"pattern\" "
                         "source");
            }
            net.sources.push_back(std::move(s));
            kinds.emplace_back(name, InstKind::kSource);
        } else if (kind == "channel") {
            ChannelSpec c;
            c.name = name;
            (void)obs::read_fields(ctx, inst, ip, kChannelFields, c);
            net.channels.push_back(std::move(c));
            kinds.emplace_back(name, InstKind::kChannel);
        } else if (kind == "monitor") {
            MonitorSpec m;
            m.name = name;
            (void)obs::read_fields(ctx, inst, ip, kMonitorFields, m);
            net.monitors.push_back(std::move(m));
            kinds.emplace_back(name, InstKind::kMonitor);
        } else {
            ctx.fail(kindv ? *kindv : inst, ip + ".kind",
                     "want \"source\", \"channel\" or \"monitor\"");
        }
    }
    if (net.channels.empty()) {
        ctx.fail(*instances, "netlist.instances",
                 "netlist needs at least one channel instance");
    }

    // The multichannel receiver instantiates one shared channel template,
    // so per-instance channel parameters must agree.
    for (std::size_t i = 1; i < net.channels.size(); ++i) {
        const ChannelSpec& a = net.channels[0];
        const ChannelSpec& b = net.channels[i];
        if (a.f_osc_hz != b.f_osc_hz || a.ckj_uirms != b.ckj_uirms ||
            a.improved_sampling != b.improved_sampling) {
            ctx.fail(*instances, "netlist.instances." + b.name,
                     "channel parameters must match across instances "
                     "(the multichannel receiver shares one channel "
                     "template); \"" +
                         b.name + "\" differs from \"" + a.name + "\"");
        }
    }

    auto kind_of = [&](const std::string& name, InstKind& out) {
        for (const auto& [seen, k] : kinds) {
            if (seen == name) {
                out = k;
                return true;
            }
        }
        return false;
    };

    // Resolve one wire endpoint: "from" must name an output port, "to" an
    // input port.
    auto endpoint = [&](const obs::JsonValue& val, const std::string& kp,
                        bool from, std::string& inst, std::string& port) {
        std::string text;
        if (!ctx.text(val, kp, text)) return false;
        PortRef ref;
        if (!split_endpoint(text, ref)) {
            ctx.fail(val, kp, "want \"instance.port\", got \"" + text + "\"");
            return false;
        }
        InstKind k{};
        if (!kind_of(ref.inst, k)) {
            ctx.fail(val, kp, "unknown instance \"" + ref.inst + "\"");
            return false;
        }
        const Port* p = std::find_if(
            std::begin(kPorts), std::end(kPorts),
            [&](const Port& q) { return q.kind == k && q.name == ref.port; });
        if (p == std::end(kPorts)) {
            ctx.fail(val, kp,
                     "instance \"" + ref.inst + "\" has no port \"" +
                         ref.port + "\"");
            return false;
        }
        if (p->output != from) {
            ctx.fail(val, kp,
                     "\"" + ref.port +
                         (from ? "\" is an input port; a wire's \"from\" "
                                 "must be an output"
                               : "\" is an output port; a wire's \"to\" "
                                 "must be an input"));
            return false;
        }
        inst = ref.inst;
        port = ref.port;
        return true;
    };

    // Wires: "inst.port" endpoints, output -> input only.
    if (wires) {
        if (!wires->is_array()) {
            ctx.fail(*wires, "netlist.wires", "want an array");
            return;
        }
        for (std::size_t i = 0; i < wires->items.size(); ++i) {
            const obs::JsonValue& wv = wires->items[i];
            const std::string wp =
                "netlist.wires[" + std::to_string(i) + "]";
            if (!wv.is_object()) {
                ctx.fail(wv, wp, "want an object");
                continue;
            }
            WireSpec w;
            bool ok = true;
            bool saw_from = false, saw_to = false;
            for (const auto& [key, val] : wv.members) {
                const std::string kp = wp + "." + key;
                if (key == "from" || key == "to") {
                    const bool from = key == "from";
                    if (endpoint(val, kp, from, from ? w.from_inst : w.to_inst,
                                 from ? w.from_port : w.to_port)) {
                        (from ? saw_from : saw_to) = true;
                    } else {
                        ok = false;
                    }
                } else if (key == "skew_ps") {
                    ok = ctx.real(val, kp, w.skew_ps) && ok;
                } else {
                    ctx.unknown(val, kp, key, {});
                    ok = false;
                }
            }
            if (ok && (!saw_from || !saw_to)) {
                ctx.fail(wv, wp, "want both \"from\" and \"to\"");
                ok = false;
            }
            if (ok) {
                // Wire type check: source.out feeds channel.din,
                // channel.dout feeds monitor.in.
                InstKind fk{}, tk{};
                (void)kind_of(w.from_inst, fk);
                (void)kind_of(w.to_inst, tk);
                if (fk == InstKind::kSource && tk != InstKind::kChannel) {
                    ctx.fail(wv, wp,
                             "a source output must drive a channel din");
                    ok = false;
                } else if (fk == InstKind::kChannel &&
                           tk != InstKind::kMonitor) {
                    ctx.fail(wv, wp,
                             "a channel dout must drive a monitor in");
                    ok = false;
                }
            }
            if (ok) net.wires.push_back(std::move(w));
        }
    }

    // Connectivity: every channel din and monitor in driven exactly once,
    // every source output driving at least one channel.
    const obs::JsonValue& wires_at = wires ? *wires : *instances;
    auto check_driven = [&](const char* what, const std::string& name,
                            const std::string& port) {
        const auto drivers = std::count_if(
            net.wires.begin(), net.wires.end(), [&](const WireSpec& w) {
                return w.to_inst == name && w.to_port == port;
            });
        const std::string input =
            std::string(what) + " \"" + name + "\" input " + port;
        if (drivers == 0) {
            ctx.fail(wires_at, "netlist.wires",
                     input + " is not driven by any wire");
        } else if (drivers > 1) {
            ctx.fail(wires_at, "netlist.wires",
                     input + " is driven more than once");
        }
    };
    for (const ChannelSpec& c : net.channels) {
        check_driven("channel", c.name, "din");
    }
    for (const MonitorSpec& m : net.monitors) {
        check_driven("monitor", m.name, "in");
    }
    for (const SourceSpec& s : net.sources) {
        if (std::none_of(
                net.wires.begin(), net.wires.end(),
                [&](const WireSpec& w) { return w.from_inst == s.name; })) {
            ctx.fail(wires_at, "netlist.wires",
                     "source \"" + s.name + "\" output out drives nothing");
        }
    }

    // Canonical orders: instances by name, wires by (from, to). Channel i
    // of the compiled receiver is channels[i] under this order, so the
    // compile is a function of the canonical form, not of key order.
    auto by_name = [](const auto& a, const auto& b) {
        return a.name < b.name;
    };
    std::sort(net.sources.begin(), net.sources.end(), by_name);
    std::sort(net.channels.begin(), net.channels.end(), by_name);
    std::sort(net.monitors.begin(), net.monitors.end(), by_name);
    std::sort(net.wires.begin(), net.wires.end(),
              [](const WireSpec& a, const WireSpec& b) {
                  if (a.from_inst != b.from_inst)
                      return a.from_inst < b.from_inst;
                  if (a.from_port != b.from_port)
                      return a.from_port < b.from_port;
                  if (a.to_inst != b.to_inst) return a.to_inst < b.to_inst;
                  return a.to_port < b.to_port;
              });
}

// --- tasks -----------------------------------------------------------------

void parse_task(Ctx& ctx, const obs::JsonValue& v, const std::string& tp,
                TaskSpec& task) {
    const obs::JsonValue* kindv = v.find("kind");
    const std::string kind = kindv ? kindv->string_or("") : "";
    const auto* it = std::find(std::begin(kTaskKinds), std::end(kTaskKinds),
                               kind);
    if (it == std::end(kTaskKinds)) {
        ctx.fail(kindv ? *kindv : v, tp + ".kind",
                 "want \"ber_surface\", \"baseline_jtol\", "
                 "\"netlist_run\", \"differential\", \"health_probe\", "
                 "\"ftol\" or \"channel_sweep\"");
        return;
    }
    task.kind = static_cast<TaskSpec::Kind>(it - std::begin(kTaskKinds));
    task.prefix = kind;
    (void)obs::read_fields(ctx, v, tp, task_fields(task.kind), task,
                           {.kind = kind});
    const bool swept = task.kind == TaskSpec::Kind::kBerSurface ||
                       task.kind == TaskSpec::Kind::kFtol ||
                       task.kind == TaskSpec::Kind::kChannelSweep;
    if (swept && task.axes.empty()) {
        ctx.fail(v, tp, kind + " needs \"axes\"");
    }
    if (task.kind == TaskSpec::Kind::kBaselineJtol &&
        task.jtol_freqs.empty()) {
        ctx.fail(v, tp, "baseline_jtol needs \"jtol_freqs\"");
    }
}

}  // namespace

std::string Diagnostic::render() const {
    std::string out;
    if (!file.empty()) {
        out += file;
        if (line > 0) {
            out += ':' + std::to_string(line) + ':' + std::to_string(column);
        }
        out += ": ";
    }
    if (!path.empty()) {
        out += "at " + path + ": ";
    }
    out += message;
    return out;
}

const char* task_kind_name(TaskSpec::Kind k) {
    return kTaskKinds[static_cast<std::size_t>(k)].data();
}

bool scenario_from_json(const obs::JsonValue& root, ScenarioDoc& doc,
                        std::vector<Diagnostic>& diags,
                        std::string_view source, std::string_view file) {
    doc = ScenarioDoc{};
    const std::size_t diags_before = diags.size();
    Ctx ctx(source, file, diags);
    if (!root.is_object()) {
        ctx.fail(root, "", "scenario must be a JSON object");
        return false;
    }
    bool saw_schema = false, saw_name = false, saw_tasks = false;
    for (const auto& [key, val] : root.members) {
        if (key == "schema") {
            saw_schema = true;
            if (val.string_or("") != kScenarioSchema) {
                ctx.fail(val, "schema",
                         std::string("want \"") + kScenarioSchema + "\"");
            }
        } else if (key == "name") {
            saw_name = true;
            if (ctx.text(val, "name", doc.name) && !is_identifier(doc.name)) {
                ctx.fail(val, "name",
                         "scenario name must be [A-Za-z0-9_]{1,64}");
            }
        } else if (key == "title") {
            (void)ctx.text(val, "title", doc.title);
        } else if (key == "model") {
            parse_model(ctx, val, doc.model);
        } else if (key == "mc") {
            if (val.is_object()) {
                (void)obs::read_fields(ctx, val, "mc", kMcFields, doc.mc);
            } else {
                ctx.fail(val, "mc", "want an object");
            }
        } else if (key == "netlist") {
            doc.has_netlist = true;
            parse_netlist(ctx, val, doc.netlist);
        } else if (key == "tasks") {
            saw_tasks = true;
            if (!val.is_array() || val.items.empty()) {
                ctx.fail(val, "tasks", "want a non-empty array");
                continue;
            }
            for (std::size_t i = 0; i < val.items.size(); ++i) {
                TaskSpec task;
                const std::size_t before = diags.size();
                parse_task(ctx, val.items[i],
                           "tasks[" + std::to_string(i) + "]", task);
                if (diags.size() == before) {
                    doc.tasks.push_back(std::move(task));
                }
            }
        } else {
            ctx.unknown(val, key, key, {});
        }
    }
    if (!saw_schema) ctx.fail(root, "schema", "missing \"schema\"");
    if (!saw_name) ctx.fail(root, "name", "missing \"name\"");
    if (!saw_tasks) ctx.fail(root, "tasks", "missing \"tasks\"");

    // Cross-cutting checks only meaningful once everything parsed.
    if (diags.size() == diags_before) {
        for (std::size_t i = 0; i < doc.tasks.size(); ++i) {
            for (std::size_t j = i + 1; j < doc.tasks.size(); ++j) {
                if (doc.tasks[i].prefix == doc.tasks[j].prefix) {
                    ctx.fail(root, "tasks[" + std::to_string(j) + "]",
                             "duplicate metric prefix \"" +
                                 doc.tasks[j].prefix +
                                 "\" (metrics would collide)");
                }
            }
            if ((doc.tasks[i].kind == TaskSpec::Kind::kNetlistRun ||
                 doc.tasks[i].kind == TaskSpec::Kind::kHealthProbe) &&
                !doc.has_netlist) {
                ctx.fail(root, "tasks[" + std::to_string(i) + "]",
                         std::string(task_kind_name(doc.tasks[i].kind)) +
                             " task needs a \"netlist\" section");
            }
        }
    }
    return diags.size() == diags_before;
}

bool scenario_from_string(std::string_view text, ScenarioDoc& doc,
                          std::vector<Diagnostic>& diags,
                          std::string_view file) {
    obs::JsonValue root;
    std::string err;
    if (!obs::json_parse(text, root, &err)) {
        Diagnostic d;
        d.file = std::string(file);
        d.message = "JSON parse error: " + err;
        // The parser's "<what> at byte N" prefix is stable (json_parse
        // contract); map the offset back so parse errors point like
        // validation errors do.
        const std::size_t at = err.find(" at byte ");
        if (at != std::string::npos) {
            const std::size_t off =
                std::strtoull(err.c_str() + at + 9, nullptr, 10);
            const obs::LineColumn lc = obs::line_column(text, off);
            d.line = lc.line;
            d.column = lc.column;
        }
        diags.push_back(std::move(d));
        return false;
    }
    return scenario_from_json(root, doc, diags, text, file);
}

bool scenario_from_file(const std::string& path, ScenarioDoc& doc,
                        std::vector<Diagnostic>& diags) {
    std::ifstream is(path);
    if (!is) {
        Diagnostic d;
        d.file = path;
        d.message = "cannot open scenario file";
        diags.push_back(std::move(d));
        return false;
    }
    std::ostringstream ss;
    ss << is.rdbuf();
    const std::string text = ss.str();
    return scenario_from_string(text, doc, diags, path);
}

namespace {

void write_netlist(std::string& out, const NetlistSpec& net) {
    // Instances are emitted in name order across kinds, so render each
    // and sort the (name, rendered) pairs.
    std::vector<std::pair<std::string, std::string>> insts;
    for (const ChannelSpec& c : net.channels) {
        insts.emplace_back(c.name, std::string());
        obs::write_fields(insts.back().second, kChannelFields, c);
    }
    for (const MonitorSpec& m : net.monitors) {
        insts.emplace_back(m.name, std::string());
        obs::write_fields(insts.back().second, kMonitorFields, m);
    }
    for (const SourceSpec& s : net.sources) {
        insts.emplace_back(s.name, std::string());
        obs::write_fields(insts.back().second, kSourceFields, s);
    }
    std::sort(insts.begin(), insts.end());

    out += "{\"instances\":{";
    for (std::size_t i = 0; i < insts.size(); ++i) {
        if (i) out += ',';
        obs::write_string(out, insts[i].first);
        out += ':';
        out += insts[i].second;
    }
    out += "},\"wires\":[";
    for (std::size_t i = 0; i < net.wires.size(); ++i) {
        const WireSpec& w = net.wires[i];
        if (i) out += ',';
        out += "{\"from\":";
        obs::write_string(out, w.from_inst + "." + w.from_port);
        out += ",\"skew_ps\":" + obs::canonical_number(w.skew_ps, {});
        out += ",\"to\":";
        obs::write_string(out, w.to_inst + "." + w.to_port);
        out += '}';
    }
    out += "]}";
}

}  // namespace

std::string resolved_json(const ScenarioDoc& doc) {
    // Top-level keys in sorted order by construction.
    std::string out = "{\"mc\":";
    obs::write_fields(out, kMcFields, doc.mc);
    out += ",\"model\":";
    statmodel::write_model_config(out, doc.model);
    out += ",\"name\":";
    obs::write_string(out, doc.name);
    if (doc.has_netlist) {
        out += ",\"netlist\":";
        write_netlist(out, doc.netlist);
    }
    out += ",\"schema\":";
    obs::write_string(out, kScenarioSchema);
    out += ",\"tasks\":[";
    for (std::size_t i = 0; i < doc.tasks.size(); ++i) {
        if (i) out += ',';
        obs::write_fields(out, task_fields(doc.tasks[i].kind), doc.tasks[i]);
    }
    out += "],\"title\":";
    obs::write_string(out, doc.title);
    out += '}';
    return out;
}

std::uint64_t scenario_hash(const ScenarioDoc& doc) {
    return util::fnv1a64(resolved_json(doc));
}

}  // namespace gcdr::scenario
