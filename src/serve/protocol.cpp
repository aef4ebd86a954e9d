#include "serve/protocol.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>

#include "obs/canonical.hpp"
#include "obs/fields.hpp"
#include "statmodel/model_fields.hpp"
#include "util/hash.hpp"

namespace gcdr::serve {

namespace {

/// Job type names, in JobType order.
constexpr const char* kJobTypes[] = {"ber", "eye", "sweep", "mc", "scenario"};

/// Uniform numeric read: any JSON number (the parser keeps doubles).
bool read_double(const obs::JsonValue& v, double& out) {
    if (!v.is_number() || !std::isfinite(v.number)) return false;
    out = v.number;
    return true;
}

bool read_int(const obs::JsonValue& v, int& out) {
    double d = 0.0;
    // Range-check the double before the cast: an out-of-range conversion
    // is undefined behavior.
    if (!read_double(v, d) || std::nearbyint(d) != d ||
        d < std::numeric_limits<int>::min() ||
        d > std::numeric_limits<int>::max()) {
        return false;
    }
    out = static_cast<int>(d);
    return true;
}

/// The daemon's FieldReader: keeps the first failure as one "path:
/// message" line (parse_job answers with a single error) and takes any
/// integral JSON number for an integer field (5, 5.0 and 5e0 alike).
class JobReader final : public obs::FieldReader {
public:
    std::string error;

    void fail(const obs::JsonValue&, const std::string& path,
              const std::string& msg) override {
        if (error.empty()) error = path + ": " + msg;
    }

    bool real(const obs::JsonValue& v, const std::string& path,
              double& out) override {
        if (read_double(v, out)) return true;
        fail(v, path, "want finite number");
        return false;
    }

    /// The range is part of the one message (every integer field of the
    /// config surface is bounded).
    bool count(const obs::JsonValue& v, const std::string& path,
               const obs::Rule& rule, std::uint64_t& out) override {
        int n = 0;
        if (read_int(v, n) && rule.range.contains(n)) {
            out = static_cast<std::uint64_t>(n);
            return true;
        }
        fail(v, path,
             "want integer in [" + obs::canonical_number(rule.range.lo, {}) +
                 "," + obs::canonical_number(rule.range.hi, {}) + "]");
        return false;
    }

    /// A non-string reads as "" and fails the field's choice set.
    bool text(const obs::JsonValue& v, const std::string&,
              std::string& out) override {
        out = v.string_or("");
        return true;
    }

    bool boolean(const obs::JsonValue& v, const std::string& path,
                 bool& out) override {
        if (!v.is_bool()) {
            fail(v, path, "want boolean");
            return false;
        }
        out = v.boolean;
        return true;
    }

    bool values(const obs::JsonValue& v, const std::string& path,
                std::vector<double>& out) override {
        for (const auto& item : v.items) {
            double d = 0.0;
            if (!read_double(item, d)) {
                fail(item, path, "want finite numbers");
                return false;
            }
            out.push_back(d);
        }
        return true;
    }

    void unknown(const obs::JsonValue& v, const std::string& path,
                 const std::string&, std::string_view) override {
        fail(v, path, "unknown field");
    }
};

void append_field(std::string& out, bool& first, std::string_view key,
                  std::string_view rendered) {
    if (!first) out += ',';
    first = false;
    out += '"';
    out += key;
    out += "\":";
    out += rendered;
}

void append_number(std::string& out, bool& first, std::string_view key,
                   double value) {
    append_field(out, first, key, obs::canonical_number(value, {}));
}

}  // namespace

const char* job_type_name(JobType t) {
    return kJobTypes[static_cast<std::size_t>(t)];
}

const char* model_version_of(JobType t) {
    return t == JobType::kScenario ? kScenarioModelVersion : kModelVersion;
}

bool parse_job(const obs::JsonValue& v, JobSpec& spec, std::string& error) {
    spec = JobSpec{};
    if (!v.is_object()) {
        error = "job must be a JSON object";
        return false;
    }
    bool saw_type = false;
    bool saw_workload = false;  // config / axes / ber_target / mc
    JobReader r;
    for (const auto& [key, val] : v.members) {
        if (key == "type") {
            saw_type = true;
            const std::string t = val.string_or("");
            const auto* it = std::find(std::begin(kJobTypes),
                                       std::end(kJobTypes), t);
            if (it == std::end(kJobTypes)) {
                error = "unknown job type \"" + t + "\"";
                return false;
            }
            spec.type = static_cast<JobType>(it - std::begin(kJobTypes));
        } else if (key == "config") {
            saw_workload = true;
            if (!val.is_object()) {
                error = "\"config\" must be an object";
                return false;
            }
            statmodel::read_model_config(r, val, "config", spec.cfg);
            if (!r.error.empty()) {
                error = std::move(r.error);
                return false;
            }
        } else if (key == "axes") {
            saw_workload = true;
            if (!val.is_array() || val.items.empty()) {
                error = "\"axes\" must be a non-empty array";
                return false;
            }
            for (const auto& axis : val.items) {
                const obs::JsonValue* name = axis.find("name");
                const obs::JsonValue* values = axis.find("values");
                if (!name || !name->is_string() || !values ||
                    !values->is_array() || values->items.empty()) {
                    error = "axes[]: want {\"name\":...,\"values\":[...]}";
                    return false;
                }
                if (!statmodel::is_model_axis(name->text)) {
                    error = "axes[].name: unknown config field \"" +
                            name->text + "\"";
                    return false;
                }
                exec::SweepAxis out;
                out.name = name->text;
                if (!r.values(*values, "axes[].values", out.values)) {
                    error = std::move(r.error);
                    return false;
                }
                for (double x : out.values) {
                    const std::string_view bad =
                        statmodel::model_axis_error(out.name, x);
                    if (!bad.empty()) {
                        error = "axes[].values: " + std::string(bad);
                        return false;
                    }
                }
                spec.axes.push_back(std::move(out));
            }
        } else if (key == "ber_target") {
            saw_workload = true;
            if (!read_double(val, spec.ber_target) || spec.ber_target <= 0 ||
                spec.ber_target >= 1) {
                error = "ber_target: want number in (0,1)";
                return false;
            }
        } else if (key == "mc") {
            saw_workload = true;
            if (!val.is_object()) {
                error = "\"mc\" must be an object";
                return false;
            }
            for (const auto& [mk, mv] : val.members) {
                if (mk == "max_evals") {
                    spec.mc.max_evals = mv.uint_or(0);
                    if (spec.mc.max_evals == 0) {
                        error = "mc.max_evals: want positive integer";
                        return false;
                    }
                } else if (mk == "target_rel_err") {
                    if (!read_double(mv, spec.mc.target_rel_err) ||
                        spec.mc.target_rel_err <= 0) {
                        error = "mc.target_rel_err: want positive number";
                        return false;
                    }
                } else {
                    error = "mc." + mk + ": unknown field";
                    return false;
                }
            }
        } else if (key == "scenario") {
            if (!val.is_object()) {
                error = "\"scenario\" must be an object";
                return false;
            }
            std::vector<scenario::Diagnostic> diags;
            if (!scenario::scenario_from_json(val, spec.scenario, diags)) {
                // One-line job error; the full diagnostic list is the
                // scenario path (no source text over the wire, so no
                // line/column — the path locates the fault instead).
                error = "scenario: ";
                for (std::size_t i = 0; i < diags.size(); ++i) {
                    if (i) error += "; ";
                    error += diags[i].render();
                }
                return false;
            }
            spec.has_scenario = true;
        } else if (key == "seed") {
            if (!val.is_number()) {
                error = "seed: want unsigned integer";
                return false;
            }
            spec.seed = val.uint_or(0);
        } else if (key == "priority") {
            if (!read_int(val, spec.priority)) {
                error = "priority: want integer";
                return false;
            }
        } else if (key == "deadline_s") {
            if (!read_double(val, spec.deadline_s) || spec.deadline_s < 0) {
                error = "deadline_s: want non-negative number";
                return false;
            }
        } else if (key == "stream") {
            if (!r.boolean(val, "stream", spec.stream)) {
                error = std::move(r.error);
                return false;
            }
        } else {
            error = "unknown job key \"" + key + "\"";
            return false;
        }
    }
    if (!saw_type) {
        error = "missing \"type\"";
        return false;
    }
    if (spec.type == JobType::kSweep && spec.axes.empty()) {
        error = "sweep job needs \"axes\"";
        return false;
    }
    if (spec.type != JobType::kSweep && !spec.axes.empty()) {
        error = "\"axes\" only valid for sweep jobs";
        return false;
    }
    if (spec.type == JobType::kScenario) {
        if (!spec.has_scenario) {
            error = "scenario job needs \"scenario\"";
            return false;
        }
        if (saw_workload) {
            error = "config/axes/ber_target/mc not valid for scenario jobs "
                    "(the scenario document defines the workload)";
            return false;
        }
    } else if (spec.has_scenario) {
        error = "\"scenario\" only valid for scenario jobs";
        return false;
    }
    return true;
}

std::string resolved_spec_json(const JobSpec& spec) {
    // Top-level and config keys emitted in sorted order by construction;
    // numbers go through canonical_number, so the result is already
    // canonical (canonical_json of its parse is the identity).
    std::string out = "{";
    bool first = true;
    if (spec.type == JobType::kSweep) {
        std::string axes = "[";
        for (std::size_t i = 0; i < spec.axes.size(); ++i) {
            if (i) axes += ',';
            axes += "{\"name\":\"" + spec.axes[i].name + "\",\"values\":";
            obs::write_numbers(axes, spec.axes[i].values);
            axes += '}';
        }
        axes += ']';
        append_field(out, first, "axes", axes);
    }
    if (spec.type == JobType::kEye) {
        append_number(out, first, "ber_target", spec.ber_target);
    }
    if (spec.type != JobType::kScenario) {
        std::string cfg;
        statmodel::write_model_config(cfg, spec.cfg);
        append_field(out, first, "config", cfg);
    }
    if (spec.type == JobType::kMc) {
        std::string mc = "{";
        bool mfirst = true;
        append_number(mc, mfirst, "max_evals",
                      static_cast<double>(spec.mc.max_evals));
        append_number(mc, mfirst, "target_rel_err", spec.mc.target_rel_err);
        mc += '}';
        append_field(out, first, "mc", mc);
    }
    if (spec.type == JobType::kScenario) {
        // scenario::resolved_json is itself canonical (tested fixed
        // point), so embedding it verbatim keeps the whole spec
        // canonical.
        append_field(out, first, "scenario",
                     scenario::resolved_json(spec.scenario));
    }
    append_field(out, first, "type",
                 std::string("\"") + job_type_name(spec.type) + "\"");
    out += '}';
    return out;
}

std::uint64_t spec_config_hash(const JobSpec& spec) {
    return util::fnv1a64(resolved_spec_json(spec));
}

JobSpec sweep_point_spec(const JobSpec& sweep, const exec::SweepPoint& p) {
    JobSpec point = sweep;
    point.type = JobType::kBer;
    point.axes.clear();
    for (std::size_t a = 0; a < sweep.axes.size(); ++a) {
        // Names and values were validated at parse time.
        statmodel::set_model_field(point.cfg, sweep.axes[a].name, p.value[a]);
    }
    point.seed = p.seed;
    return point;
}

}  // namespace gcdr::serve
