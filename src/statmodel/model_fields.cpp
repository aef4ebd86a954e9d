#include "statmodel/model_fields.hpp"

#include <cmath>

namespace gcdr::statmodel {

namespace {

using jitter::JitterSpec;
using obs::field;

constexpr std::string_view kRunModels[] = {"weighted", "worst_case"};
constexpr obs::Rule kCidRule =
    obs::rule(obs::between(1, 16), "want an integer in [1, 16]");
constexpr obs::Rule kJitter = obs::rule(obs::at_least(0), "want >= 0");

constexpr obs::Field<ModelConfig> kFields[] = {
    field<&ModelConfig::cid_ref>("cid_ref", kCidRule),
    field<&ModelConfig::spec, &JitterSpec::ckj_uirms>("ckj_uirms", kJitter),
    field<&ModelConfig::spec, &JitterSpec::dj_uipp>("dj_uipp", kJitter),
    field<&ModelConfig::freq_offset>("freq_offset"),
    field<&ModelConfig::grid_dx>("grid_dx"),
    field<&ModelConfig::max_cid>("max_cid", kCidRule),
    field<&ModelConfig::pdf_prune_floor>("pdf_prune_floor"),
    field<&ModelConfig::spec, &JitterSpec::rj_uirms>("rj_uirms", kJitter),
    field<&ModelConfig::run_model>(
        "run_model",
        obs::one_of(kRunModels, "want \"weighted\" or \"worst_case\"")),
    field<&ModelConfig::sampling_advance_ui>("sampling_advance_ui"),
    field<&ModelConfig::sj_freq_norm>("sj_freq_norm"),
    field<&ModelConfig::spec, &JitterSpec::sj_uipp>("sj_uipp", kJitter),
    field<&ModelConfig::trigger_mismatch_uirms>("trigger_mismatch_uirms"),
};
static_assert(obs::keys_sorted<ModelConfig>(kFields));

constexpr obs::Range kGridDx{0.0, 0.1, true, false};
constexpr std::string_view kGridDxMessage = "want in (0, 0.1]";

const obs::Field<ModelConfig>* axis_row(std::string_view name) {
    for (const auto& f : kFields) {
        if (f.key == name && f.set_number) return &f;
    }
    return nullptr;
}

}  // namespace

void read_model_config(obs::FieldReader& r, const obs::JsonValue& v,
                       const std::string& path, ModelConfig& cfg) {
    (void)obs::read_fields(r, v, path, kFields, cfg,
                           {.numbers_first = true});
    if (!kGridDx.contains(cfg.grid_dx)) {
        r.fail(v, path + ".grid_dx", std::string(kGridDxMessage));
    }
}

void write_model_config(std::string& out, const ModelConfig& cfg) {
    obs::write_fields(out, kFields, cfg);
}

bool is_model_axis(std::string_view name) {
    return axis_row(name) != nullptr;
}

std::string_view model_axis_error(std::string_view name, double value) {
    const obs::Field<ModelConfig>* f = axis_row(name);
    if (!f) return {};
    // grid_dx's range is checked on the resolved config, not by its row.
    if (f->key == "grid_dx") {
        return kGridDx.contains(value) ? std::string_view{} : kGridDxMessage;
    }
    const bool ok = f->rule.range.contains(value) &&
                    (!f->integral || value == std::trunc(value));
    return ok ? std::string_view{} : f->rule.message;
}

void set_model_field(ModelConfig& cfg, std::string_view name, double value) {
    axis_row(name)->set_number(cfg, value);
}

}  // namespace gcdr::statmodel
