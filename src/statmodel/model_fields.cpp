#include "statmodel/model_fields.hpp"

namespace gcdr::statmodel {

namespace {

using jitter::JitterSpec;
using obs::field;

constexpr std::string_view kRunModels[] = {"weighted", "worst_case"};
constexpr obs::Rule kCidRule =
    obs::rule(obs::between(1, 16), "want an integer in [1, 16]");

constexpr obs::Field<ModelConfig> kFields[] = {
    field<&ModelConfig::cid_ref>("cid_ref", kCidRule),
    field<&ModelConfig::spec, &JitterSpec::ckj_uirms>("ckj_uirms"),
    field<&ModelConfig::spec, &JitterSpec::dj_uipp>("dj_uipp"),
    field<&ModelConfig::freq_offset>("freq_offset"),
    field<&ModelConfig::grid_dx>("grid_dx"),
    field<&ModelConfig::max_cid>("max_cid", kCidRule),
    field<&ModelConfig::pdf_prune_floor>("pdf_prune_floor"),
    field<&ModelConfig::spec, &JitterSpec::rj_uirms>("rj_uirms"),
    field<&ModelConfig::run_model>(
        "run_model",
        obs::one_of(kRunModels, "want \"weighted\" or \"worst_case\"")),
    field<&ModelConfig::sampling_advance_ui>("sampling_advance_ui"),
    field<&ModelConfig::sj_freq_norm>("sj_freq_norm"),
    field<&ModelConfig::spec, &JitterSpec::sj_uipp>("sj_uipp"),
    field<&ModelConfig::trigger_mismatch_uirms>("trigger_mismatch_uirms"),
};
static_assert(obs::keys_sorted<ModelConfig>(kFields));

constexpr obs::Range kGridDx{0.0, 0.1, true, false};

}  // namespace

void read_model_config(obs::FieldReader& r, const obs::JsonValue& v,
                       const std::string& path, ModelConfig& cfg) {
    (void)obs::read_fields(r, v, path, kFields, cfg,
                           {.numbers_first = true});
    if (!kGridDx.contains(cfg.grid_dx)) {
        r.fail(v, path + ".grid_dx", "want in (0, 0.1]");
    }
}

void write_model_config(std::string& out, const ModelConfig& cfg) {
    obs::write_fields(out, kFields, cfg);
}

bool set_model_field(ModelConfig& cfg, std::string_view name, double value) {
    for (const auto& f : kFields) {
        if (f.key == name && f.set_real) {
            f.set_real(cfg, value);
            return true;
        }
    }
    return false;
}

}  // namespace gcdr::statmodel
