#pragma once
// The JSON surface of statmodel::ModelConfig, shared by the scenario
// document's "model" block (and its sweep-axis names) and the serving
// daemon's job "config" (and its "axes"). One field table drives
// validation and the canonical block for both, so a scenario hash and a
// daemon cache key render the same config byte for byte.
//
// Fields: sj_freq_norm, freq_offset, sampling_advance_ui,
// trigger_mismatch_uirms, grid_dx (in (0, 0.1]), pdf_prune_floor, the
// jitter budget dj_uipp / rj_uirms / sj_uipp / ckj_uirms (each >= 0),
// max_cid and cid_ref (integers in [1, 16]) and run_model ("weighted" |
// "worst_case"). The numeric fields are the sweepable ones; a sweep
// value must meet the same rule as the field itself.

#include <string>
#include <string_view>

#include "obs/fields.hpp"
#include "statmodel/gated_osc_model.hpp"

namespace gcdr::statmodel {

/// Validate JSON object `v` (found at `path`) into `cfg`; absent fields
/// keep their value. Every failure goes to `r`, including the grid_dx
/// range, which is checked once on the resolved config.
void read_model_config(obs::FieldReader& r, const obs::JsonValue& v,
                       const std::string& path, ModelConfig& cfg);

/// Append the canonical JSON object of every field.
void write_model_config(std::string& out, const ModelConfig& cfg);

/// Whether `name` is a sweepable field: every numeric one. Exactly the
/// namespace sweep axes address.
[[nodiscard]] bool is_model_axis(std::string_view name);

/// Why `value` is no valid value of axis `name` — the field's rejection
/// message when it is outside the field's range, or not a whole number
/// for max_cid / cid_ref — or empty when it is valid. The scenario
/// loader and the daemon's sweep parser both check every axis value here.
[[nodiscard]] std::string_view model_axis_error(std::string_view name,
                                                double value);

/// Set axis `name` of `cfg` to `value`, which passed model_axis_error.
void set_model_field(ModelConfig& cfg, std::string_view name, double value);

}  // namespace gcdr::statmodel
