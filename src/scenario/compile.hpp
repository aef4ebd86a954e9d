#pragma once
// Lowering a validated ScenarioDoc onto the existing object graph — the
// "generate" half of the netlist idiom. compile_netlist() turns the
// declarative instances/wires into a cdr::MultiChannelConfig plus one
// CompiledLane per channel (the drive recipe: which PRBS, how many bits,
// what skew); compile_grid()/compile_budget() map the sweep and MC
// sections onto exec::SweepGrid and mc::McBudget; compile_channel() maps
// one channel_sweep point onto a cdr::ChannelConfig. Compilation is total on
// validated documents: every structural error is caught by the loader, so
// these functions do not fail.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "cdr/multichannel.hpp"
#include "exec/sweep.hpp"
#include "mc/estimator.hpp"
#include "scenario/scenario_doc.hpp"

namespace gcdr::scenario {

/// Drive recipe for one receiver lane. Lane i of the compiled
/// MultiChannelCdr is NetlistSpec::channels[i] (name order).
struct CompiledLane {
    std::string channel;  ///< channel instance name
    std::string source;   ///< driving source instance
    std::string monitor;  ///< monitor on dout; empty when unmonitored
    std::uint64_t bits = 0;
    int prbs = 7;
    double start_ns = 0.0;
    double skew_ps = 0.0;  ///< skew of the source->channel wire
    /// Explicit bit pattern (tiled `repeat` times); empty = PRBS stream.
    std::vector<int> pattern;
    std::uint64_t repeat = 1;
    double rate_offset = 0.0;  ///< TX data-rate offset (relative)
};

struct CompiledNetlist {
    cdr::MultiChannelConfig config;
    std::vector<CompiledLane> lanes;  ///< lanes[i] drives channel i
};

/// Lower a validated netlist. The channel template comes from the (loader
/// -enforced identical) channel instances via cdr::ChannelConfig::nominal.
[[nodiscard]] CompiledNetlist compile_netlist(const NetlistSpec& net);

/// Sweep grid of a task's axes, in document order (row-major points,
/// last axis fastest).
[[nodiscard]] exec::SweepGrid compile_grid(const TaskSpec& task);

/// The channel_sweep axes: "f_osc_hz", "freq_offset" (relative period
/// offset delta, f_osc = rate / (1 + delta)) and "tau_ui" (edge-detector
/// delay in UI). is_channel_axis() names them; channel_axis_error() is
/// the rule message a value breaks, or empty when the value is valid.
[[nodiscard]] bool is_channel_axis(std::string_view name);
[[nodiscard]] std::string_view channel_axis_error(std::string_view name,
                                                  double value);

/// Channel of one channel_sweep grid point: nominal at the document's
/// CKJ with the task's sampling tap, then each axis value applied in
/// axis order.
[[nodiscard]] cdr::ChannelConfig compile_channel(
    const ScenarioDoc& doc, const TaskSpec& task,
    const std::vector<double>& point);

/// MC budget with the run's base seed filled in.
[[nodiscard]] mc::McBudget compile_budget(const McSpec& mc,
                                          std::uint64_t base_seed);

}  // namespace gcdr::scenario
