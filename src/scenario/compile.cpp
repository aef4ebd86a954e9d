#include "scenario/compile.hpp"

#include "obs/fields.hpp"

namespace gcdr::scenario {

namespace {

/// One channel_sweep axis: its value rule and how a point value lands on
/// the channel.
struct ChannelAxis {
    std::string_view name;
    obs::Rule rule;
    void (*apply)(cdr::ChannelConfig&, double);
};

constexpr ChannelAxis kChannelAxes[] = {
    {"f_osc_hz", obs::rule(obs::between(1e9, 1e10), "want in [1e9, 1e10]"),
     [](cdr::ChannelConfig& c, double f) { c.gcco.fc_hz = f; }},
    // The statmodel's sign convention: positive delta = oscillator slow.
    {"freq_offset", obs::rule(obs::between(-0.5, 0.5), "want in [-0.5, 0.5]"),
     [](cdr::ChannelConfig& c, double delta) {
         c.gcco.fc_hz = c.rate.bits_per_second() / (1.0 + delta);
     }},
    {"tau_ui", obs::rule({0.0, 4.0, true, false}, "want in (0, 4]"),
     [](cdr::ChannelConfig& c, double tau) {
         c.edge_detector.cell_delay = SimTime::from_seconds(
             tau * c.rate.ui_seconds() / c.edge_detector.n_cells);
     }},
};

const ChannelAxis* channel_axis(std::string_view name) {
    for (const ChannelAxis& a : kChannelAxes) {
        if (a.name == name) return &a;
    }
    return nullptr;
}

}  // namespace

CompiledNetlist compile_netlist(const NetlistSpec& net) {
    CompiledNetlist out;
    out.config.n_channels = static_cast<int>(net.channels.size());
    if (!net.channels.empty()) {
        const ChannelSpec& t = net.channels.front();
        out.config.channel =
            cdr::ChannelConfig::nominal(t.f_osc_hz, t.ckj_uirms);
        out.config.channel.improved_sampling = t.improved_sampling;
    }

    for (const ChannelSpec& c : net.channels) {
        CompiledLane lane;
        lane.channel = c.name;
        // The loader guarantees exactly one wire into <c>.din and at most
        // one monitor on <c>.dout.
        for (const WireSpec& w : net.wires) {
            if (w.to_inst == c.name && w.to_port == "din") {
                lane.source = w.from_inst;
                lane.skew_ps = w.skew_ps;
            }
            if (w.from_inst == c.name && w.from_port == "dout") {
                lane.monitor = w.to_inst;
            }
        }
        for (const SourceSpec& s : net.sources) {
            if (s.name == lane.source) {
                lane.bits = s.bits;
                lane.prbs = s.prbs;
                lane.start_ns = s.start_ns;
                lane.pattern = s.pattern;
                lane.repeat = s.repeat;
                lane.rate_offset = s.rate_offset;
            }
        }
        out.lanes.push_back(std::move(lane));
    }
    return out;
}

exec::SweepGrid compile_grid(const TaskSpec& task) {
    exec::SweepGrid grid;
    for (const AxisSpec& axis : task.axes) {
        grid.axis(axis.name, axis.values);
    }
    return grid;
}

bool is_channel_axis(std::string_view name) {
    return channel_axis(name) != nullptr;
}

std::string_view channel_axis_error(std::string_view name, double value) {
    const ChannelAxis* a = channel_axis(name);
    if (!a || a->rule.range.contains(value)) return {};
    return a->rule.message;
}

cdr::ChannelConfig compile_channel(const ScenarioDoc& doc,
                                   const TaskSpec& task,
                                   const std::vector<double>& point) {
    cdr::ChannelConfig cfg = cdr::ChannelConfig::nominal(
        kPaperRate.bits_per_second(), doc.model.spec.ckj_uirms);
    cfg.improved_sampling = task.improved_sampling;
    for (std::size_t a = 0; a < task.axes.size(); ++a) {
        channel_axis(task.axes[a].name)->apply(cfg, point[a]);
    }
    return cfg;
}

mc::McBudget compile_budget(const McSpec& mc, std::uint64_t base_seed) {
    mc::McBudget budget;
    budget.target_rel_err = mc.target_rel_err;
    budget.max_evals = mc.max_evals;
    budget.confidence = mc.confidence;
    budget.base_seed = base_seed;
    return budget;
}

}  // namespace gcdr::scenario
