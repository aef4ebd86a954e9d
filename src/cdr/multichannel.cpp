#include "cdr/multichannel.hpp"

#include <cmath>
#include <string>

namespace gcdr::cdr {

MultiChannelConfig MultiChannelConfig::paper_receiver() {
    MultiChannelConfig cfg;
    cfg.n_channels = 4;
    cfg.channel = ChannelConfig::nominal(2.5e9);
    cfg.pll.cco = cfg.channel.gcco;
    cfg.pll.f_ref_hz = 156.25e6;
    cfg.pll.divider = 16;
    return cfg;
}

MultiChannelCdr::MultiChannelCdr(std::uint64_t seed,
                                 const MultiChannelConfig& cfg)
    : cfg_(cfg), pll_(cfg.pll) {
    pll_.run_to_lock();
    // Mismatch draws come from the base seed; each channel's event-time
    // randomness comes from its own long_jump()-separated stream so the
    // channels stay independent (and runnable concurrently) while the
    // whole receiver remains a pure function of `seed`.
    Rng mismatch_rng(seed);
    Xoshiro256 stream(seed);
    const double ic = pll_.control_current_a();
    for (int i = 0; i < cfg_.n_channels; ++i) {
        stream.long_jump();
        scheds_.push_back(std::make_unique<sim::Scheduler>());
        rngs_.push_back(std::make_unique<Rng>(stream));
        ChannelConfig ch = cfg_.channel;
        ch.control_current_a = ic;
        // Mirror/oscillator mismatch: each channel's free-running frequency
        // deviates slightly from HFCK even with a perfect control current.
        if (cfg_.cco_mismatch_sigma > 0.0) {
            ch.gcco.fc_hz *=
                1.0 + mismatch_rng.gaussian(0.0, cfg_.cco_mismatch_sigma);
        }
        channels_.push_back(std::make_unique<GccoChannel>(
            *scheds_.back(), *rngs_.back(), ch, "ch" + std::to_string(i)));
        elastic_.push_back(std::make_unique<ElasticBuffer>(cfg_.elastic_depth));
    }
}

void MultiChannelCdr::run_until(SimTime t_end, exec::ThreadPool* pool) {
    auto run_channel = [&](std::size_t i) { scheds_[i]->run_until(t_end); };
    if (pool) {
        // Channel i touches only its own scheduler, RNG, wires and
        // decision log; the shared PLL locked at construction and the
        // config are read-only from here on — so dispatching whole
        // channels is race-free without any locking.
        pool->parallel_for(scheds_.size(), run_channel);
    } else {
        for (std::size_t i = 0; i < scheds_.size(); ++i) run_channel(i);
    }
}

void MultiChannelCdr::attach_metrics(obs::MetricsRegistry& registry,
                                     const std::string& prefix) {
    metrics_ = &registry;
    metrics_prefix_ = prefix;
    for (std::size_t i = 0; i < channels_.size(); ++i) {
        const std::string ch = prefix + ".ch" + std::to_string(i);
        channels_[i]->attach_metrics(registry, ch);
        elastic_[i]->attach_metrics(registry, ch + ".elastic");
    }
    update_lock_metrics();
}

void MultiChannelCdr::update_lock_metrics(double lock_tol_rel) {
    if (!metrics_ && !flight_) return;
    const double pll_err = std::abs(pll_.frequency_error_rel());
    const bool pll_locked = pll_err <= lock_tol_rel;
    if (metrics_) {
        metrics_->gauge(metrics_prefix_ + ".pll.freq_error_rel").set(pll_err);
        metrics_->gauge(metrics_prefix_ + ".pll.locked")
            .set(pll_locked ? 1.0 : 0.0);
    }
    const double f_target = pll_.target_frequency_hz();
    int locked = 0;
    for (std::size_t i = 0; i < channels_.size(); ++i) {
        // Matched-oscillator assumption check (Sec. 2.2): the channel CCO
        // at the distributed control current vs the PLL target rate.
        const double err =
            std::abs(channels_[i]->gcco().frequency_hz() - f_target) /
            f_target;
        const bool ch_locked = pll_locked && err <= lock_tol_rel;
        if (metrics_) {
            const std::string ch =
                metrics_prefix_ + ".ch" + std::to_string(i);
            metrics_->gauge(ch + ".freq_error_rel").set(err);
            metrics_->gauge(ch + ".locked").set(ch_locked ? 1.0 : 0.0);
        }
        if (flight_ && was_locked_[i] && !ch_locked) {
            flight_->dump("lock_loss:ch" + std::to_string(i));
        }
        if (flight_) was_locked_[i] = ch_locked;
        if (ch_locked) ++locked;
    }
    if (metrics_) {
        metrics_->gauge(metrics_prefix_ + ".locked_channels")
            .set(static_cast<double>(locked));
    }
}

void MultiChannelCdr::attach_health(obs::health::HealthHub& hub) {
    health_hub_ = &hub;
    hub.configure(channels_.size(), health_config_for(cfg_.channel));
    for (std::size_t i = 0; i < channels_.size(); ++i) {
        channels_[i]->attach_health(&hub.lane(i));
        // The dump hook checks flight_ at fire time: enable_flight_recorder
        // may legitimately come after attach_health.
        hub.lane(i).on_lost = [this, i](obs::health::LockState) {
            if (flight_) {
                flight_->dump("health_lost:ch" + std::to_string(i));
            }
        };
    }
}

void MultiChannelCdr::enable_flight_recorder(obs::FlightRecorder& recorder,
                                             std::size_t vcd_max_changes) {
    flight_ = &recorder;
    // Every channel starts "locked": a receiver that never locks is as
    // much a failure as one that drops lock mid-run, and this way the
    // first update_lock_metrics() catches both.
    was_locked_.assign(channels_.size(), true);

    // One tracer per channel scheduler, so ring entries carry walkable
    // trace ids in that channel's id space.
    for (std::size_t i = 0; i < scheds_.size(); ++i) {
        tracers_.push_back(std::make_unique<obs::CausalTracer>());
        scheds_[i]->attach_tracer(tracers_[i].get());
    }

    for (std::size_t i = 0; i < channels_.size(); ++i) {
        const std::string name = "ch" + std::to_string(i);
        obs::FlightRing& ring = recorder.ring(name);
        ring.set_tracer(tracers_[i].get());
        channels_[i]->record_flight(ring);

        auto vcd = std::make_unique<sim::VcdWriter>();
        vcd->set_max_changes(vcd_max_changes);
        vcd->watch(channels_[i]->din());
        vcd->watch(channels_[i]->edge_detector().edet());
        vcd->watch(channels_[i]->recovered_clock());
        vcd->watch(channels_[i]->recovered_data());
        vcds_.push_back(std::move(vcd));

        elastic_[i]->set_fault_hook([this, name](const char* kind) {
            flight_->dump(std::string(kind) + ":" + name);
        });
        scheds_[i]->set_fault_hook(
            [this](const char* kind, const std::string&) {
                flight_->dump(kind);
            });
    }

    recorder.set_waveform_dump(
        [this](const std::string& stem, std::int64_t t0_fs,
               std::int64_t t1_fs) {
            std::vector<std::string> paths;
            for (std::size_t i = 0; i < vcds_.size(); ++i) {
                const std::string path =
                    stem + "_ch" + std::to_string(i) + ".vcd";
                if (vcds_[i]->write_window(path, t0_fs, t1_fs)) {
                    paths.push_back(path);
                }
            }
            return paths;
        });
}

std::vector<std::vector<bool>> MultiChannelCdr::drain_elastic() {
    std::vector<std::vector<bool>> out(channels_.size());
    for (std::size_t i = 0; i < channels_.size(); ++i) {
        auto& eb = *elastic_[i];
        // Both domains run at the same nominal rate: one system-clock read
        // per recovered-clock write, then drain the residue.
        for (const auto& d : channels_[i]->decisions()) {
            eb.write(d.bit);
            if (auto b = eb.read()) out[i].push_back(*b);
        }
        while (eb.occupancy() > 0) {
            if (auto b = eb.read()) out[i].push_back(*b);
        }
    }
    return out;
}

}  // namespace gcdr::cdr
