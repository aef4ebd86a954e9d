#pragma once
// Multi-channel receiver top level (Fig 6 / Fig 2): one shared PLL
// generating the control current, N matched gated-oscillator channels, one
// elastic buffer per channel. The channels share the data *rate* but not
// the phase — each may see an arbitrary skew (Sec. 2.1).

#include <cstdint>
#include <memory>
#include <vector>

#include "cdr/channel.hpp"
#include "cdr/elastic_buffer.hpp"
#include "cdr/pll.hpp"
#include "exec/thread_pool.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/trace_causal.hpp"
#include "sim/vcd.hpp"

namespace gcdr::cdr {

struct MultiChannelConfig {
    int n_channels = 4;
    ChannelConfig channel;          ///< per-channel template
    PllConfig pll;                  ///< shared PLL
    /// Relative CCO frequency mismatch sigma between channels (matching of
    /// the current mirrors / oscillators, Sec. 2.2).
    double cco_mismatch_sigma = 1e-3;
    std::size_t elastic_depth = 64;

    /// Defaults tuned for the paper's 2.5 Gb/s, 4-channel receiver.
    [[nodiscard]] static MultiChannelConfig paper_receiver();
};

class MultiChannelCdr {
public:
    /// Locks the shared PLL (behaviorally) and instantiates the channels
    /// with the distributed control current and per-channel mismatch.
    /// Every channel owns a private event queue and a private RNG stream
    /// — stream i is `seed` advanced by i+1 Xoshiro256::long_jump()s
    /// (2^128 steps apart, so channel randomness never overlaps). The
    /// channels share no mutable state, which makes run_until()
    /// dispatchable across an exec::ThreadPool, and channel i's recovered
    /// stream depends only on (seed, i, its input edges) — not on thread
    /// count or scheduling order.
    MultiChannelCdr(std::uint64_t seed, const MultiChannelConfig& cfg);

    /// Advance the receiver to `t_end`. The channels run concurrently when
    /// `pool` is given (each channel's event order is internally
    /// deterministic, so the result is bit-identical to the serial run).
    void run_until(SimTime t_end, exec::ThreadPool* pool = nullptr);

    /// The scheduler channel `i` executes on.
    [[nodiscard]] sim::Scheduler& scheduler(int i) {
        return *scheds_[static_cast<std::size_t>(i)];
    }

    [[nodiscard]] int n_channels() const {
        return static_cast<int>(channels_.size());
    }
    [[nodiscard]] GccoChannel& channel(int i) { return *channels_[i]; }
    [[nodiscard]] ElasticBuffer& elastic(int i) { return *elastic_[i]; }
    [[nodiscard]] BehavioralPll& pll() { return pll_; }

    /// Drive channel `i` with a jittered edge stream (skew baked into the
    /// edge times by the caller).
    void drive(int i, const std::vector<jitter::Edge>& edges) {
        channels_[i]->drive(edges);
    }

    /// Push every channel's recovered bits through its elastic buffer and
    /// read them back in the system-clock domain; returns per-channel
    /// system-domain bit streams.
    [[nodiscard]] std::vector<std::vector<bool>> drain_elastic();

    /// Telemetry for the whole receiver. Per channel i, registers
    /// "<prefix>.ch<i>.*" (channel + elastic instruments) plus the lock
    /// surface:
    ///   <prefix>.pll.locked          gauge 0/1 — shared PLL at target
    ///   <prefix>.pll.freq_error_rel  gauge
    ///   <prefix>.ch<i>.freq_error_rel gauge — CCO deviation from HFCK
    ///   <prefix>.ch<i>.locked        gauge 0/1 — PLL locked AND channel
    ///       mismatch within `lock_tol_rel`
    ///   <prefix>.locked_channels     gauge
    /// Lock gauges refresh on attach and on update_lock_metrics().
    void attach_metrics(obs::MetricsRegistry& registry,
                        const std::string& prefix = "cdr");
    /// Recompute the lock-status gauges (e.g. after retuning). With a
    /// flight recorder enabled, a channel transitioning locked->unlocked
    /// triggers a post-mortem dump ("lock_loss:ch<i>") focused on that
    /// channel's newest traced event.
    void update_lock_metrics(double lock_tol_rel = 1e-2);

    /// Attach an in-situ health hub (obs/health): (re)configures `hub`
    /// with one monitor per channel — UI and sampling center taken from
    /// the channel template — and feeds each monitor its channel's margin
    /// stream. Any lane transitioning into kLost triggers a
    /// flight-recorder post-mortem ("health_lost:ch<i>") when
    /// enable_flight_recorder() is active. Call before running; `hub`
    /// must outlive the simulation. Pure observation: decisions and
    /// counters stay bit-identical to an unmonitored run at any thread
    /// count (each monitor is only touched by its channel's scheduler
    /// thread).
    void attach_health(obs::health::HealthHub& hub);
    [[nodiscard]] obs::health::HealthHub* health() const {
        return health_hub_;
    }

    /// Wire the whole receiver into `recorder`:
    ///  - one flight ring per channel ("ch<i>") fed by record_flight(),
    ///  - one causal tracer per scheduler, attached so ring entries carry
    ///    walkable trace ids,
    ///  - a bounded per-channel VcdWriter (din / EDET / recovered clock /
    ///    recovered data, newest `vcd_max_changes` transitions) installed
    ///    as the recorder's waveform hook, so every dump includes a VCD
    ///    window around the failure,
    ///  - elastic over/underflow and schedule_at-in-the-past fault hooks
    ///    that dump immediately.
    /// Call once, before running; `recorder` must outlive the receiver.
    /// All channels start considered locked, so a receiver that never
    /// achieves lock dumps on the first update_lock_metrics().
    void enable_flight_recorder(obs::FlightRecorder& recorder,
                                std::size_t vcd_max_changes = 65536);

private:
    MultiChannelConfig cfg_;
    BehavioralPll pll_;
    std::vector<std::unique_ptr<sim::Scheduler>> scheds_;
    std::vector<std::unique_ptr<Rng>> rngs_;
    std::vector<std::unique_ptr<GccoChannel>> channels_;
    std::vector<std::unique_ptr<ElasticBuffer>> elastic_;
    obs::MetricsRegistry* metrics_ = nullptr;
    std::string metrics_prefix_;
    obs::health::HealthHub* health_hub_ = nullptr;

    // Flight-recorder state (empty until enable_flight_recorder()).
    obs::FlightRecorder* flight_ = nullptr;
    std::vector<std::unique_ptr<obs::CausalTracer>> tracers_;
    std::vector<std::unique_ptr<sim::VcdWriter>> vcds_;
    std::vector<bool> was_locked_;
};

}  // namespace gcdr::cdr
