// Multi-channel receiver (the paper's Fig 2/Fig 6 scenario): four
// 2.5 Gb/s lanes share one PLL-derived control current; each lane carries
// 8b/10b-encoded payload with its own skew and jitter; recovered symbols
// cross into the system clock domain through elastic buffers and are
// decoded back to bytes.
//
// Every receiver lane owns a private event queue and a long_jump-separated
// RNG stream, and the four lanes execute concurrently on an
// exec::ThreadPool. Each lane's recovered bits depend only on (seed, lane,
// its input edges), so the decoded output is identical to a serial run.

#include <cstdio>
#include <string>

#include "cdr/multichannel.hpp"
#include "encoding/enc8b10b.hpp"
#include "exec/thread_pool.hpp"
#include "obs/metrics.hpp"

using namespace gcdr;

namespace {

/// Build an 8b/10b frame: comma alignment preamble, then payload bytes.
std::vector<bool> encode_lane_payload(const std::string& payload,
                                      encoding::Encoder8b10b& enc) {
    std::vector<encoding::CodePoint> cps;
    for (int i = 0; i < 8; ++i) cps.push_back(encoding::kK28_5);
    for (char c : payload) {
        cps.push_back({static_cast<std::uint8_t>(c), false});
    }
    return enc.encode_stream(cps);
}

}  // namespace

int main() {
    Rng rng(7);  // drives the lane payload jitter realizations

    // Full-receiver telemetry: kernel, per-channel CDR blocks, elastic
    // buffers and the lock surface all report into one registry. The
    // instruments are thread-safe, so all four lane schedulers share the
    // "sim" prefix: the counters aggregate across lanes.
    obs::MetricsRegistry metrics;

    auto cfg = cdr::MultiChannelConfig::paper_receiver();
    cdr::MultiChannelCdr rx(/*seed=*/7, cfg);
    rx.attach_metrics(metrics);
    for (int lane = 0; lane < rx.n_channels(); ++lane) {
        rx.scheduler(lane).attach_metrics(&metrics);
    }
    std::printf("shared PLL locked: HFCK = %.6f GHz, IC = %.1f uA\n\n",
                rx.pll().vco_frequency_hz() / 1e9,
                rx.pll().control_current_a() * 1e6);

    const std::string payloads[4] = {
        "lane0: gated oscillator CDR",
        "lane1: 2.5 Gbit/s per channel",
        "lane2: 8b/10b keeps runs <= 5",
        "lane3: skew tolerated per lane",
    };

    // Each lane: own skew (the motivation for per-channel CDR, Sec. 2.1),
    // own jitter realization, same data rate.
    const SimTime skews[4] = {SimTime::ps(0), SimTime::ps(730),
                              SimTime::ps(1490), SimTime::ps(260)};
    std::size_t lane_bits = 0;
    for (int lane = 0; lane < rx.n_channels(); ++lane) {
        encoding::Encoder8b10b enc;
        const auto bits = encode_lane_payload(payloads[lane], enc);
        lane_bits = std::max(lane_bits, bits.size());
        jitter::StreamParams sp;
        sp.spec = jitter::JitterSpec::paper_table1();
        sp.start = SimTime::ns(4) + skews[lane];
        rx.drive(lane, jitter::jittered_edges(bits, sp, rng));
    }
    exec::ThreadPool pool(static_cast<std::size_t>(rx.n_channels()));
    rx.run_until(SimTime::ns(8) +
                     kPaperRate.ui_to_time(static_cast<double>(lane_bits)),
                 &pool);

    // Drain the recovered streams through the elastic buffers, then
    // comma-align and decode each lane.
    const auto lanes = rx.drain_elastic();
    for (int lane = 0; lane < rx.n_channels(); ++lane) {
        const auto& bits = lanes[lane];
        const auto align = encoding::find_comma_alignment(bits);
        std::printf("lane %d: %zu bits, comma at %s", lane, bits.size(),
                    align ? std::to_string(*align).c_str() : "none");
        if (!align) {
            std::printf(" -> FAILED\n");
            continue;
        }
        encoding::Decoder8b10b dec;
        std::string text;
        int bad = 0;
        for (std::size_t i = *align; i + 10 <= bits.size(); i += 10) {
            std::uint16_t sym = 0;
            for (int b = 0; b < 10; ++b) {
                sym = static_cast<std::uint16_t>((sym << 1) | bits[i + b]);
            }
            const auto res = dec.decode(sym);
            if (!res) {
                ++bad;
                continue;
            }
            if (!res->code.is_control && std::isprint(res->code.byte)) {
                text.push_back(static_cast<char>(res->code.byte));
            }
        }
        std::printf(", %d bad symbols\n  decoded: \"%s\"\n", bad,
                    text.c_str());
        std::printf("  elastic buffer: occ %zu, skips +%llu/-%llu, "
                    "under/overflows %llu/%llu\n",
                    rx.elastic(lane).occupancy(),
                    static_cast<unsigned long long>(
                        rx.elastic(lane).skips_inserted()),
                    static_cast<unsigned long long>(
                        rx.elastic(lane).skips_dropped()),
                    static_cast<unsigned long long>(
                        rx.elastic(lane).underflows()),
                    static_cast<unsigned long long>(
                        rx.elastic(lane).overflows()));
    }

    // Telemetry snapshot: the same registry a bench would dump via --json.
    std::printf("\n--- telemetry ---\n");
    std::printf("kernel: %llu events executed, queue high-water %.0f, "
                "sim/wall ratio %.2e\n",
                static_cast<unsigned long long>(
                    metrics.counter("sim.events_executed").value()),
                metrics.gauge("sim.queue_high_water").value(),
                metrics.gauge("sim.sim_wall_ratio").value());
    std::printf("lock: PLL %s, %d/%d channels locked\n",
                metrics.gauge("cdr.pll.locked").value() > 0.5 ? "locked"
                                                             : "UNLOCKED",
                static_cast<int>(
                    metrics.gauge("cdr.locked_channels").value()),
                rx.n_channels());
    for (int lane = 0; lane < rx.n_channels(); ++lane) {
        const std::string ch = "cdr.ch" + std::to_string(lane);
        std::printf(
            "%s: %llu edet pulses, %llu gcco restarts, %llu decisions, "
            "elastic occ [%.0f, %.0f]\n",
            ch.c_str(),
            static_cast<unsigned long long>(
                metrics.counter(ch + ".edet.pulses").value()),
            static_cast<unsigned long long>(
                metrics.counter(ch + ".gcco.restarts").value()),
            static_cast<unsigned long long>(
                metrics.counter(ch + ".decisions").value()),
            metrics.gauge(ch + ".elastic.occupancy_low_water").value(),
            metrics.gauge(ch + ".elastic.occupancy_high_water").value());
    }
    return 0;
}
