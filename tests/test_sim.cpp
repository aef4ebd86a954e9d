// Unit tests for the discrete-event kernel: scheduler ordering, VHDL
// transport-delay semantics on Wire, and the VcdWriter's edge and ASCII
// diagram views.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/scheduler.hpp"
#include "sim/vcd.hpp"
#include "sim/wire.hpp"
#include "util/rng.hpp"

namespace gcdr::sim {
namespace {

TEST(Scheduler, ExecutesInTimeOrder) {
    Scheduler s;
    std::vector<int> order;
    s.schedule_at(SimTime::ps(30), [&] { order.push_back(3); });
    s.schedule_at(SimTime::ps(10), [&] { order.push_back(1); });
    s.schedule_at(SimTime::ps(20), [&] { order.push_back(2); });
    s.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(s.now(), SimTime::ps(30));
}

TEST(Scheduler, EqualTimesRunFifo) {
    Scheduler s;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i) {
        s.schedule_at(SimTime::ps(5), [&order, i] { order.push_back(i); });
    }
    s.run();
    for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Scheduler, CallbacksCanScheduleMore) {
    Scheduler s;
    int count = 0;
    std::function<void()> chain = [&] {
        if (++count < 5) s.schedule_in(SimTime::ps(10), chain);
    };
    s.schedule_at(SimTime::ps(0), chain);
    s.run();
    EXPECT_EQ(count, 5);
    EXPECT_EQ(s.now(), SimTime::ps(40));
}

TEST(Scheduler, RunUntilStopsAtBoundary) {
    Scheduler s;
    int fired = 0;
    s.schedule_at(SimTime::ps(10), [&] { ++fired; });
    s.schedule_at(SimTime::ps(50), [&] { ++fired; });
    s.run_until(SimTime::ps(20));
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(s.now(), SimTime::ps(20));
    EXPECT_EQ(s.pending_events(), 1u);
    s.run_until(SimTime::ps(100));
    EXPECT_EQ(fired, 2);
}

TEST(Scheduler, SchedulingIntoThePastThrowsInAllBuilds) {
    // Regression: this used to be assert-only, so a Release build would
    // silently enqueue the event and execute it out of order.
    Scheduler s;
    s.schedule_at(SimTime::ps(100), [] {});
    s.run();
    ASSERT_EQ(s.now(), SimTime::ps(100));
    EXPECT_THROW(s.schedule_at(SimTime::ps(99), [] {}), std::logic_error);
    // now() and the queue are untouched by the rejected event.
    EXPECT_EQ(s.now(), SimTime::ps(100));
    EXPECT_TRUE(s.empty());
    // Scheduling at exactly now() stays legal.
    bool ran = false;
    s.schedule_at(SimTime::ps(100), [&] { ran = true; });
    s.run();
    EXPECT_TRUE(ran);
}

TEST(Scheduler, FifoTieBreakAcrossWheelAndOverflow) {
    // Regression for the calendar-queue kernel: (time, insertion-seq) order
    // must hold across every storage tier — near-term wheel slots, the
    // far-future overflow heap (times several wheel horizons out), and
    // same-time ties straddling both. The wheel horizon is ~1 ns, so the
    // +1 us events exercise heap-to-wheel migration.
    Scheduler s;
    std::vector<int> order;
    auto tag = [&order](int id) { return [&order, id] { order.push_back(id); }; };
    s.schedule_at(SimTime::us(1), tag(6));       // overflow
    s.schedule_at(SimTime::ps(5), tag(0));       // wheel
    s.schedule_at(SimTime::us(1), tag(7));       // overflow, same time: FIFO
    s.schedule_at(SimTime::ps(5), tag(1));       // wheel, same time: FIFO
    s.schedule_at(SimTime::ps(5) + SimTime::fs(1), tag(2));  // same slot, later
    s.schedule_at(SimTime::ns(500), tag(5));     // overflow, earlier than us(1)
    s.schedule_at(SimTime::ns(2), tag(3));       // beyond horizon of slot 0
    s.schedule_at(SimTime::ns(2), tag(4));       // tie with previous: FIFO
    s.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(Scheduler, LateInWindowPushDoesNotShadowEarlierPending) {
    // Regression: after a pop empties its wheel slot, the queue's
    // minimum-slot hint is unknown. A subsequent push near the far edge of
    // the wheel window must not re-establish the hint at its own slot and
    // shadow earlier events still pending in between.
    Scheduler s;
    std::vector<int> order;
    auto tag = [&order](int id) { return [&order, id] { order.push_back(id); }; };
    s.schedule_at(SimTime::fs(36915), tag(0));    // popped first
    s.schedule_at(SimTime::fs(38335), tag(1));    // survives in a later slot
    s.schedule_at(SimTime::fs(41421), tag(2));
    s.schedule_at(SimTime::fs(36915), [&s, tag] {
        // From inside event 0: slot ~1002 is inside the wheel window but
        // far past the surviving slot-37 events.
        s.schedule_at(SimTime::fs(1026087), tag(3));
    });
    s.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(Scheduler, OrderMatchesReferenceSortUnderRandomLoad) {
    // Randomized cross-check against a stable sort by (time, insertion
    // order), with a coarse time quantum to force many exact ties and a
    // spread wide enough to keep both wheel and overflow populated.
    Scheduler s;
    Rng rng(1234);
    std::vector<std::pair<std::int64_t, int>> expected;  // (time_fs, id)
    std::vector<int> order;
    for (int id = 0; id < 2000; ++id) {
        const auto t_fs = static_cast<std::int64_t>(
            rng.uniform(0.0, 3e6));               // 0..3 ns
        const std::int64_t quantized = (t_fs / 7000) * 7000;
        expected.emplace_back(quantized, id);
        s.schedule_at(SimTime::fs(quantized), [&order, id] { order.push_back(id); });
    }
    std::stable_sort(expected.begin(), expected.end(),
                     [](const auto& a, const auto& b) { return a.first < b.first; });
    s.run();
    ASSERT_EQ(order.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(order[i], expected[i].second) << "position " << i;
    }
}

TEST(Scheduler, EventsScheduledAtNowRunBeforeLaterTimes) {
    // A callback scheduling at exactly now() (the ring oscillator's startup
    // kick does this) must run before any strictly later pending event,
    // even one in the same wheel slot.
    Scheduler s;
    std::vector<int> order;
    s.schedule_at(SimTime::ps(10), [&] {
        order.push_back(1);
        s.schedule_at(s.now(), [&order] { order.push_back(2); });
        s.schedule_in(SimTime::fs(1), [&order] { order.push_back(3); });
    });
    s.schedule_at(SimTime::ps(10) + SimTime::fs(2), [&] { order.push_back(4); });
    s.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(Scheduler, OversizedCapturesTakeTheHeapFallback) {
    // Captures beyond the inline callback buffer must still work (heap
    // path of InlineCallback) and run exactly once.
    Scheduler s;
    std::array<char, 128> blob{};
    blob[0] = 42;
    int hits = 0;
    s.schedule_at(SimTime::ps(1), [blob, &hits] { hits += blob[0]; });
    s.run();
    EXPECT_EQ(hits, 42);
}

TEST(Scheduler, StepReturnsFalseWhenEmpty) {
    Scheduler s;
    EXPECT_FALSE(s.step());
    s.schedule_at(SimTime::ps(1), [] {});
    EXPECT_TRUE(s.step());
    EXPECT_FALSE(s.step());
    EXPECT_EQ(s.executed_events(), 1u);
}

TEST(Wire, TransportDelayDeliversValue) {
    Scheduler s;
    Wire w(s, "w");
    w.post_transport(SimTime::ps(100), true);
    EXPECT_FALSE(w.value());
    s.run();
    EXPECT_TRUE(w.value());
    EXPECT_EQ(w.last_change(), SimTime::ps(100));
    EXPECT_EQ(w.transition_count(), 1u);
}

TEST(Wire, TransportPassesNarrowPulses) {
    // Transport (unlike inertial) delay must propagate pulses narrower than
    // the delay itself — the EDET pulse relies on this.
    Scheduler s;
    Wire w(s, "w");
    s.schedule_at(SimTime::ps(0), [&] { w.post_transport(SimTime::ps(500), true); });
    s.schedule_at(SimTime::ps(1), [&] { w.post_transport(SimTime::ps(500), false); });
    std::vector<std::pair<SimTime, bool>> seen;
    w.on_change([&] { seen.emplace_back(s.now(), w.value()); });
    s.run();
    ASSERT_EQ(seen.size(), 2u);
    EXPECT_EQ(seen[0], std::make_pair(SimTime::ps(500), true));
    EXPECT_EQ(seen[1], std::make_pair(SimTime::ps(501), false));
}

TEST(Wire, LaterPostCancelsPendingAtOrAfter) {
    // VHDL transport rule: a new transaction deletes pending transactions
    // scheduled at or after its own time.
    Scheduler s;
    Wire w(s, "w");
    std::vector<std::pair<SimTime, bool>> seen;
    w.on_change([&] { seen.emplace_back(s.now(), w.value()); });
    s.schedule_at(SimTime::ps(0), [&] {
        w.post_transport(SimTime::ps(100), true);   // t=100
        w.post_transport(SimTime::ps(50), false);   // t=50 cancels t=100
    });
    s.run();
    // The final value is false; the cancelled 'true' never fired (initial
    // value is already false, so no change events at all).
    EXPECT_TRUE(seen.empty());
    EXPECT_FALSE(w.value());
}

TEST(Wire, CancellationKeepsEarlierTransactions) {
    Scheduler s;
    Wire w(s, "w");
    std::vector<std::pair<SimTime, bool>> seen;
    w.on_change([&] { seen.emplace_back(s.now(), w.value()); });
    s.schedule_at(SimTime::ps(0), [&] {
        w.post_transport(SimTime::ps(10), true);
        w.post_transport(SimTime::ps(30), false);
        w.post_transport(SimTime::ps(20), true);  // cancels only the t=30
    });
    s.run();
    ASSERT_EQ(seen.size(), 1u);
    EXPECT_EQ(seen[0].first, SimTime::ps(10));
    EXPECT_TRUE(w.value());
}

TEST(Wire, SetNowClearsPending) {
    Scheduler s;
    Wire w(s, "w");
    w.post_transport(SimTime::ps(100), true);
    w.set_now(true);
    EXPECT_TRUE(w.value());
    w.set_now(false);
    s.run();
    EXPECT_FALSE(w.value());  // the pending 'true' was cancelled
}

TEST(Wire, RedundantValuePostsAreCollapsed) {
    Scheduler s;
    Wire w(s, "w");
    w.post_transport(SimTime::ps(10), false);  // same as current: no-op
    EXPECT_TRUE(s.empty());
    w.post_transport(SimTime::ps(10), true);
    w.post_transport(SimTime::ps(20), true);  // same as pending tail: no-op
    EXPECT_EQ(s.pending_events(), 1u);
    s.run();
    EXPECT_EQ(w.transition_count(), 1u);
}

TEST(Wire, ListenersSeeCommittedValueAtCommitTime) {
    Scheduler s;
    Wire a(s, "a");
    Wire b(s, "b");
    // b follows a with 10 ps transport delay, like a 1-gate netlist.
    a.on_change([&] { b.post_transport(SimTime::ps(10), a.value()); });
    s.schedule_at(SimTime::ps(100), [&] { a.set_now(true); });
    s.run();
    EXPECT_TRUE(b.value());
    EXPECT_EQ(b.last_change(), SimTime::ps(110));
}

TEST(Vcd, RecordsTransitionsAndEdges) {
    Scheduler s;
    Wire w(s, "clk");
    VcdWriter vcd;
    vcd.watch(w);
    for (int i = 1; i <= 6; ++i) {
        s.schedule_at(SimTime::ps(i * 100),
                      [&w, i] { w.set_now(i % 2 == 1); });
    }
    s.run();
    EXPECT_EQ(vcd.change_count(), 6u);
    const auto rising = vcd.edges_of("clk", /*rising_only=*/true);
    ASSERT_EQ(rising.size(), 3u);
    EXPECT_EQ(rising[0], SimTime::ps(100));
    EXPECT_EQ(rising[2], SimTime::ps(500));
    const auto all = vcd.edges_of("clk");
    EXPECT_EQ(all.size(), 6u);
}

TEST(Vcd, EdgesOfUnknownWireThrowsListingWatchedWires) {
    Scheduler s;
    Wire w(s, "clk");
    VcdWriter vcd;
    vcd.watch(w);
    try {
        (void)vcd.edges_of("clock");
        FAIL() << "unknown wire name must throw";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("'clk'"), std::string::npos)
            << e.what();
    }
}

TEST(Vcd, AsciiDiagramShowsLevels) {
    Scheduler s;
    Wire w(s, "data");
    VcdWriter vcd;
    vcd.watch(w);
    s.schedule_at(SimTime::ps(500), [&] { w.set_now(true); });
    s.run();
    const auto art = vcd.ascii_diagram(SimTime::ps(0), SimTime::ps(1000), 10);
    // Low for the first half, high for the second.
    EXPECT_NE(art.find("data"), std::string::npos);
    EXPECT_NE(art.find('_'), std::string::npos);
    EXPECT_NE(art.find('#'), std::string::npos);
}

TEST(Vcd, AsciiDiagramRowsStartInTheSameColumn) {
    // Labels shorter and longer than 10 characters: every waveform must
    // still start one column past the longest label, so edges on
    // different rows line up.
    Scheduler s;
    Wire a(s, "d");
    Wire b(s, "a_rather_long_wire_name");
    Wire c(s, "mid_length");
    VcdWriter vcd;
    vcd.watch(a);
    vcd.watch(b);
    vcd.watch(c);
    s.schedule_at(SimTime::ps(500), [&] {
        a.set_now(true);
        b.set_now(true);
        c.set_now(true);
    });
    s.run();
    constexpr std::size_t kColumns = 10;
    const std::string art =
        vcd.ascii_diagram(SimTime::ps(0), SimTime::ps(1000), kColumns);
    const std::size_t start = std::string("a_rather_long_wire_name").size() + 1;
    std::size_t rows = 0;
    for (std::size_t pos = 0; pos < art.size();) {
        const std::size_t eol = art.find('\n', pos);
        ASSERT_NE(eol, std::string::npos);
        const std::string row = art.substr(pos, eol - pos);
        ASSERT_EQ(row.size(), start + kColumns) << row;
        EXPECT_EQ(row.substr(start), "____|#####") << row;
        EXPECT_EQ(row[start - 1], ' ') << row;
        pos = eol + 1;
        ++rows;
    }
    EXPECT_EQ(rows, 3u);
}

}  // namespace
}  // namespace gcdr::sim
