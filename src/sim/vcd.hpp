#pragma once
// IEEE 1364 VCD (value change dump) writer for the behavioral simulation:
// attach wires, run, then emit a dump readable by GTKWave & co. The
// behavioral layer replaces the paper's VHDL simulator; this replaces its
// waveform viewer hookup.

#include <string>
#include <vector>

#include "sim/wire.hpp"
#include "util/sim_time.hpp"

namespace gcdr::sim {

class VcdWriter {
public:
    /// `timescale_fs` sets the VCD timescale unit in femtoseconds
    /// (default 1 ps, matching the paper's VHDL resolution).
    explicit VcdWriter(std::int64_t timescale_fs = 1000)
        : timescale_fs_(timescale_fs) {}

    /// Attach a wire; transitions from now on are recorded.
    void watch(Wire& w);

    /// Bound the retained history to the newest `n` changes (0 = unbounded,
    /// the default). Evicted changes fold into the per-signal initial
    /// values, so a capped writer still renders a correct waveform for the
    /// window it retains — this is what lets the flight recorder watch a
    /// channel for an entire run without unbounded growth.
    void set_max_changes(std::size_t n);

    /// Render the complete VCD document.
    [[nodiscard]] std::string to_string(
        const std::string& module_name = "gcco_cdr") const;

    /// Render only changes with time_fs in [t0_fs, t1_fs]; changes before
    /// the window fold into the initial values, so signal states entering
    /// the window are correct. Used for flight-recorder failure windows.
    [[nodiscard]] std::string to_string_window(
        std::int64_t t0_fs, std::int64_t t1_fs,
        const std::string& module_name = "gcco_cdr") const;

    /// Write to a file; returns false on I/O failure.
    bool write_file(const std::string& path,
                    const std::string& module_name = "gcco_cdr") const;

    /// write_file restricted to the [t0_fs, t1_fs] window.
    bool write_window(const std::string& path, std::int64_t t0_fs,
                      std::int64_t t1_fs,
                      const std::string& module_name = "gcco_cdr") const;

    /// Transition times of one watched wire (as named in the dump, spaces
    /// replaced by '_'), optionally rising edges only, in time order. A
    /// watched wire with no retained transitions returns an empty vector;
    /// a name that was never watched throws std::invalid_argument listing
    /// the watched wires, so a typo cannot pass as "no edges".
    [[nodiscard]] std::vector<SimTime> edges_of(const std::string& wire_name,
                                                bool rising_only = false) const;

    /// Render an ASCII timing diagram over [t0, t1] with `columns` time
    /// bins, one row per wire: '#' high, '_' low, '|' a bin holding a
    /// transition — a textual Fig 8. Labels are padded to the longest
    /// name plus one space, so every row's waveform starts in the same
    /// column.
    [[nodiscard]] std::string ascii_diagram(SimTime t0, SimTime t1,
                                            std::size_t columns = 100) const;

    [[nodiscard]] std::size_t signal_count() const { return names_.size(); }
    [[nodiscard]] std::size_t change_count() const { return changes_.size(); }

private:
    struct Change {
        std::int64_t time_fs;
        std::size_t signal;
        bool value;
    };

    /// The i-th retained change in time order (unwraps the ring).
    [[nodiscard]] const Change& change_at(std::size_t i) const {
        return max_changes_ == 0
                   ? changes_[i]
                   : changes_[(evict_pos_ + i) % changes_.size()];
    }
    [[nodiscard]] std::string id_of(std::size_t index) const;
    void record(std::int64_t time_fs, std::size_t signal, bool value);
    /// Header + $dumpvars with `state` as the initial values, then every
    /// change in [t0_fs, t1_fs].
    [[nodiscard]] std::string render(const std::string& module_name,
                                     const std::vector<bool>& state,
                                     std::int64_t t0_fs,
                                     std::int64_t t1_fs) const;

    std::int64_t timescale_fs_;
    std::vector<std::string> names_;
    std::vector<bool> initial_;
    std::vector<Change> changes_;
    std::size_t max_changes_ = 0;  ///< 0 = unbounded
    std::size_t evict_pos_ = 0;    ///< ring start when bounded
};

}  // namespace gcdr::sim
