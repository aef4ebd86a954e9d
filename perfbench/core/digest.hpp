#pragma once
// Output checks: an FNV-1a-64 digest (util/hash.hpp) over a workload's
// result payloads, compared with the goldens the benchmark ships in
// perfbench/goldens.txt for the seeds it was run with.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// fnv1a64 over every payload followed by a newline, in order.
[[nodiscard]] std::uint64_t digest_payloads(
    const std::vector<std::string>& payloads);

/// Golden lookup key: "<workload>/<seed>" for the batch workloads, whose
/// payload does not depend on the run length, and
/// "<workload>/s<seconds>/<seed>" for serve_mix, whose spec set does.
[[nodiscard]] std::string golden_key(const std::string& workload,
                                     std::uint64_t seed, int seconds);

/// goldens.txt: one "<key> <16 hex digits>" per line; '#' starts a
/// comment. Returns false (with `error`) on a malformed line.
[[nodiscard]] bool load_goldens(const std::string& path,
                                std::map<std::string, std::uint64_t>& out,
                                std::string& error);

enum class GoldenStatus { kMatch, kMismatch, kAbsent };
[[nodiscard]] GoldenStatus check_golden(
    const std::map<std::string, std::uint64_t>& goldens,
    const std::string& key, std::uint64_t digest);
[[nodiscard]] const char* golden_status_name(GoldenStatus s);

}  // namespace perfbench
