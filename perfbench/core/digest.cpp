#include "core/digest.hpp"

#include <fstream>
#include <sstream>

#include "util/hash.hpp"

namespace perfbench {

std::uint64_t digest_payloads(const std::vector<std::string>& payloads) {
    std::uint64_t h = gcdr::util::kFnv1a64OffsetBasis;
    for (const std::string& p : payloads) {
        h = gcdr::util::fnv1a64(p, h);
        h = gcdr::util::fnv1a64("\n", h);
    }
    return h;
}

std::string golden_key(const std::string& workload, std::uint64_t seed,
                       int seconds) {
    if (workload == "serve_mix") {
        return workload + "/s" + std::to_string(seconds) + "/" +
               std::to_string(seed);
    }
    return workload + "/" + std::to_string(seed);
}

bool load_goldens(const std::string& path,
                  std::map<std::string, std::uint64_t>& out,
                  std::string& error) {
    std::ifstream in(path);
    if (!in) {
        error = "cannot read " + path;
        return false;
    }
    std::string line;
    for (int n = 1; std::getline(in, line); ++n) {
        if (const auto hash = line.find('#'); hash != std::string::npos) {
            line.resize(hash);
        }
        std::istringstream fields(line);
        std::string key, hex, extra;
        if (!(fields >> key)) continue;  // blank or comment
        std::uint64_t digest = 0;
        if (!(fields >> hex) || (fields >> extra) ||
            !gcdr::util::parse_hash_hex(hex, digest)) {
            error = path + ":" + std::to_string(n) +
                    ": want \"<key> <16 hex digits>\"";
            return false;
        }
        out[key] = digest;
    }
    return true;
}

GoldenStatus check_golden(const std::map<std::string, std::uint64_t>& goldens,
                          const std::string& key, std::uint64_t digest) {
    const auto it = goldens.find(key);
    if (it == goldens.end()) return GoldenStatus::kAbsent;
    return it->second == digest ? GoldenStatus::kMatch
                                : GoldenStatus::kMismatch;
}

const char* golden_status_name(GoldenStatus s) {
    switch (s) {
        case GoldenStatus::kMatch: return "match";
        case GoldenStatus::kMismatch: return "MISMATCH";
        case GoldenStatus::kAbsent: return "no golden for this seed";
    }
    return "?";
}

}  // namespace perfbench
