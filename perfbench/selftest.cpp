// Self-tests of the benchmark's own rules and generators. Run with
//   python3 perfbench/run.py --self-test
// Exits non-zero and names each failed check.

#include <cmath>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/digest.hpp"
#include "core/gen.hpp"
#include "core/stats.hpp"
#include "obs/json_parse.hpp"
#include "scenario/scenario_doc.hpp"
#include "serve/protocol.hpp"

using namespace perfbench;

namespace {

int g_failures = 0;

void check(bool ok, const char* what) {
    std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what);
    if (!ok) ++g_failures;
}

void percentile_rule() {
    check(quantile({5, 1, 4, 2, 3}, 0.5) == 3.0, "median of 1..5 is 3");
    check(std::abs(quantile({1, 2, 3, 4}, 0.95) - 3.85) < 1e-12,
          "quantile interpolates between order statistics");
    check(!tail_supported(199, 0.95), "p95 of 199 samples has < 10 beyond");
    check(tail_supported(200, 0.95), "p95 of 200 samples has 10 beyond");
    check(tail_supported(20, 0.5) && !tail_supported(19, 0.5),
          "p50 needs 20 samples");

    // Ten windows of 200 samples 1..200; one window inflated 10x.
    std::vector<double> v;
    for (int w = 0; w < 10; ++w) {
        for (int i = 1; i <= 200; ++i) v.push_back(w == 3 ? 10.0 * i : i);
    }
    check(windowed_quantile(v, 0.95, 200) == quantile(std::vector<double>(v.begin(), v.begin() + 200), 0.95),
          "a burst in one window does not move the windowed p95");
    check(windowed_quantile({1, 2, 3}, 0.5, 200) == 2.0,
          "fewer than two windows fall back to the plain quantile");
}

void class_boundary_rule() {
    check(percentiles_clear_of_boundaries(serve_mix_shares(), {0.5, 0.95}),
          "serve_mix shares keep p50 and p95 >= 3 points from every boundary");
    check(!percentiles_clear_of_boundaries({0.6, 0.33, 0.07}, {0.5, 0.95}),
          "a boundary at 0.93 is too close to p95");
    check(!percentiles_clear_of_boundaries({0.48, 0.52}, {0.5}),
          "a boundary at 0.48 is too close to p50");
    check(!percentiles_clear_of_boundaries({0.5, 0.4}, {0.95}),
          "shares must sum to 1");
}

bool valid_scenario(const std::string& text) {
    gcdr::scenario::ScenarioDoc doc;
    std::vector<gcdr::scenario::Diagnostic> diags;
    const bool ok = gcdr::scenario::scenario_from_string(text, doc, diags);
    for (const auto& d : diags) std::printf("      %s\n", d.render().c_str());
    return ok;
}

void document_generators() {
    check(ber_surface_doc(7) == ber_surface_doc(7), "ber_surface doc is deterministic");
    check(ber_surface_doc(7) != ber_surface_doc(8), "ber_surface doc depends on the seed");
    check(lane_sim_doc(7) == lane_sim_doc(7), "lane_sim doc is deterministic");
    check(lane_sim_doc(7) != lane_sim_doc(8), "lane_sim doc depends on the seed");
    bool all_valid = true;
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        all_valid = all_valid && valid_scenario(ber_surface_doc(seed)) &&
                    valid_scenario(lane_sim_doc(seed));
    }
    check(all_valid, "generated scenario documents validate (seeds 1..20)");
}

void schedule_generator() {
    const Schedule a = serve_schedule(7, 20), b = serve_schedule(7, 20);
    bool same = a.specs == b.specs && a.requests.size() == b.requests.size();
    for (std::size_t i = 0; same && i < a.requests.size(); ++i) {
        same = a.requests[i].due_s == b.requests[i].due_s &&
               a.requests[i].cls == b.requests[i].cls &&
               a.requests[i].spec == b.requests[i].spec;
    }
    check(same, "serve schedule is deterministic per seed");
    check(serve_schedule(8, 20).specs != a.specs, "serve schedule depends on the seed");

    bool parse_ok = true;
    for (const std::string& body : a.specs) {
        gcdr::obs::JsonValue v;
        gcdr::serve::JobSpec spec;
        std::string err;
        if (!gcdr::obs::json_parse(body, v, &err) ||
            !gcdr::serve::parse_job(v, spec, err)) {
            std::printf("      %s\n", err.c_str());
            parse_ok = false;
        }
    }
    check(parse_ok, "every generated request body is a valid job");
    check(std::set<std::string>(a.specs.begin(), a.specs.end()).size() == a.specs.size(),
          "every first send is a distinct spec");

    std::vector<double> first_due(a.specs.size(), -1.0);
    bool ordered = true, aged = true;
    for (std::size_t i = 0; i < a.requests.size(); ++i) {
        const Request& r = a.requests[i];
        if (i > 0 && r.due_s < a.requests[i - 1].due_s) ordered = false;
        if (r.cls != ReqClass::kHit) {
            first_due[r.spec] = r.due_s;
        } else if (first_due[r.spec] < 0.0 ||
                   first_due[r.spec] > r.due_s - kRepeatAgeS) {
            aged = false;
        }
    }
    check(ordered, "requests are in due order");
    check(aged, "every repeat resends a spec first sent at least 2 s earlier");

    // Each full block of 200 requests holds the shares exactly.
    bool shares_exact = true, nominal_big = false;
    for (const Step& st : a.steps) {
        if (!st.ladder) continue;
        const std::size_t full = st.count / 200 * 200;
        std::vector<double> n(kNumClasses, 0.0);
        for (std::size_t i = st.first; i < st.first + full; ++i) {
            n[static_cast<std::size_t>(a.requests[i].cls)] += 1.0;
        }
        for (std::size_t c = 0; c < kNumClasses; ++c) {
            const double want = serve_mix_shares()[c] * static_cast<double>(full);
            shares_exact = shares_exact && std::abs(n[c] - want) < 1e-9;
        }
        if (st.nominal) {
            nominal_big = tail_supported(st.count, 0.95) &&
                          tail_supported(static_cast<std::size_t>(n[0]), 0.95);
        }
    }
    check(shares_exact, "each ladder step follows the class shares");
    check(nominal_big, "nominal step at 20 s has >= 200 requests and >= 200 hits");
}

void digest_check() {
    const std::vector<std::string> payloads = {"{\"ber\":1e-12}", "{\"ok\":true}"};
    std::vector<std::string> changed = payloads;
    changed[1][7] = 'T';  // one byte
    const std::uint64_t d = digest_payloads(payloads);
    check(digest_payloads(changed) != d, "a one-byte change moves the digest");
    const std::map<std::string, std::uint64_t> goldens = {{"ber_surface/1", d}};
    check(check_golden(goldens, "ber_surface/1", d) == GoldenStatus::kMatch,
          "digest matches its golden");
    check(check_golden(goldens, "ber_surface/1", digest_payloads(changed)) ==
              GoldenStatus::kMismatch,
          "golden check rejects the one-byte change");
    check(check_golden(goldens, "ber_surface/2", d) == GoldenStatus::kAbsent,
          "seeds without a golden are reported as such");
    check(golden_key("serve_mix", 3, 20) == "serve_mix/s20/3" &&
              golden_key("lane_sim", 3, 20) == "lane_sim/3",
          "golden keys");
}

}  // namespace

int main() {
    percentile_rule();
    class_boundary_rule();
    document_generators();
    schedule_generator();
    digest_check();
    std::printf("%s: %d failed\n", g_failures ? "FAILED" : "passed", g_failures);
    return g_failures ? 1 : 0;
}
