// serve_mix: open-loop, seeded Poisson traffic into an in-process
// serve::ServeServer (2 workers x 1 job thread, fresh cache file) over
// loopback HTTP, synchronous POST /v1/run on at most kConnections
// keep-alive connections.
//
// The whole schedule (due times, bodies) is fixed before the first send.
// Each client thread takes the next request in due order, sleeps until
// its due time and sends it, so a request goes out late only when every
// connection is still waiting on an earlier one; latency is timed from
// the due time. Traced runs replay the same schedule twice on fresh
// daemons, untraced then traced, and take the per-layer numbers from the
// traced pass.

#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/digest.hpp"
#include "core/gen.hpp"
#include "core/result.hpp"
#include "core/stats.hpp"
#include "core/trace.hpp"
#include "exec/thread_pool.hpp"
#include "obs/json_parse.hpp"
#include "obs/metrics.hpp"
#include "obs/process_stats.hpp"
#include "obs/trace_span.hpp"
#include "serve/cache.hpp"
#include "serve/executor.hpp"
#include "serve/http.hpp"
#include "serve/protocol.hpp"
#include "serve/queue.hpp"
#include "serve/server.hpp"
#include "util/hash.hpp"

namespace perfbench {

namespace {

using gcdr::obs::SpanCollector;
using gcdr::obs::TraceSpan;
namespace sv = gcdr::serve;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kConnections = 4;
/// Requests per window of the windowed percentiles: 20 beyond p95.
constexpr std::size_t kWindow = 400;
constexpr int kSetupReps = 21;
/// Latency limit on a ladder step's p95 for max_ok_rps.
constexpr double kLimitMs = 100.0;

double since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::unique_ptr<sv::ServeServer> start_daemon(const std::string& dir,
                                              std::string& error) {
    std::filesystem::create_directories(dir);
    sv::ServerOptions so;
    so.port = 0;
    so.cache_path = dir + "/cache.jsonl";
    so.workers = 2;
    so.job_threads = 1;
    auto srv = std::make_unique<sv::ServeServer>(so);
    if (!srv->start()) {
        error = "daemon failed to start";
        return nullptr;
    }
    sv::HttpClient client("127.0.0.1", srv->port());
    const auto t0 = Clock::now();
    for (;;) {
        sv::HttpClient::Response resp;
        if (client.get("/v1/healthz", resp) && resp.status == 200) break;
        if (since(t0) > 10.0) {
            error = "daemon never answered /v1/healthz";
            return nullptr;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return srv;
}

struct Sample {
    double send = 0.0, done = 0.0;  ///< seconds after the schedule start
    int http = 0;
    std::string body;
};

struct Pass {
    std::vector<Sample> samples;  ///< indexed like Schedule::requests
    double w0 = 0.0, w1 = 0.0;    ///< collector time of the load window
};

Pass drive(sv::ServeServer& srv, const Schedule& s) {
    Pass pass;
    pass.samples.resize(s.requests.size());
    std::atomic<std::size_t> next{0};
    SpanCollector& coll = SpanCollector::global();
    const auto start = Clock::now() + std::chrono::milliseconds(50);
    auto client_main = [&] {
        sv::HttpClient client("127.0.0.1", srv.port());
        for (;;) {
            const std::size_t i = next.fetch_add(1);
            if (i >= s.requests.size()) return;
            const Request& r = s.requests[i];
            std::this_thread::sleep_until(
                start + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(r.due_s)));
            Sample& out = pass.samples[i];
            out.send = since(start);
            TraceSpan span("serve.request");
            sv::HttpClient::Response resp;
            if (client.post("/v1/run", s.specs[r.spec], resp)) {
                out.http = resp.status;
                out.body = std::move(resp.body);
            }
            out.done = since(start);
        }
    };
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < kConnections; ++c) clients.emplace_back(client_main);
    std::this_thread::sleep_until(start);
    pass.w0 = coll.now_s();
    for (auto& t : clients) t.join();
    pass.w1 = coll.now_s();
    return pass;
}

/// The payload member of a gcdr.serve.result/v1 envelope, verbatim (it
/// is spliced in last, so it runs to the closing brace).
std::string payload_of(const std::string& envelope) {
    const std::string tag = ",\"payload\":";
    const auto at = envelope.find(tag);
    if (at == std::string::npos) return {};
    return envelope.substr(at + tag.size(),
                           envelope.size() - 1 - (at + tag.size()));
}

struct Outcome {
    bool ok = false;
    bool hit = false;
    std::string payload;
};

Outcome read_envelope(const Sample& smp) {
    Outcome o;
    if (smp.http != 200) return o;
    gcdr::obs::JsonValue v;
    if (!gcdr::obs::json_parse(smp.body, v)) return o;
    const gcdr::obs::JsonValue* status = v.find("status");
    const gcdr::obs::JsonValue* cache = v.find("cache");
    const gcdr::obs::JsonValue* misses = cache ? cache->find("misses") : nullptr;
    o.payload = payload_of(smp.body);
    o.ok = status && status->text == "done" && misses && !o.payload.empty();
    o.hit = misses && misses->uint_or(1) == 0;
    return o;
}

/// Quantile of a histogram family from Prometheus text (cumulative
/// buckets of obs::Histogram, 16 log buckets per decade, interpolated
/// inside the bucket), in the histogram's own unit.
double prom_quantile(const std::string& text, const std::string& family,
                     double q) {
    std::vector<std::pair<double, double>> buckets;  // (upper, cumulative)
    const std::string head = family + "_bucket{le=\"";
    std::size_t pos = 0;
    while ((pos = text.find(head, pos)) != std::string::npos) {
        pos += head.size();
        const auto quote = text.find('"', pos);
        const std::string le = text.substr(pos, quote - pos);
        const double upper = le == "+Inf" ? INFINITY : std::stod(le);
        const auto space = text.find(' ', quote);
        buckets.emplace_back(upper, std::stod(text.substr(space + 1)));
    }
    if (buckets.empty() || buckets.back().second <= 0.0) return 0.0;
    const double target = q * buckets.back().second;
    const double step = std::pow(10.0, 1.0 / gcdr::obs::Histogram::kPerDecade);
    double prev_cum = 0.0;
    for (const auto& [upper, cum] : buckets) {
        if (cum >= target && std::isfinite(upper)) {
            const double lower = upper / step;
            const double frac = (target - prev_cum) / std::max(cum - prev_cum, 1.0);
            return lower + frac * (upper - lower);
        }
        prev_cum = cum;
    }
    return 0.0;
}

/// Requests due by `t` and not answered by `t`.
std::size_t outstanding(const Schedule& s, const Pass& p, double t) {
    std::size_t n = 0;
    for (std::size_t i = 0; i < s.requests.size(); ++i) {
        n += s.requests[i].due_s <= t && p.samples[i].done > t;
    }
    return n;
}

struct Analysis {
    std::uint64_t attempted = 0, failed = 0;
    std::vector<std::string> errors;
    std::vector<Outcome> outcomes;
    std::uint64_t digest = 0;
    std::map<std::string, double> m;
};

Analysis analyse(const Schedule& s, const Pass& p) {
    Analysis a;
    const std::size_t n = s.requests.size();
    a.outcomes.resize(n);
    std::vector<std::string> first(s.specs.size());
    for (std::size_t i = 0; i < n; ++i) {
        a.outcomes[i] = read_envelope(p.samples[i]);
        ++a.attempted;
        const Outcome& o = a.outcomes[i];
        const Request& r = s.requests[i];
        if (!o.ok) {
            ++a.failed;
            if (a.errors.size() < 5) {
                a.errors.push_back("request " + std::to_string(i) + " failed (HTTP " +
                                   std::to_string(p.samples[i].http) + ")");
            }
            continue;
        }
        if (r.cls != ReqClass::kHit) {
            first[r.spec] = o.payload;
            if (r.cls == ReqClass::kMc &&
                o.payload.find("\"n_samples\":0") != std::string::npos) {
                ++a.failed;
                a.errors.push_back("mc job ran no samples");
            }
        } else if (o.payload != first[r.spec]) {
            // Cache hit == recompute: a repeat returns the cold bytes.
            ++a.failed;
            if (a.errors.size() < 5) {
                a.errors.push_back("repeat of spec " + std::to_string(r.spec) +
                                   " differs from its first payload");
            }
        }
    }
    a.digest = digest_payloads(first);

    auto lat_ms = [&](std::size_t i) {
        return a.outcomes[i].ok ? (p.samples[i].done - s.requests[i].due_s) * 1e3
                                : 1e6;  // failures miss every limit
    };
    double max_ok = 0.0;
    std::vector<double> ladder_hit_lat;
    for (const Step& st : s.steps) {
        std::vector<double> lat, hit_lat;
        double last_done = st.t0_s;
        bool all_ok = true;
        for (std::size_t i = st.first; i < st.first + st.count; ++i) {
            lat.push_back(lat_ms(i));
            if (a.outcomes[i].hit) {
                hit_lat.push_back(lat_ms(i));
                if (st.ladder) ladder_hit_lat.push_back(lat_ms(i));
            }
            last_done = std::max(last_done, p.samples[i].done);
            all_ok = all_ok && a.outcomes[i].ok;
        }
        const double p95 = quantile(lat, 0.95);
        // A step whose rate the daemon cannot sustain ends with a queue
        // that grows with the step length; a sustainable one ends with
        // at most a burst's worth outstanding.
        const bool growing =
            static_cast<double>(outstanding(s, p, st.t1_s)) >
            static_cast<double>(kConnections) + 0.05 * static_cast<double>(st.count);
        const double achieved = static_cast<double>(st.count) / (last_done - st.t0_s);
        a.m["step." + st.name + ".p95_ms"] = p95;
        a.m["step." + st.name + ".achieved_rps"] = achieved;
        if (st.ladder && all_ok && p95 <= kLimitMs && !growing) {
            max_ok = std::max(max_ok, achieved);
        }
        if (st.nominal) {
            a.m["req_p50_ms"] = windowed_quantile(lat, 0.5, kWindow);
            a.m["req_p95_ms"] = windowed_quantile(lat, 0.95, kWindow);
            a.m["nominal.hit_p50_ms"] = quantile(hit_lat, 0.5);
            a.m["time_to_result_s"] = last_done - st.t0_s;
            a.m["nominal.requests"] = static_cast<double>(lat.size());
            a.m["nominal.hits"] = static_cast<double>(hit_lat.size());
        }
    }
    a.m["max_ok_rps"] = max_ok;
    // Hits of the whole ladder: fixed step lengths make this a fixed
    // mixture of the three rates, with about twice the nominal step's
    // samples.
    a.m["hit_p95_ms"] = windowed_quantile(ladder_hit_lat, 0.95, kWindow);
    a.m["ladder.hits"] = static_cast<double>(ladder_hit_lat.size());

    // Request-path breakdown (reported by the traced run).
    std::vector<double> late, rtt;
    std::vector<std::vector<double>> miss(kNumClasses);
    std::size_t hits = 0, planned_hits = 0;
    for (std::size_t i = 0; i < n; ++i) {
        late.push_back((p.samples[i].send - s.requests[i].due_s) * 1e3);
        rtt.push_back((p.samples[i].done - p.samples[i].send) * 1e3);
        const Outcome& o = a.outcomes[i];
        const ReqClass c = s.requests[i].cls;
        planned_hits += c == ReqClass::kHit;
        hits += o.hit;
        if (o.ok && !o.hit && c != ReqClass::kHit) {
            miss[static_cast<std::size_t>(c)].push_back(rtt.back());
        }
    }
    a.m["loadgen.sent"] = static_cast<double>(n);
    a.m["loadgen.late_p95_ms"] = quantile(late, 0.95);
    a.m["client.rtt_p50_ms"] = median(rtt);
    a.m["client.hits"] = static_cast<double>(hits);
    a.m["client.planned_hits"] = static_cast<double>(planned_hits);
    for (std::size_t c = 1; c < kNumClasses; ++c) {
        a.m[std::string("serve.miss_p50_ms.") + class_name(static_cast<ReqClass>(c))] =
            median(miss[c]);
    }
    return a;
}

/// Server-side numbers from /metrics and /v1/stats of the live daemon.
void server_view(sv::ServeServer& srv, std::map<std::string, double>& m) {
    sv::HttpClient client("127.0.0.1", srv.port());
    sv::HttpClient::Response metrics, stats;
    if (client.get("/metrics", metrics) && metrics.status == 200) {
        const std::string& t = metrics.body;
        m["serve.queue_wait_p50_ms"] = 1e3 * prom_quantile(t, "serve_queue_wait_seconds", 0.5);
        m["serve.queue_wait_p95_ms"] = 1e3 * prom_quantile(t, "serve_queue_wait_seconds", 0.95);
        m["serve.request_p50_ms"] = 1e3 * prom_quantile(t, "serve_request_seconds", 0.5);
        m["serve.request_p95_ms"] = 1e3 * prom_quantile(t, "serve_request_seconds", 0.95);
    }
    if (client.get("/v1/stats", stats) && stats.status == 200) {
        gcdr::obs::JsonValue v;
        if (gcdr::obs::json_parse(stats.body, v)) {
            const gcdr::obs::JsonValue* cache = v.find("cache");
            const gcdr::obs::JsonValue* ratio = cache ? cache->find("hit_ratio") : nullptr;
            m["serve.cache_hit_ratio"] = ratio ? ratio->number_or(0.0) : 0.0;
        }
    }
}

/// serve.parse_us / serve.key_us: every sent body replayed through the
/// daemon's own request-path functions, median per body.
void replay_request_path(const Schedule& s, std::map<std::string, double>& m) {
    std::vector<double> parse_us, key_us;
    for (const Request& r : s.requests) {
        const std::string& body = s.specs[r.spec];
        const auto t0 = Clock::now();
        gcdr::obs::JsonValue v;
        sv::JobSpec spec;
        std::string err;
        const bool ok = gcdr::obs::json_parse(body, v, &err) && sv::parse_job(v, spec, err);
        const auto t1 = Clock::now();
        if (!ok) continue;
        const sv::CacheKey key = sv::JobExecutor::key_of(spec);
        const auto t2 = Clock::now();
        (void)key;
        parse_us.push_back(std::chrono::duration<double, std::micro>(t1 - t0).count());
        key_us.push_back(std::chrono::duration<double, std::micro>(t2 - t1).count());
    }
    m["serve.parse_us"] = median(parse_us);
    m["serve.key_us"] = median(key_us);
}

}  // namespace

std::uint64_t serve_mix_digest(const Options& o) {
    const Schedule s = serve_schedule(o.seed, o.seconds);
    sv::ResultCache cache("", 0);
    sv::JobExecutor executor(cache, nullptr);
    gcdr::exec::ThreadPool pool(1);
    std::vector<std::string> payloads;
    for (std::size_t i = 0; i < s.specs.size(); ++i) {
        gcdr::obs::JsonValue v;
        sv::JobSpec spec;
        std::string err;
        if (!gcdr::obs::json_parse(s.specs[i], v, &err) || !sv::parse_job(v, spec, err)) {
            return 0;
        }
        sv::JobState job(i + 1, std::move(spec));
        payloads.push_back(payload_of(executor.execute(job, pool).envelope));
    }
    return digest_payloads(payloads);
}

RunResult run_serve_mix(const Options& o,
                        const std::map<std::string, std::uint64_t>& goldens) {
    RunResult r;
    const Schedule s = serve_schedule(o.seed, o.seconds);
    const std::string base = o.workdir + "/serve_" + std::to_string(o.seed);
    std::filesystem::remove_all(base);

    // Set-up: daemon start + cache open until /v1/healthz answers, on a
    // fresh cache file each time, kSetupReps times before the load (the
    // last daemon takes it) and kSetupReps times after, so that the
    // median samples the host at both ends of the run.
    std::vector<double> setup_s;
    std::unique_ptr<sv::ServeServer> srv;
    auto set_up_block = [&](const char* tag) {
        for (int k = 0; k < kSetupReps; ++k) {
            srv.reset();
            std::string err;
            const auto t0 = Clock::now();
            srv = start_daemon(base + "/setup" + tag + std::to_string(k), err);
            setup_s.push_back(since(t0));
            if (!srv) {
                r.attempted = r.failed = 1;
                r.fail(err);
                return false;
            }
        }
        return true;
    };
    if (!set_up_block("a")) return r;

    const Pass pass = drive(*srv, s);
    Analysis a = analyse(s, pass);
    server_view(*srv, a.m);
    if (!set_up_block("b")) return r;
    srv.reset();

    r.attempted = a.attempted;
    r.failed = a.failed;
    for (const std::string& e : a.errors) r.fail(e);
    const std::string key = golden_key(o.workload, o.seed, o.seconds);
    const GoldenStatus gs = check_golden(goldens, key, a.digest);
    r.notes.push_back("digest " + gcdr::util::hash_hex(a.digest) + " (" + key +
                      ": " + golden_status_name(gs) + ")");
    if (gs == GoldenStatus::kMismatch) {
        ++r.failed;
        r.fail("payload digest does not match the golden");
    }
    for (const Step& st : s.steps) {
        char line[200];
        std::snprintf(line, sizeof line,
                      "step %-7s %6.1f req/s offered, %6.1f achieved, %4zu requests, p95 %.1f ms",
                      st.name.c_str(), st.rate_rps,
                      a.m["step." + st.name + ".achieved_rps"], st.count,
                      a.m["step." + st.name + ".p95_ms"]);
        r.notes.push_back(line);
    }
    char line[200];
    std::snprintf(line, sizeof line,
                  "nominal step %.0f requests (%.0f hits, hit p50 %.3f ms); "
                  "ladder %.0f hits; %.0f of %.0f repeats were cache hits",
                  a.m["nominal.requests"], a.m["nominal.hits"],
                  a.m["nominal.hit_p50_ms"], a.m["ladder.hits"],
                  a.m["client.hits"], a.m["client.planned_hits"]);
    r.notes.push_back(line);
    std::snprintf(line, sizeof line,
                  "latency: req_p50_ms %.3f, req_p95_ms %.3f (nominal step), "
                  "hit_p95_ms %.3f (ladder hits); per-layer, not gated",
                  a.m["req_p50_ms"], a.m["req_p95_ms"], a.m["hit_p95_ms"]);
    r.notes.push_back(line);
    if (!tail_supported(static_cast<std::size_t>(a.m["nominal.requests"]), 0.95) ||
        !tail_supported(static_cast<std::size_t>(a.m["ladder.hits"]), 0.95)) {
        r.notes.push_back("note: under 10 samples beyond p95; run longer");
    }

    for (const char* k : {"time_to_result_s", "max_ok_rps"}) {
        r.metrics[k] = a.m[k];
    }
    r.metrics["setup_s"] = median(setup_s);
    r.metrics["peak_rss_mb"] =
        static_cast<double>(gcdr::obs::process_peak_rss_bytes()) / 1048576.0;

    if (o.trace) {
        std::string err;
        srv = start_daemon(base + "/traced", err);
        if (!srv) {
            r.fail(err);
            return r;
        }
        SpanCollector& coll = SpanCollector::global();
        coll.clear();
        coll.enable(1u << 18);
        const Pass tp = drive(*srv, s);
        coll.disable();
        Analysis ta = analyse(s, tp);
        server_view(*srv, ta.m);
        srv.reset();
        r.attempted += ta.attempted;
        r.failed += ta.failed;
        for (const std::string& e : ta.errors) r.fail("traced: " + e);
        if (ta.digest != a.digest) {
            ++r.failed;
            r.fail("traced payloads differ from the untraced run's");
        }
        replay_request_path(s, ta.m);
        const SpanSet spans(coll.merged());
        const double lo = tp.w0, hi = tp.w1 + 1.0;
        ta.m["stats.convolves"] = static_cast<double>(spans.count("pdf.convolve", lo, hi));
        ta.m["stats.convolve_s"] = spans.covered("pdf.convolve", lo, hi);
        ta.m["mc.is_s"] = spans.covered("mc.is.round", lo, hi);
        ta.m["unattributed_frac"] =
            1.0 - spans.covered("serve.request", tp.w0, tp.w1) / (tp.w1 - tp.w0);
        ta.m["serve.transport_p50_ms"] = ta.m["client.rtt_p50_ms"] - ta.m["serve.request_p50_ms"];
        ta.m["trace.overhead_frac"] = ta.m["time_to_result_s"] / a.m["time_to_result_s"] - 1.0;
        for (const MetricDef& d : per_layer_metrics()) {
            const auto it = ta.m.find(d.name);
            r.metrics[d.name] = it == ta.m.end() ? 0.0 : it->second;
        }
        // Latency percentiles come from the untraced pass.
        for (const char* k : {"req_p50_ms", "req_p95_ms", "hit_p95_ms"}) {
            r.metrics[k] = a.m[k];
        }
    }
    std::filesystem::remove_all(base);
    return r;
}

}  // namespace perfbench
