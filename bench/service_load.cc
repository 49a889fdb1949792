/**
 * @file
 * Load generator for the simulation service (DESIGN.md section 13).
 *
 * Drives an in-process Server over real loopback TCP with four tenants
 * of eight closed-loop connections each, 32 jobs per connection: 1024
 * QRD runs against a 4-worker pool, so the admission queue stays deep
 * for the whole main phase.  Asserts, in order:
 *
 *  - every response is ok:true and its embedded result is
 *    byte-identical to one locally computed golden run (same preset,
 *    workload and seed);
 *  - a mid-run stats snapshot taken under saturation shows per-tenant
 *    completions within 10% of each other (the SFQ fairness bound);
 *  - a tagged long job submitted after the main phase cancels with the
 *    structured "canceled" code;
 *  - a burst of submitters racing a drain each get either a completed
 *    ok:true response or a structured "draining" rejection - no job
 *    and no response is lost;
 *  - post-drain, stats is still served and the books balance.
 *
 * Emits BENCH_service.json: client-observed throughput and latency
 * percentiles, the fairness snapshot, drain accounting, and the
 * server's own final stats envelope.  Exits non-zero on any violated
 * assertion, so CI can gate on it directly.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "apps/apps.hh"
#include "core/system.hh"
#include "service/client.hh"
#include "service/json.hh"
#include "service/server.hh"

using namespace imagine;
using namespace imagine::service;

namespace
{

int gFailures = 0;

void
check(bool ok, const std::string &what)
{
    if (!ok) {
        std::fprintf(stderr, "service_load: FAIL: %s\n", what.c_str());
        ++gFailures;
    }
}

constexpr int kTenantCount = 4;
constexpr int kConnsPerTenant = 8;
constexpr int kJobsPerConn = 32;
constexpr int kJobs = kTenantCount * kConnsPerTenant * kJobsPerConn;
constexpr uint64_t kSeed = 7;
const char *const kTenants[kTenantCount] = {"alice", "bob", "carol",
                                            "dave"};

std::string
runPayload(const std::string &tenant)
{
    return "{\"op\":\"run\",\"workload\":\"qrd\",\"tenant\":\"" +
           tenant + "\",\"seed\":" + std::to_string(kSeed) +
           ",\"params\":{\"rows\":64,\"cols\":16}}";
}

/** The byte-identity reference: the same run, executed locally. */
std::string
localGolden()
{
    ImagineSystem sys(MachineConfig::devBoard());
    apps::QrdConfig qc;
    qc.rows = 64;
    qc.cols = 16;
    qc.seed = kSeed;
    return runQrd(sys, qc).run.toJson();
}

double
percentile(std::vector<double> sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    size_t idx = static_cast<size_t>(p / 100.0 *
                                     static_cast<double>(sorted.size() - 1));
    return sorted[idx];
}

uint64_t
u64At(const json::Value &v, std::initializer_list<const char *> path)
{
    const json::Value *cur = &v;
    for (const char *key : path) {
        cur = cur->get(key);
        if (!cur)
            return 0;
    }
    return cur->asU64();
}

/** Per-tenant completions, parsed from a stats response. */
std::map<std::string, uint64_t>
tenantCompletions(const std::string &statsResponse)
{
    json::Value v = json::parse(statsResponse);
    std::map<std::string, uint64_t> out;
    for (const char *t : kTenants)
        out[t] = u64At(v, {"tenants", t, "completed"});
    return out;
}

struct FairnessSnapshot
{
    bool taken = false;
    uint64_t queueDepth = 0;
    uint64_t total = 0;
    std::map<std::string, uint64_t> completed;
};

} // namespace

int
main()
{
    ServerConfig cfg;
    cfg.workers = 4;
    cfg.queueCapacity = 2048;   // main phase must see zero rejections
    cfg.benchPath = "";         // this bench writes the combined file
    Server server(cfg);
    server.start();
    const std::string addr =
        "127.0.0.1:" + std::to_string(server.port());

    std::fprintf(stderr, "service_load: golden local run...\n");
    const std::string golden = localGolden();

    // ------------------------------------------------------------------
    // Main phase: 1024 jobs, 32 closed-loop connections, 4 tenants.
    // ------------------------------------------------------------------
    std::fprintf(stderr,
                 "service_load: %d jobs over %d connections...\n",
                 kJobs, kTenantCount * kConnsPerTenant);
    std::mutex mu;
    std::vector<double> latencies;
    std::map<std::string, uint64_t> doneByTenant;
    uint64_t badResponses = 0, mismatches = 0;

    std::atomic<bool> monitorStop{false};
    FairnessSnapshot snap;
    std::thread monitor([&] {
        Client stats(addr);
        while (!monitorStop.load()) {
            std::string resp = stats.call("{\"op\":\"stats\"}");
            json::Value v = json::parse(resp);
            uint64_t depth = u64At(v, {"queueDepth"});
            auto perTenant = tenantCompletions(resp);
            uint64_t total = 0;
            for (const auto &kv : perTenant)
                total += kv.second;
            // First snapshot that is both saturated and mid-run.
            if (!snap.taken && depth >= 16 && total >= kJobs / 4 &&
                total <= kJobs * 3 / 4) {
                snap.taken = true;
                snap.queueDepth = depth;
                snap.total = total;
                snap.completed = perTenant;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
    });

    auto t0 = std::chrono::steady_clock::now();
    std::vector<std::thread> conns;
    for (int t = 0; t < kTenantCount; ++t) {
        for (int c = 0; c < kConnsPerTenant; ++c) {
            conns.emplace_back([&, t] {
                const std::string tenant = kTenants[t];
                const std::string payload = runPayload(tenant);
                Client client(addr);
                std::vector<double> local;
                uint64_t ok = 0, bad = 0, wrong = 0;
                for (int j = 0; j < kJobsPerConn; ++j) {
                    auto s = std::chrono::steady_clock::now();
                    std::string resp = client.call(payload);
                    auto e = std::chrono::steady_clock::now();
                    local.push_back(
                        std::chrono::duration<double, std::milli>(e - s)
                            .count());
                    if (resp.rfind("{\"ok\":true", 0) != 0) {
                        ++bad;
                        continue;
                    }
                    if (Client::extractResult(resp) != golden)
                        ++wrong;
                    else
                        ++ok;
                }
                std::lock_guard<std::mutex> lk(mu);
                latencies.insert(latencies.end(), local.begin(),
                                 local.end());
                doneByTenant[tenant] += ok;
                badResponses += bad;
                mismatches += wrong;
            });
        }
    }
    for (std::thread &th : conns)
        th.join();
    auto t1 = std::chrono::steady_clock::now();
    monitorStop.store(true);
    monitor.join();

    double elapsedSec =
        std::chrono::duration<double>(t1 - t0).count();
    check(badResponses == 0,
          "main phase had " + std::to_string(badResponses) +
              " failed requests (want 0)");
    check(mismatches == 0,
          "main phase had " + std::to_string(mismatches) +
              " results differing from the local golden (want 0)");
    uint64_t totalOk = 0;
    for (const auto &kv : doneByTenant)
        totalOk += kv.second;
    check(totalOk == static_cast<uint64_t>(kJobs),
          "completed " + std::to_string(totalOk) + " of " +
              std::to_string(kJobs) + " jobs");

    // Fairness under saturation: the snapshot spread must be <= 10%.
    check(snap.taken, "no saturated mid-run fairness snapshot "
                      "(machine too fast or queue never deep?)");
    double spread = 0.0;
    if (snap.taken) {
        uint64_t lo = UINT64_MAX, hi = 0;
        for (const auto &kv : snap.completed) {
            lo = std::min(lo, kv.second);
            hi = std::max(hi, kv.second);
        }
        spread = lo ? static_cast<double>(hi - lo) /
                          static_cast<double>(lo)
                    : 1.0;
        check(spread <= 0.10,
              "tenant completion spread " + std::to_string(spread) +
                  " > 0.10 at snapshot (depth=" +
                  std::to_string(snap.queueDepth) +
                  ", total=" + std::to_string(snap.total) + ")");
    }

    // ------------------------------------------------------------------
    // Cancel phase: one tagged paper-sized job, canceled mid-run.
    // ------------------------------------------------------------------
    std::fprintf(stderr, "service_load: cancel phase...\n");
    auto accepted = [](const json::Value &stats) {
        return u64At(stats, {"stats", "service", "accepted"});
    };
    {
        Client c(addr);
        const uint64_t acceptedBefore =
            accepted(json::parse(c.call("{\"op\":\"stats\"}")));
        std::future<std::string> victim =
            std::async(std::launch::async, [&] {
                Client vc(addr);
                return vc.call(
                    "{\"op\":\"run\",\"workload\":\"qrd\","
                    "\"tenant\":\"alice\",\"tag\":\"victim\","
                    "\"seed\":1}");
            });
        // Cancel only once the victim is admitted and out of the (else
        // empty) queue, i.e. running on a worker: a fixed sleep races a
        // fast simulator to the victim's finish.
        while (true) {
            json::Value stats = json::parse(c.call("{\"op\":\"stats\"}"));
            if (accepted(stats) > acceptedBefore &&
                u64At(stats, {"queueDepth"}) == 0)
                break;
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        std::string resp =
            c.call("{\"op\":\"cancel\",\"tag\":\"victim\"}");
        check(resp.find("\"canceled\":true") != std::string::npos,
              "cancel op did not find the tagged job: " + resp);
        std::string victimResp = victim.get();
        check(victimResp.find("\"code\":\"canceled\"") !=
                  std::string::npos,
              "victim job did not report the canceled code: " +
                  victimResp);
    }

    // ------------------------------------------------------------------
    // Drain phase: submitters race the drain; nothing may be lost.
    // ------------------------------------------------------------------
    std::fprintf(stderr, "service_load: drain phase...\n");
    constexpr int kDrainSubmitters = 16;
    std::vector<std::future<std::string>> racers;
    for (int i = 0; i < kDrainSubmitters; ++i) {
        racers.push_back(std::async(std::launch::async, [&, i] {
            Client c(addr);
            return c.call(runPayload(kTenants[i % kTenantCount]));
        }));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    std::thread drainer([&] {
        Client c(addr);
        std::string resp = c.call("{\"op\":\"drain\"}");
        check(resp.rfind("{\"ok\":true", 0) == 0,
              "drain op failed: " + resp);
    });
    uint64_t drainCompleted = 0, drainRejected = 0, drainLost = 0;
    for (auto &f : racers) {
        std::string resp = f.get();
        if (resp.rfind("{\"ok\":true", 0) == 0) {
            ++drainCompleted;
            check(Client::extractResult(resp) == golden,
                  "drain-phase result differs from golden");
        } else if (resp.find("\"code\":\"draining\"") !=
                   std::string::npos) {
            ++drainRejected;
        } else {
            ++drainLost;
            check(false, "drain-phase response neither ok nor "
                         "draining: " + resp);
        }
    }
    drainer.join();
    check(drainCompleted + drainRejected ==
              static_cast<uint64_t>(kDrainSubmitters),
          "drain phase lost responses");

    // Every admitted job is accounted for: main + victim + completers.
    uint64_t expectedCompleted =
        static_cast<uint64_t>(kJobs) + 1 + drainCompleted;
    check(server.completedJobs() == expectedCompleted,
          "server completed " + std::to_string(server.completedJobs()) +
              " jobs, books say " + std::to_string(expectedCompleted));

    // Post-drain the introspection plane still answers.
    std::string finalStats;
    {
        Client c(addr);
        finalStats = c.call("{\"op\":\"stats\"}");
        check(finalStats.rfind("{\"ok\":true", 0) == 0,
              "post-drain stats failed: " + finalStats);
    }

    // ------------------------------------------------------------------
    // Report.
    // ------------------------------------------------------------------
    std::sort(latencies.begin(), latencies.end());
    double p50 = percentile(latencies, 50), p90 = percentile(latencies, 90),
           p99 = percentile(latencies, 99);
    double throughput =
        elapsedSec > 0 ? static_cast<double>(kJobs) / elapsedSec : 0;

    std::string out = "{\"bench\":\"service_load\"";
    out += ",\"jobs\":" + std::to_string(kJobs);
    out += ",\"tenants\":" + std::to_string(kTenantCount);
    char buf[128];
    std::snprintf(buf, sizeof buf,
                  ",\"elapsedSec\":%.3f,\"throughputJobsPerSec\":%.1f",
                  elapsedSec, throughput);
    out += buf;
    std::snprintf(buf, sizeof buf,
                  ",\"clientLatencyMs\":{\"p50\":%.3f,\"p90\":%.3f,"
                  "\"p99\":%.3f}",
                  p50, p90, p99);
    out += buf;
    out += ",\"fairnessSnapshot\":{\"taken\":";
    out += snap.taken ? "true" : "false";
    out += ",\"queueDepth\":" + std::to_string(snap.queueDepth);
    std::snprintf(buf, sizeof buf, ",\"spread\":%.4f", spread);
    out += buf;
    out += ",\"completed\":{";
    bool first = true;
    for (const auto &kv : snap.completed) {
        out += (first ? "\"" : ",\"") + kv.first +
               "\":" + std::to_string(kv.second);
        first = false;
    }
    out += "}}";
    out += ",\"canceled\":1";
    out += ",\"drain\":{\"submitted\":" +
           std::to_string(kDrainSubmitters) +
           ",\"completed\":" + std::to_string(drainCompleted) +
           ",\"rejectedDraining\":" + std::to_string(drainRejected) +
           "}";
    out += ",\"failures\":" + std::to_string(gFailures);
    out += ",\"server\":" + finalStats;
    out += "}\n";

    const char *path = "BENCH_service.json";
    if (std::FILE *f = std::fopen(path, "w")) {
        std::fwrite(out.data(), 1, out.size(), f);
        std::fclose(f);
    } else {
        check(false, std::string("cannot write ") + path);
    }

    std::fprintf(stderr,
                 "service_load: %d jobs in %.2fs (%.0f jobs/s), "
                 "p50=%.2fms p99=%.2fms, spread=%.3f, drain %llu/%llu "
                 "completed -> %s\n",
                 kJobs, elapsedSec, throughput, p50, p99, spread,
                 static_cast<unsigned long long>(drainCompleted),
                 static_cast<unsigned long long>(kDrainSubmitters),
                 path);
    server.stop();
    if (gFailures) {
        std::fprintf(stderr, "service_load: %d FAILURES\n", gFailures);
        return 1;
    }
    std::fprintf(stderr, "service_load: OK\n");
    return 0;
}
