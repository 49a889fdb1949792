/**
 * @file
 * Workload service_mix: the simulation service under a closed loop.
 * An in-process service::Server with 2 workers listens on loopback
 * TCP, so the wire and JSON layers are in the path.  Four connections,
 * one tenant each, send small jobs of all four apps in rotation, each
 * job with its own seed, and wait for each reply before sending the
 * next.  Jobs are short, so fixed per-job costs (session build,
 * staging, validation, toJson, wire) and queue wait weigh far more
 * than on apps_cycle, and the fair queue, the worker pool and the
 * shared compile cache all work under contention.
 */

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>

#include "bench.hh"
#include "service/client.hh"
#include "service/json.hh"
#include "service/server.hh"

using namespace imagine;
using namespace imagine::service;

namespace isimbench
{

namespace
{

constexpr int kConns = 4;
constexpr int kWorkers = 2;

std::string
runPayload(App app, const std::string &tenant, uint64_t seed,
           const std::string &params, const std::string &config = "")
{
    return std::string("{\"op\":\"run\",\"workload\":\"") + kAppNames[app] +
           "\",\"tenant\":\"" + tenant +
           "\",\"seed\":" + std::to_string(seed) + ",\"params\":" + params +
           (config.empty() ? "" : ",\"config\":" + config) + "}";
}

/** A run response, parsed. */
struct Reply
{
    bool ok = false;
    bool validated = false;
    double queueMs = 0.0, runMs = 0.0;
    SimCounters sim;
};

Reply
parseReply(const std::string &resp)
{
    Reply r;
    json::Value v = json::parse(resp);
    const json::Value *ok = v.get("ok");
    r.ok = ok && ok->isBool() && ok->boolean;
    if (!r.ok)
        return r;
    const json::Value *validated = v.get("validated");
    r.validated = validated && validated->isBool() && validated->boolean;
    r.queueMs = v.get("queueMs") ? v.get("queueMs")->asDouble() : 0.0;
    r.runMs = v.get("runMs") ? v.get("runMs")->asDouble() : 0.0;
    if (const json::Value *result = v.get("result"))
        r.sim = SimCounters::fromValue(*result);
    return r;
}

/** @p order = the four apps in a random order drawn from @p seed. */
void
shuffleApps(App (&order)[NumApps], uint64_t seed)
{
    for (int a = 0; a < NumApps; ++a)
        order[a] = static_cast<App>(a);
    for (int a = NumApps - 1; a > 0; --a) {
        seed = deriveSeed(seed, static_cast<uint64_t>(a));
        std::swap(order[a], order[seed % static_cast<uint64_t>(a + 1)]);
    }
}

/** One closed-loop connection's view of the timed phase. */
struct ConnLog
{
    std::vector<JobRecord> jobs;
    std::vector<Clock::time_point> rotationEnds;
    Clock::time_point last;
    uint64_t sent = 0, bad = 0;
    std::string firstError;
};

} // namespace

WorkloadRun
runServiceMix(const RunContext &ctx)
{
    WorkloadRun run;
    run.workers = kWorkers;
    ServerConfig scfg;
    scfg.workers = kWorkers;
    scfg.benchPath = "";
    std::unique_ptr<Server> server;
    std::string addr;
    uint64_t sentRuns = 0;     // run requests to the surviving server

    // Set-up: cold compile cache, server start, first job of each kind.
    for (int rep = 0; rep < kSetupReps; ++rep) {
        if (server) {
            server->stop();
            server.reset();
        }
        Clock::time_point t0 = Clock::now();
        Scope setup(ctx.log, "setup");
        clearCompileCache(ctx.log, setup.id());
        {
            Scope s(ctx.log, "server.start", 0, setup.id());
            server = std::make_unique<Server>(scfg);
            server->start();
        }
        addr = "127.0.0.1:" + std::to_string(server->port());
        Client client(addr);
        sentRuns = 0;
        for (int a = 0; a < NumApps; ++a) {
            App app = static_cast<App>(a);
            Scope s(ctx.log, "client.call", nextJobId(), setup.id());
            std::string resp = client.call(runPayload(
                app, "setup", deriveSeed(ctx.seed, 100 + a),
                smallParams(app)));
            ++sentRuns;
            Reply r = parseReply(resp);
            run.check(r.ok && r.validated,
                      std::string("service_mix: set-up ") + kAppNames[a] +
                          " job failed");
        }
        run.setupS.push_back(secondsSince(t0));
    }

    // Timed phase: kConns closed-loop connections until the deadline.
    std::atomic<bool> monitorStop{false};
    uint64_t queueDepthMax = 0;
    std::thread monitor;
    if (ctx.log) {
        monitor = std::thread([&] {
            try {
                Client stats(addr);
                while (!monitorStop.load()) {
                    json::Value v =
                        json::parse(stats.call("{\"op\":\"stats\"}"));
                    queueDepthMax =
                        std::max(queueDepthMax, jsonU64(v, {"queueDepth"}));
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(5));
                }
            } catch (const std::exception &) {
                // The depth stays a lower bound; the books check below
                // still catches a server that stopped answering.
            }
        });
    }
    std::vector<ConnLog> conns(kConns);
    const CacheTally cache;
    Clock::time_point t0 = Clock::now();
    std::vector<std::thread> threads;
    for (int c = 0; c < kConns; ++c) {
        threads.emplace_back([&, c] {
            ConnLog &cl = conns[static_cast<size_t>(c)];
            const std::string tenant = "t" + std::to_string(c);
            try {
                Client client(addr);
                App order[NumApps];
                for (int j = 0; secondsSince(t0) < ctx.seconds; ++j) {
                    // Each rotation visits the apps in a seeded random
                    // order: fixed orders lock the closed loops into one
                    // queueing pattern per run, which then sets who waits
                    // behind whom for the whole run.
                    if (j % NumApps == 0)
                        shuffleApps(order,
                                    deriveSeed(ctx.seed,
                                               (static_cast<uint64_t>(c + 1)
                                                << 48) |
                                                   static_cast<uint64_t>(j)));
                    App app = order[j % NumApps];
                    JobRecord rec;
                    rec.app = app;
                    rec.pass = j / NumApps;
                    SpanLog *log = ctx.logFor(rec.pass);
                    rec.traced = log != nullptr;
                    const std::string payload = runPayload(
                        app, tenant,
                        deriveSeed(ctx.seed,
                                   (static_cast<uint64_t>(c + 1) << 32) |
                                       static_cast<uint64_t>(j)),
                        smallParams(app));
                    ++cl.sent;
                    Clock::time_point s = Clock::now();
                    std::string resp;
                    int64_t jobSpan;
                    {
                        const uint64_t id = nextJobId();
                        Scope job(log, "job", id);
                        Scope call(log, "client.call", id, job.id());
                        resp = client.call(payload);
                        jobSpan = job.id();
                    }
                    rec.wallS = secondsSince(s);
                    Reply r = parseReply(resp);
                    if (log) {
                        log->counter(jobSpan, "queue_ms", r.queueMs);
                        log->counter(jobSpan, "run_ms", r.runMs);
                        log->counter(jobSpan, "sim_cycles",
                                     static_cast<double>(r.sim.cycles));
                    }
                    if (!r.ok || !r.validated) {
                        ++cl.bad;
                        if (cl.firstError.empty())
                            cl.firstError = resp.substr(0, 200);
                    }
                    rec.queueMs = r.queueMs;
                    rec.runMs = r.runMs;
                    rec.sim = r.sim;
                    cl.jobs.push_back(rec);
                    cl.last = Clock::now();
                    if ((j + 1) % NumApps == 0)
                        cl.rotationEnds.push_back(cl.last);
                }
            } catch (const std::exception &e) {
                ++cl.bad;
                cl.firstError = e.what();
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    Clock::time_point end = t0;
    size_t rotations = SIZE_MAX;
    for (const ConnLog &cl : conns) {
        end = std::max(end, cl.last);
        rotations = std::min(rotations, cl.rotationEnds.size());
        run.jobs.insert(run.jobs.end(), cl.jobs.begin(), cl.jobs.end());
        run.attempted += cl.sent;
        sentRuns += cl.sent;
        for (uint64_t i = 0; i < cl.bad; ++i)
            run.fail("service_mix: " + cl.firstError);
    }
    run.timedS = std::chrono::duration<double>(end - t0).count();
    cache.record(run);
    // A pass: every connection completes one more rotation of the apps.
    Clock::time_point prev = t0;
    for (size_t r = 0; r < rotations; ++r) {
        Clock::time_point done = prev;
        for (const ConnLog &cl : conns)
            done = std::max(done, cl.rotationEnds[r]);
        run.passS.push_back(std::chrono::duration<double>(done - prev).count());
        prev = done;
    }
    if (monitor.joinable()) {
        monitorStop.store(true);
        monitor.join();
        run.layer["service.queue_depth_max"] =
            static_cast<double>(queueDepthMax);
    }

    // Untimed checks: remote results byte-identical to local runs.
    Client client(addr);
    {
        Scope check(ctx.log, "check");
        for (int a = 0; a < NumApps; ++a) {
            App app = static_cast<App>(a);
            uint64_t seed = deriveSeed(ctx.seed, 200 + a);
            std::string resp = client.call(
                runPayload(app, "check", seed, smallParams(app)));
            ++sentRuns;
            LocalJob local = runLocalJob(MachineConfig::devBoard(), app,
                                         Size::Small, seed, ctx.log,
                                         check.id());
            checkJob(run, local, "service_mix local");
            run.check(Client::extractResult(resp) == local.json,
                      std::string("service_mix: remote ") + kAppNames[a] +
                          " result differs from the local run");
            run.refJobs.push_back(local.rec);
        }
    }
    {
        Scope s(ctx.log, "probe");
        std::string resp = client.call(runPayload(
            Qrd, "check", ctx.seed, probeParams(),
            "{\"fidelity\":\"sampled\",\"srfSizeWords\":" +
                std::to_string(kLongStreamSrfWords) + "}"));
        ++sentRuns;
        std::string remote = Client::extractResult(resp);
        ImagineSystem sys(probeConfig(Fidelity::Sampled));
        std::string local =
            apps::runQrd(sys, probeQrd(ctx.seed)).run.toJson();
        run.check(remote == local, "service_mix: remote sampled probe "
                                   "differs from the local run");
        run.sampledErrPct = probeError(run, remote, ctx.seed);
    }

    // The books balance: everything sent was accepted and succeeded.
    json::Value st = json::parse(client.call("{\"op\":\"stats\"}"));
    const uint64_t accepted = jsonU64(st, {"stats", "service", "accepted"});
    run.check(accepted == sentRuns &&
                  jsonU64(st, {"stats", "service", "completed"}) == sentRuns &&
                  jsonU64(st, {"stats", "service", "succeeded"}) == sentRuns &&
                  jsonU64(st, {"stats", "service", "rejectedQueueFull"}) == 0,
              "service_mix: server counters do not match the " +
                  std::to_string(sentRuns) + " runs sent");
    uint64_t lo = UINT64_MAX, hi = 0;
    for (int c = 0; c < kConns; ++c) {
        uint64_t done = jsonU64(
            st, {"tenants", ("t" + std::to_string(c)).c_str(), "completed"});
        lo = std::min(lo, done);
        hi = std::max(hi, done);
    }
    run.layer["service.tenant_spread"] =
        hi ? static_cast<double>(hi - lo) / static_cast<double>(hi) : 0.0;
    server->stop();

    if (ctx.log)
        run.layer["kernelc.cold_compile_s"] = coldCompileSeconds(
            run, MachineConfig::devBoard(), ctx.seed, ctx.log);
    return run;
}

} // namespace isimbench
