/**
 * @file
 * isimbench: runs one workload of the isim benchmark and prints its
 * metrics (METRICS.md).  Usually started through run.py, which builds
 * it first:
 *
 *   isimbench --workload apps_cycle|dse_sampled|service_mix
 *             --seed N --seconds S --trace 0|1
 *             [--trace-out FILE] [--commit ID]
 *
 * --trace 0 measures the end-to-end metrics with tracing off.
 * --trace 1 records spans around every call into the simulator on every
 * other pass, prints the per-layer metrics taken from them, the
 * tracing overhead (traced against untraced passes of the same run),
 * and writes the spans to --trace-out.  Either way the last stdout
 * line is one JSON object {"correct","attempted","failed","metrics"};
 * the exit code is 0 only when every correctness check passed.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>

#include "bench.hh"

using namespace isimbench;

#ifndef ISIMBENCH_BUILD_TYPE
#define ISIMBENCH_BUILD_TYPE "unknown"
#endif

namespace
{

struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/**
 * The tail latency: of p99 and p90, the highest with at least ten
 * samples beyond it (nearest rank).  Under 100 samples even p90 has
 * fewer than ten beyond it; then the 11th-slowest sample stands in,
 * which has exactly ten beyond it.  p99.9 is left out: service_mix
 * completes close to 10000 jobs a run, where p99.9 would come and go
 * between runs.
 */
struct Tail
{
    double value = 0.0;
    double percentile = 100.0;
    size_t n = 0;
};

Tail
tailOf(std::vector<double> v)
{
    Tail t;
    t.n = v.size();
    if (v.empty())
        return t;
    std::sort(v.begin(), v.end());
    const double n = static_cast<double>(t.n);
    for (double p : {99.0, 90.0}) {
        size_t idx = static_cast<size_t>(std::ceil(p / 100.0 * n)) - 1;
        if (t.n - 1 - idx >= 10) {
            t.value = v[idx];
            t.percentile = p;
            return t;
        }
    }
    size_t idx = t.n > 10 ? t.n - 11 : 0;
    t.value = v[idx];
    t.percentile = 100.0 * static_cast<double>(idx + 1) / n;
    return t;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/**
 * Median job time of app @p a; on a sweep, the mean over machine shapes
 * of each shape's median, so the shapes weigh equally whatever the
 * number of passes.
 */
double
appSeconds(const WorkloadRun &run, int a)
{
    std::map<int, std::vector<double>> byPoint;
    for (const JobRecord &j : run.jobs)
        if (j.app == a)
            byPoint[j.point].push_back(j.wallS);
    double sum = 0.0;
    for (const auto &kv : byPoint)
        sum += median(kv.second);
    return byPoint.empty() ? 0.0 : sum / static_cast<double>(byPoint.size());
}

std::vector<Metric>
endToEnd(const WorkloadRun &run, Tail &tail)
{
    std::vector<Metric> m;
    m.push_back({"setup_s", median(run.setupS), "s"});
    m.push_back({"peak_rss_mb", peakRssMb(), "MB"});
    m.push_back({"ok_frac",
                 static_cast<double>(run.attempted - run.failed) /
                     static_cast<double>(std::max<uint64_t>(1, run.attempted)),
                 "ratio"});
    std::vector<double> perApp;
    for (int a = 0; a < NumApps; ++a) {
        perApp.push_back(appSeconds(run, a));
        m.push_back({std::string(kAppNames[a]) + "_s", perApp.back(), "s"});
    }
    double cycles = 0.0;
    for (const JobRecord &j : run.jobs)
        cycles += static_cast<double>(j.sim.cycles);
    m.push_back({"sim_mcps", cycles / run.timedS / 1e6, "Mcycles/s"});
    m.push_back({"sweep_s", median(run.passS), "s"});
    m.push_back({"sampled_err_pct", run.sampledErrPct, "%"});
    m.push_back({"jobs_per_s",
                 static_cast<double>(run.jobs.size()) / run.timedS,
                 "jobs/s"});
    std::vector<double> ms;
    for (const JobRecord &j : run.jobs)
        ms.push_back(j.wallS * 1e3);
    tail = tailOf(ms);
    // The apps' job times form separate clusters on the serial
    // workloads, so the median over all jobs falls in a gap between two
    // of them and jitters with their extremes.  The median of the
    // per-app medians is the same figure taken from stable medians.
    m.push_back({"job_ms_p50", median(perApp) * 1e3, "ms"});
    m.push_back({"job_ms_tail", tail.value, "ms"});
    return m;
}

std::vector<Metric>
perLayer(const WorkloadRun &run, const SpanLog &log, double &overheadPct)
{
    std::vector<Metric> m;
    std::vector<JobRecord> traced;
    for (const JobRecord &j : run.jobs)
        if (j.traced)
            traced.push_back(j);
    // Host time inside and around the cycle loop.  Remote jobs do not
    // expose the loop time; there the local reference runs stand in.
    bool local = std::any_of(traced.begin(), traced.end(),
                             [](const JobRecord &j) { return j.loopS >= 0; });
    const std::vector<JobRecord> &host = local ? traced : run.refJobs;
    SimCounters ref;
    for (const JobRecord &j : run.refJobs)
        ref.add(j.sim);

    for (int a = 0; a < NumApps; ++a) {
        const std::string app = kAppNames[a];
        std::vector<double> loop, nsPerCycle, outside;
        for (const JobRecord &j : host) {
            if (j.app != a || j.loopS < 0)
                continue;
            loop.push_back(j.loopS);
            if (j.sim.cycles)
                nsPerCycle.push_back(j.loopS * 1e9 /
                                     static_cast<double>(j.sim.cycles));
            outside.push_back(j.wallS - j.loopS);
        }
        uint64_t simCycles = 0;
        for (const JobRecord &j : run.refJobs)
            if (j.app == a)
                simCycles += j.sim.cycles;
        m.push_back({"core.loop_s." + app, median(loop), "s"});
        m.push_back({"core.ns_per_cycle." + app, median(nsPerCycle), "ns"});
        m.push_back({"core.sim_cycles." + app,
                     static_cast<double>(simCycles), "cycles"});
        m.push_back({"core.outside_s." + app, median(outside), "s"});
    }
    auto count = [&m](const char *name, uint64_t v, const char *unit) {
        m.push_back({name, static_cast<double>(v), unit});
    };
    count("core.idle_mem", ref.idleMem, "cycles");
    count("core.idle_sc", ref.idleSc, "cycles");
    count("core.idle_host", ref.idleHost, "cycles");
    count("core.idle_ucode", ref.idleUcode, "cycles");
    m.push_back({"core.tojson_ms", median(log.durations("result.toJson")) * 1e3,
                 "ms"});
    count("cluster.busy_cycles", ref.clusterBusy, "cycles");
    count("cluster.stall_cycles", ref.clusterStall, "cycles");
    count("cluster.issued_ops", ref.issuedOps, "count");
    count("cluster.kernels_run", ref.kernelsRun, "count");
    count("sc.instrs_retired", ref.scInstrs, "count");
    count("sc.mem_stream_ops", ref.scMemOps, "count");
    count("host.scoreboard_full_cycles", ref.hostSbFull, "cycles");
    count("host.dependency_stall_cycles", ref.hostDepStall, "cycles");
    count("mem.words", ref.memWords, "words");
    count("mem.dram_accesses", ref.dramAccesses, "count");
    count("mem.row_misses", ref.rowMisses, "count");
    count("mem.channel_busy", ref.channelBusy, "cycles");
    count("srf.words", ref.srfWords, "words");
    count("srf.busy_cycles", ref.srfBusy, "cycles");
    m.push_back({"fold.estimated_share",
                 ref.cycles ? static_cast<double>(ref.estimatedCycles) /
                                  static_cast<double>(ref.cycles)
                            : 0.0,
                 "ratio"});
    count("fold.kernels_folded", ref.kernelsFolded, "count");
    m.push_back({"fold.err_bound_pct", ref.errBound * 100.0, "%"});

    auto layer = [&run](const char *name) {
        auto it = run.layer.find(name);
        return it == run.layer.end() ? 0.0 : it->second;
    };
    m.push_back({"kernelc.cold_compile_s", layer("kernelc.cold_compile_s"),
                 "s"});
    m.push_back({"kernelc.cache_hits", layer("kernelc.cache_hits"), "count"});
    m.push_back({"kernelc.cache_misses", layer("kernelc.cache_misses"),
                 "count"});
    m.push_back({"kernelc.lowered_hits", layer("kernelc.lowered_hits"),
                 "count"});
    m.push_back({"kernelc.lowered_misses", layer("kernelc.lowered_misses"),
                 "count"});

    std::vector<double> queue, runMs, overhead;
    double busyS = 0.0;
    for (const JobRecord &j : run.jobs) {
        bool remote = j.queueMs >= 0;
        busyS += remote ? j.runMs * 1e-3 : j.wallS;
        if (remote && j.traced) {
            queue.push_back(j.queueMs);
            runMs.push_back(j.runMs);
            overhead.push_back(j.wallS * 1e3 - j.queueMs - j.runMs);
        }
    }
    m.push_back({"service.queue_ms_p50", median(queue), "ms"});
    m.push_back({"service.run_ms_p50", median(runMs), "ms"});
    m.push_back({"service.overhead_ms_p50", median(overhead), "ms"});
    m.push_back({"service.queue_depth_max", layer("service.queue_depth_max"),
                 "count"});
    m.push_back({"service.tenant_spread", layer("service.tenant_spread"),
                 "ratio"});
    m.push_back({"sim.worker_busy_frac",
                 busyS / (run.workers * run.timedS), "ratio"});

    // Tracing overhead: per-app medians of traced against untraced jobs.
    double tracedSum = 0.0, plainSum = 0.0;
    for (int a = 0; a < NumApps; ++a) {
        std::vector<double> on, off;
        for (const JobRecord &j : run.jobs)
            if (j.app == a)
                (j.traced ? on : off).push_back(j.wallS);
        tracedSum += median(on);
        plainSum += median(off);
    }
    overheadPct = plainSum > 0.0 ? 100.0 * (tracedSum / plainSum - 1.0) : 0.0;
    m.push_back({"trace.overhead_pct", overheadPct, "%"});
    return m;
}

std::string
hostJson(const std::string &workload, uint64_t seed, double seconds,
         bool trace, const std::string &commit)
{
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "{\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%g,"
                  "\"trace\":%d,\"nproc\":%u,\"compiler\":\"%s%s\","
                  "\"build_type\":\"%s\",\"commit\":\"%s\"}",
                  workload.c_str(), static_cast<unsigned long long>(seed),
                  seconds, trace ? 1 : 0,
                  std::thread::hardware_concurrency(),
#if defined(__clang__)
                  "",
#else
                  "gcc ",
#endif
                  __VERSION__,
                  ISIMBENCH_BUILD_TYPE, commit.c_str());
    return buf;
}

/** Why timings from this build would mislead, or "" when they will not. */
const char *
unfitBuild()
{
#if !defined(__OPTIMIZE__)
    return "an unoptimized (Debug) build";
#elif defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    return "a sanitizer build";
#else
    return std::strcmp(ISIMBENCH_BUILD_TYPE, "Debug") == 0 ? "a Debug build"
                                                           : "";
#endif
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: isimbench --workload apps_cycle|dse_sampled|"
                 "service_mix --seed N --seconds S --trace 0|1 "
                 "[--trace-out FILE] [--commit ID]\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload, traceOut, commit = "unknown";
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (i + 1 >= argc)
            return usage();
        const char *val = argv[++i];
        if (arg == "--workload")
            workload = val;
        else if (arg == "--seed")
            seed = std::strtoull(val, nullptr, 10);
        else if (arg == "--seconds")
            seconds = std::atof(val);
        else if (arg == "--trace")
            trace = std::strcmp(val, "1") == 0;
        else if (arg == "--trace-out")
            traceOut = val;
        else if (arg == "--commit")
            commit = val;
        else
            return usage();
    }
    WorkloadRun (*runner)(const RunContext &) =
        workload == "apps_cycle"    ? runAppsCycle
        : workload == "dse_sampled" ? runDseSampled
        : workload == "service_mix" ? runServiceMix
                                    : nullptr;
    if (!runner || seconds <= 0.0)
        return usage();
    if (*unfitBuild()) {
        std::fprintf(stderr, "isimbench: refusing to time %s\n",
                     unfitBuild());
        return 2;
    }

    const std::string host = hostJson(workload, seed, seconds, trace, commit);
    std::printf("host %s\n", host.c_str());
    SpanLog log;
    RunContext ctx;
    ctx.seed = seed;
    ctx.seconds = seconds;
    ctx.log = trace ? &log : nullptr;
    WorkloadRun run;
    try {
        run = runner(ctx);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "isimbench: %s aborted: %s\n", workload.c_str(),
                     e.what());
        return 1;
    }

    std::vector<Metric> metrics;
    if (trace) {
        double overheadPct = 0.0;
        metrics = perLayer(run, log, overheadPct);
        std::printf("tracing overhead %.2f%% (%zu spans)\n", overheadPct,
                    log.size());
        if (!traceOut.empty() && !log.write(traceOut, host)) {
            std::fprintf(stderr, "isimbench: cannot write %s\n",
                         traceOut.c_str());
            run.fail("trace output not written");
        }
    } else {
        Tail tail;
        metrics = endToEnd(run, tail);
        std::printf("job_ms_tail is p%.2f of n=%zu jobs\n", tail.percentile,
                    tail.n);
    }
    for (const Metric &m : metrics)
        std::printf("%-32s %14.6g %s\n", m.name.c_str(), m.value, m.unit);
    for (const std::string &f : run.failures)
        std::printf("FAILED: %s\n", f.c_str());

    const bool correct = run.failed == 0;
    std::string out = "{\"correct\":";
    out += correct ? "true" : "false";
    out += ",\"attempted\":" + std::to_string(run.attempted) +
           ",\"failed\":" + std::to_string(run.failed) + ",\"metrics\":{";
    for (size_t i = 0; i < metrics.size(); ++i) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.17g", metrics[i].value);
        out += (i ? ",\"" : "\"") + metrics[i].name + "\":{\"value\":" + buf +
               ",\"unit\":\"" + metrics[i].unit + "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    return correct ? 0 : 1;
}
