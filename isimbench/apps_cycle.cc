/**
 * @file
 * Workload apps_cycle: the paper-reproduction path.  DEPTH, MPEG, QRD
 * and RTSL at their Table 3 default configs, Cycle fidelity, devBoard,
 * one fresh ImagineSystem per job, serially on one thread, with the
 * compile cache warm.  The cycle loop dominates, and each app leans on
 * a different component (QRD the stream controller, MPEG and RTSL the
 * memory system, DEPTH the SRF), so per-app times expose a change that
 * speeds one component and slows another.
 */

#include "bench.hh"

using namespace imagine;

namespace isimbench
{

WorkloadRun
runAppsCycle(const RunContext &ctx)
{
    WorkloadRun run;
    const MachineConfig cfg = MachineConfig::devBoard();
    uint64_t seeds[NumApps];
    for (int a = 0; a < NumApps; ++a)
        seeds[a] = deriveSeed(ctx.seed, static_cast<uint64_t>(a));

    auto job = [&](App app, SpanLog *log, int64_t parent) {
        LocalJob j = runLocalJob(cfg, app, Size::Table3, seeds[app], log,
                                 parent);
        checkJob(run, j, "apps_cycle");
        return j;
    };

    // Set-up: a cold compile cache, then the first job of each kind.
    for (int rep = 0; rep < kSetupReps; ++rep) {
        Clock::time_point t0 = Clock::now();
        Scope setup(ctx.log, "setup");
        clearCompileCache(ctx.log, setup.id());
        for (int a = 0; a < NumApps; ++a)
            job(static_cast<App>(a), ctx.log, setup.id());
        run.setupS.push_back(secondsSince(t0));
    }

    // Timed phase: whole passes over the four apps.
    const CacheTally cache;
    Clock::time_point t0 = Clock::now();
    for (int pass = 0; pass == 0 || secondsSince(t0) < ctx.seconds;
         ++pass) {
        Clock::time_point p0 = Clock::now();
        for (int a = 0; a < NumApps; ++a) {
            LocalJob j = job(static_cast<App>(a), ctx.logFor(pass), -1);
            j.rec.pass = pass;
            if (pass == 0)
                run.refJobs.push_back(j.rec);
            else if (j.rec.sim.cycles != run.refJobs[a].sim.cycles)
                run.fail(std::string("apps_cycle: ") + kAppNames[a] +
                         " cycles differ between passes");
            run.jobs.push_back(j.rec);
        }
        run.passS.push_back(secondsSince(p0));
    }
    run.timedS = secondsSince(t0);
    cache.record(run);

    // Untimed checks.
    {
        Scope s(ctx.log, "probe");
        ImagineSystem sys(probeConfig(Fidelity::Sampled));
        std::string sampled =
            apps::runQrd(sys, probeQrd(ctx.seed)).run.toJson();
        run.sampledErrPct = probeError(run, sampled, ctx.seed);
    }
    if (ctx.log)
        run.layer["kernelc.cold_compile_s"] =
            coldCompileSeconds(run, cfg, ctx.seed, ctx.log);
    return run;
}

} // namespace isimbench
