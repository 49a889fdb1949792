/**
 * @file
 * Workload dse_sampled: a design-space sweep at Sampled fidelity.  The
 * fold-eligible app shapes run over a subset of bench::machineShapes(),
 * serially, and the compile cache is cleared at each new shape, as a
 * sweep meets it.  The analytic fold, the horizon jumps it relies on
 * and cold kernel compiles do most of the work; RTSL's points never
 * fold (conditional output streams), so they are the in-workload
 * bypass of the fold.
 */

#include <algorithm>
#include <cstring>

#include "bench.hh"
#include "sweep_shapes.hh"

using namespace imagine;

namespace isimbench
{

namespace
{

/**
 * The swept shapes: the baseline (the only one with a Cycle reference),
 * a wider cluster (different schedules, so cold compiles differ) and
 * fewer memory channels (memory-bound timing).  Three shapes keep one
 * pass near 5.5 s, so a run holds several passes.
 */
const char *const kShapes[] = {"baseline", "wide_cluster", "two_channels"};

std::vector<bench::MachineShape>
sweptShapes()
{
    std::vector<bench::MachineShape> out;
    for (const char *name : kShapes)
        for (bench::MachineShape s : bench::machineShapes())
            if (std::strcmp(s.name, name) == 0) {
                s.cfg.srfSizeWords = kLongStreamSrfWords;
                s.cfg.fidelity = Fidelity::Sampled;
                out.push_back(s);
            }
    return out;
}

} // namespace

WorkloadRun
runDseSampled(const RunContext &ctx)
{
    WorkloadRun run;
    const std::vector<bench::MachineShape> shapes = sweptShapes();
    uint64_t seeds[NumApps];
    for (int a = 0; a < NumApps; ++a)
        seeds[a] = deriveSeed(ctx.seed, static_cast<uint64_t>(a));

    auto point = [&](const MachineConfig &cfg, App app, SpanLog *log,
                     int64_t parent) {
        LocalJob j = runLocalJob(cfg, app, Size::Stress, seeds[app], log,
                                 parent);
        checkJob(run, j, "dse_sampled");
        return j;
    };
    // Set-up: a cold compile cache, then the first point of each kind.
    for (int rep = 0; rep < kSetupReps; ++rep) {
        Clock::time_point t0 = Clock::now();
        Scope setup(ctx.log, "setup");
        clearCompileCache(ctx.log, setup.id());
        for (int a = 0; a < NumApps; ++a)
            point(shapes[0].cfg, static_cast<App>(a), ctx.log, setup.id());
        run.setupS.push_back(secondsSince(t0));
    }

    // Timed phase: whole passes over the shape x app point list.
    CacheTally cache;
    Clock::time_point t0 = Clock::now();
    for (int pass = 0; pass == 0 || secondsSince(t0) < ctx.seconds;
         ++pass) {
        SpanLog *log = ctx.logFor(pass);
        Clock::time_point p0 = Clock::now();
        size_t i = 0;
        for (size_t sh = 0; sh < shapes.size(); ++sh) {
            const bench::MachineShape &shape = shapes[sh];
            cache.clear(log, -1);
            for (int a = 0; a < NumApps; ++a, ++i) {
                LocalJob j = point(shape.cfg, static_cast<App>(a), log, -1);
                j.rec.point = static_cast<int>(sh);
                j.rec.pass = pass;
                if (pass == 0)
                    run.refJobs.push_back(j.rec);
                else if (j.rec.sim.cycles != run.refJobs[i].sim.cycles)
                    run.fail(std::string("dse_sampled: ") + shape.name +
                             "/" + kAppNames[a] +
                             " cycles differ between passes");
                run.jobs.push_back(j.rec);
            }
        }
        run.passS.push_back(secondsSince(p0));
    }
    run.timedS = secondsSince(t0);
    cache.record(run);

    // Untimed: the baseline shape's points against Cycle references.
    {
        Scope s(ctx.log, "reference");
        MachineConfig cfg = shapes[0].cfg;
        cfg.fidelity = Fidelity::Cycle;
        for (int a = 0; a < NumApps; ++a) {
            LocalJob ref = runLocalJob(cfg, static_cast<App>(a),
                                       Size::Stress, seeds[a], nullptr);
            checkJob(run, ref, "dse_sampled reference");
            double err = errPct(run.refJobs[a].sim.cycles,
                                ref.rec.sim.cycles);
            run.check(err <= kMaxSampledErrPct,
                      std::string("dse_sampled: ") + kAppNames[a] +
                          " sampled cycle error " + std::to_string(err) +
                          "%");
            run.sampledErrPct = std::max(run.sampledErrPct, err);
        }
    }
    if (ctx.log)
        run.layer["kernelc.cold_compile_s"] = coldCompileSeconds(
            run, shapes[0].cfg, ctx.seed, ctx.log);
    return run;
}

} // namespace isimbench
