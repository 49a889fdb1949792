/**
 * @file
 * Shared types of the isim benchmark (see METRICS.md beside this file).
 *
 * The benchmark drives the simulator only through its public API and
 * measures from outside: host time around each call it makes into
 * src/core, src/kernelc, src/apps and src/service, and the simulated
 * counters the engine already exposes (RunResult::toJson(),
 * CompileCache, the service "stats" op).  Each workload fills one
 * WorkloadRun; main.cc turns it into the end-to-end or per-layer
 * metrics.
 */

#ifndef ISIMBENCH_BENCH_HH
#define ISIMBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "apps/apps.hh"
#include "core/system.hh"
#include "service/json.hh"

namespace isimbench
{

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t)
{
    return std::chrono::duration<double>(Clock::now() - t).count();
}

/** The paper's four applications, in Table 3 order. */
enum App : int
{
    Depth,
    Mpeg,
    Qrd,
    Rtsl,
    NumApps
};
extern const char *const kAppNames[NumApps];

/** Problem sizes a workload runs its apps at. */
enum class Size
{
    Table3,     ///< the apps' default (paper Table 3) configs
    Stress,     ///< fold-eligible shapes (bench/sweep_shapes.hh)
    Small       ///< short service jobs
};

/** Run one job of @p app at @p size with input seed @p seed. */
imagine::apps::AppResult runApp(imagine::ImagineSystem &sys, App app,
                                 Size size, uint64_t seed);

/** The service request params matching Size::Small for @p app. */
std::string smallParams(App app);

/** The unsigned integer at @p path under @p root; 0 when absent. */
uint64_t jsonU64(const imagine::service::json::Value &root,
                 std::initializer_list<const char *> path);

/** Independent per-job seed number @p stream of run seed @p seed. */
uint64_t deriveSeed(uint64_t seed, uint64_t stream);

/** Simulated counters of one job, read from its toJson() bytes. */
struct SimCounters
{
    uint64_t cycles = 0;
    uint64_t clusterBusy = 0;       ///< startup..shutdown cycles
    uint64_t clusterStall = 0;
    uint64_t issuedOps = 0;
    uint64_t kernelsRun = 0;
    uint64_t scInstrs = 0;
    uint64_t scMemOps = 0;
    uint64_t hostSbFull = 0;
    uint64_t hostDepStall = 0;
    uint64_t memWords = 0;          ///< loaded + stored
    uint64_t dramAccesses = 0;
    uint64_t rowMisses = 0;
    uint64_t channelBusy = 0;
    uint64_t srfWords = 0;
    uint64_t srfBusy = 0;
    uint64_t idleMem = 0, idleSc = 0, idleHost = 0, idleUcode = 0;
    uint64_t estimatedCycles = 0;   ///< sampled tier: folded cycles
    uint64_t kernelsFolded = 0;
    double errBound = 0.0;          ///< worst per-kernel fold bound

    /** @throws imagine::service::json::ParseError on bad JSON */
    static SimCounters fromJson(const std::string &resultJson);
    static SimCounters fromValue(const imagine::service::json::Value &r);
    void add(const SimCounters &o);
};

/** One job as the benchmark saw it. */
struct JobRecord
{
    App app = Depth;
    int point = 0;          ///< machine shape of a sweep; 0 elsewhere
    int pass = 0;           ///< pass (service: rotation) index
    bool traced = false;
    double wallS = 0.0;     ///< request to JSON; service: round trip
    double loopS = -1.0;    ///< runWallSeconds(); < 0 when remote
    double queueMs = -1.0;  ///< service envelope; < 0 when local
    double runMs = -1.0;
    SimCounters sim;
};

/**
 * In-memory span log of the traced mode: name, start, end, parent span
 * and job id, plus counters attached to a span.  Written out once at
 * the end of the run.  Thread-safe: service connections share one.
 */
class SpanLog
{
  public:
    struct Span
    {
        std::string name;
        double startUs = 0.0, endUs = 0.0;
        int64_t parent = -1;
        uint64_t job = 0;
        std::vector<std::pair<std::string, double>> counters;
    };

    int64_t open(const char *name, uint64_t job, int64_t parent);
    void close(int64_t id);
    void counter(int64_t id, const char *key, double value);
    /** Durations in seconds of every closed span called @p name. */
    std::vector<double> durations(const std::string &name) const;
    size_t size() const;
    /** Write {"host":..., "spans":[...]} to @p path; false on error. */
    bool write(const std::string &path, const std::string &hostJson) const;

  private:
    mutable std::mutex mu_;
    Clock::time_point t0_ = Clock::now();
    std::vector<Span> spans_;
};

/** A span around one scope; a no-op when the log is null. */
class Scope
{
  public:
    Scope(SpanLog *log, const char *name, uint64_t job = 0,
          int64_t parent = -1)
        : log_(log), id_(log ? log->open(name, job, parent) : -1)
    {
    }
    ~Scope()
    {
        if (log_)
            log_->close(id_);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    int64_t id() const { return id_; }
    void counter(const char *key, double value)
    {
        if (log_)
            log_->counter(id_, key, value);
    }

  private:
    SpanLog *log_;
    int64_t id_;
};

/** What every workload is given. */
struct RunContext
{
    uint64_t seed = 1;
    double seconds = 10.0;
    /** Non-null in the traced mode. */
    SpanLog *log = nullptr;
    /** Jobs of even passes are traced; odd passes measure untraced. */
    SpanLog *logFor(int pass) const
    {
        return pass % 2 == 0 ? log : nullptr;
    }
};

/** Everything one workload run measured. */
struct WorkloadRun
{
    std::vector<double> setupS;     ///< one per set-up repetition
    std::vector<JobRecord> jobs;    ///< timed phase
    std::vector<double> passS;      ///< timed phase, complete passes
    double timedS = 0.0;
    int workers = 1;
    /** Deterministic reference jobs: the simulated per-layer totals. */
    std::vector<JobRecord> refJobs;
    uint64_t attempted = 0;         ///< every job, set-up and checks too
    uint64_t failed = 0;
    std::vector<std::string> failures;
    double sampledErrPct = 0.0;
    /** Per-layer values only this workload can measure. */
    std::map<std::string, double> layer;

    void fail(const std::string &why);
    /** Count one check; @p ok false records @p why as a failure. */
    void check(bool ok, const std::string &why);
};

/** One job run locally and timed: construct, run, toJson. */
struct LocalJob
{
    JobRecord rec;
    imagine::apps::AppResult result;
    std::string json;
};
/** Run one job locally, timed, with spans when @p log is non-null. */
LocalJob runLocalJob(const imagine::MachineConfig &cfg, App app, Size size,
                     uint64_t seed, SpanLog *log, int64_t parent = -1);

/**
 * Count one local job: it must pass golden validation, unless the
 * sampled tier folded part of it (folded output data is
 * representative, so validation does not apply).
 */
void checkJob(WorkloadRun &run, const LocalJob &job, const char *where);

/** Next unique job id (span job ids). */
uint64_t nextJobId();

/** CompileCache::clear(), inside a "cache.clear" span. */
void clearCompileCache(SpanLog *log, int64_t parent);

/**
 * CompileCache hit/miss counts over a phase, read from outside.
 * CompileCache::clear() zeroes the process-wide counters, so a phase
 * that clears the cache does it through clear() here.
 */
class CacheTally
{
  public:
    CacheTally();
    void clear(SpanLog *log, int64_t parent);
    /** Record the kernelc.* per-layer counts since construction. */
    void record(WorkloadRun &run) const;

  private:
    struct Counts
    {
        uint64_t hits = 0, misses = 0, loweredHits = 0, loweredMisses = 0;
    };
    static Counts read();
    Counts sum_, mark_;
};

/** |a - b| / b in percent. */
double errPct(uint64_t sampled, uint64_t reference);

/**
 * The sampled-tier accuracy probe of apps_cycle and service_mix: a QRD
 * shape long enough to fold (16384 x 16), whose error does not depend
 * on the input data.  probeConfig/probeQrd/probeParams describe it;
 * probeError takes the probe's Sampled result JSON, however the caller
 * ran it, runs the Cycle reference (untimed) and returns the cycle
 * error in percent, counting a failure past kMaxSampledErrPct.
 */
imagine::MachineConfig probeConfig(imagine::Fidelity fidelity);
imagine::apps::QrdConfig probeQrd(uint64_t seed);
std::string probeParams();
double probeError(WorkloadRun &run, const std::string &sampledJson,
                  uint64_t seed);

/**
 * Host seconds a cold compile cache adds to one job of each app on
 * machine @p cfg: per app, the median over a few repetitions of a
 * small job right after CompileCache::clear() minus the same job run
 * again, summed over the apps.  Small jobs keep the difference clear
 * of run-to-run noise.
 */
double coldCompileSeconds(WorkloadRun &run, const imagine::MachineConfig &cfg,
                          uint64_t seed, SpanLog *log);

WorkloadRun runAppsCycle(const RunContext &ctx);
WorkloadRun runDseSampled(const RunContext &ctx);
WorkloadRun runServiceMix(const RunContext &ctx);

/** Sampled-tier error past which a point counts as failed (percent). */
constexpr double kMaxSampledErrPct = 2.0;
/** Set-ups per run; setup_s is their median. */
constexpr int kSetupReps = 3;
/** SRF size (words) of the sampled runs: room for their long streams. */
constexpr uint32_t kLongStreamSrfWords = 4u * 1024 * 1024;

} // namespace isimbench

#endif // ISIMBENCH_BENCH_HH
