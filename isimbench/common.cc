/**
 * @file
 * Shared pieces of the isim benchmark: app sizes, per-job timing, the
 * span log, counter extraction and the sampled-tier accuracy probe.
 */

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cmath>

#include "bench.hh"
#include "kernelc/compile_cache.hh"
#include "service/json.hh"

using namespace imagine;
namespace json = imagine::service::json;

namespace isimbench
{

const char *const kAppNames[NumApps] = {"depth", "mpeg", "qrd", "rtsl"};

apps::AppResult
runApp(ImagineSystem &sys, App app, Size size, uint64_t seed)
{
    switch (app) {
      case Depth: {
        apps::DepthConfig c;
        if (size == Size::Stress) {
            c.width = 49152;
            c.height = 18;
        } else if (size == Size::Small) {
            c.width = 256;
            c.height = 26;
        }
        c.seed = seed;
        return apps::runDepth(sys, c);
      }
      case Mpeg: {
        apps::MpegConfig c;
        if (size == Size::Stress) {
            c.width = 32768;
            c.height = 16;
            c.frames = 1;
        } else if (size == Size::Small) {
            c.width = 64;
            c.height = 32;
            c.frames = 2;
        }
        c.seed = seed;
        return apps::runMpeg(sys, c);
      }
      case Qrd: {
        apps::QrdConfig c;
        if (size == Size::Stress) {
            c.rows = 65536;
            c.cols = 16;
        } else if (size == Size::Small) {
            c.rows = 64;
            c.cols = 16;
        }
        c.seed = seed;
        return apps::runQrd(sys, c);
      }
      default: {
        // RTSL stays stock under Stress: its conditional output streams
        // never fold, so its points are the sweep's in-workload bypass.
        apps::RtslConfig c;
        if (size == Size::Small) {
            c.screen = 64;
            c.triangles = 768;
        }
        c.seed = seed;
        return apps::runRtsl(sys, c);
      }
    }
}

std::string
smallParams(App app)
{
    switch (app) {
      case Depth: return "{\"width\":256,\"height\":26}";
      case Mpeg: return "{\"width\":64,\"height\":32,\"frames\":2}";
      case Qrd: return "{\"rows\":64,\"cols\":16}";
      default: return "{\"screen\":64,\"triangles\":768}";
    }
}

uint64_t
deriveSeed(uint64_t seed, uint64_t stream)
{
    // splitmix64 over (seed, stream): distinct, well-mixed job seeds.
    uint64_t z = seed * 0x9e3779b97f4a7c15ull + stream + 1;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

uint64_t
jsonU64(const json::Value &root, std::initializer_list<const char *> path)
{
    const json::Value *v = &root;
    for (const char *key : path) {
        v = v->get(key);
        if (!v)
            return 0;
    }
    return v->asU64();
}

SimCounters
SimCounters::fromJson(const std::string &resultJson)
{
    return fromValue(json::parse(resultJson));
}

SimCounters
SimCounters::fromValue(const json::Value &r)
{
    SimCounters c;
    c.cycles = jsonU64(r, {"cycles"});
    for (const char *phase : {"startupCycles", "prologueCycles",
                              "loopCycles", "epilogueCycles",
                              "shutdownCycles"})
        c.clusterBusy += jsonU64(r, {"stats", "cluster", phase});
    c.clusterStall = jsonU64(r, {"stats", "cluster", "stallCycles"});
    c.issuedOps = jsonU64(r, {"stats", "cluster", "issuedOps"});
    c.kernelsRun = jsonU64(r, {"stats", "cluster", "kernelsRun"});
    c.scInstrs = jsonU64(r, {"stats", "sc", "instrsRetired"});
    c.scMemOps = jsonU64(r, {"stats", "sc", "memStreamOps"});
    c.hostSbFull = jsonU64(r, {"stats", "host", "scoreboardFullCycles"});
    c.hostDepStall = jsonU64(r, {"stats", "host", "dependencyStallCycles"});
    c.memWords = jsonU64(r, {"stats", "mem", "wordsLoaded"}) +
                 jsonU64(r, {"stats", "mem", "wordsStored"});
    c.dramAccesses = jsonU64(r, {"stats", "mem", "dramAccesses"});
    c.rowMisses = jsonU64(r, {"stats", "mem", "rowMisses"});
    c.channelBusy = jsonU64(r, {"stats", "mem", "channelBusyMemCycles"});
    c.srfWords = jsonU64(r, {"stats", "srf", "wordsTransferred"});
    c.srfBusy = jsonU64(r, {"stats", "srf", "busyCycles"});
    c.idleMem = jsonU64(r, {"stats", "system", "idleCycles", "mem"});
    c.idleSc = jsonU64(r, {"stats", "system", "idleCycles", "sc"});
    c.idleHost = jsonU64(r, {"stats", "system", "idleCycles", "host"});
    c.idleUcode = jsonU64(r, {"stats", "system", "idleCycles", "ucode"});
    if (const json::Value *f = r.get("fidelity")) {
        c.estimatedCycles = jsonU64(*f, {"estimatedCycles"});
        if (const json::Value *ks = f->get("kernels")) {
            c.kernelsFolded = ks->array.size();
            for (const json::Value &k : ks->array)
                if (const json::Value *b = k.get("errorBound"))
                    c.errBound = std::max(c.errBound, b->asDouble());
        }
    }
    return c;
}

void
SimCounters::add(const SimCounters &o)
{
    cycles += o.cycles;
    clusterBusy += o.clusterBusy;
    clusterStall += o.clusterStall;
    issuedOps += o.issuedOps;
    kernelsRun += o.kernelsRun;
    scInstrs += o.scInstrs;
    scMemOps += o.scMemOps;
    hostSbFull += o.hostSbFull;
    hostDepStall += o.hostDepStall;
    memWords += o.memWords;
    dramAccesses += o.dramAccesses;
    rowMisses += o.rowMisses;
    channelBusy += o.channelBusy;
    srfWords += o.srfWords;
    srfBusy += o.srfBusy;
    idleMem += o.idleMem;
    idleSc += o.idleSc;
    idleHost += o.idleHost;
    idleUcode += o.idleUcode;
    estimatedCycles += o.estimatedCycles;
    kernelsFolded += o.kernelsFolded;
    errBound = std::max(errBound, o.errBound);
}

// ---------------------------------------------------------------------
// SpanLog
// ---------------------------------------------------------------------

int64_t
SpanLog::open(const char *name, uint64_t job, int64_t parent)
{
    double now =
        std::chrono::duration<double, std::micro>(Clock::now() - t0_)
            .count();
    std::lock_guard<std::mutex> lk(mu_);
    Span s;
    s.name = name;
    s.startUs = now;
    s.endUs = -1.0;
    s.parent = parent;
    s.job = job;
    spans_.push_back(std::move(s));
    return static_cast<int64_t>(spans_.size() - 1);
}

void
SpanLog::close(int64_t id)
{
    double now =
        std::chrono::duration<double, std::micro>(Clock::now() - t0_)
            .count();
    std::lock_guard<std::mutex> lk(mu_);
    spans_[static_cast<size_t>(id)].endUs = now;
}

void
SpanLog::counter(int64_t id, const char *key, double value)
{
    std::lock_guard<std::mutex> lk(mu_);
    spans_[static_cast<size_t>(id)].counters.emplace_back(key, value);
}

std::vector<double>
SpanLog::durations(const std::string &name) const
{
    std::lock_guard<std::mutex> lk(mu_);
    std::vector<double> out;
    for (const Span &s : spans_)
        if (s.name == name && s.endUs >= 0.0)
            out.push_back((s.endUs - s.startUs) * 1e-6);
    return out;
}

size_t
SpanLog::size() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return spans_.size();
}

bool
SpanLog::write(const std::string &path, const std::string &hostJson) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::lock_guard<std::mutex> lk(mu_);
    std::fprintf(f, "{\"host\":%s,\"spans\":[", hostJson.c_str());
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(f,
                     "%s\n{\"id\":%zu,\"name\":\"%s\",\"start_us\":%.3f,"
                     "\"end_us\":%.3f,\"parent\":%lld,\"job\":%llu",
                     i ? "," : "", i, s.name.c_str(), s.startUs, s.endUs,
                     static_cast<long long>(s.parent),
                     static_cast<unsigned long long>(s.job));
        if (!s.counters.empty()) {
            std::fprintf(f, ",\"counters\":{");
            for (size_t k = 0; k < s.counters.size(); ++k)
                std::fprintf(f, "%s\"%s\":%.17g", k ? "," : "",
                             s.counters[k].first.c_str(),
                             s.counters[k].second);
            std::fprintf(f, "}");
        }
        std::fprintf(f, "}");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
}

// ---------------------------------------------------------------------
// Jobs and checks
// ---------------------------------------------------------------------

void
WorkloadRun::fail(const std::string &why)
{
    ++failed;
    if (failures.size() < 8)
        failures.push_back(why);
}

void
WorkloadRun::check(bool ok, const std::string &why)
{
    ++attempted;
    if (!ok)
        fail(why);
}

uint64_t
nextJobId()
{
    static std::atomic<uint64_t> next{1};
    return next.fetch_add(1);
}

void
clearCompileCache(SpanLog *log, int64_t parent)
{
    Scope s(log, "cache.clear", 0, parent);
    kernelc::CompileCache::instance().clear();
}

CacheTally::CacheTally() : mark_(read()) {}

CacheTally::Counts
CacheTally::read()
{
    const kernelc::CompileCache &cc = kernelc::CompileCache::instance();
    return {cc.hits(), cc.misses(), cc.loweredHits(), cc.loweredMisses()};
}

void
CacheTally::clear(SpanLog *log, int64_t parent)
{
    Counts now = read();
    sum_.hits += now.hits - mark_.hits;
    sum_.misses += now.misses - mark_.misses;
    sum_.loweredHits += now.loweredHits - mark_.loweredHits;
    sum_.loweredMisses += now.loweredMisses - mark_.loweredMisses;
    clearCompileCache(log, parent);
    mark_ = Counts{};
}

void
CacheTally::record(WorkloadRun &run) const
{
    Counts now = read();
    auto put = [&run](const char *name, uint64_t sum, uint64_t v,
                      uint64_t mark) {
        run.layer[name] = static_cast<double>(sum + v - mark);
    };
    put("kernelc.cache_hits", sum_.hits, now.hits, mark_.hits);
    put("kernelc.cache_misses", sum_.misses, now.misses, mark_.misses);
    put("kernelc.lowered_hits", sum_.loweredHits, now.loweredHits,
        mark_.loweredHits);
    put("kernelc.lowered_misses", sum_.loweredMisses, now.loweredMisses,
        mark_.loweredMisses);
}

LocalJob
runLocalJob(const MachineConfig &cfg, App app, Size size, uint64_t seed,
            SpanLog *log, int64_t parent)
{
    const uint64_t jobId = nextJobId();
    LocalJob j;
    j.rec.app = app;
    j.rec.traced = log != nullptr;
    Clock::time_point t0 = Clock::now();
    {
        Scope job(log, "job", jobId, parent);
        std::unique_ptr<ImagineSystem> sys;
        {
            Scope s(log, "system.construct", jobId, job.id());
            sys = std::make_unique<ImagineSystem>(cfg);
        }
        {
            Scope s(log, "app.run", jobId, job.id());
            j.result = runApp(*sys, app, size, seed);
        }
        {
            Scope s(log, "result.toJson", jobId, job.id());
            j.json = j.result.run.toJson();
        }
        j.rec.loopS = sys->runWallSeconds();
        job.counter("loop_s", j.rec.loopS);
        job.counter("sim_cycles", static_cast<double>(j.result.run.cycles));
    }
    j.rec.wallS = secondsSince(t0);
    j.rec.sim = SimCounters::fromJson(j.json);
    return j;
}

void
checkJob(WorkloadRun &run, const LocalJob &job, const char *where)
{
    run.check(job.result.validated || job.result.run.estimatedCycles > 0,
              std::string(where) + ": " + kAppNames[job.rec.app] +
                  " failed golden validation");
}

double
errPct(uint64_t sampled, uint64_t reference)
{
    if (reference == 0)
        return 100.0;
    return 100.0 *
           std::fabs(static_cast<double>(sampled) -
                     static_cast<double>(reference)) /
           static_cast<double>(reference);
}

MachineConfig
probeConfig(Fidelity fidelity)
{
    MachineConfig cfg = MachineConfig::devBoard();
    cfg.srfSizeWords = kLongStreamSrfWords;
    cfg.fidelity = fidelity;
    return cfg;
}

apps::QrdConfig
probeQrd(uint64_t seed)
{
    apps::QrdConfig q;
    q.rows = 16384;
    q.cols = 16;
    q.seed = seed;
    return q;
}

std::string
probeParams()
{
    apps::QrdConfig q = probeQrd(0);
    return "{\"rows\":" + std::to_string(q.rows) +
           ",\"cols\":" + std::to_string(q.cols) + "}";
}

double
probeError(WorkloadRun &run, const std::string &sampledJson, uint64_t seed)
{
    ImagineSystem sys(probeConfig(Fidelity::Cycle));
    apps::AppResult ref = apps::runQrd(sys, probeQrd(seed));
    run.check(ref.validated, "probe: Cycle reference failed validation");
    SimCounters s = SimCounters::fromJson(sampledJson);
    run.check(s.estimatedCycles > 0, "probe: sampled run folded nothing");
    double err = errPct(s.cycles, ref.run.cycles);
    run.check(err <= kMaxSampledErrPct,
              "probe: sampled cycle error " + std::to_string(err) + "%");
    return err;
}

double
coldCompileSeconds(WorkloadRun &run, const MachineConfig &cfg, uint64_t seed,
                   SpanLog *log)
{
    constexpr int kReps = 3;
    Scope probe(log, "compile.probe");
    double total = 0.0;
    for (int a = 0; a < NumApps; ++a) {
        App app = static_cast<App>(a);
        std::vector<double> extra;
        for (int rep = 0; rep < kReps; ++rep) {
            clearCompileCache(log, probe.id());
            LocalJob cold =
                runLocalJob(cfg, app, Size::Small, seed, log, probe.id());
            LocalJob warm =
                runLocalJob(cfg, app, Size::Small, seed, log, probe.id());
            checkJob(run, cold, "compile probe");
            checkJob(run, warm, "compile probe");
            extra.push_back(cold.rec.wallS - warm.rec.wallS);
        }
        std::sort(extra.begin(), extra.end());
        total += extra[kReps / 2];
    }
    return total;
}

} // namespace isimbench
