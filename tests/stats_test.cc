/**
 * @file
 * StatsRegistry semantics: scalar/vector/histogram registration,
 * snapshot/delta, assign into an iso-structured registry, callback
 * stats, reset, and JSON export - plus the registry surface of a live
 * ImagineSystem and the process-wide compile cache.
 */

#include <gtest/gtest.h>

#include "core/system.hh"
#include "kernelc/compile_cache.hh"
#include "kernels/microbench.hh"
#include "sim/stats.hh"

using namespace imagine;

TEST(StatsRegistryTest, ScalarSnapshotDelta)
{
    uint64_t a = 0, b = 10;
    StatsRegistry reg;
    reg.scalar("x.a", &a);
    reg.scalar("x.b", &b);
    EXPECT_EQ(reg.numStats(), 2u);

    StatsSnapshot s0 = reg.snapshot();
    a += 5;
    b += 7;
    StatsDelta d = reg.delta(s0);
    EXPECT_EQ(d.value("x.a"), 5u);
    EXPECT_EQ(d.value("x.b"), 7u);
    EXPECT_TRUE(d.has("x.a"));
    EXPECT_FALSE(d.has("x.c"));
    EXPECT_EQ(d.value("x.c"), 0u);

    StatsDelta all = reg.read();
    EXPECT_EQ(all.value("x.a"), 5u);
    EXPECT_EQ(all.value("x.b"), 17u);
}

TEST(StatsRegistryTest, CallbackStatsReadButNeverAssign)
{
    uint64_t source = 3, target = 0;
    StatsRegistry reg;
    reg.scalar("cb", [&] { return source * 2; });
    EXPECT_EQ(reg.read().value("cb"), 6u);

    StatsSnapshot s0 = reg.snapshot();
    source = 10;
    EXPECT_EQ(reg.delta(s0).value("cb"), 14u);

    // An iso registry backing "cb" with a pointer absorbs the value...
    StatsRegistry iso;
    iso.scalar("cb", &target);
    iso.assign(reg.read());
    EXPECT_EQ(target, 20u);
    // ...but assigning INTO a callback stat is a silent no-op.
    reg.assign(iso.read());
    EXPECT_EQ(reg.read().value("cb"), 20u);
}

TEST(StatsRegistryTest, VectorRegistersPerElementNames)
{
    uint64_t v[3] = {1, 2, 3};
    StatsRegistry reg;
    reg.vector("kinds", v, {"load", "store", "exec"});
    StatsDelta d = reg.read();
    EXPECT_EQ(d.value("kinds.load"), 1u);
    EXPECT_EQ(d.value("kinds.store"), 2u);
    EXPECT_EQ(d.value("kinds.exec"), 3u);
}

TEST(StatsRegistryTest, HistogramBucketsAndNames)
{
    // Buckets: le_1, le_2, le_4, more.
    EXPECT_EQ(StatsRegistry::bucketOf(0, 4), 0u);
    EXPECT_EQ(StatsRegistry::bucketOf(1, 4), 0u);
    EXPECT_EQ(StatsRegistry::bucketOf(2, 4), 1u);
    EXPECT_EQ(StatsRegistry::bucketOf(3, 4), 2u);
    EXPECT_EQ(StatsRegistry::bucketOf(4, 4), 2u);
    EXPECT_EQ(StatsRegistry::bucketOf(5, 4), 3u);
    EXPECT_EQ(StatsRegistry::bucketOf(1u << 20, 4), 3u);

    uint64_t h[4] = {};
    StatsRegistry reg;
    reg.histogram("lat", h, 4);
    for (uint64_t sample : {1u, 2u, 3u, 100u, 200u})
        ++h[StatsRegistry::bucketOf(sample, 4)];
    StatsDelta d = reg.read();
    EXPECT_EQ(d.value("lat.le_1"), 1u);
    EXPECT_EQ(d.value("lat.le_2"), 1u);
    EXPECT_EQ(d.value("lat.le_4"), 1u);
    EXPECT_EQ(d.value("lat.more"), 2u);
}

TEST(StatsRegistryTest, AssignFillsIsoStructuredRegistry)
{
    uint64_t src[2] = {4, 9}, dst[2] = {};
    StatsRegistry a, b;
    a.scalar("m.x", &src[0]);
    a.scalar("m.y", &src[1]);
    b.scalar("m.y", &dst[1]);   // registration order may differ
    b.scalar("m.x", &dst[0]);
    b.scalar("m.z", &dst[0]);   // unmatched in the source: untouched
    b.assign(a.read());
    EXPECT_EQ(dst[0], 4u);
    EXPECT_EQ(dst[1], 9u);
}

TEST(StatsRegistryTest, ResetZeroesPointerStats)
{
    uint64_t a = 42;
    StatsRegistry reg;
    reg.scalar("a", &a);
    reg.reset();
    EXPECT_EQ(a, 0u);
}

TEST(StatsRegistryTest, JsonNestsDottedNames)
{
    uint64_t a = 1, b = 2, c = 3;
    StatsRegistry reg;
    reg.scalar("top", &c);
    reg.scalar("g.a", &a);
    reg.scalar("g.b", &b);
    EXPECT_EQ(reg.read().toJson(),
              "{\"g\":{\"a\":1,\"b\":2},\"top\":3}");
}

TEST(StatsRegistryTest, SystemRegistryCoversEveryComponent)
{
    ImagineSystem sys(MachineConfig::devBoard());
    StatsDelta d = sys.stats().read();
    for (const char *name :
         {"cluster.issuedOps", "cluster.kernelCycles.more",
          "srf.wordsTransferred", "mem.wordsLoaded", "sc.instrsRetired",
          "sc.kind.KernelExec", "host.instrsSent",
          "system.idleCycles.mem", "kernelc.cacheHits",
          "kernelc.cacheMisses"})
        EXPECT_TRUE(d.has(name)) << name;
    // Faults only register when the plan is enabled.
    EXPECT_FALSE(d.has("faults.injected"));
    MachineConfig fcfg = MachineConfig::devBoard();
    fcfg.faults.enabled = true;
    ImagineSystem fsys(fcfg);
    EXPECT_TRUE(fsys.stats().read().has("faults.injected"));
}

TEST(StatsRegistryTest, RunFillsResultViaAssign)
{
    ImagineSystem sys(MachineConfig::devBoard());
    uint16_t kid = sys.registerKernel(kernels::streamLength(16, 16));
    const uint32_t n = 256;
    sys.memory().writeWords(0, std::vector<Word>(n, 1));
    auto b = sys.newProgram();
    uint32_t in = b.alloc(n), out = b.alloc(n);
    b.load(b.marStride(0), b.sdr(in, n));
    b.kernel(kid, {b.sdr(in, n)}, {b.sdr(out, n)});
    StreamProgram prog = b.take();
    RunResult r = sys.run(prog);

    // The result structs were filled through the registry delta: they
    // must agree with the engine's cumulative counters (first run).
    EXPECT_GT(r.cluster.issuedOps, 0u);
    EXPECT_EQ(r.cluster.issuedOps, sys.clusters().stats().issuedOps);
    // Data words plus the kernel's microcode load.
    EXPECT_GE(r.mem.wordsLoaded, n);
    EXPECT_EQ(r.mem.wordsLoaded, sys.memorySystem().stats().wordsLoaded);
    EXPECT_EQ(r.sc.instrsRetired,
              sys.streamController().stats().instrsRetired);
    uint64_t idleTotal = 0;
    for (uint64_t c : r.idleCycles)
        idleTotal += c;
    EXPECT_EQ(r.breakdown.total(), r.cycles);
    EXPECT_LE(r.breakdown.ucodeStall + r.breakdown.memStall +
                  r.breakdown.scOverhead + r.breakdown.hostStall,
              idleTotal);

    // JSON export carries the same numbers.
    std::string json = r.toJson();
    EXPECT_NE(json.find("\"cycles\":" +
                        std::to_string(r.cycles)),
              std::string::npos);
    EXPECT_NE(json.find("\"breakdown\""), std::string::npos);
    EXPECT_NE(json.find("\"cluster\""), std::string::npos);
    EXPECT_NE(json.find("\"faultTrace\":[]"), std::string::npos);
}

TEST(StatsRegistryTest, ResetStatsZeroesComponents)
{
    ImagineSystem sys(MachineConfig::devBoard());
    uint16_t kid = sys.registerKernel(kernels::streamLength(8, 8));
    const uint32_t n = 64;
    sys.memory().writeWords(0, std::vector<Word>(n, 1));
    auto b = sys.newProgram();
    uint32_t in = b.alloc(n), out = b.alloc(n);
    b.load(b.marStride(0), b.sdr(in, n));
    b.kernel(kid, {b.sdr(in, n)}, {b.sdr(out, n)});
    StreamProgram prog = b.take();
    sys.run(prog);
    EXPECT_GT(sys.clusters().stats().issuedOps, 0u);
    sys.resetStats();
    EXPECT_EQ(sys.clusters().stats().issuedOps, 0u);
    EXPECT_EQ(sys.stats().read().value("system.idleCycles.mem"), 0u);
}

TEST(CompileCacheTest, SecondCompileHitsConfigChangeMisses)
{
    auto &cache = kernelc::CompileCache::instance();
    cache.clear();
    MachineConfig cfg = MachineConfig::devBoard();

    uint64_t h0 = cache.hits(), m0 = cache.misses();
    ImagineSystem a(cfg);
    a.registerKernel(kernels::streamLength(16, 16));
    EXPECT_EQ(cache.hits(), h0);
    EXPECT_EQ(cache.misses(), m0 + 1);

    // Identical graph + identical compile-relevant config: hit.  The
    // sessions' registry copies share the one lowered trace.
    ImagineSystem b(cfg);
    b.registerKernel(kernels::streamLength(16, 16));
    EXPECT_EQ(cache.hits(), h0 + 1);
    EXPECT_EQ(cache.misses(), m0 + 1);
    ASSERT_NE(a.kernels()[0].lowered, nullptr);
    EXPECT_EQ(a.kernels()[0].lowered, b.kernels()[0].lowered);
    EXPECT_EQ(cache.loweredMisses(), cache.misses());

    // Compile-irrelevant config change (fault seed): still a hit.
    MachineConfig faulty = cfg;
    faulty.faults.enabled = true;
    faulty.faults.seed = 1234;
    ImagineSystem c(faulty);
    c.registerKernel(kernels::streamLength(16, 16));
    EXPECT_EQ(cache.hits(), h0 + 2);
    EXPECT_EQ(cache.misses(), m0 + 1);

    // Compile-relevant change (adder count): miss.
    MachineConfig wide = cfg;
    wide.numAdders = 6;
    ImagineSystem d(wide);
    d.registerKernel(kernels::streamLength(16, 16));
    EXPECT_EQ(cache.hits(), h0 + 2);
    EXPECT_EQ(cache.misses(), m0 + 2);

    // Different graph under the original config: miss.
    ImagineSystem e(cfg);
    e.registerKernel(kernels::streamLength(16, 32));
    EXPECT_EQ(cache.misses(), m0 + 3);

    // The session exposes the process-wide counters by name.
    EXPECT_EQ(e.stats().read().value("kernelc.cacheHits"),
              cache.hits());
    EXPECT_EQ(cache.size(), 3u);
}

TEST(CompileCacheTest, CachedKernelIsBitIdentical)
{
    auto &cache = kernelc::CompileCache::instance();
    cache.clear();
    MachineConfig cfg = MachineConfig::devBoard();
    kernelc::CompiledKernel fresh =
        kernelc::compile(kernels::streamLength(32, 16), cfg);
    auto cachedA =
        cache.compile(kernels::streamLength(32, 16), cfg);
    auto cachedB =
        cache.compile(kernels::streamLength(32, 16), cfg);
    EXPECT_EQ(cachedA.get(), cachedB.get());    // same shared entry
    EXPECT_EQ(cachedA->loop.ii, fresh.loop.ii);
    EXPECT_EQ(cachedA->loop.length, fresh.loop.length);
    EXPECT_EQ(cachedA->ucodeInstrs, fresh.ucodeInstrs);
    EXPECT_EQ(cachedA->loop.ops.size(), fresh.loop.ops.size());
    for (size_t i = 0; i < fresh.loop.ops.size(); ++i) {
        EXPECT_EQ(cachedA->loop.ops[i].node, fresh.loop.ops[i].node);
        EXPECT_EQ(cachedA->loop.ops[i].time, fresh.loop.ops[i].time);
        EXPECT_EQ(cachedA->loop.ops[i].unit, fresh.loop.ops[i].unit);
    }
}
