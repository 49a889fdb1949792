/**
 * @file
 * Tests for the pre-decoded micro-op engine (DESIGN.md section 9), the
 * cluster array's one executor.
 *
 * Two kinds of reference check it:
 *
 *  - outputs: the ReferenceInterp oracle (tests/sim_test_util.hh),
 *    which evaluates the kernel graph directly and shares no code with
 *    the cluster array, over every app/library kernel family at the
 *    default and a starved-SRF machine shape.  The scratchpad families
 *    zigzag and rle, which the oracle rejects, keep their golden
 *    models in kernels_test;
 *  - timing and counters: integer pins recorded when an interpretive
 *    issue path still ran beside the micro-op engine and the two agreed
 *    bit for bit.  Per family x shape x trip {0, 12}: the rig's cycles
 *    and a hash of every ClusterStats/SrfStats counter and output word.
 *    Per app and machine shape: cycles and a hash of the integer
 *    `stats` object of RunResult.  Per chaos seed: a hash of cycles,
 *    stats and fault trace, or of the error.
 *
 * Pins are integers hashed value by value, so they hold on any host.
 * A deliberate timing-model change re-records them (print the new
 * values from the failure messages) and says so in its change log.
 * Deleting a counter changes every stats hash but no value: such pins
 * are re-derived at the parent commit with the deleted counters left
 * out of the hash (as when the cluster.bindCache* counters went).
 */

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "app_kernels.hh"
#include "sim_test_util.hh"
#include "sweep_shapes.hh"

#include "apps/apps.hh"
#include "sim/runner.hh"
#include "sim/stats.hh"

using namespace imagine;
using namespace imagine::kernelc;
using imagine::testutil::ClusterRig;
using imagine::testutil::ReferenceInterp;
using imagine::testutil::allAppKernels;

namespace
{

/** FNV-1a over integers taken value by value (host byte order free). */
struct Fnv
{
    uint64_t h = 0xcbf29ce484222325ull;

    void
    byte(uint8_t b)
    {
        h ^= b;
        h *= 0x100000001b3ull;
    }
    void
    u64(uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            byte(static_cast<uint8_t>(v >> (8 * i)));
    }
    void
    str(std::string_view s)
    {
        u64(s.size());
        for (char c : s)
            byte(static_cast<uint8_t>(c));
    }
    /** Every (name, value) entry of @p reg's current values. */
    void
    stats(const StatsRegistry &reg)
    {
        StatsDelta d = reg.read();
        for (const auto &[name, v] : d.entries()) {
            str(name);
            u64(v);
        }
    }
};

/** Pinned integers of one run: its cycles and a hash of what else it
 *  reports. */
struct Pin
{
    uint64_t cycles;
    uint64_t hash;
};

void
expectPin(const Pin &got, const Pin &want, const std::string &where)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "{%" PRIu64 ", 0x%016" PRIx64 "ull}",
                  got.cycles, got.hash);
    EXPECT_EQ(got.cycles, want.cycles) << where << ": got " << buf;
    EXPECT_EQ(got.hash, want.hash) << where << ": got " << buf;
}

// ---------------------------------------------------------------------
// Cluster + SRF rig over every kernel family
// ---------------------------------------------------------------------

/** Rig machine shapes: the default, and a starved SRF whose loops stall
 *  every few iterations, so the stream gating (including the priming/
 *  draining stage filter) runs on every bucket. */
MachineConfig
rigConfig(int shape)
{
    MachineConfig cfg;
    if (shape == 1) {
        cfg.srfBandwidthWordsPerCycle = 2;
        cfg.streamBufferWords = 8;
    }
    return cfg;
}

/** Bounded values, so packed 8/16-bit kernels see plausible pixels and
 *  float kernels see denormals rather than NaN-adjacent garbage. */
std::vector<std::vector<Word>>
rigInputs(const CompiledKernel &k, uint32_t trip)
{
    std::vector<std::vector<Word>> inputs;
    for (int s = 0; s < k.graph.numInStreams; ++s) {
        std::vector<Word> data(trip *
                               static_cast<uint32_t>(k.graph.inRec[s]) *
                               numClusters);
        for (uint32_t i = 0; i < data.size(); ++i)
            data[i] = (i * 37u + static_cast<uint32_t>(s) * 11u) % 251u;
        inputs.push_back(std::move(data));
    }
    return inputs;
}

/** Per family, the rig's pins at the default shape for trip 0 and
 *  trip 12, then at the starved shape for trip 0 and trip 12.  The
 *  hash covers every ClusterStats/SrfStats counter and output word. */
const struct
{
    const char *family;
    Pin pins[4];
} kRigPins[] = {
    {"conv7x7", {{21, 0x1650f959d7ad6b1aull}, {156, 0xbc76977019b786c8ull},
                 {21, 0x1650f959d7ad6b1aull}, {410, 0x5b4627cbdd664631ull}}},
    {"conv3x3", {{21, 0x1650f959d7ad6b1aull}, {92, 0x9600b621ae93db15ull},
                 {21, 0x1650f959d7ad6b1aull}, {197, 0xcfa2a7d8a30bb4f4ull}}},
    {"blockSad7x7",
     {{21, 0x1650f959d7ad6b1aull}, {172, 0xd7618f49e13f9b22ull},
      {21, 0x1650f959d7ad6b1aull}, {741, 0xa1ee81ac3777f013ull}}},
    {"sadUpdate", {{21, 0x1650f959d7ad6b1aull}, {102, 0x33f46ca51b17243full},
                   {21, 0x1650f959d7ad6b1aull}, {241, 0xc91b9002fb0312edull}}},
    {"sadSearch", {{21, 0x1650f959d7ad6b1aull}, {239, 0x0aab9ec56f957af2ull},
                   {21, 0x1650f959d7ad6b1aull}, {884, 0xa9836b645540e560ull}}},
    {"blockSearch",
     {{21, 0x1650f959d7ad6b1aull}, {1206, 0xbbcac6b357b2c451ull},
      {21, 0x1650f959d7ad6b1aull}, {7913, 0xf9d0b252626b76cdull}}},
    {"colorConv", {{21, 0x1650f959d7ad6b1aull}, {113, 0xefc20bef54bde448ull},
                   {21, 0x1650f959d7ad6b1aull}, {207, 0xc9b62b0b2673764eull}}},
    {"dct8x8", {{21, 0x1650f959d7ad6b1aull}, {3323, 0x39f7dd9ef4cf64b1ull},
                {21, 0x1650f959d7ad6b1aull}, {3519, 0xd35d0fb717f0e5c7ull}}},
    {"idct8x8", {{21, 0x1650f959d7ad6b1aull}, {3323, 0x570c84fa67677fbbull},
                 {21, 0x1650f959d7ad6b1aull}, {3519, 0x7943c3ea599955e5ull}}},
    {"quantize", {{21, 0x1650f959d7ad6b1aull}, {1070, 0x43799884a4d9618eull},
                  {21, 0x1650f959d7ad6b1aull}, {3072, 0x4e8d6e37a063746cull}}},
    {"dequantize",
     {{21, 0x1650f959d7ad6b1aull}, {1070, 0x671357f7ea4c8469ull},
      {21, 0x1650f959d7ad6b1aull}, {3072, 0x4a07980e982f7cefull}}},
    {"zigzag", {{21, 0x1650f959d7ad6b1aull}, {1201, 0x8a61966876b85462ull},
                {21, 0x1650f959d7ad6b1aull}, {4608, 0x5d5beaf0313628e1ull}}},
    {"rle", {{21, 0x1650f959d7ad6b1aull}, {135, 0xebc2ea45e061a2f6ull},
             {21, 0x1650f959d7ad6b1aull}, {135, 0xef2e6d36d658d73bull}}},
    {"pixSub", {{21, 0x1650f959d7ad6b1aull}, {36, 0x54ba09bd9ab46017ull},
                {21, 0x1650f959d7ad6b1aull}, {144, 0x335188826bec2b36ull}}},
    {"pixAddClamp",
     {{21, 0x1650f959d7ad6b1aull}, {40, 0x897b6bbe0aeb965cull},
      {21, 0x1650f959d7ad6b1aull}, {144, 0x9efa2a9a2ae12af3ull}}},
    {"addClamp", {{21, 0x1650f959d7ad6b1aull}, {40, 0x814d99d531f98720ull},
                  {21, 0x1650f959d7ad6b1aull}, {96, 0xaddd1c99f02f33b9ull}}},
    {"mcIndex", {{21, 0x1650f959d7ad6b1aull}, {113, 0x43c9814b374aed13ull},
                 {21, 0x1650f959d7ad6b1aull}, {159, 0x32469199c3f786f3ull}}},
    {"house", {{21, 0x68f7cdb4db5cebdaull}, {148, 0xfdb1078804f17d53ull},
               {21, 0x68f7cdb4db5cebdaull}, {283, 0xcda43b82bc74e7f2ull}}},
    {"houseApply",
     {{21, 0x1650f959d7ad6b1aull}, {72, 0xae4cbb11d17e4d7aull},
      {21, 0x1650f959d7ad6b1aull}, {384, 0xe8243be99ec13460ull}}},
    {"houseApply2",
     {{21, 0x9c8f37ecef96525aull}, {61, 0xcceb5a778d73489full},
      {21, 0x9c8f37ecef96525aull}, {144, 0x3b7b52d702c87d63ull}}},
    {"panelDot", {{21, 0x68f7cdb4db5cebdaull}, {121, 0x07ae38005c0dc60full},
                  {21, 0x68f7cdb4db5cebdaull}, {483, 0xf35f7f603183f564ull}}},
    {"panelAxpy", {{21, 0x1650f959d7ad6b1aull}, {118, 0x4fd582e9a68f7c1eull},
                   {21, 0x1650f959d7ad6b1aull}, {816, 0x4066b09a8759103aull}}},
    {"panelAxpyDots",
     {{21, 0x1650f959d7ad6b1aull}, {111, 0x89e38d46112e75adull},
      {21, 0x1650f959d7ad6b1aull}, {816, 0x3be12aa9c9cf729eull}}},
    {"extractColumn",
     {{21, 0x1650f959d7ad6b1aull}, {96, 0x7a796a8556d7c2c6ull},
      {21, 0x1650f959d7ad6b1aull}, {441, 0xf86fced08b26ffb1ull}}},
    {"vertexTransform",
     {{21, 0x1650f959d7ad6b1aull}, {234, 0xd733a49f7052353aull},
      {21, 0x1650f959d7ad6b1aull}, {384, 0x579bec0e7a8f373bull}}},
    {"cullTriangles",
     {{21, 0x95954393b5e4051aull}, {115, 0xcc758866bbe12ae8ull},
      {21, 0x95954393b5e4051aull}, {608, 0xe76c00ad74dca75dull}}},
    {"rasterize",
     {{21, 0x9c8f37ecef96525aull}, {2105, 0xcab5e58fe3e23e0bull},
      {21, 0x9c8f37ecef96525aull}, {2132, 0x2052ea64d3d91679ull}}},
    {"shadeFragments",
     {{21, 0x9c8f37ecef96525aull}, {90, 0x5401f4cf503dad64ull},
      {21, 0x9c8f37ecef96525aull}, {192, 0x15f7ca6a5f8fa92dull}}},
    {"zCompare", {{21, 0x9c8f37ecef96525aull}, {49, 0x3dd93fa3cf0d6ad6ull},
                  {21, 0x9c8f37ecef96525aull}, {159, 0xefd864c2b0968e02ull}}},
    {"peakFlops", {{21, 0x1650f959d7ad6b1aull}, {73, 0x8965e49c5d3b46afull},
                   {21, 0x1650f959d7ad6b1aull}, {96, 0x9d0529df57a28c7full}}},
    {"peakOps", {{21, 0x1650f959d7ad6b1aull}, {73, 0xa3ef9dab33f88935ull},
                 {21, 0x1650f959d7ad6b1aull}, {96, 0x8603ee77ea2ef3e9ull}}},
    {"commSort32",
     {{21, 0x1650f959d7ad6b1aull}, {915, 0x3040557191296acfull},
      {21, 0x1650f959d7ad6b1aull}, {921, 0xcec5ef974e68de90ull}}},
    {"srfCopy", {{21, 0x1650f959d7ad6b1aull}, {34, 0x3e071ad9274e2885ull},
                 {21, 0x1650f959d7ad6b1aull}, {192, 0xd726a0d7028a1690ull}}},
    {"streamLength",
     {{21, 0x1650f959d7ad6b1aull}, {139, 0x6a9839519af83de8ull},
      {21, 0x1650f959d7ad6b1aull}, {139, 0x672d2dd082345a22ull}}},
    {"gromacsForce",
     {{21, 0x1650f959d7ad6b1aull}, {496, 0x9bf6b8a9e1a7ff81ull},
      {21, 0x1650f959d7ad6b1aull}, {647, 0x6951540851fe2228ull}}},
};

struct RigRun
{
    std::vector<std::vector<Word>> out;
    Pin pin;
    ClusterStats cs;
};

RigRun
driveRig(const CompiledKernel &k, int shape,
         const std::vector<std::vector<Word>> &inputs)
{
    ClusterRig rig(rigConfig(shape));
    RigRun r;
    r.out = rig.run(k, inputs);
    r.cs = rig.ca.stats();
    SrfStats ss = rig.srf.stats();
    StatsRegistry reg;
    r.cs.registerOn(reg, "cluster");
    ss.registerOn(reg, "srf");
    Fnv f;
    f.stats(reg);
    for (const std::vector<Word> &o : r.out) {
        f.u64(o.size());
        for (Word w : o)
            f.u64(w);
    }
    r.pin = {rig.cycles, f.h};
    return r;
}

void
expectPinned(const std::string &family, int shape, uint32_t trip,
             const Pin &got)
{
    for (const auto &row : kRigPins) {
        if (row.family == family) {
            expectPin(got, row.pins[shape * 2 + (trip ? 1 : 0)],
                      family + " shape " + std::to_string(shape) +
                          " trip " + std::to_string(trip));
            return;
        }
    }
    ADD_FAILURE() << "no pins for " << family;
}

/** Scratchpad families: ReferenceInterp cannot order SP accesses. */
bool
usesScratchpad(const std::string &family)
{
    return family == "zigzag" || family == "rle";
}

/**
 * Every family at trip 12 on rig shape @p shape: outputs equal to the
 * ReferenceInterp oracle's, cycles and counters equal to the pins.
 */
void
checkEveryFamily(int shape)
{
    const uint32_t trip = 12;
    MachineConfig cfg = rigConfig(shape);
    for (auto &[name, graph] : allAppKernels()) {
        CompiledKernel k = compile(std::move(graph), cfg);
        auto inputs = rigInputs(k, trip);
        RigRun r = driveRig(k, shape, inputs);
        expectPinned(name, shape, trip, r.pin);
        if (usesScratchpad(name))
            continue;
        ReferenceInterp ref(k.graph, inputs, trip);
        EXPECT_EQ(r.out, ref.run()) << name << " shape " << shape;
    }
}

} // namespace

TEST(PredecodeTest, RigDifferentialEveryAppKernel)
{
    checkEveryFamily(0);
}

TEST(PredecodeTest, RigDifferentialStarvedSrf)
{
    checkEveryFamily(1);
}

TEST(PredecodeTest, ZeroTripEveryAppKernel)
{
    // A zero-trip launch of a real loop skips the prologue and the
    // epilogue (their ops reference iterations that never execute) and
    // runs startup + one empty loop cycle + shutdown.
    for (int shape = 0; shape < 2; ++shape) {
        MachineConfig cfg = rigConfig(shape);
        for (auto &[name, graph] : allAppKernels()) {
            CompiledKernel k = compile(std::move(graph), cfg);
            ASSERT_FALSE(k.loop.ops.empty()) << name;
            std::vector<std::vector<Word>> inputs(
                static_cast<size_t>(k.graph.numInStreams));
            RigRun r = driveRig(k, shape, inputs);
            expectPinned(name, shape, 0, r.pin);
            for (const auto &o : r.out)
                EXPECT_TRUE(o.empty()) << name;
            EXPECT_EQ(r.cs.prologueCycles, 0u) << name;
            EXPECT_EQ(r.cs.epilogueCycles, 0u) << name;
        }
    }
}

TEST(PredecodeTest, DeepAccumulatorChainMatchesReference)
{
    // A delay line of d chained accumulators: output i is input i - d
    // (0 before that).  The read goes d iterations back through the
    // root's value ring, which must be deep enough to still hold that
    // row, with or without software pipelining.
    const uint32_t trip = 40;
    for (bool swp : {true, false}) {
        for (int d : {1, 2, 3, 4, 5, 8, 9, 17}) {
            KernelBuilder kb("delay");
            int s = kb.addInput();
            int o = kb.addOutput();
            kb.beginLoop();
            Val x = kb.read(s);
            std::vector<Val> acc;
            for (int j = 0; j < d; ++j)
                acc.push_back(kb.accum(kb.immI(0)));
            kb.accumSet(acc[0], x);
            for (int j = 1; j < d; ++j)
                kb.accumSet(acc[j], acc[j - 1]);
            kb.write(o, kb.iadd(acc.back(), kb.immI(0)));
            kb.endLoop();
            MachineConfig cfg = MachineConfig::devBoard();
            CompileOptions opts;
            opts.softwarePipelining = swp;
            CompiledKernel k = compile(kb.finish(), cfg, opts);

            std::vector<std::vector<Word>> in(1);
            for (uint32_t i = 0; i < trip * numClusters; ++i)
                in[0].push_back(i + 1);
            ClusterRig rig(cfg);
            ReferenceInterp ref(k.graph, in, trip);
            EXPECT_EQ(rig.run(k, in), ref.run())
                << "d " << d << " swp " << swp;
        }
    }
}

// ---------------------------------------------------------------------
// Whole apps and machine shapes
// ---------------------------------------------------------------------

namespace
{

/** Cycles plus a hash of the integer `stats` object of RunResult. */
Pin
pinOf(const RunResult &r)
{
    StatsRegistry reg;
    registerRunStats(reg, const_cast<RunResult &>(r));
    Fnv f;
    f.stats(reg);
    return {r.cycles, f.h};
}

/** Run @p runApp under @p cfg: it must validate (fold, at Sampled
 *  fidelity: folded outputs fail golden validation by design) and
 *  match @p want. */
template <typename RunApp>
void
expectAppPinned(const std::string &label, const MachineConfig &cfg,
                const RunApp &runApp, const Pin &want)
{
    ImagineSystem sys(cfg);
    apps::AppResult r = runApp(sys);
    if (cfg.fidelity == Fidelity::Cycle)
        EXPECT_TRUE(r.validated) << label;
    else
        EXPECT_FALSE(r.run.kernelFolds.empty()) << label;
    expectPin(pinOf(r.run), want, label);
}

apps::AppResult
runDepthSmall(ImagineSystem &sys)
{
    apps::DepthConfig cfg;
    cfg.width = 128;
    cfg.height = 42;
    cfg.disparities = 4;
    return apps::runDepth(sys, cfg);
}

} // namespace

TEST(PredecodeTest, AppBitIdentityDepth)
{
    expectAppPinned("DEPTH", MachineConfig::devBoard(), runDepthSmall,
                    Pin{145222, 0xffe28d64e4a61514ull});
}

TEST(PredecodeTest, AppBitIdentityMpeg)
{
    expectAppPinned("MPEG", MachineConfig::devBoard(),
                    [](ImagineSystem &sys) {
                        apps::MpegConfig cfg;
                        cfg.width = 64;
                        cfg.height = 32;
                        cfg.frames = 3;
                        return apps::runMpeg(sys, cfg);
                    },
                    Pin{88762, 0x656b2dea45327e0dull});
}

TEST(PredecodeTest, AppBitIdentityQrd)
{
    expectAppPinned("QRD", MachineConfig::devBoard(),
                    [](ImagineSystem &sys) {
                        apps::QrdConfig cfg;
                        cfg.rows = 64;
                        cfg.cols = 16;
                        return apps::runQrd(sys, cfg);
                    },
                    Pin{23968, 0x614ed0457f2517beull});
}

TEST(PredecodeTest, AppBitIdentityRtsl)
{
    expectAppPinned("RTSL", MachineConfig::devBoard(),
                    [](ImagineSystem &sys) {
                        apps::RtslConfig cfg;
                        cfg.screen = 64;
                        cfg.triangles = 256;
                        cfg.batch = 64;
                        return apps::runRtsl(sys, cfg);
                    },
                    Pin{34336, 0x8aa3617b9ca91ceeull});
}

TEST(PredecodeTest, SweepBitIdentity)
{
    // Machine shapes other than the default: starved SRF bandwidth,
    // slow memory clock, shallow stream buffers (the same shapes the
    // event-horizon sweep pins down).
    struct Shape
    {
        int srfBw;
        int memDiv;
        int sbWords;
        Pin pin;
    };
    for (const Shape &sh :
         {Shape{4, 2, 16, {145222, 0x52e509159dba1b6aull}},
          Shape{16, 4, 16, {145278, 0xdbbfdc73a4ae5cc9ull}},
          Shape{8, 3, 8, {145250, 0xce5611cde2221f49ull}}}) {
        MachineConfig cfg = MachineConfig::devBoard();
        cfg.srfBandwidthWordsPerCycle = sh.srfBw;
        cfg.memClockDivider = sh.memDiv;
        cfg.streamBufferWords = sh.sbWords;
        std::string label = "srfBw=" + std::to_string(sh.srfBw) +
                            " memDiv=" + std::to_string(sh.memDiv) +
                            " sb=" + std::to_string(sh.sbWords);
        expectAppPinned(label, cfg, runDepthSmall, sh.pin);
    }
}

TEST(PredecodeTest, SampledBitIdentity)
{
    // Fold-eligible Sampled shapes on two machine shapes of the shared
    // sweep list: the fold, the horizon jumps that run it down and the
    // stream controller's idle attribution around them.  The streamed
    // dimension is just long enough for the hot kernels to fold.
    struct Point
    {
        const char *shape;
        bool qrd;
        Pin pin;
    };
    auto depth = [](ImagineSystem &sys) {
        apps::DepthConfig cfg;
        cfg.width = 49152;
        cfg.height = 18;
        cfg.disparities = 4;
        return apps::runDepth(sys, cfg);
    };
    auto qrd = [](ImagineSystem &sys) {
        apps::QrdConfig cfg;
        cfg.rows = 16384;
        cfg.cols = 16;
        return apps::runQrd(sys, cfg);
    };
    for (const Point &p :
         {Point{"baseline", false, {2434070, 0x84dff8cf15e7566dull}},
          Point{"baseline", true, {1361238, 0x8cc8b988225493ebull}},
          Point{"two_channels", false, {3629550, 0xe350b8661929e986ull}},
          Point{"two_channels", true, {1872722, 0x811d01e7f64d9cffull}}}) {
        MachineConfig cfg;
        for (const bench::MachineShape &sh : bench::machineShapes())
            if (std::string_view(sh.name) == p.shape)
                cfg = sh.cfg;
        cfg.fidelity = Fidelity::Sampled;
        cfg.srfSizeWords = 4u * 1024 * 1024;
        std::string label =
            std::string(p.shape) + (p.qrd ? " QRD" : " DEPTH");
        if (p.qrd)
            expectAppPinned(label, cfg, qrd, p.pin);
        else
            expectAppPinned(label, cfg, depth, p.pin);
    }
}

// ---------------------------------------------------------------------
// Chaos campaigns
// ---------------------------------------------------------------------

namespace
{

MachineConfig
chaosConfig(int run)
{
    MachineConfig cfg = MachineConfig::devBoard();
    cfg.faults.enabled = true;
    cfg.faults.seed = 0x9de2ull * 1000 + static_cast<uint64_t>(run);
    cfg.faults.srfFlipRate = 1e-4;
    cfg.faults.dramFlipRate = 1e-4;
    cfg.faults.ucodeCorruptRate = 0.05;
    cfg.faults.stuckSlotRate = 1e-3;
    cfg.faults.agStallRate = 1e-3;
    cfg.faults.agStallBurstCycles = 32;
    cfg.faults.maxRetries = 3;
    switch (run % 3) {
      case 0:
        cfg.faults.srfEcc = EccMode::Secded;
        cfg.faults.memEcc = EccMode::Secded;
        break;
      case 1:
        cfg.faults.srfEcc = EccMode::Parity;
        cfg.faults.memEcc = EccMode::Parity;
        break;
      default:
        cfg.faults.srfEcc = EccMode::None;
        cfg.faults.memEcc = EccMode::None;
        break;
    }
    cfg.watchdogStagnationCycles = 200'000;
    return cfg;
}

/** Outcome fingerprint of one chaos run: cycles, stats and fault trace
 *  on a clean or invalid finish; else the (deterministic) error kind
 *  and text, plus the watchdog's cycle marks when it hung. */
uint64_t
chaosFingerprint(int run)
{
    ImagineSystem sys(chaosConfig(run));
    Fnv f;
    try {
        apps::AppResult r = runDepthSmall(sys);
        f.str(r.validated ? "ok" : "invalid");
        Pin p = pinOf(r.run);
        f.u64(p.cycles);
        f.u64(p.hash);
        for (const FaultEvent &e : r.run.faultTrace) {
            f.u64(e.ordinal);
            f.u64(static_cast<uint64_t>(e.site));
            f.u64(static_cast<uint64_t>(e.outcome));
            f.u64(e.where);
            f.u64(e.mask);
        }
    } catch (const SimError &e) {
        f.str("error");
        f.u64(static_cast<uint64_t>(e.kind()));
        f.str(e.what());
        if (const HangReport *h = e.hangReport()) {
            f.u64(h->cycle);
            f.u64(h->lastProgressCycle);
            f.u64(h->instrsRetired);
        }
    }
    return f.h;
}

/** Per seed, recorded with both executors agreeing. */
const uint64_t kChaosPins[30] = {
    0x7b9bfe53a0338923ull, 0xbc068e8df9f12df0ull, 0x3c60a29af677ee9full,
    0xe959bd6ebce8644aull, 0x69078f3f27438fdeull, 0x07582ac67a868e18ull,
    0xbcb2a879aaa1d510ull, 0xdb8413514b06ef57ull, 0xb5bd66ce288ad673ull,
    0x2ccadffe029c9e26ull, 0x6ea89b7b8723a41full, 0xc5920ab41419342aull,
    0x7187ad9f10b94092ull, 0xb1367ac9a9f0b472ull, 0x48fa3d228ea54142ull,
    0x2176764ea71985d5ull, 0x7df7776d599464cfull, 0x384f0ec12bd12a58ull,
    0xda28e7c47710f367ull, 0xe63421926012644full, 0xd0635bafd354bb6full,
    0xba0460d12b5fc95bull, 0x3e426c0cec0a9b79ull, 0x640a90e5d4aede7aull,
    0x3074cba4117d4376ull, 0xf0ee37b03b3aa1feull, 0x731a19469b6b81adull,
    0x0b51beca7fda6d89ull, 0x5aa28a7362d5c0bcull, 0xceba479a53e369deull,
};

} // namespace

TEST(PredecodeTest, ChaosBitIdentityAcrossEccModes)
{
    // 10 seeds per ECC mode (Secded / Parity / None, cycled run % 3),
    // including retry exhaustion and watchdog hangs: the micro-op
    // engine funnels SRF writes through the fault injector in a fixed
    // call and lane order, so every run fingerprints as pinned.
    constexpr int kRuns = 30;
    SimBatch batch;
    std::vector<uint64_t> got =
        batch.run(kRuns, [](int i) { return chaosFingerprint(i); });
    for (int i = 0; i < kRuns; ++i)
        EXPECT_EQ(got[static_cast<size_t>(i)], kChaosPins[i])
            << "chaos seed " << i << " (ECC mode " << i % 3 << ")";
}
