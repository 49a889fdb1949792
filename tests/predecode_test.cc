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
 * The bind cache's LRU behaviour and stats are checked directly.
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
    {"conv7x7", {{21, 0x3f3d69b2d6e45168ull}, {156, 0xa920b07def1bda7eull},
                 {21, 0x3f3d69b2d6e45168ull}, {410, 0xccfeb40f5261ef67ull}}},
    {"conv3x3", {{21, 0x3f3d69b2d6e45168ull}, {92, 0x2d8d7caa6c38994bull},
                 {21, 0x3f3d69b2d6e45168ull}, {197, 0x6debca20aefb87deull}}},
    {"blockSad7x7",
     {{21, 0x3f3d69b2d6e45168ull}, {172, 0x8344337697586178ull},
      {21, 0x3f3d69b2d6e45168ull}, {741, 0xdc484c901a03cdadull}}},
    {"sadUpdate", {{21, 0x3f3d69b2d6e45168ull}, {102, 0xa23f0ff28d612515ull},
                   {21, 0x3f3d69b2d6e45168ull}, {241, 0x408e26334708d43bull}}},
    {"sadSearch", {{21, 0x3f3d69b2d6e45168ull}, {239, 0x4edaa22c94fe3030ull},
                   {21, 0x3f3d69b2d6e45168ull}, {884, 0xaccad6aea91d9442ull}}},
    {"blockSearch",
     {{21, 0x3f3d69b2d6e45168ull}, {1206, 0xeeba9171f1b3213full},
      {21, 0x3f3d69b2d6e45168ull}, {7913, 0xd76fa7cccbae0c0full}}},
    {"colorConv", {{21, 0x3f3d69b2d6e45168ull}, {113, 0xa6b21d2b9f6efe02ull},
                   {21, 0x3f3d69b2d6e45168ull}, {207, 0x75c2bf4c03156a38ull}}},
    {"dct8x8", {{21, 0x3f3d69b2d6e45168ull}, {3323, 0x6443be573b9124c7ull},
                {21, 0x3f3d69b2d6e45168ull}, {3519, 0x03368222fe1162d9ull}}},
    {"idct8x8", {{21, 0x3f3d69b2d6e45168ull}, {3323, 0x0a2a728a7d3994e5ull},
                 {21, 0x3f3d69b2d6e45168ull}, {3519, 0xc1851cba3a408ef3ull}}},
    {"quantize", {{21, 0x3f3d69b2d6e45168ull}, {1070, 0x65d754af46ccc800ull},
                  {21, 0x3f3d69b2d6e45168ull}, {3072, 0x78af589164a3cea2ull}}},
    {"dequantize",
     {{21, 0x3f3d69b2d6e45168ull}, {1070, 0xfc05afd2112ddf8bull},
      {21, 0x3f3d69b2d6e45168ull}, {3072, 0x5904ff6d41ffd705ull}}},
    {"zigzag", {{21, 0x3f3d69b2d6e45168ull}, {1201, 0x4134372cc599d9a4ull},
                {21, 0x3f3d69b2d6e45168ull}, {4608, 0x65154e9fb128ca17ull}}},
    {"rle", {{21, 0x3f3d69b2d6e45168ull}, {135, 0x5b6e5acbef4b300cull},
             {21, 0x3f3d69b2d6e45168ull}, {135, 0xbba01072fd204241ull}}},
    {"pixSub", {{21, 0x3f3d69b2d6e45168ull}, {36, 0x3bbf6e40885ccad1ull},
                {21, 0x3f3d69b2d6e45168ull}, {144, 0x598e41938f78ea38ull}}},
    {"pixAddClamp",
     {{21, 0x3f3d69b2d6e45168ull}, {40, 0xcd68f6ebb6e91b8aull},
      {21, 0x3f3d69b2d6e45168ull}, {144, 0xd627c466fff18e39ull}}},
    {"addClamp", {{21, 0x3f3d69b2d6e45168ull}, {40, 0x0acdde2448fa1ac2ull},
                  {21, 0x3f3d69b2d6e45168ull}, {96, 0x0152683d6ada999full}}},
    {"mcIndex", {{21, 0x3f3d69b2d6e45168ull}, {113, 0x1a436a6486923da9ull},
                 {21, 0x3f3d69b2d6e45168ull}, {159, 0x440f5950340d21ddull}}},
    {"house", {{21, 0x14515a5d59afb468ull}, {148, 0x9454a111800359fdull},
               {21, 0x14515a5d59afb468ull}, {283, 0xad86b1b2d5f5e908ull}}},
    {"houseApply",
     {{21, 0x3f3d69b2d6e45168ull}, {72, 0x1e7607ade856bf2cull},
      {21, 0x3f3d69b2d6e45168ull}, {384, 0x7a9c90f9aee2cc8aull}}},
    {"houseApply2",
     {{21, 0x4ab29129c30e8e68ull}, {61, 0x9617a7c0451d1b2dull},
      {21, 0x4ab29129c30e8e68ull}, {144, 0x3ef29b7560aab68dull}}},
    {"panelDot", {{21, 0x14515a5d59afb468ull}, {121, 0xd0d16d8dc53141f5ull},
                  {21, 0x14515a5d59afb468ull}, {483, 0x2bd5a7a64f247862ull}}},
    {"panelAxpy", {{21, 0x3f3d69b2d6e45168ull}, {118, 0xff87ea63753dd834ull},
                   {21, 0x3f3d69b2d6e45168ull}, {816, 0xc9bbe4435abc508cull}}},
    {"panelAxpyDots",
     {{21, 0x3f3d69b2d6e45168ull}, {111, 0xb821da8c3be3724full},
      {21, 0x3f3d69b2d6e45168ull}, {816, 0x01ecee932a65fc88ull}}},
    {"extractColumn",
     {{21, 0x3f3d69b2d6e45168ull}, {96, 0x688d050e83413404ull},
      {21, 0x3f3d69b2d6e45168ull}, {441, 0x295aa8e3667d5a3full}}},
    {"vertexTransform",
     {{21, 0x3f3d69b2d6e45168ull}, {234, 0x15bd7dc09b0d4a00ull},
      {21, 0x3f3d69b2d6e45168ull}, {384, 0xf8464938a0d79341ull}}},
    {"cullTriangles",
     {{21, 0xa8c0e435d623b968ull}, {115, 0x268f5cd570975e4eull},
      {21, 0xa8c0e435d623b968ull}, {608, 0xe20bad80f3944043ull}}},
    {"rasterize",
     {{21, 0x4ab29129c30e8e68ull}, {2105, 0x0edf82c82b61b4d1ull},
      {21, 0x4ab29129c30e8e68ull}, {2132, 0x7a0a1ccfa6b19e47ull}}},
    {"shadeFragments",
     {{21, 0x4ab29129c30e8e68ull}, {90, 0x830f649e0a0e9fdaull},
      {21, 0x4ab29129c30e8e68ull}, {192, 0x0d2464473470bbb7ull}}},
    {"zCompare", {{21, 0x4ab29129c30e8e68ull}, {49, 0x937d212094b28df8ull},
                  {21, 0x4ab29129c30e8e68ull}, {159, 0x126b0538f5cf5d1cull}}},
    {"peakFlops", {{21, 0x3f3d69b2d6e45168ull}, {73, 0xf31c8d2e5266e745ull},
                   {21, 0x3f3d69b2d6e45168ull}, {96, 0x931fdd1cfa7a9a25ull}}},
    {"peakOps", {{21, 0x3f3d69b2d6e45168ull}, {73, 0x44b2598c6f2d74c3ull},
                 {21, 0x3f3d69b2d6e45168ull}, {96, 0x0145a65d36ac916full}}},
    {"commSort32",
     {{21, 0x3f3d69b2d6e45168ull}, {915, 0x5c863d3130bb4a89ull},
      {21, 0x3f3d69b2d6e45168ull}, {921, 0xe1b7c8381121646aull}}},
    {"srfCopy", {{21, 0x3f3d69b2d6e45168ull}, {34, 0xc40440bb064cdd23ull},
                 {21, 0x3f3d69b2d6e45168ull}, {192, 0x5738ec709d275496ull}}},
    {"streamLength",
     {{21, 0x3f3d69b2d6e45168ull}, {139, 0x2fc8a903561e4d72ull},
      {21, 0x3f3d69b2d6e45168ull}, {139, 0x97ec64697e01f3d8ull}}},
    {"gromacsForce",
     {{21, 0x3f3d69b2d6e45168ull}, {496, 0xc905ada432b58aebull},
      {21, 0x3f3d69b2d6e45168ull}, {647, 0xe9e0ac0ef489270aull}}},
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
                    Pin{145222, 0x8bff0f827abd7e58ull});
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
                    Pin{88762, 0xd9afef3e834097c9ull});
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
                    Pin{23968, 0x8fae6e17342840a8ull});
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
                    Pin{34336, 0xa6fb475bf712eb1cull});
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
         {Shape{4, 2, 16, {145222, 0xa59514c923a64a86ull}},
          Shape{16, 4, 16, {145278, 0xb76e62733a13300dull}},
          Shape{8, 3, 8, {145250, 0x3e5976574c2f9ef5ull}}}) {
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
         {Point{"baseline", false, {2434070, 0x77ca1b05ea1e4895ull}},
          Point{"baseline", true, {1361238, 0xbb511f5b86108c69ull}},
          Point{"two_channels", false, {3629550, 0xc556a2cb3945f892ull}},
          Point{"two_channels", true, {1872722, 0xb0b029933c57a6d1ull}}}) {
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
    0x8203575c152720a2ull, 0x69078f3f27438fdeull, 0x07582ac67a868e18ull,
    0xbcb2a879aaa1d510ull, 0xdb8413514b06ef57ull, 0x30fff532a378ef9dull,
    0xd08993d3b72230b0ull, 0x6ea89b7b8723a41full, 0xc5920ab41419342aull,
    0x8b597f34d675c6a0ull, 0xb1367ac9a9f0b472ull, 0x48fa3d228ea54142ull,
    0x3b8c39b7d0ceb9d7ull, 0x7df7776d599464cfull, 0x384f0ec12bd12a58ull,
    0x88cbea29269dfe3eull, 0xe63421926012644full, 0xad54f4be142325e9ull,
    0xba0460d12b5fc95bull, 0x3e426c0cec0a9b79ull, 0x640a90e5d4aede7aull,
    0x97ab894e36f9fc1bull, 0xf0ee37b03b3aa1feull, 0x7b668f976cf7ca64ull,
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

// ---------------------------------------------------------------------
// Bind-cache LRU
// ---------------------------------------------------------------------

namespace
{

CompiledKernel
scaleKernel(const MachineConfig &cfg, const char *name, int scale)
{
    KernelBuilder kb(name);
    int s = kb.addInput();
    int o = kb.addOutput();
    kb.beginLoop();
    Val v = kb.read(s);
    kb.write(o, kb.iadd(v, kb.immI(scale)));
    kb.endLoop();
    return compile(kb.finish(), cfg);
}

} // namespace

TEST(PredecodeTest, BindCacheLruEviction)
{
    // Cap the bind cache at two kernels and launch three distinct ones:
    // the least-recently-used entry must go, the peak stat must stop at
    // the cap, and a re-launch of the evicted kernel must still produce
    // correct output (it simply rebinds from scratch).
    MachineConfig cfg;
    cfg.clusterBindCacheKernels = 2;
    ClusterRig rig(cfg);
    CompiledKernel k1 = scaleKernel(cfg, "scale1", 100);
    CompiledKernel k2 = scaleKernel(cfg, "scale2", 200);
    CompiledKernel k3 = scaleKernel(cfg, "scale3", 300);

    const uint32_t trip = 4;
    std::vector<Word> in(trip * numClusters);
    for (uint32_t i = 0; i < in.size(); ++i)
        in[i] = i;
    auto check = [&](const CompiledKernel &k, Word bias) {
        std::vector<std::vector<Word>> out = rig.run(k, {in});
        ASSERT_EQ(out.size(), 1u);
        ASSERT_EQ(out[0].size(), in.size());
        for (uint32_t i = 0; i < in.size(); ++i)
            EXPECT_EQ(out[0][i], in[i] + bias) << k.name();
    };

    check(k1, 100);
    check(k2, 200);
    EXPECT_EQ(rig.ca.stats().bindCachePeakKernels, 2u);
    EXPECT_EQ(rig.ca.stats().bindCacheEvictions, 0u);
    check(k3, 300);             // evicts k1 (LRU)
    EXPECT_EQ(rig.ca.stats().bindCachePeakKernels, 2u);
    EXPECT_EQ(rig.ca.stats().bindCacheEvictions, 1u);
    check(k2, 200);             // still cached: no new eviction
    EXPECT_EQ(rig.ca.stats().bindCacheEvictions, 1u);
    check(k1, 100);             // rebinds, evicting the LRU (k3)
    EXPECT_EQ(rig.ca.stats().bindCacheEvictions, 2u);
    EXPECT_EQ(rig.ca.stats().bindCachePeakKernels, 2u);
}

TEST(PredecodeTest, BindCacheUncappedKeepsAllKernels)
{
    // At the default (generous) cap no eviction should ever fire for a
    // handful of kernels, and the peak tracks the distinct-kernel count.
    MachineConfig cfg;
    ClusterRig rig(cfg);
    const uint32_t trip = 2;
    std::vector<Word> in(trip * numClusters, 5);
    std::vector<CompiledKernel> ks;
    for (int i = 0; i < 6; ++i) {
        ks.push_back(scaleKernel(
            cfg, ("k" + std::to_string(i)).c_str(), i));
    }
    for (const CompiledKernel &k : ks)
        rig.run(k, {in});
    for (const CompiledKernel &k : ks)
        rig.run(k, {in});       // second pass: every bind is a hit
    EXPECT_EQ(rig.ca.stats().bindCachePeakKernels, 6u);
    EXPECT_EQ(rig.ca.stats().bindCacheEvictions, 0u);
}
