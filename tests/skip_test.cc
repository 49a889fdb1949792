/**
 * @file
 * Tests for the event-horizon fast-forward (DESIGN.md section 8).
 *
 * The contract under test: nextEventAfter() may only name a cycle at
 * or before the component's true next event, and skipIdle() must fold
 * the skipped span bit-exactly.  Violations show up here as cycle or
 * output divergence between the per-cycle and the skipping drive of
 * the identical workload:
 *
 *  - zero-trip launches of every app/library kernel family,
 *  - a cluster+SRF differential rig (per-cycle vs. horizon-skipping),
 *  - whole-app and config-sweep bit-identity of RunResult::toJson(),
 *  - chaos campaigns (20 seeds per ECC mode) on vs. off,
 *  - watchdog/cycle-limit hang reports identical on vs. off,
 *  - armed fault sites pinning the memory horizon,
 *  - an FR-FCFS scheduler golden regression (order-preserving removal).
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim_test_util.hh"

#include "apps/apps.hh"
#include "kernels/conv.hh"
#include "kernels/dct.hh"
#include "kernels/gromacs.hh"
#include "kernels/linalg.hh"
#include "kernels/microbench.hh"
#include "kernels/rle.hh"
#include "kernels/rtsl.hh"
#include "kernels/sad.hh"
#include "mem/memory.hh"
#include "sim/runner.hh"

using namespace imagine;
using namespace imagine::kernelc;
using imagine::testutil::ClusterRig;

namespace
{

/** Every kernel-graph family the four applications are built from. */
std::vector<std::pair<std::string, KernelGraph>>
allAppKernels()
{
    using namespace imagine::kernels;
    std::vector<std::pair<std::string, KernelGraph>> ks;
    // DEPTH
    ks.emplace_back("conv7x7", conv7x7({1, 2, 3, 4, 3, 2, 1},
                                       {1, 2, 3, 4, 3, 2, 1}, 4));
    ks.emplace_back("conv3x3", conv3x3({1, 2, 1}, {1, 2, 1}, 2));
    ks.emplace_back("blockSad7x7", blockSad7x7());
    ks.emplace_back("sadUpdate", sadUpdate());
    ks.emplace_back("sadSearch", sadSearch());
    ks.emplace_back("blockSearch", blockSearch());
    // MPEG
    ks.emplace_back("colorConv", colorConv());
    ks.emplace_back("dct8x8", dct8x8());
    ks.emplace_back("idct8x8", idct8x8());
    ks.emplace_back("quantize", quantize());
    ks.emplace_back("dequantize", dequantize());
    ks.emplace_back("zigzag", zigzag());
    ks.emplace_back("rle", rle());
    ks.emplace_back("pixSub", pixSub());
    ks.emplace_back("pixAddClamp", pixAddClamp());
    ks.emplace_back("addClamp", addClamp());
    ks.emplace_back("mcIndex", mcIndex());
    // QRD
    ks.emplace_back("house", house());
    ks.emplace_back("houseApply", houseApply());
    ks.emplace_back("houseApply2", houseApply2());
    ks.emplace_back("panelDot", panelDot());
    ks.emplace_back("panelAxpy", panelAxpy());
    ks.emplace_back("panelAxpyDots", panelAxpyDots());
    ks.emplace_back("extractColumn", extractColumn());
    // RTSL
    ks.emplace_back("vertexTransform", vertexTransform());
    ks.emplace_back("cullTriangles", cullTriangles());
    ks.emplace_back("rasterize", rasterize());
    ks.emplace_back("shadeFragments", shadeFragments());
    ks.emplace_back("zCompare", zCompare());
    // Microbenchmarks / table kernels
    ks.emplace_back("peakFlops", peakFlops());
    ks.emplace_back("peakOps", peakOps());
    ks.emplace_back("commSort32", commSort32());
    ks.emplace_back("srfCopy", srfCopy());
    ks.emplace_back("streamLength", streamLength(8, 8));
    ks.emplace_back("gromacsForce", gromacsForce());
    return ks;
}

} // namespace

// ---------------------------------------------------------------------
// Zero-trip launches
// ---------------------------------------------------------------------

TEST(SkipTest, ZeroTripEveryAppKernel)
{
    // A zero-length stream (trip 0) must launch, retire, and produce
    // nothing, for every kernel family the applications use.  Before
    // the event-horizon work such launches were rejected outright.
    MachineConfig cfg;
    for (auto &[name, graph] : allAppKernels()) {
        CompiledKernel k = compile(std::move(graph), cfg);
        ClusterRig rig(cfg);
        std::vector<std::vector<Word>> inputs(
            static_cast<size_t>(k.graph.numInStreams));
        std::vector<std::vector<Word>> out;
        ASSERT_NO_THROW(out = rig.run(k, inputs)) << name;
        ASSERT_EQ(out.size(),
                  static_cast<size_t>(k.graph.numOutStreams))
            << name;
        for (const auto &o : out)
            EXPECT_TRUE(o.empty()) << name;
        // No iterations: the loop degenerates to a single empty issue
        // cycle and the prologue/epilogue never run.
        EXPECT_EQ(rig.ca.stats().prologueCycles, 0u) << name;
        EXPECT_EQ(rig.ca.stats().epilogueCycles, 0u) << name;
    }
}

// ---------------------------------------------------------------------
// Cluster + SRF differential rig
// ---------------------------------------------------------------------

namespace
{

/** Outcome of one standalone kernel run, for differential comparison. */
struct RigOutcome
{
    std::vector<std::vector<Word>> out;
    uint64_t simCycles = 0;         ///< simulated cycles to done()
    uint64_t hostTicks = 0;         ///< tick() calls actually executed
    ClusterStats cs;
    SrfStats ss;
};

/**
 * Run @p k once over @p inputs, either per-cycle or with the same
 * horizon-query/skipIdle protocol ImagineSystem::run uses.  Staging
 * mirrors ClusterRig::run.
 */
RigOutcome
driveKernel(const MachineConfig &cfg, const CompiledKernel &k,
            const std::vector<std::vector<Word>> &inputs, bool skipping)
{
    Srf srf(cfg);
    KernelRegistry kernels{k};
    ClusterArray ca(cfg, srf, kernels);
    std::vector<ClusterArray::Binding> ins, outs;
    std::vector<uint32_t> outOff, outCap;
    uint32_t srfPos = 0;
    uint32_t trip = 0;
    for (size_t s = 0; s < inputs.size(); ++s) {
        Sdr sdr{srfPos, static_cast<uint32_t>(inputs[s].size())};
        for (size_t i = 0; i < inputs[s].size(); ++i)
            srf.write(srfPos + static_cast<uint32_t>(i), inputs[s][i]);
        ins.push_back({srf.openIn(sdr,
                                  static_cast<uint32_t>(
                                      k.graph.inRec[s]) *
                                      numClusters * 2),
                       sdr.length});
        srfPos += sdr.length;
        if (s == 0)
            trip = sdr.length /
                   (static_cast<uint32_t>(k.graph.inRec[0]) *
                    numClusters);
    }
    for (int s = 0; s < k.graph.numOutStreams; ++s) {
        uint32_t cap = trip * k.graph.outRec[s] * numClusters +
                       k.graph.outEpilogueWords[s] * numClusters;
        if (k.graph.outIsCond[s])
            cap = trip * numClusters * 16 + 64;
        Sdr sdr{srfPos, cap};
        uint32_t window = std::max<uint32_t>(k.graph.outRec[s], 1) *
                          numClusters * 2;
        outs.push_back({srf.openOut(sdr, window), cap});
        outOff.push_back(srfPos);
        outCap.push_back(cap);
        srfPos += cap;
    }

    ca.start(0, ins, outs);
    RigOutcome r;
    Cycle now = 0;
    while (!ca.done()) {
        ca.tick();
        srf.tick();
        ++r.hostTicks;
        ++r.simCycles;
        IMAGINE_ASSERT(r.simCycles < 4'000'000,
                       "kernel %s did not finish", k.name());
        if (!skipping || ca.done())
            continue;
        // Same protocol as ImagineSystem::run: `now` is the cycle just
        // ticked; skip only when every horizon clears now + 1.
        Cycle hc = ca.nextEventAfter(now);
        Cycle hs = srf.nextEventAfter(now);
        EXPECT_GT(hc, now);     // horizons must lie strictly ahead
        EXPECT_GT(hs, now);
        Cycle h = std::min(hc, hs);
        if (h > now + 1) {
            uint64_t span = h - (now + 1);
            ca.skipIdle(now + 1, span);
            srf.skipIdle(now + 1, span);
            r.simCycles += span;
            now = h;
        } else {
            ++now;
        }
    }
    ca.retire();
    for (size_t s = 0; s < outs.size(); ++s) {
        uint32_t produced = srf.close(outs[s].client);
        std::vector<Word> data(produced);
        for (uint32_t i = 0; i < produced; ++i)
            data[i] = srf.read(outOff[s] + i);
        r.out.push_back(std::move(data));
    }
    for (auto &b : ins)
        srf.close(b.client);
    r.cs = ca.stats();
    r.ss = srf.stats();
    return r;
}

void
expectRigIdentical(const MachineConfig &cfg, const CompiledKernel &k,
                   const std::vector<std::vector<Word>> &inputs,
                   bool requireSkips = true)
{
    RigOutcome plain = driveKernel(cfg, k, inputs, false);
    RigOutcome skip = driveKernel(cfg, k, inputs, true);
    EXPECT_EQ(plain.out, skip.out) << k.name();
    EXPECT_EQ(plain.simCycles, skip.simCycles) << k.name();
    // The skipping drive must actually have skipped something, or this
    // test exercises nothing.  (A starved SRF keeps the arbiter busy
    // every cycle, so some shapes legitimately have nothing to skip.)
    if (requireSkips)
        EXPECT_LT(skip.hostTicks, plain.hostTicks) << k.name();
    EXPECT_EQ(plain.cs.busyTotal(), skip.cs.busyTotal()) << k.name();
    EXPECT_EQ(plain.cs.loopCycles, skip.cs.loopCycles) << k.name();
    EXPECT_EQ(plain.cs.stallCycles, skip.cs.stallCycles) << k.name();
    EXPECT_EQ(plain.cs.primingCycles, skip.cs.primingCycles) << k.name();
    EXPECT_EQ(plain.cs.issuedOps, skip.cs.issuedOps) << k.name();
    EXPECT_EQ(plain.cs.arithOps, skip.cs.arithOps) << k.name();
    EXPECT_EQ(plain.cs.lrfReads, skip.cs.lrfReads) << k.name();
    EXPECT_EQ(plain.cs.lrfWrites, skip.cs.lrfWrites) << k.name();
    EXPECT_EQ(plain.cs.sbReads, skip.cs.sbReads) << k.name();
    EXPECT_EQ(plain.cs.sbWrites, skip.cs.sbWrites) << k.name();
    EXPECT_EQ(plain.ss.wordsTransferred, skip.ss.wordsTransferred)
        << k.name();
    EXPECT_EQ(plain.ss.busyCycles, skip.ss.busyCycles) << k.name();
}

} // namespace

TEST(SkipTest, ClusterDifferentialDeepPipeline)
{
    // Long dependent chain: many stages in flight, loop batching must
    // replay the priming/draining filter exactly.
    KernelBuilder kb("deep");
    int s = kb.addInput();
    int o = kb.addOutput();
    kb.beginLoop();
    Val v = kb.read(s);
    Val x = v;
    for (int i = 0; i < 24; ++i)
        x = kb.iadd(x, v);
    kb.write(o, x);
    kb.endLoop();
    MachineConfig cfg;
    CompiledKernel k = compile(kb.finish(), cfg);
    const uint32_t trip = 96;
    std::vector<Word> in(trip * numClusters);
    for (uint32_t i = 0; i < in.size(); ++i)
        in[i] = i + 1;
    expectRigIdentical(cfg, k, {in});
}

TEST(SkipTest, ClusterDifferentialStreamHeavy)
{
    // Stream in/out every iteration: the batched-run cuts at Out
    // buckets and the arbiter word-for-word allocation must survive
    // the skipping drive untouched.  Run twice - at full SRF bandwidth
    // (skips expected) and starved (every cycle has arbiter work, so
    // nothing may be skipped but identity must still hold).
    auto build = [](const MachineConfig &cfg) {
        KernelBuilder kb("copy2");
        int s = kb.addInput();
        int o = kb.addOutput();
        kb.beginLoop();
        Val v = kb.read(s);
        kb.write(o, kb.iadd(v, kb.immI(7)));
        kb.endLoop();
        return compile(kb.finish(), cfg);
    };
    const uint32_t trip = 64;
    std::vector<Word> in(trip * numClusters);
    for (uint32_t i = 0; i < in.size(); ++i)
        in[i] = i * 3;
    {
        MachineConfig cfg;
        CompiledKernel k = build(cfg);
        expectRigIdentical(cfg, k, {in});
    }
    {
        MachineConfig cfg;
        cfg.srfBandwidthWordsPerCycle = 2;
        CompiledKernel k = build(cfg);
        expectRigIdentical(cfg, k, {in}, /*requireSkips=*/false);
    }
}

TEST(SkipTest, ClusterDifferentialLibraryKernels)
{
    // A pass over real library kernels with plausible data shapes.
    MachineConfig cfg;
    {
        CompiledKernel k =
            compile(imagine::kernels::dct8x8(), cfg);
        const uint32_t trip = 16;   // 16 SIMD iterations of 8 words
        std::vector<Word> in(trip * 8 * numClusters);
        for (uint32_t i = 0; i < in.size(); ++i)
            in[i] = (i * 37) % 251;
        expectRigIdentical(cfg, k, {in});
    }
    {
        CompiledKernel k =
            compile(imagine::kernels::srfCopy(), cfg);
        const uint32_t trip = 128;
        std::vector<Word> a(trip *
                            static_cast<uint32_t>(k.graph.inRec[0]) *
                            numClusters);
        for (uint32_t i = 0; i < a.size(); ++i)
            a[i] = i * 2654435761u;
        expectRigIdentical(cfg, k, {a});
    }
}

// ---------------------------------------------------------------------
// Horizon sanity on idle components
// ---------------------------------------------------------------------

TEST(SkipTest, IdleComponentsReportForever)
{
    ImagineSystem sys(MachineConfig::devBoard());
    // Nothing staged, nothing running: no component can self-generate
    // an event, at any query cycle.
    for (Cycle now : {Cycle(0), Cycle(1), Cycle(1000)}) {
        EXPECT_EQ(sys.clusters().nextEventAfter(now), kForever);
        EXPECT_EQ(sys.memorySystem().nextEventAfter(now), kForever);
        EXPECT_EQ(sys.srf().nextEventAfter(now), kForever);
    }
    // And after a real program ran to completion, all quiet again.
    auto b = sys.newProgram();
    uint32_t off = b.alloc(64);
    b.load(b.marStride(0), b.sdr(off, 64), -1, "warm");
    StreamProgram prog = b.take();
    sys.run(prog);
    Cycle now = sys.now();
    EXPECT_EQ(sys.clusters().nextEventAfter(now), kForever);
    EXPECT_EQ(sys.memorySystem().nextEventAfter(now), kForever);
    EXPECT_EQ(sys.srf().nextEventAfter(now), kForever);
}

// ---------------------------------------------------------------------
// Armed fault sites pin the memory horizon
// ---------------------------------------------------------------------

TEST(SkipTest, ArmedAgStallSitePinsMemoryHorizon)
{
    // An armed AG-stall site rolls its RNG on every unstalled generate
    // cycle; the horizon must never promise past the next roll while
    // an AG still has elements to generate, or skipping would
    // desynchronise the fault trace.
    MachineConfig cfg;
    cfg.faults.enabled = true;
    cfg.faults.seed = 7;
    cfg.faults.agStallRate = 0.05;
    cfg.faults.agStallBurstCycles = 16;
    FaultInjector inj(cfg.faults);
    Srf srf(cfg);
    MemorySystem mem(cfg, srf);
    mem.setFaultInjector(&inj);
    for (Addr a = 0; a < 4096; ++a)
        mem.space().writeWord(a, static_cast<Word>(a));
    const uint32_t n = 256;
    Sdr dst{0, n};
    Mar mar;
    mar.baseWord = 0;
    mar.mode = MarMode::Stride;
    mar.strideWords = 1;
    mar.recordWords = 1;
    mem.startLoad(0, mar, dst, nullptr);
    Cycle now = 0;
    while (!mem.agDone(0) && now < 100'000) {
        mem.tick(now);
        srf.tick();
        if (mem.agDone(0))
            break;      // the last delivery landed this very cycle
        Cycle h = mem.nextEventAfter(now);
        EXPECT_GT(h, now);
        EXPECT_NE(h, kForever);
        // Pinned to at most the stall-burst length past now.
        EXPECT_LE(h, now + static_cast<uint64_t>(
                            cfg.faults.agStallBurstCycles) +
                         static_cast<uint64_t>(cfg.memClockDivider));
        ++now;
    }
    ASSERT_TRUE(mem.agDone(0));
}

// ---------------------------------------------------------------------
// FR-FCFS golden regression (order-preserving O(pick) removal)
// ---------------------------------------------------------------------

TEST(SkipTest, FrFcfsSchedulerGoldens)
{
    // Mixed workload: an indexed gather hopping across rows/banks (the
    // scheduler frequently picks a non-front request) plus a long
    // unit-stride load (exercises the seqHits >= 24 precharge-bug
    // path).  The counters below were captured before the removal was
    // rewritten; any reorder introduced by the O(pick) change would
    // shift them.
    MachineConfig cfg;
    Srf srf(cfg);
    MemorySystem mem(cfg, srf);
    for (Addr a = 0; a < 1 << 16; ++a)
        mem.space().writeWord(a, static_cast<Word>(a * 2654435761u));

    const uint32_t n0 = 512;
    Sdr idxSdr{0, n0};
    for (uint32_t i = 0; i < n0; ++i)
        srf.write(i, (i * 677u) % 16384u);
    Sdr dst0{n0, n0};
    Mar mar0;
    mar0.baseWord = 0;
    mar0.mode = MarMode::Indexed;
    mar0.recordWords = 1;
    mem.startLoad(0, mar0, dst0, &idxSdr);

    const uint32_t n1 = 2048;
    Sdr dst1{2 * n0, n1};
    Mar mar1;
    mar1.baseWord = 32768;
    mar1.mode = MarMode::Stride;
    mar1.strideWords = 1;
    mar1.recordWords = 1;
    mem.startLoad(1, mar1, dst1, nullptr);

    Cycle now = 0;
    while ((!mem.agDone(0) || !mem.agDone(1)) && now < 1'000'000) {
        mem.tick(now);
        srf.tick();
        ++now;
    }
    const MemStats &s = mem.stats();
    EXPECT_EQ(now, 2139u);
    EXPECT_EQ(s.rowMisses, 169u);
    EXPECT_EQ(s.bugPrecharges, 72u);
    EXPECT_EQ(s.dramAccesses, 2560u);
    EXPECT_EQ(s.cacheHits, 0u);
    EXPECT_EQ(s.channelBusyMemCycles, 4199u);
}

// ---------------------------------------------------------------------
// Whole-app bit-identity, on vs. off
// ---------------------------------------------------------------------

namespace
{

/** Run @p runApp under @p base with eventDriven on and off; both arms
 *  must validate and produce byte-identical RunResult JSON. */
template <typename RunApp>
void
expectAppIdentical(const char *name, MachineConfig base,
                   const RunApp &runApp)
{
    base.eventDriven = true;
    ImagineSystem on(base);
    apps::AppResult ron = runApp(on);
    base.eventDriven = false;
    ImagineSystem off(base);
    apps::AppResult roff = runApp(off);
    EXPECT_TRUE(ron.validated) << name;
    EXPECT_TRUE(roff.validated) << name;
    EXPECT_EQ(ron.run.cycles, roff.run.cycles) << name;
    EXPECT_EQ(ron.run.toJson(), roff.run.toJson()) << name;
}

} // namespace

TEST(SkipTest, AppBitIdentityDepth)
{
    expectAppIdentical("DEPTH", MachineConfig::devBoard(),
                       [](ImagineSystem &sys) {
                           apps::DepthConfig cfg;
                           cfg.width = 128;
                           cfg.height = 42;
                           cfg.disparities = 4;
                           return apps::runDepth(sys, cfg);
                       });
}

TEST(SkipTest, AppBitIdentityMpeg)
{
    expectAppIdentical("MPEG", MachineConfig::devBoard(),
                       [](ImagineSystem &sys) {
                           apps::MpegConfig cfg;
                           cfg.width = 64;
                           cfg.height = 32;
                           cfg.frames = 3;
                           return apps::runMpeg(sys, cfg);
                       });
}

TEST(SkipTest, AppBitIdentityQrd)
{
    expectAppIdentical("QRD", MachineConfig::devBoard(),
                       [](ImagineSystem &sys) {
                           apps::QrdConfig cfg;
                           cfg.rows = 64;
                           cfg.cols = 16;
                           return apps::runQrd(sys, cfg);
                       });
}

TEST(SkipTest, AppBitIdentityRtsl)
{
    expectAppIdentical("RTSL", MachineConfig::devBoard(),
                       [](ImagineSystem &sys) {
                           apps::RtslConfig cfg;
                           cfg.screen = 64;
                           cfg.triangles = 256;
                           cfg.batch = 64;
                           return apps::runRtsl(sys, cfg);
                       });
}

TEST(SkipTest, SweepBitIdentity)
{
    // The contract must hold at machine shapes other than the default:
    // starved SRF bandwidth, slow memory clock, shallow stream buffers.
    struct Shape
    {
        int srfBw;
        int memDiv;
        int sbWords;
    };
    for (const Shape &sh : {Shape{4, 2, 16}, Shape{16, 4, 16},
                            Shape{8, 3, 8}}) {
        MachineConfig cfg = MachineConfig::devBoard();
        cfg.srfBandwidthWordsPerCycle = sh.srfBw;
        cfg.memClockDivider = sh.memDiv;
        cfg.streamBufferWords = sh.sbWords;
        std::string label = "srfBw=" + std::to_string(sh.srfBw) +
                            " memDiv=" + std::to_string(sh.memDiv) +
                            " sb=" + std::to_string(sh.sbWords);
        expectAppIdentical(label.c_str(), cfg, [](ImagineSystem &sys) {
            apps::DepthConfig dc;
            dc.width = 128;
            dc.height = 42;
            dc.disparities = 4;
            return apps::runDepth(sys, dc);
        });
    }
}

// ---------------------------------------------------------------------
// Chaos campaigns, on vs. off
// ---------------------------------------------------------------------

namespace
{

MachineConfig
chaosConfig(int run, bool eventDriven)
{
    MachineConfig cfg = MachineConfig::devBoard();
    cfg.eventDriven = eventDriven;
    cfg.faults.enabled = true;
    cfg.faults.seed = 0x51c9ull * 1000 + static_cast<uint64_t>(run);
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

/** Outcome fingerprint of one chaos arm: the full result JSON on a
 *  clean/invalid finish, or the (deterministic) error text. */
std::string
chaosFingerprint(int run, bool eventDriven)
{
    ImagineSystem sys(chaosConfig(run, eventDriven));
    try {
        apps::DepthConfig dc;
        dc.width = 128;
        dc.height = 42;
        dc.disparities = 4;
        apps::AppResult r = apps::runDepth(sys, dc);
        return std::string(r.validated ? "ok:" : "invalid:") +
               r.run.toJson();
    } catch (const SimError &e) {
        return std::string("error:") + e.what();
    }
}

} // namespace

TEST(SkipTest, ChaosBitIdentityAcrossEccModes)
{
    // 20 seeds per ECC mode (Secded / Parity / None, cycled run % 3):
    // every run - including ones that hang or exhaust retries - must
    // behave identically with the fast-forward on and off, down to the
    // fault trace embedded in the JSON and the hang-report text.
    constexpr int kRuns = 60;
    SimBatch batch;
    std::vector<std::string> onArm = batch.run(
        kRuns, [](int i) { return chaosFingerprint(i, true); });
    std::vector<std::string> offArm = batch.run(
        kRuns, [](int i) { return chaosFingerprint(i, false); });
    for (int i = 0; i < kRuns; ++i)
        EXPECT_EQ(onArm[static_cast<size_t>(i)],
                  offArm[static_cast<size_t>(i)])
            << "chaos seed " << i << " (ECC mode " << i % 3 << ")";
}

// ---------------------------------------------------------------------
// Watchdog and cycle limit under fast-forward
// ---------------------------------------------------------------------

namespace
{

StreamProgram
deadlockProgram()
{
    StreamProgram prog;
    StreamInstr a;
    a.kind = StreamOpKind::Sync;
    a.deps = {1};
    a.label = "first";
    StreamInstr b;
    b.kind = StreamOpKind::Sync;
    b.deps = {0};
    b.label = "second";
    prog.instrs = {a, b};
    return prog;
}

/** The hang-report fields the on/off comparison needs. */
struct HangFingerprint
{
    bool fired = false;
    Cycle cycle = 0;
    Cycle lastProgressCycle = 0;
    uint64_t cycleLimit = 0;
    std::string text;
};

/** Run a deadlocked program expecting a hang; fingerprint the report. */
HangFingerprint
expectHang(MachineConfig cfg, bool eventDriven, uint64_t cycleLimit)
{
    cfg.eventDriven = eventDriven;
    ImagineSystem sys(cfg);
    StreamProgram prog = deadlockProgram();
    HangFingerprint f;
    try {
        sys.run(prog, true, cycleLimit);
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), SimErrorKind::Hang);
        const HangReport *hr = e.hangReport();
        EXPECT_NE(hr, nullptr);
        if (hr) {
            f.fired = true;
            f.cycle = hr->cycle;
            f.lastProgressCycle = hr->lastProgressCycle;
            f.cycleLimit = hr->cycleLimit;
            f.text = hr->describe();
        }
        return f;
    }
    ADD_FAILURE() << "deadlocked program did not trip the watchdog";
    return f;
}

} // namespace

TEST(SkipTest, WatchdogFiresAtTheExactCycleWithSkip)
{
    // Skipping must clamp to the watchdog deadline: the hang fires at
    // the identical cycle, with the identical last-progress stamp, as
    // the per-cycle loop.
    MachineConfig cfg = MachineConfig::devBoard();
    cfg.watchdogStagnationCycles = 10'000;
    HangFingerprint on = expectHang(cfg, true, 1ull << 33);
    HangFingerprint off = expectHang(cfg, false, 1ull << 33);
    ASSERT_TRUE(on.fired);
    ASSERT_TRUE(off.fired);
    EXPECT_EQ(on.cycle, off.cycle);
    EXPECT_EQ(on.lastProgressCycle, off.lastProgressCycle);
    EXPECT_EQ(on.cycle,
              on.lastProgressCycle + cfg.watchdogStagnationCycles);
    EXPECT_EQ(on.text, off.text);
}

TEST(SkipTest, CycleLimitFiresAtTheExactCycleWithSkip)
{
    MachineConfig cfg = MachineConfig::devBoard();
    HangFingerprint on = expectHang(cfg, true, 5'000);
    HangFingerprint off = expectHang(cfg, false, 5'000);
    ASSERT_TRUE(on.fired);
    ASSERT_TRUE(off.fired);
    EXPECT_EQ(on.cycleLimit, 5'000u);
    EXPECT_EQ(on.cycle, off.cycle);
    EXPECT_EQ(on.text, off.text);
}
