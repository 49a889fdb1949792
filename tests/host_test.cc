/**
 * @file
 * Tests for the host processor and stream controller: interface
 * bandwidth pacing, scoreboard capacity, issue-overhead accounting,
 * host dependencies, idle-cause classification priorities, microcode
 * store eviction, and UCR snapshot semantics.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <iterator>

#include "core/system.hh"
#include "kernels/microbench.hh"

using namespace imagine;
using namespace imagine::kernelc;

namespace
{

KernelGraph
copyKernel(const char *name = "copyk")
{
    KernelBuilder kb(name);
    int s = kb.addInput();
    int o = kb.addOutput();
    kb.beginLoop();
    kb.write(o, kb.read(s));
    kb.endLoop();
    return kb.finish();
}

/** Kernel that adds its UCR parameter to every element. */
KernelGraph
addParamKernel()
{
    KernelBuilder kb("addparam");
    Val p = kb.ucr(3);
    int s = kb.addInput();
    int o = kb.addOutput();
    kb.beginLoop();
    kb.write(o, kb.iadd(kb.read(s), p));
    kb.endLoop();
    return kb.finish();
}

} // namespace

TEST(HostTest, InterfacePacesInstructions)
{
    // A register-write flood is limited by the configured host MIPS.
    for (double mips : {1.0, 4.0}) {
        MachineConfig cfg = MachineConfig::devBoard();
        cfg.hostMips = mips;
        ImagineSystem sys(cfg);
        auto b = sys.newProgram();
        for (int i = 0; i < 1000; ++i)
            b.ucr(i % 8, static_cast<Word>(i));
        StreamProgram prog = b.take();
        RunResult r = sys.run(prog);
        EXPECT_NEAR(r.hostMips, mips, 0.15 * mips);
    }
}

TEST(HostTest, NonPlaybackDispatcherIsSlower)
{
    auto run = [](bool playback) {
        ImagineSystem sys(MachineConfig::devBoard());
        auto b = sys.newProgram();
        for (int i = 0; i < 300; ++i)
            b.ucr(i % 8, static_cast<Word>(i));
        StreamProgram prog = b.take();
        return sys.run(prog, playback).cycles;
    };
    EXPECT_GT(run(false), run(true) * 3 / 2);
}

TEST(HostTest, ScoreboardLetsHostRunAhead)
{
    // With a deep scoreboard the host buffers instructions during a
    // long kernel; with a 1-slot scoreboard everything serializes.
    auto run = [](int slots) {
        MachineConfig cfg = MachineConfig::devBoard();
        cfg.scoreboardSlots = slots;
        ImagineSystem sys(cfg);
        uint16_t k = sys.registerKernel(copyKernel());
        const uint32_t n = 512;
        sys.memory().writeWords(0, std::vector<Word>(n, 1));
        auto b = sys.newProgram();
        uint32_t s0 = b.alloc(n), s1 = b.alloc(n);
        b.load(b.marStride(0), b.sdr(s0, n));
        for (int i = 0; i < 10; ++i) {
            b.kernel(k, {b.sdr(s0, n)}, {b.sdr(s1, n)});
            std::swap(s0, s1);
        }
        StreamProgram prog = b.take();
        return sys.run(prog).cycles;
    };
    EXPECT_GT(run(1), run(32));
}

TEST(HostTest, RegReadBlocksTheHost)
{
    ImagineSystem sys(MachineConfig::devBoard());
    uint16_t k = sys.registerKernel(copyKernel());
    const uint32_t n = 256;
    sys.memory().writeWords(0, std::vector<Word>(n, 1));
    auto b = sys.newProgram();
    uint32_t s0 = b.alloc(n), s1 = b.alloc(n);
    b.load(b.marStride(0), b.sdr(s0, n));
    int out = b.sdr(s1, n);
    b.kernel(k, {b.sdr(s0, n)}, {out});
    uint32_t before = static_cast<uint32_t>(b.size());
    b.readStreamLength(out);
    (void)before;
    b.ucr(0, 7);
    StreamProgram prog = b.take();
    RunResult r = sys.run(prog);
    // The read-compute-write round trip shows up as dependency stalls.
    EXPECT_GE(r.host.dependencyStallCycles,
              static_cast<uint64_t>(
                  sys.config().hostRoundTripCycles - 1));
}

TEST(HostTest, UcrSnapshotIsolatesRunningKernel)
{
    // A UcrWrite for the *next* kernel must not corrupt the running
    // kernel's parameters: the cluster snapshots UCRs at launch.
    ImagineSystem sys(MachineConfig::devBoard());
    uint16_t k = sys.registerKernel(addParamKernel());
    const uint32_t n = 2048;    // long kernel so the write lands mid-run
    sys.memory().writeWords(0, std::vector<Word>(n, 100));
    auto b = sys.newProgram();
    uint32_t s0 = b.alloc(n), s1 = b.alloc(n), s2 = b.alloc(n);
    b.load(b.marStride(0), b.sdr(s0, n));
    b.ucr(3, 1);
    b.kernel(k, {b.sdr(s0, n)}, {b.sdr(s1, n)});
    b.ucr(3, 50);
    b.kernel(k, {b.sdr(s1, n)}, {b.sdr(s2, n)});
    b.store(b.marStride(50000), b.sdr(s2, n));
    StreamProgram prog = b.take();
    sys.run(prog);
    // 100 + 1 + 50, never 100 + 50 + 50 or 100 + 1 + 1.
    EXPECT_EQ(sys.memory().readWord(50000), 151u);
}

TEST(HostTest, ScalarResultsFlowBetweenKernelsWithoutHostReads)
{
    // Kernel A writes a UCR result; kernel B consumes it - purely via
    // the stream controller's copy-back, no RegRead involved.
    ImagineSystem sys(MachineConfig::devBoard());
    KernelBuilder kb("maxout");
    int si = kb.addInput();
    kb.addOutput();
    kb.beginLoop();
    Val acc = kb.accum(kb.immI(0));
    kb.accumSet(acc, kb.imax(acc, kb.read(si)));
    kb.endLoop();
    Val m = acc;
    for (int hop = 1; hop < numClusters; hop <<= 1)
        m = kb.imax(m, kb.comm(m, kb.ixor(kb.cid(), kb.immI(hop))));
    kb.write(0, m);
    kb.ucrOut(3, m);
    uint16_t kmax = sys.registerKernel(kb.finish());
    uint16_t kadd = sys.registerKernel(addParamKernel());

    const uint32_t n = 128;
    std::vector<Word> in(n);
    for (uint32_t i = 0; i < n; ++i)
        in[i] = i;
    sys.memory().writeWords(0, in);
    auto b = sys.newProgram();
    uint32_t s0 = b.alloc(n), s1 = b.alloc(numClusters),
             s2 = b.alloc(n);
    b.load(b.marStride(0), b.sdr(s0, n));
    b.kernel(kmax, {b.sdr(s0, n)}, {b.sdr(s1, numClusters)});
    b.kernel(kadd, {b.sdr(s0, n)}, {b.sdr(s2, n)});
    b.store(b.marStride(9000), b.sdr(s2, n));
    StreamProgram prog = b.take();
    RunResult r = sys.run(prog);
    EXPECT_EQ(sys.memory().readWord(9000), 0u + (n - 1));
    EXPECT_EQ(r.host.dependencyStallCycles, 0u);
}

namespace
{

/** Clusters-idle cycles of one run, indexed by IdleCause. */
using IdleVector = std::array<uint64_t, 5>;

IdleVector
idleOf(const RunResult &r)
{
    IdleVector v;
    std::copy(std::begin(r.idleCycles), std::end(r.idleCycles), v.begin());
    return v;
}

/** Largest clusters-idle cause of @p v (IdleCause::None excluded). */
IdleCause
dominantIdle(const IdleVector &v)
{
    size_t best = 1;
    for (size_t i = 2; i < v.size(); ++i)
        if (v[i] > v[best])
            best = i;
    return static_cast<IdleCause>(best);
}

} // namespace

TEST(HostTest, IdleCausePriorities)
{
    // One small program per idle cause, each built so that its cause
    // dominates the clusters-idle time.  The exact per-cause vectors
    // pin the paper's earliest-in-the-list attribution rule.
    //
    // Microcode load (highest priority in the rule): a store that holds
    // one of two kernels thrashes on every launch.
    {
        MachineConfig cfg = MachineConfig::devBoard();
        cfg.ucodeStoreInstrs = 24;
        ImagineSystem sys(cfg);
        uint16_t k1 = sys.registerKernel(kernels::peakFlops());
        uint16_t k2 = sys.registerKernel(kernels::peakOps());
        const uint32_t n = 512;
        sys.memory().writeWords(0, std::vector<Word>(n, floatToWord(1)));
        auto b = sys.newProgram();
        uint32_t s0 = b.alloc(n), s1 = b.alloc(n);
        b.load(b.marStride(0), b.sdr(s0, n));
        for (int i = 0; i < 6; ++i) {
            b.kernel(k1, {b.sdr(s0, n)}, {b.sdr(s1, n)});
            b.kernel(k2, {b.sdr(s0, n)}, {b.sdr(s1, n)});
        }
        StreamProgram prog = b.take();
        RunResult r = sys.run(prog);
        EXPECT_GT(r.breakdown.ucodeStall, 0u);
        EXPECT_GT(r.sc.ucodeLoadsIssued, 2u);   // thrashing
        EXPECT_EQ(dominantIdle(idleOf(r)), IdleCause::UcodeLoad);
        EXPECT_EQ(idleOf(r), (IdleVector{0, 2315, 376, 336, 296}));
    }
    // Memory: each short kernel waits on a long strided load, and the
    // trailing stores run with no kernel left in the scoreboard.
    {
        ImagineSystem sys(MachineConfig::devBoard());
        uint16_t k = sys.registerKernel(copyKernel());
        const uint32_t n = 4096;
        sys.memory().writeWords(0, std::vector<Word>(4 * n, 3));
        auto b = sys.newProgram();
        for (uint32_t i = 0; i < 4; ++i) {
            uint32_t in = b.alloc(n), out = b.alloc(n);
            b.load(b.marStride(i * n), b.sdr(in, n));
            b.kernel(k, {b.sdr(in, n)}, {b.sdr(out, n)});
            b.store(b.marStride(100000 + i * n), b.sdr(out, n));
        }
        StreamProgram prog = b.take();
        RunResult r = sys.run(prog);
        EXPECT_EQ(dominantIdle(idleOf(r)), IdleCause::Memory);
        EXPECT_EQ(idleOf(r), (IdleVector{0, 328, 19632, 28, 296}));
    }
    // Stream-controller overhead: a fast host keeps the scoreboard full
    // of tiny kernels, and a long issue stage sits between each pair.
    {
        MachineConfig cfg = MachineConfig::devBoard();
        cfg.hostMips = 100.0;
        cfg.scIssueOverhead = 400;
        ImagineSystem sys(cfg);
        uint16_t k = sys.registerKernel(copyKernel());
        const uint32_t n = 64;
        sys.memory().writeWords(0, std::vector<Word>(n, 5));
        auto b = sys.newProgram();
        uint32_t s0 = b.alloc(n), s1 = b.alloc(n);
        b.load(b.marStride(0), b.sdr(s0, n));
        for (int i = 0; i < 16; ++i) {
            b.kernel(k, {b.sdr(s0, n)}, {b.sdr(s1, n)});
            std::swap(s0, s1);
        }
        StreamProgram prog = b.take();
        RunResult r = sys.run(prog);
        EXPECT_EQ(dominantIdle(idleOf(r)), IdleCause::ScOverhead);
        EXPECT_EQ(idleOf(r), (IdleVector{0, 156, 1266, 6656, 352}));
    }
    // Host: a slow host interface trickles register writes and tiny
    // kernels into an otherwise empty scoreboard.
    {
        MachineConfig cfg = MachineConfig::devBoard();
        cfg.hostMips = 0.25;
        ImagineSystem sys(cfg);
        uint16_t k = sys.registerKernel(addParamKernel());
        const uint32_t n = 64;
        sys.memory().writeWords(0, std::vector<Word>(n, 7));
        auto b = sys.newProgram();
        uint32_t s0 = b.alloc(n), s1 = b.alloc(n);
        b.load(b.marStride(0), b.sdr(s0, n));
        for (int i = 0; i < 8; ++i) {
            b.ucr(3, static_cast<Word>(i));
            b.kernel(k, {b.sdr(s0, n)}, {b.sdr(s1, n)});
            std::swap(s0, s1);
        }
        StreamProgram prog = b.take();
        RunResult r = sys.run(prog);
        EXPECT_EQ(dominantIdle(idleOf(r)), IdleCause::Host);
        EXPECT_EQ(idleOf(r), (IdleVector{0, 174, 82, 224, 15324}));
    }
}

TEST(HostTest, HostSideRetireWakesAWaitingSlot)
{
    // A scoreboard slot waiting on a later host-side instruction: the
    // host enqueues the Sync, then retires the RegRead it depends on
    // without the scoreboard seeing any other event.  That retirement
    // alone must make the Sync issue, in both engine modes.
    for (bool ed : {true, false}) {
        MachineConfig cfg = MachineConfig::devBoard();
        cfg.eventDriven = ed;
        cfg.watchdogStagnationCycles = 10'000;
        ImagineSystem sys(cfg);
        StreamProgram prog;
        StreamInstr wait;
        wait.kind = StreamOpKind::Sync;
        wait.deps = {1};
        StreamInstr read;
        read.kind = StreamOpKind::RegRead;
        prog.instrs = {wait, read};
        RunResult r = sys.run(prog);
        EXPECT_EQ(r.sc.instrsRetired, 2u) << "eventDriven=" << ed;
        EXPECT_EQ(r.cycles, 210u) << "eventDriven=" << ed;
    }
}

TEST(HostTest, MicrocodeEvictionIsLru)
{
    // Three kernels, store fits two: a repeating A,B,A,B pattern keeps
    // both resident (C never runs), so loads happen once per kernel.
    MachineConfig cfg = MachineConfig::devBoard();
    ImagineSystem sys(cfg);
    uint16_t a = sys.registerKernel(copyKernel("ka"));
    uint16_t bk = sys.registerKernel(copyKernel("kb"));
    const uint32_t n = 128;
    sys.memory().writeWords(0, std::vector<Word>(n, 1));
    auto b = sys.newProgram();
    uint32_t s0 = b.alloc(n), s1 = b.alloc(n);
    b.load(b.marStride(0), b.sdr(s0, n));
    for (int i = 0; i < 8; ++i) {
        b.kernel(a, {b.sdr(s0, n)}, {b.sdr(s1, n)});
        b.kernel(bk, {b.sdr(s1, n)}, {b.sdr(s0, n)});
    }
    StreamProgram prog = b.take();
    RunResult r = sys.run(prog);
    EXPECT_EQ(r.sc.ucodeLoadsIssued, 2u);
}

TEST(HostTest, IssueOverheadAccrues)
{
    // With an empty kernel workload, register writes attribute their
    // time to host transfer (the SC issue pipeline overlaps it).
    ImagineSystem sys(MachineConfig::devBoard());
    auto b = sys.newProgram();
    for (int i = 0; i < 100; ++i)
        b.ucr(0, static_cast<Word>(i));
    StreamProgram prog = b.take();
    RunResult r = sys.run(prog);
    EXPECT_EQ(r.breakdown.kernelTime(), 0u);
    EXPECT_EQ(r.breakdown.total(), r.cycles);
}
