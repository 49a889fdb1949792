/**
 * @file
 * Edge-case tests for the cluster engine: DSQ occupancy timing,
 * scratchpad persistence across kernels, epilogue stream stalls,
 * single-iteration kernels, deep software-pipeline value lifetimes,
 * and failure-injection (wedged kernels must be diagnosed, not hang).
 */

#include <gtest/gtest.h>

#include "sim_test_util.hh"

#include "sim/rng.hh"

using namespace imagine;
using namespace imagine::kernelc;
using imagine::testutil::ClusterRig;

TEST(ClusterEdgeTest, DsqSerializesThroughput)
{
    // Two divides per iteration: II >= 2 x occupancy; verify cycles.
    KernelBuilder kb("twodiv");
    int s = kb.addInput();
    int o = kb.addOutput();
    kb.beginLoop();
    Val v = kb.read(s);
    Val a = kb.fdiv(kb.immF(1.0f), v);
    Val b = kb.fdiv(kb.immF(2.0f), v);
    kb.write(o, kb.fadd(a, b));
    kb.endLoop();
    MachineConfig cfg;
    CompiledKernel k = compile(kb.finish(), cfg);
    EXPECT_GE(k.loop.ii, 2 * cfg.dsqOccupancy);

    ClusterRig rig(cfg);
    const uint32_t trip = 16;
    std::vector<Word> in(trip * numClusters, floatToWord(4.0f));
    auto out = rig.run(k, {in});
    for (Word w : out[0])
        EXPECT_FLOAT_EQ(wordToFloat(w), 0.25f + 0.5f);
    EXPECT_GE(rig.cycles, static_cast<uint64_t>(trip) * k.loop.ii);
}

TEST(ClusterEdgeTest, ScratchpadPersistsAcrossKernels)
{
    // Kernel A writes per-lane state into the scratchpad; kernel B
    // (a different kernel) reads it back later.
    MachineConfig cfg;
    KernelBuilder ka("spwriter");
    int sa = ka.addInput();
    int oa = ka.addOutput();
    ka.beginLoop();
    Val v = ka.read(sa);
    ka.spWrite(ka.iand(ka.iterIdx(), ka.immI(31)), v);
    ka.write(oa, v);
    ka.endLoop();
    CompiledKernel kwrite = compile(ka.finish(), cfg);

    KernelBuilder kb("spreader");
    int sb = kb.addInput();
    int ob = kb.addOutput();
    kb.beginLoop();
    kb.read(sb);
    kb.write(ob, kb.spRead(kb.iand(kb.iterIdx(), kb.immI(31))));
    kb.endLoop();
    CompiledKernel kread = compile(kb.finish(), cfg);

    ClusterRig rig(cfg);
    const uint32_t trip = 32;
    std::vector<Word> in(trip * numClusters);
    for (uint32_t i = 0; i < in.size(); ++i)
        in[i] = i * 3 + 1;
    rig.run(kwrite, {in});
    std::vector<Word> dummy(trip * numClusters, 0);
    auto out = rig.run(kread, {dummy});
    EXPECT_EQ(out[0], in);
}

TEST(ClusterEdgeTest, SingleIterationKernel)
{
    KernelBuilder kb("tiny");
    int s = kb.addInput();
    int o = kb.addOutput();
    kb.beginLoop();
    kb.write(o, kb.iadd(kb.read(s), kb.immI(5)));
    kb.endLoop();
    MachineConfig cfg;
    CompiledKernel k = compile(kb.finish(), cfg);
    ClusterRig rig(cfg);
    std::vector<Word> in(numClusters);     // exactly one SIMD iteration
    for (uint32_t i = 0; i < in.size(); ++i)
        in[i] = i;
    auto out = rig.run(k, {in});
    for (uint32_t i = 0; i < in.size(); ++i)
        EXPECT_EQ(out[0][i], i + 5);
}

TEST(ClusterEdgeTest, DeepPipelineLongLifetimes)
{
    // A long dependent chain makes the schedule span many stages; the
    // per-node value windows must still deliver exact results.
    KernelBuilder kb("deep");
    int s = kb.addInput();
    int o = kb.addOutput();
    kb.beginLoop();
    Val v = kb.read(s);
    Val x = v;
    for (int i = 0; i < 24; ++i)
        x = kb.iadd(x, v);      // serial chain: length 48 cycles
    kb.write(o, x);
    kb.endLoop();
    MachineConfig cfg;
    CompiledKernel k = compile(kb.finish(), cfg);
    EXPECT_GE(k.loop.stages(), 3);  // genuinely overlapped iterations

    ClusterRig rig(cfg);
    const uint32_t trip = 64;
    std::vector<Word> in(trip * numClusters);
    for (uint32_t i = 0; i < in.size(); ++i)
        in[i] = i + 1;
    auto out = rig.run(k, {in});
    for (uint32_t i = 0; i < in.size(); ++i)
        EXPECT_EQ(out[0][i], 25 * (i + 1));
}

TEST(ClusterEdgeTest, EpilogueOutputStallsAreSafe)
{
    // An epilogue that writes while the SRF is still draining loop
    // output must stall, not corrupt; verify with a tiny SRF bandwidth.
    MachineConfig cfg;
    cfg.srfBandwidthWordsPerCycle = 2;
    KernelBuilder kb("epiwrite");
    int s = kb.addInput();
    kb.addOutput();
    kb.beginLoop();
    Val acc = kb.accum(kb.immI(0));
    Val v = kb.read(s);
    kb.accumSet(acc, kb.iadd(acc, v));
    kb.write(0, v);
    kb.endLoop();
    kb.write(0, acc);   // appended after the loop data
    CompiledKernel k = compile(kb.finish(), cfg);

    ClusterRig rig(cfg);
    const uint32_t trip = 32;
    std::vector<Word> in(trip * numClusters, 2);
    auto out = rig.run(k, {in});
    ASSERT_EQ(out[0].size(), in.size() + numClusters);
    for (uint32_t i = 0; i < in.size(); ++i)
        EXPECT_EQ(out[0][i], 2u);
    for (int lane = 0; lane < numClusters; ++lane)
        EXPECT_EQ(out[0][in.size() + static_cast<size_t>(lane)],
                  2u * trip);
}

TEST(ClusterEdgeTest, WedgedKernelIsDiagnosed)
{
    // Failure injection: bind an input stream shorter than the kernel
    // expects...  the length check catches it at launch.
    MachineConfig cfg;
    KernelBuilder kb("wedge");
    int s0 = kb.addInput();
    int s1 = kb.addInput();
    int o = kb.addOutput();
    kb.beginLoop();
    kb.write(o, kb.iadd(kb.read(s0), kb.read(s1)));
    kb.endLoop();
    CompiledKernel k = compile(kb.finish(), cfg);

    Srf srf(cfg);
    KernelRegistry kernels{k};
    ClusterArray ca(cfg, srf, kernels);
    std::vector<ClusterArray::Binding> ins, outs;
    ins.push_back({srf.openIn({0, 64}), 64});
    ins.push_back({srf.openIn({64, 32}), 32});      // mismatched length
    outs.push_back({srf.openOut({128, 64}), 64});
    EXPECT_THROW(ca.start(0, ins, outs), std::logic_error);
}

TEST(ClusterEdgeTest, ZeroTripLaunchRunsToDone)
{
    // A zero-length input stream means zero loop iterations.  The
    // launch is legal (the loop degenerates to one empty issue cycle,
    // prologue and epilogue are skipped) and must retire cleanly with
    // nothing produced.
    MachineConfig cfg;
    KernelBuilder kb("zerotrip");
    int s = kb.addInput();
    int o = kb.addOutput();
    kb.beginLoop();
    kb.write(o, kb.read(s));
    kb.endLoop();
    CompiledKernel k = compile(kb.finish(), cfg);
    Srf srf(cfg);
    KernelRegistry kernels{k};
    ClusterArray ca(cfg, srf, kernels);
    int outClient = srf.openOut({64, 0});
    std::vector<ClusterArray::Binding> ins{{srf.openIn({0, 0}), 0}};
    std::vector<ClusterArray::Binding> outs{{outClient, 0}};
    EXPECT_NO_THROW(ca.start(0, ins, outs));
    for (int i = 0; i < 10000 && !ca.done(); ++i) {
        ca.tick();
        srf.tick();
    }
    ASSERT_TRUE(ca.done());
    ca.retire();
    EXPECT_EQ(srf.close(outClient), 0u);
    EXPECT_EQ(ca.stats().loopCycles, 1u);
    EXPECT_EQ(ca.stats().prologueCycles, 0u);
    EXPECT_EQ(ca.stats().epilogueCycles, 0u);
}

TEST(ClusterEdgeTest, CommBroadcastUniformAcrossTrip)
{
    // Regression: COMM reads must use the same iteration's values on
    // every lane even under deep pipelining.
    KernelBuilder kb("commiter");
    int s = kb.addInput();
    int o = kb.addOutput();
    kb.beginLoop();
    Val v = kb.read(s);
    // Rotate twice: lane l sees lane (l+2)'s value.
    Val r1 = kb.comm(v, kb.iand(kb.iadd(kb.cid(), kb.immI(1)),
                                kb.immI(7)));
    Val r2 = kb.comm(r1, kb.iand(kb.iadd(kb.cid(), kb.immI(1)),
                                 kb.immI(7)));
    kb.write(o, r2);
    kb.endLoop();
    MachineConfig cfg;
    CompiledKernel k = compile(kb.finish(), cfg);
    ClusterRig rig(cfg);
    const uint32_t trip = 40;
    std::vector<Word> in(trip * numClusters);
    for (uint32_t i = 0; i < in.size(); ++i)
        in[i] = i;
    auto out = rig.run(k, {in});
    for (uint32_t it = 0; it < trip; ++it)
        for (int lane = 0; lane < numClusters; ++lane)
            EXPECT_EQ(out[0][it * numClusters + lane],
                      in[it * numClusters + ((lane + 2) % numClusters)]);
}
