/**
 * @file
 * SimError / HangReport coverage: golden-pinned structured report
 * fields for a deterministic deadlock, HangReport serialization
 * round-trip, and the crash-snapshot path (an erroring run with
 * checkpointPath set leaves a FILE.crash whose "report" section
 * reproduces the SimError and its HangReport).
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <optional>
#include <string>

#include "ckpt/serializer.hh"
#include "core/system.hh"

using namespace imagine;

namespace fs = std::filesystem;

namespace
{

/** A two-instruction program whose deps form a cycle: neither can issue. */
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

/** Field-by-field HangReport equality (no operator== on the struct). */
void
expectReportsEqual(const HangReport &a, const HangReport &b)
{
    EXPECT_EQ(a.cycle, b.cycle);
    EXPECT_EQ(a.lastProgressCycle, b.lastProgressCycle);
    EXPECT_EQ(a.cycleLimit, b.cycleLimit);
    EXPECT_EQ(a.instrsRetired, b.instrsRetired);
    ASSERT_EQ(a.slots.size(), b.slots.size());
    for (size_t i = 0; i < a.slots.size(); ++i) {
        EXPECT_EQ(a.slots[i].idx, b.slots[i].idx);
        EXPECT_EQ(a.slots[i].label, b.slots[i].label);
        EXPECT_EQ(a.slots[i].kind, b.slots[i].kind);
        EXPECT_EQ(a.slots[i].state, b.slots[i].state);
        EXPECT_EQ(a.slots[i].waitingOn, b.slots[i].waitingOn);
        EXPECT_EQ(a.slots[i].ag, b.slots[i].ag);
        EXPECT_EQ(a.slots[i].retries, b.slots[i].retries);
    }
    EXPECT_EQ(a.depCycle, b.depCycle);
    ASSERT_EQ(a.ags.size(), b.ags.size());
    for (size_t i = 0; i < a.ags.size(); ++i) {
        EXPECT_EQ(a.ags[i].ag, b.ags[i].ag);
        EXPECT_EQ(a.ags[i].active, b.ags[i].active);
        EXPECT_EQ(a.ags[i].isLoad, b.ags[i].isLoad);
        EXPECT_EQ(a.ags[i].sink, b.ags[i].sink);
        EXPECT_EQ(a.ags[i].completed, b.ags[i].completed);
        EXPECT_EQ(a.ags[i].length, b.ags[i].length);
    }
    EXPECT_EQ(a.queuedDramRequests, b.queuedDramRequests);
    EXPECT_EQ(a.hostNext, b.hostNext);
    EXPECT_EQ(a.hostFinished, b.hostFinished);
    EXPECT_EQ(a.hostBlockedUntil, b.hostBlockedUntil);
    EXPECT_EQ(a.clustersBusy, b.clustersBusy);
    EXPECT_EQ(a.clusterKernelCycles, b.clusterKernelCycles);
    EXPECT_EQ(a.describe(), b.describe());
}

} // namespace

TEST(ErrorReportTest, GoldenHangReportFields)
{
    MachineConfig cfg = MachineConfig::devBoard();
    cfg.watchdogStagnationCycles = 10'000;
    ImagineSystem sys(cfg);
    StreamProgram prog = deadlockProgram();
    try {
        sys.run(prog);
        FAIL() << "deadlocked program did not trip the watchdog";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), SimErrorKind::Hang);
        EXPECT_STREQ(simErrorKindName(e.kind()), "hang");
        ASSERT_NE(e.hangReport(), nullptr);
        const HangReport &hr = *e.hangReport();
        // Pinned structure: the watchdog fired exactly at the
        // stagnation bound, both instructions are stuck waiting on
        // each other, the dependency-cycle finder names both, the host
        // already dispatched the whole program, and no memory traffic
        // is in flight.
        EXPECT_EQ(hr.cycle - hr.lastProgressCycle, 10'000u);
        EXPECT_EQ(hr.cycleLimit, 0u);
        ASSERT_EQ(hr.slots.size(), 2u);
        EXPECT_EQ(hr.slots[0].label, "first");
        EXPECT_EQ(hr.slots[1].label, "second");
        for (const HangReport::SlotInfo &s : hr.slots) {
            EXPECT_EQ(s.kind, "Sync");
            EXPECT_EQ(s.state, "Waiting");
            ASSERT_EQ(s.waitingOn.size(), 1u);
            EXPECT_EQ(s.waitingOn[0], s.idx == 0 ? 1u : 0u);
            EXPECT_EQ(s.ag, -1);
            EXPECT_EQ(s.retries, 0);
        }
        EXPECT_EQ(hr.depCycle.size(), 2u);
        EXPECT_EQ(hr.hostNext, 2u);
        EXPECT_TRUE(hr.hostFinished);
        EXPECT_FALSE(hr.clustersBusy);
        EXPECT_EQ(hr.queuedDramRequests, 0u);
        // The message embeds the structured dump.
        std::string what = e.what();
        EXPECT_NE(what.find("no forward progress"), std::string::npos);
        EXPECT_NE(what.find("dependency cycle"), std::string::npos);
    }
}

TEST(ErrorReportTest, HangReportSerializationRoundTrip)
{
    HangReport hr;
    hr.cycle = 123'456;
    hr.lastProgressCycle = 113'456;
    hr.cycleLimit = 1ull << 33;
    hr.instrsRetired = 42;
    HangReport::SlotInfo s0;
    s0.idx = 3;
    s0.label = "gather rows";
    s0.kind = "MemLoad";
    s0.state = "Issued";
    s0.waitingOn = {1, 2};
    s0.ag = 1;
    s0.retries = 2;
    HangReport::SlotInfo s1;
    s1.idx = 4;
    s1.kind = "KernelExec";
    s1.state = "Waiting";
    hr.slots = {s0, s1};
    hr.depCycle = {3, 4};
    HangReport::AgInfo ag;
    ag.ag = 1;
    ag.active = true;
    ag.isLoad = true;
    ag.completed = 17;
    ag.length = 64;
    hr.ags = {ag};
    hr.queuedDramRequests = 9;
    hr.hostNext = 5;
    hr.hostBlockedUntil = 120'000;
    hr.clustersBusy = true;
    hr.clusterKernelCycles = 777;

    ckpt::Serializer s;
    ckpt::Archive out(s);
    out.section("report");
    HangReport written = hr;
    written.state(out);
    ckpt::Deserializer d(s.finish());
    ckpt::Archive in(d);
    in.section("report");
    HangReport back;
    back.state(in);
    expectReportsEqual(hr, back);
}

TEST(ErrorReportTest, CrashSnapshotCarriesTheError)
{
    fs::path dir = fs::temp_directory_path() / "imagine_error_crash";
    fs::create_directories(dir);
    std::string path = (dir / "run.ckpt").string();

    MachineConfig cfg = MachineConfig::devBoard();
    cfg.watchdogStagnationCycles = 10'000;
    cfg.checkpointPath = path;
    ImagineSystem sys(cfg);
    StreamProgram prog = deadlockProgram();
    // Copying the error out of the catch block keeps its HangReport
    // alive (carried by shared_ptr) - the same property runSettled()
    // and the crash-snapshot writer rely on.
    std::optional<SimError> caught;
    try {
        sys.run(prog);
        FAIL() << "deadlocked program did not trip the watchdog";
    } catch (const SimError &e) {
        caught.emplace(e);
    }
    ASSERT_TRUE(caught.has_value());
    ASSERT_NE(caught->hangReport(), nullptr);

    std::string crash = path + ".crash";
    ASSERT_TRUE(fs::exists(crash));
    ckpt::Deserializer d = ckpt::Deserializer::fromFile(crash);
    ASSERT_TRUE(d.hasSection("report"));
    d.section("report");
    EXPECT_EQ(static_cast<SimErrorKind>(d.u8()), SimErrorKind::Hang);
    EXPECT_EQ(d.str(), caught->what());
    ASSERT_TRUE(d.b());
    HangReport back;
    ckpt::Archive in(d);
    back.state(in);
    expectReportsEqual(*caught->hangReport(), back);

    // The crash file is also a regular checkpoint: all the
    // architectural sections are present for post-mortem tooling.
    for (const char *sec : {"meta", "run", "host", "sc", "cluster",
                            "mem", "srf", "faults"})
        EXPECT_TRUE(d.hasSection(sec)) << sec;

    std::error_code ec;
    fs::remove_all(dir, ec);
}
