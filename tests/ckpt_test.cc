/**
 * @file
 * Checkpoint/restore tests.
 *
 * The load-bearing property is the differential: for every app, across
 * machine shapes, engine modes and chaos seeds, (a) a run that writes
 * periodic checkpoints produces a RunResult byte-identical to a
 * straight run, and (b) a fresh session restored from a mid-run
 * snapshot finishes with the same byte-identical RunResult - including
 * runs that end in a SimError, which must re-raise the same kind and
 * message.  Plus: serializer primitives round-trip, version-skewed
 * images and mismatched restores are rejected, corrupted snapshots fail
 * as SimError (never a signal or a foreign exception), and the bisect
 * search pinpoints an injected fault's divergence interval
 * deterministically (cross-checked against a linear scan).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "apps/apps.hh"
#include "ckpt/bisect.hh"
#include "ckpt/serializer.hh"
#include "sim/rng.hh"
#include "sim/runner.hh"

using namespace imagine;
using namespace imagine::apps;

namespace fs = std::filesystem;

namespace
{

constexpr int kSeedsPerApp = 24;

/**
 * Machine shape, engine mode and fault plan for one differential seed:
 * three shapes (dev board, isim, and the sweep list's two-channel dev
 * board), both eventDriven engine modes, chaos-style faults with the
 * ECC mode cycled.
 */
MachineConfig
shapeFor(int seed)
{
    MachineConfig cfg;
    switch (seed % 3) {
      case 0:
        cfg = MachineConfig::devBoard();
        break;
      case 1:
        cfg = MachineConfig::isim();
        break;
      default:
        cfg = MachineConfig::devBoard();
        cfg.numChannels = 2;
        break;
    }
    cfg.eventDriven = (seed % 4) < 2;
    cfg.faults.enabled = true;
    cfg.faults.seed = 0x5eed7ull * 1000 + static_cast<uint64_t>(seed);
    cfg.faults.srfFlipRate = 1e-4;
    cfg.faults.dramFlipRate = 1e-4;
    cfg.faults.ucodeCorruptRate = 0.02;
    cfg.faults.stuckSlotRate = 1e-3;
    cfg.faults.agStallRate = 1e-3;
    cfg.faults.agStallBurstCycles = 32;
    cfg.faults.maxRetries = 3;
    cfg.faults.srfEcc =
        seed % 3 == 0 ? EccMode::Secded
                      : (seed % 3 == 1 ? EccMode::Parity : EccMode::None);
    cfg.faults.memEcc = cfg.faults.srfEcc;
    cfg.watchdogStagnationCycles = 200'000;
    return cfg;
}

/** Data-only job outcome (gtest asserts are not thread-safe). */
struct DiffOutcome
{
    bool ok = true;
    std::string msg;
};

/** How one run ended: its JSON on success, the error otherwise. */
struct RunEnd
{
    bool errored = false;
    SimErrorKind kind = SimErrorKind::Hang;
    std::string what;
    std::string json;
};

template <typename RunApp>
RunEnd
endOf(const RunApp &runApp, ImagineSystem &sys)
{
    RunEnd e;
    try {
        e.json = runApp(sys).run.toJson();
    } catch (const SimError &err) {
        e.errored = true;
        e.kind = err.kind();
        e.what = err.what();
    }
    return e;
}

/** Straight run vs checkpointing run vs restored run, one seed. */
template <typename RunApp>
DiffOutcome
diffRun(const char *app, const RunApp &runApp, int seed)
{
    auto fail = [&](const std::string &why) {
        return DiffOutcome{false, std::string(app) + " seed " +
                                      std::to_string(seed) + ": " + why};
    };
    fs::path dir = fs::temp_directory_path() /
                   ("imagine_ckpt_" + std::string(app) + "_" +
                    std::to_string(seed));
    fs::create_directories(dir);

    // A: the reference run, no checkpoint machinery at all.
    RunEnd a;
    uint64_t endCycles = 0;
    {
        ImagineSystem sys(shapeFor(seed));
        a = endOf(runApp, sys);
        endCycles = sys.now();
    }
    uint64_t k = endCycles / 5;
    if (k == 0)
        k = 50'000;

    // B: identical run but snapshotting every k cycles, each boundary
    // archived through the checkpoint hook.
    std::vector<std::string> snaps;
    {
        MachineConfig cfg = shapeFor(seed);
        cfg.checkpointEveryCycles = k;
        cfg.checkpointPath = (dir / "b.ckpt").string();
        ImagineSystem sys(cfg);
        sys.setCheckpointHook([&](Cycle, const std::string &p) {
            std::string dst =
                (dir / ("snap." + std::to_string(snaps.size()) + ".ckpt"))
                    .string();
            fs::rename(p, dst);
            snaps.push_back(dst);
        });
        RunEnd b = endOf(runApp, sys);
        if (b.errored != a.errored)
            return fail("checkpointing changed the outcome");
        if (a.errored && (b.kind != a.kind || b.what != a.what))
            return fail("checkpointing changed the error");
        if (!a.errored && b.json != a.json)
            return fail("checkpointing perturbed the RunResult");
        if (a.errored && !fs::exists(cfg.checkpointPath + ".crash"))
            return fail("errored run left no crash snapshot");
    }

    // C: fresh session restored from a mid-run snapshot must converge
    // to the same end state.
    if (!snaps.empty()) {
        MachineConfig cfg = shapeFor(seed);
        cfg.restorePath = snaps[snaps.size() / 2];
        ImagineSystem sys(cfg);
        RunEnd c = endOf(runApp, sys);
        if (c.errored != a.errored)
            return fail("restore changed the outcome");
        if (a.errored && (c.kind != a.kind || c.what != a.what))
            return fail("restore changed the error");
        if (!a.errored && c.json != a.json)
            return fail("restored run diverged from the straight run");
    }

    std::error_code ec;
    fs::remove_all(dir, ec);
    return {};
}

template <typename RunApp>
void
differential(const char *app, const RunApp &runApp)
{
    SimBatch batch;
    std::vector<Settled<DiffOutcome>> settled = batch.runSettled(
        kSeedsPerApp, [&](int i) { return diffRun(app, runApp, i); });
    ASSERT_EQ(batch.failures(), 0u) << app;
    for (int i = 0; i < kSeedsPerApp; ++i) {
        const DiffOutcome &o = *settled[static_cast<size_t>(i)].value;
        EXPECT_TRUE(o.ok) << o.msg;
    }
}

} // namespace

TEST(CkptTest, SerializerPrimitivesRoundTrip)
{
    ckpt::Serializer s;
    s.section("alpha");
    s.u8(0xab);
    s.u16(0xcdef);
    s.u32(0x12345678u);
    s.u64(0x1122334455667788ull);
    s.i32(-42);
    s.i64(-1'000'000'000'000ll);
    s.b(true);
    s.f64(3.14159);
    s.str("imagine");
    std::vector<uint32_t> v = {1, 2, 3, 5, 8};
    s.vec(v);
    s.section("beta");
    s.u32(7);

    ckpt::Deserializer d(s.finish());
    EXPECT_EQ(d.version(), ckpt::kVersion);
    EXPECT_TRUE(d.hasSection("alpha"));
    EXPECT_TRUE(d.hasSection("beta"));
    EXPECT_FALSE(d.hasSection("gamma"));
    // Out-of-order access: sections are random-access by name.
    d.section("beta");
    EXPECT_EQ(d.u32(), 7u);
    d.section("alpha");
    EXPECT_EQ(d.u8(), 0xab);
    EXPECT_EQ(d.u16(), 0xcdef);
    EXPECT_EQ(d.u32(), 0x12345678u);
    EXPECT_EQ(d.u64(), 0x1122334455667788ull);
    EXPECT_EQ(d.i32(), -42);
    EXPECT_EQ(d.i64(), -1'000'000'000'000ll);
    EXPECT_TRUE(d.b());
    EXPECT_EQ(d.f64(), 3.14159);
    EXPECT_EQ(d.str(), "imagine");
    EXPECT_EQ(d.vec<uint32_t>(), v);
    // Reading past the section end is a checked failure, not garbage.
    EXPECT_THROW(d.u64(), SimError);
}

TEST(CkptTest, TruncatedOrCorruptImageIsRejected)
{
    ckpt::Serializer s;
    s.section("x");
    s.u64(1);
    std::vector<uint8_t> image = s.finish();

    std::vector<uint8_t> truncated(image.begin(), image.end() - 3);
    EXPECT_THROW(ckpt::Deserializer bad(std::move(truncated)), SimError);

    std::vector<uint8_t> wrongMagic = image;
    wrongMagic[0] ^= 0xff;
    EXPECT_THROW(ckpt::Deserializer bad(std::move(wrongMagic)), SimError);
}

TEST(CkptTest, VersionSkewedImageIsRejected)
{
    // The header's format version follows the magic; any version but
    // kVersion - older or newer - is refused before a section is read.
    ckpt::Serializer s;
    s.section("x");
    s.u64(1);
    const std::vector<uint8_t> image = s.finish();
    EXPECT_NO_THROW(ckpt::Deserializer ok(image));
    for (uint32_t v : {ckpt::kVersion - 1, ckpt::kVersion + 1}) {
        std::vector<uint8_t> skewed = image;
        std::memcpy(skewed.data() + sizeof(ckpt::kMagic), &v, sizeof(v));
        try {
            ckpt::Deserializer bad(std::move(skewed));
            ADD_FAILURE() << "version " << v << " accepted";
        } catch (const SimError &e) {
            EXPECT_EQ(e.kind(), SimErrorKind::Fatal);
            EXPECT_NE(std::string(e.what()).find("format version"),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(CkptTest, MismatchedRestoreIsRejected)
{
    fs::path dir = fs::temp_directory_path() / "imagine_ckpt_mismatch";
    fs::create_directories(dir);
    std::string snap = (dir / "snap.ckpt").string();

    // Snapshot a qrd run on the dev board...
    {
        MachineConfig cfg = MachineConfig::devBoard();
        cfg.checkpointEveryCycles = 5'000;
        cfg.checkpointPath = (dir / "live.ckpt").string();
        ImagineSystem sys(cfg);
        bool got = false;
        sys.setCheckpointHook([&](Cycle, const std::string &p) {
            if (!got)
                fs::rename(p, snap);
            got = true;
        });
        QrdConfig qc;
        qc.rows = 64;
        qc.cols = 16;
        runQrd(sys, qc);
        ASSERT_TRUE(got);
    }
    // ...then try to restore it onto a different machine shape: the
    // config fingerprint must reject it.
    {
        MachineConfig cfg = MachineConfig::isim();
        cfg.restorePath = snap;
        ImagineSystem sys(cfg);
        QrdConfig qc;
        qc.rows = 64;
        qc.cols = 16;
        try {
            runQrd(sys, qc);
            FAIL() << "mismatched restore was not rejected";
        } catch (const SimError &e) {
            EXPECT_EQ(e.kind(), SimErrorKind::Fatal);
            EXPECT_NE(std::string(e.what()).find("fingerprint"),
                      std::string::npos);
        }
    }
    std::error_code ec;
    fs::remove_all(dir, ec);
}

namespace
{

/** toJson() with any trailing ,"trace":... analytics stripped. */
std::string
stripTrace(const std::string &json)
{
    size_t p = json.find(",\"trace\":");
    return p == std::string::npos ? json : json.substr(0, p) + "}";
}

/**
 * Run qrd 64x16 with periodic checkpoints and archive the snapshots;
 * returns the run's JSON and fills @p snaps.
 */
std::string
archiveQrd(MachineConfig cfg, const fs::path &dir, const char *side,
           std::vector<std::string> &snaps)
{
    cfg.checkpointEveryCycles = 5'000;
    cfg.checkpointPath = (dir / (std::string(side) + ".ckpt")).string();
    ImagineSystem sys(cfg);
    sys.setCheckpointHook([&](Cycle, const std::string &p) {
        std::string dst = (dir / (std::string(side) + "." +
                                  std::to_string(snaps.size()) + ".ckpt"))
                              .string();
        fs::copy_file(p, dst, fs::copy_options::overwrite_existing);
        snaps.push_back(dst);
    });
    QrdConfig qc;
    qc.rows = 64;
    qc.cols = 16;
    return runQrd(sys, qc).run.toJson();
}

std::string
restoredQrdJson(MachineConfig cfg, const std::string &snap,
                bool *traced = nullptr)
{
    cfg.restorePath = snap;
    ImagineSystem sys(cfg);
    QrdConfig qc;
    qc.rows = 64;
    qc.cols = 16;
    AppResult r = runQrd(sys, qc);
    if (traced)
        *traced = r.run.trace != nullptr;
    return r.run.toJson();
}

} // namespace

/**
 * PR 6 leftover: restore must honor the *restoring* run's trace knobs.
 * The headline use is fast-forwarding an untraced run to a region of
 * interest, then restoring with cfg.trace on so the ~27% tracer
 * overhead is paid only over the tail.  Before the name-matched stats
 * transfer this panicked with a registry-shape mismatch (74 vs 86
 * stats); this is the regression test for both mismatch directions.
 */
TEST(CkptTest, RestoreHonorsRestoringRunsTraceKnobs)
{
    fs::path dir = fs::temp_directory_path() / "imagine_ckpt_rearm";
    fs::create_directories(dir);

    // Reference: straight untraced run (its JSON is the golden bytes).
    std::string golden;
    {
        ImagineSystem sys(MachineConfig::devBoard());
        QrdConfig qc;
        qc.rows = 64;
        qc.cols = 16;
        golden = runQrd(sys, qc).run.toJson();
    }

    // Untraced checkpointing run -> restore WITH tracing: the restored
    // run must complete, attach trace analytics covering the tail, and
    // agree byte-for-byte with the golden run outside the trace object.
    std::vector<std::string> plainSnaps;
    archiveQrd(MachineConfig::devBoard(), dir, "plain", plainSnaps);
    ASSERT_GE(plainSnaps.size(), 2u);
    {
        MachineConfig cfg = MachineConfig::devBoard();
        cfg.trace = true;
        bool traced = false;
        std::string json = restoredQrdJson(
            cfg, plainSnaps[plainSnaps.size() / 2], &traced);
        EXPECT_TRUE(traced) << "restoring run's trace knob was dropped";
        EXPECT_NE(json.find("\"trace\":"), std::string::npos);
        EXPECT_EQ(stripTrace(json), golden);
    }

    // Traced checkpointing run -> restore WITHOUT tracing: the extra
    // trace.* stats in the file must be dropped by name, yielding the
    // golden bytes exactly.
    {
        MachineConfig cfg = MachineConfig::devBoard();
        cfg.trace = true;
        std::vector<std::string> tracedSnaps;
        archiveQrd(cfg, dir, "traced", tracedSnaps);
        ASSERT_GE(tracedSnaps.size(), 2u);
        std::string json = restoredQrdJson(
            MachineConfig::devBoard(),
            tracedSnaps[tracedSnaps.size() / 2]);
        EXPECT_EQ(json, golden);
    }

    std::error_code ec;
    fs::remove_all(dir, ec);
}

TEST(CkptTest, DifferentialDepth)
{
    differential("depth", [](ImagineSystem &sys) {
        DepthConfig cfg;
        cfg.width = 128;
        cfg.height = 42;
        cfg.disparities = 4;
        return runDepth(sys, cfg);
    });
}

TEST(CkptTest, DifferentialMpeg)
{
    differential("mpeg", [](ImagineSystem &sys) {
        MpegConfig cfg;
        cfg.width = 64;
        cfg.height = 32;
        cfg.frames = 3;
        return runMpeg(sys, cfg);
    });
}

TEST(CkptTest, DifferentialQrd)
{
    differential("qrd", [](ImagineSystem &sys) {
        QrdConfig cfg;
        cfg.rows = 64;
        cfg.cols = 16;
        return runQrd(sys, cfg);
    });
}

TEST(CkptTest, DifferentialRtsl)
{
    differential("rtsl", [](ImagineSystem &sys) {
        RtslConfig cfg;
        cfg.screen = 64;
        cfg.triangles = 256;
        cfg.batch = 64;
        return runRtsl(sys, cfg);
    });
}

/**
 * One session runs DEPTH and then MPEG, whose kernels are registered
 * after DEPTH ran, so the kernel registry grows under the cluster
 * array's per-kernel state.  MPEG's snapshots must still encode that
 * state (this used to read freed registry storage and crash), and a
 * fresh session that replays DEPTH and restores MPEG's last snapshot
 * must finish with the uninterrupted MPEG JSON.
 */
TEST(CkptTest, CheckpointAfterLaterKernelRegistration)
{
    fs::path dir = fs::temp_directory_path() / "imagine_ckpt_two_apps";
    fs::create_directories(dir);
    auto depth = [](ImagineSystem &sys) {
        DepthConfig cfg;
        cfg.width = 128;
        cfg.height = 42;
        cfg.disparities = 4;
        runDepth(sys, cfg);
    };
    auto mpegJson = [](ImagineSystem &sys) {
        MpegConfig cfg;
        cfg.width = 64;
        cfg.height = 32;
        cfg.frames = 3;
        return runMpeg(sys, cfg).run.toJson();
    };

    std::string golden;
    {
        ImagineSystem sys(MachineConfig::devBoard());
        depth(sys);
        golden = mpegJson(sys);
    }

    const std::string last = (dir / "mpeg.ckpt").string();
    {
        MachineConfig cfg = MachineConfig::devBoard();
        cfg.checkpointEveryCycles = 20'000;
        cfg.checkpointPath = (dir / "b.ckpt").string();
        ImagineSystem sys(cfg);
        bool inMpeg = false;
        sys.setCheckpointHook([&](Cycle, const std::string &p) {
            if (inMpeg)
                fs::rename(p, last);
        });
        depth(sys);
        inMpeg = true;
        EXPECT_EQ(mpegJson(sys), golden);
    }
    ASSERT_TRUE(fs::exists(last));
    {
        MachineConfig cfg = MachineConfig::devBoard();
        cfg.restorePath = last;
        ImagineSystem sys(cfg);
        depth(sys);
        EXPECT_EQ(mpegJson(sys), golden);
    }

    std::error_code ec;
    fs::remove_all(dir, ec);
}

TEST(CkptTest, BisectPinpointsInjectedFaultDeterministically)
{
    fs::path dir = fs::temp_directory_path() / "imagine_ckpt_bisect";
    fs::create_directories(dir);
    constexpr uint64_t kEvery = 5'000;

    // Fault plan matching chaos seed 2 (EccMode::None: corruption
    // flows straight into architectural state).
    MachineConfig faulty = MachineConfig::devBoard();
    faulty.faults.enabled = true;
    faulty.faults.seed = 0xc4a05ull * 1000 + 2;
    faulty.faults.srfFlipRate = 1e-4;
    faulty.faults.dramFlipRate = 1e-4;
    faulty.faults.ucodeCorruptRate = 0.05;
    faulty.faults.stuckSlotRate = 1e-3;
    faulty.faults.agStallRate = 1e-3;
    faulty.faults.agStallBurstCycles = 32;
    faulty.faults.maxRetries = 3;
    faulty.faults.srfEcc = EccMode::None;
    faulty.faults.memEcc = EccMode::None;
    faulty.watchdogStagnationCycles = 200'000;
    faulty.checkpointEveryCycles = kEvery;
    MachineConfig clean = faulty;
    clean.faults.enabled = false;

    auto archive = [&](MachineConfig cfg, const char *side) {
        cfg.checkpointPath = (dir / (std::string(side) + ".ckpt")).string();
        std::vector<std::string> snaps;
        ImagineSystem sys(cfg);
        sys.setCheckpointHook([&](Cycle, const std::string &p) {
            std::string dst = (dir / (std::string(side) + "." +
                                      std::to_string(snaps.size()) +
                                      ".ckpt"))
                                  .string();
            fs::rename(p, dst);
            snaps.push_back(dst);
        });
        QrdConfig qc;
        qc.rows = 64;
        qc.cols = 16;
        try {
            runQrd(sys, qc);
        } catch (const SimError &) {
            // A crashing faulty run still leaves its archive.
        }
        return snaps;
    };
    std::vector<std::string> cleanSnaps = archive(clean, "clean");
    std::vector<std::string> faultySnaps = archive(faulty, "faulty");
    ASSERT_FALSE(cleanSnaps.empty());
    ASSERT_FALSE(faultySnaps.empty());

    ckpt::BisectResult r1 =
        ckpt::bisectDivergence(cleanSnaps, faultySnaps, kEvery);
    ckpt::BisectResult r2 =
        ckpt::bisectDivergence(cleanSnaps, faultySnaps, kEvery);
    ASSERT_TRUE(r1.diverged);
    EXPECT_EQ(r1.interval, r2.interval);
    EXPECT_EQ(r1.component, r2.component);
    EXPECT_EQ(r1.cycle, r1.interval * kEvery);
    EXPECT_FALSE(r1.component.empty());

    // Cross-check the binary search against a linear scan: the
    // reported interval must be the FIRST divergent boundary.
    uint64_t n = std::min(cleanSnaps.size(), faultySnaps.size());
    uint64_t first = 0;
    for (uint64_t i = 1; i <= n && first == 0; ++i)
        if (ckpt::compareCheckpoints(cleanSnaps[i - 1],
                                     faultySnaps[i - 1])
                .differ)
            first = i;
    if (first == 0)
        first = faultySnaps.size() + 1;    // diverged by ending early
    EXPECT_EQ(r1.interval, first);

    std::error_code ec;
    fs::remove_all(dir, ec);
}

namespace
{

/** The small DEPTH shape every corruption test snapshots. */
AppResult
smallDepth(ImagineSystem &sys)
{
    DepthConfig cfg;
    cfg.width = 128;
    cfg.height = 42;
    cfg.disparities = 4;
    return runDepth(sys, cfg);
}

/** Reassemble a checkpoint file from (possibly rewritten) sections. */
void
writeSections(const std::vector<ckpt::RawSection> &secs,
              const std::string &path)
{
    ckpt::Serializer s;
    for (const ckpt::RawSection &sec : secs) {
        s.section(sec.name);
        s.bytes(sec.payload.data(), sec.payload.size());
    }
    s.writeFile(path);
}

std::vector<uint8_t> &
payloadOf(std::vector<ckpt::RawSection> &secs, const std::string &name)
{
    for (ckpt::RawSection &sec : secs)
        if (sec.name == name)
            return sec.payload;
    throw std::runtime_error("no section " + name);
}

/** Walks a section payload field by field (host-endian, as written). */
struct Cursor
{
    std::vector<uint8_t> &p;
    size_t at = 0;

    template <typename T>
    T
    get()
    {
        T v;
        std::memcpy(&v, p.data() + at, sizeof(v));
        at += sizeof(v);
        return v;
    }
    template <typename T>
    void
    put(size_t off, T v)
    {
        std::memcpy(p.data() + off, &v, sizeof(v));
    }
    /** Skip a length-prefixed vector of @p elem-byte elements. */
    void skipVec(size_t elem) { at += get<uint64_t>() * elem; }
};

/** Offset of the sc section's done_ vector (after the slot list). */
size_t
scDoneOffset(std::vector<uint8_t> &sc)
{
    Cursor c{sc};
    for (uint64_t i = 0, n = c.get<uint64_t>(); i < n; ++i) {
        c.at += 4 + 1 + 8 + 4 + 4 + 1;     // idx .. inPlace
        c.skipVec(sizeof(int));             // inClients
        c.skipVec(sizeof(int));             // outClients
    }
    return c.at;
}

/** Offset of the first active SRF client's windowWords, or 0. */
size_t
srfActiveWindowWordsOffset(std::vector<uint8_t> &srf)
{
    Cursor c{srf};
    c.skipVec(sizeof(Word));                // data_
    for (uint64_t i = 0, n = c.get<uint64_t>(); i < n; ++i) {
        bool active = c.get<uint8_t>() != 0;
        c.at += 1 + 5 * 4;                  // isIn, offset .. produced
        c.skipVec(1);                       // window
        if (active)
            return c.at;
        c.at += 4 + 1 + 1;                  // windowWords, flags
    }
    return 0;
}

/**
 * Archive DEPTH's periodic snapshots under @p cfg (every 5 000 cycles)
 * and return the first one that has a busy scoreboard slot and an open
 * SRF client, so every component section carries mid-flight state.
 */
std::string
busyDepthSnapshot(MachineConfig cfg, const fs::path &dir)
{
    cfg.checkpointEveryCycles = 5'000;
    cfg.checkpointPath = (dir / "live.ckpt").string();
    std::string found;
    ImagineSystem sys(cfg);
    sys.setCheckpointHook([&](Cycle, const std::string &p) {
        if (!found.empty())
            return;
        std::vector<ckpt::RawSection> secs = ckpt::readSections(p);
        if (Cursor{payloadOf(secs, "sc")}.get<uint64_t>() == 0 ||
            srfActiveWindowWordsOffset(payloadOf(secs, "srf")) == 0)
            return;
        found = (dir / "busy.ckpt").string();
        fs::copy_file(p, found, fs::copy_options::overwrite_existing);
    });
    smallDepth(sys);
    return found;
}

} // namespace

/**
 * Rewriting one field of a real mid-run DEPTH snapshot must fail the
 * restore with SimError(Fatal) "checkpoint: ...".  Before the loaders
 * checked what they read, these cases crashed (SIGSEGV on a slot
 * index, SIGFPE on a zero SRF window), threw std::bad_alloc (huge slot
 * or AG counts) or silently finished a truncated run (host position).
 */
TEST(CkptTest, CorruptSnapshotIsRejected)
{
    fs::path dir = fs::temp_directory_path() / "imagine_ckpt_corrupt";
    fs::create_directories(dir);
    const MachineConfig cfg = MachineConfig::devBoard();
    const std::string snap = busyDepthSnapshot(cfg, dir);
    ASSERT_FALSE(snap.empty()) << "no snapshot with a busy slot";

    using Edit = std::function<void(std::vector<ckpt::RawSection> &)>;
    const std::pair<const char *, Edit> cases[] = {
        {"host next_ = 2^33",
         [](auto &secs) {
             Cursor{payloadOf(secs, "host")}.put<uint64_t>(0, 1ull << 33);
         }},
        {"sc slot idx = 2^31-1",
         [](auto &secs) {
             Cursor{payloadOf(secs, "sc")}.put<uint32_t>(8, 0x7fffffffu);
         }},
        {"sc slot count = 2^40",
         [](auto &secs) {
             Cursor{payloadOf(secs, "sc")}.put<uint64_t>(0, 1ull << 40);
         }},
        {"sc done_ one short",
         [](auto &secs) {
             std::vector<uint8_t> &sc = payloadOf(secs, "sc");
             size_t off = scDoneOffset(sc);
             Cursor c{sc, off};
             uint64_t n = c.get<uint64_t>();
             c.put<uint64_t>(off, n - 1);
             sc.erase(sc.begin() + static_cast<std::ptrdiff_t>(c.at));
         }},
        {"mem AG count = 2^40",
         [](auto &secs) {
             Cursor{payloadOf(secs, "mem")}.put<uint64_t>(0, 1ull << 40);
         }},
        {"srf windowWords = 0",
         [](auto &secs) {
             std::vector<uint8_t> &srf = payloadOf(secs, "srf");
             Cursor{srf}.put<uint32_t>(srfActiveWindowWordsOffset(srf), 0);
         }},
    };
    const std::string bad = (dir / "bad.ckpt").string();
    for (const auto &[what, edit] : cases) {
        std::vector<ckpt::RawSection> secs = ckpt::readSections(snap);
        edit(secs);
        writeSections(secs, bad);
        MachineConfig rc = cfg;
        rc.restorePath = bad;
        ImagineSystem sys(rc);
        try {
            smallDepth(sys);
            ADD_FAILURE() << what << ": corrupt snapshot restored";
        } catch (const SimError &e) {
            EXPECT_EQ(e.kind(), SimErrorKind::Fatal) << what;
            EXPECT_EQ(std::string(e.what()).rfind("checkpoint: ", 0), 0u)
                << what << ": " << e.what();
        }
    }
    std::error_code ec;
    fs::remove_all(dir, ec);
}

/**
 * Seeded bit-flip sweep over a busy chaos DEPTH snapshot: every
 * section takes an equal share of the flips (the page data in "mem"
 * and the SRF array would otherwise absorb nearly all of them), and
 * every restore must end in a RunResult or a SimError - never a
 * signal, a foreign exception or a sanitizer report.  The budget is
 * IMAGINE_CKPT_FLIPS (default 160); the nightly CI job raises it under
 * the sanitize preset, and then names each flip on stderr before its
 * restore.  Flips that once escaped the loader are pinned in the list
 * below and always replayed.
 */
TEST(CkptTest, BitFlippedSnapshotsFailCleanly)
{
    fs::path dir = fs::temp_directory_path() / "imagine_ckpt_flips";
    fs::create_directories(dir);
    MachineConfig cfg = MachineConfig::devBoard();
    cfg.faults.enabled = true;
    cfg.faults.seed = 0xf11b5ull;
    cfg.faults.srfFlipRate = 1e-4;
    cfg.faults.dramFlipRate = 1e-4;
    cfg.faults.agStallRate = 1e-3;
    cfg.faults.agStallBurstCycles = 32;
    cfg.faults.srfEcc = EccMode::Secded;
    cfg.faults.memEcc = EccMode::Secded;
    cfg.watchdogStagnationCycles = 20'000;
    const std::string snap = busyDepthSnapshot(cfg, dir);
    ASSERT_FALSE(snap.empty()) << "no snapshot with a busy slot";
    const std::vector<ckpt::RawSection> clean = ckpt::readSections(snap);

    struct Flip
    {
        std::string section;
        size_t offset;
        int bit;
    };
    // Flips the sweep caught escaping as std::bad_alloc or
    // std::length_error before the loaders checked counts and the
    // run's fault-trace mark.
    std::vector<Flip> flips = {
        {"run", 26, 6}, {"sc", 4, 6}, {"sc", 6, 0}, {"sc", 1546, 7},
    };
    const char *env = std::getenv("IMAGINE_CKPT_FLIPS");
    const uint64_t budget = env ? std::strtoull(env, nullptr, 10) : 160;
    Rng rng(0xc4c3f1b5ull);
    for (uint64_t i = 0; i < budget; ++i) {
        const ckpt::RawSection &sec = clean[i % clean.size()];
        if (sec.payload.empty())
            continue;
        flips.push_back(
            {sec.name,
             static_cast<size_t>(rng.next() % sec.payload.size()),
             static_cast<int>(rng.below(8))});
    }

    const std::string bad = (dir / "flipped.ckpt").string();
    int errors = 0, completed = 0;
    for (const Flip &f : flips) {
        std::vector<ckpt::RawSection> secs = clean;
        payloadOf(secs, f.section).at(f.offset) ^=
            static_cast<uint8_t>(1u << f.bit);
        writeSections(secs, bad);
        MachineConfig rc = cfg;
        rc.restorePath = bad;
        const std::string where = f.section + "+" +
                                  std::to_string(f.offset) + " bit " +
                                  std::to_string(f.bit);
        // A signal ends the process: the enlarged sweep names each flip
        // first, so the one that crashed can be pinned above.
        if (env)
            std::fprintf(stderr, "flip %s\n", where.c_str());
        try {
            ImagineSystem sys(rc);
            smallDepth(sys).run.toJson();
            ++completed;
        } catch (const SimError &) {
            ++errors;
        } catch (const std::exception &e) {
            ADD_FAILURE() << where << ": non-SimError exception: "
                          << e.what();
        }
    }
    EXPECT_EQ(static_cast<size_t>(errors + completed), flips.size());
    std::error_code ec;
    fs::remove_all(dir, ec);
}
