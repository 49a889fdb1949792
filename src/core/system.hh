/**
 * @file
 * ImagineSystem: the top-level facade tying every component together.
 *
 * A system owns one Imagine processor (clusters, SRF, memory system,
 * stream controller) plus its host processor, a kernel registry, and
 * the cycle loop.  Applications:
 *
 *   1. compile kernels through registerKernel(),
 *   2. stage data into memory() (the off-chip SDRAM image),
 *   3. author a stream program with newProgram() / StreamProgramBuilder,
 *   4. run() it, receiving a RunResult with the paper's metrics:
 *      cycles, the Fig. 11 execution-time breakdown, arithmetic rates,
 *      bandwidth-hierarchy usage, IPC and modeled power.
 */

#ifndef IMAGINE_CORE_SYSTEM_HH
#define IMAGINE_CORE_SYSTEM_HH

#include <array>
#include <atomic>
#include <functional>
#include <memory>
#include <string>

#include "cluster/cluster.hh"
#include "host/host_processor.hh"
#include "host/stream_controller.hh"
#include "kernelc/dfg.hh"
#include "kernelc/schedule.hh"
#include "mem/memory.hh"
#include "power/power.hh"
#include "sim/component.hh"
#include "sim/config.hh"
#include "sim/error.hh"
#include "sim/fault.hh"
#include "sim/stats.hh"
#include "srf/srf.hh"
#include "streamc/program_builder.hh"
#include "trace/trace.hh"

namespace imagine
{

/** Execution-time breakdown in cycles (Fig. 11 categories). */
struct ExecBreakdown
{
    // Kernel run time (clusters busy).
    uint64_t operations = 0;        ///< ideal time for the ops executed
    uint64_t mainLoopOverhead = 0;  ///< ILP limits + load imbalance
    uint64_t nonMainLoop = 0;       ///< prologue/epilogue/priming/startup
    uint64_t clusterStall = 0;      ///< SRF-wait stalls inside kernels
    // Cluster-idle time, attributed by the paper's priority rule.
    uint64_t ucodeStall = 0;
    uint64_t memStall = 0;
    uint64_t scOverhead = 0;
    uint64_t hostStall = 0;

    uint64_t
    total() const
    {
        return operations + mainLoopOverhead + nonMainLoop +
               clusterStall + ucodeStall + memStall + scOverhead +
               hostStall;
    }
    uint64_t
    kernelTime() const
    {
        return operations + mainLoopOverhead + nonMainLoop +
               clusterStall;
    }
};

/** Everything a run() produced. */
struct RunResult
{
    Cycle cycles = 0;
    double seconds = 0.0;
    ExecBreakdown breakdown;

    // Arithmetic performance.
    double gops = 0.0;          ///< billions of (weighted) arithmetic ops/s
    double gflops = 0.0;
    double ipc = 0.0;           ///< ops issued per cycle (all clusters)

    // Bandwidth hierarchy (GB/s sustained).
    double lrfGBs = 0.0;
    double srfGBs = 0.0;
    double memGBs = 0.0;
    double hostMips = 0.0;      ///< stream instructions per second / 1e6

    double watts = 0.0;

    // Raw per-component deltas for this run.
    ClusterStats cluster;
    SrfStats srf;
    MemStats mem;
    ScStats sc;
    HostStats host;
    SystemActivity activity;

    // Fault-injection accounting for this run (zero when disabled).
    FaultStats faults;
    /** Faults injected during this run, in deterministic order. */
    std::vector<FaultEvent> faultTrace;

    /** Trace-derived analytics (null unless config().trace was set). */
    std::shared_ptr<const trace::TraceAnalytics> trace;

    /** Clusters-idle cycles of this run, by IdleCause. */
    uint64_t idleCycles[5] = {};

    // Sampled-fidelity accounting (DESIGN.md section 12).  All zero /
    // empty under Fidelity::Cycle, whose toJson() output stays
    // byte-identical to builds without the sampled tier.
    Fidelity fidelity = Fidelity::Cycle;
    /** Sampled only: cfg.sampleLoopFraction in effect for this run. */
    double sampleLoopFraction = 0.0;
    /** Sampled only: wall cycles folded analytically (estimated share
     *  of `cycles`; the rest executed cycle-accurately). */
    uint64_t estimatedCycles = 0;
    /** Sampled only: per-kernel fold accounting with error bounds. */
    std::vector<KernelFoldRecord> kernelFolds;

    /**
     * JSON encoding of the whole result (metrics, Fig. 11 breakdown,
     * per-component stats).  Schema documented in README.md.
     */
    std::string toJson() const;
};

/**
 * Register every per-component counter of @p r on @p reg, mirroring
 * the names an engine's registry uses.  Lets a StatsRegistry::assign
 * of an engine delta fill the result, and RunResult::toJson reuse the
 * same single source of stat names.
 */
void registerRunStats(StatsRegistry &reg, RunResult &r);

/** One Imagine processor plus host. */
class ImagineSystem
{
  public:
    explicit ImagineSystem(const MachineConfig &cfg);

    /** Compile and register a kernel graph; returns its kernel id. */
    uint16_t registerKernel(kernelc::KernelGraph g);
    /** Compile with explicit compiler options (ablation hooks). */
    uint16_t registerKernel(kernelc::KernelGraph g,
                            const kernelc::CompileOptions &opts);
    /** Register a pre-compiled kernel. */
    uint16_t registerKernel(kernelc::CompiledKernel k);
    const KernelRegistry &kernels() const { return kernels_; }
    const kernelc::CompiledKernel &kernel(uint16_t id) const
    {
        return kernels_.at(id);
    }

    const MachineConfig &config() const { return cfg_; }
    MemorySpace &memory() { return mem_.space(); }
    Srf &srf() { return srf_; }
    MemorySystem &memorySystem() { return mem_; }
    ClusterArray &clusters() { return clusters_; }
    StreamController &streamController() { return sc_; }

    /** A program builder bound to this system's config and kernels. */
    streamc::StreamProgramBuilder newProgram() const
    {
        return streamc::StreamProgramBuilder(cfg_, kernels_);
    }

    /**
     * Run a stream program to completion.
     *
     * On a hang - no retirement, issue, or memory progress for
     * config().watchdogStagnationCycles, or the cycle limit exceeded -
     * throws SimError(Hang) carrying a structured HangReport
     * (scoreboard dump, dependency cycle, AG state, host position).
     *
     * @param program the program (must outlive the call)
     * @param playback use the lightweight playback dispatcher
     * @param cycleLimit watchdog bound
     */
    RunResult run(const StreamProgram &program, bool playback = true,
                  uint64_t cycleLimit = 1ull << 33);

    /** The fault injector, or null when config().faults.enabled is off. */
    const FaultInjector *faultInjector() const { return inj_.get(); }

    /**
     * Cooperative cancellation: attach a non-owning abort flag that
     * run() polls at its loop boundaries (the same between-ticks points
     * where periodic checkpoints are taken).  Once the flag reads true,
     * run() throws SimError(Canceled) promptly instead of finishing the
     * program - the hook the service daemon's deadlines, per-job
     * cancellation and drain are built on.  The flag may be set from
     * any thread; a null pointer (the default) makes the check a dead
     * branch.  Unlike a watchdog hang, a cancellation writes no crash
     * snapshot: the machine is healthy, the caller just stopped caring.
     */
    void setAbortToken(const std::atomic<bool> *token)
    {
        abort_ = token;
    }

    /**
     * Observer called after every periodic checkpoint write with the
     * run-relative cycle of the boundary and the file just written.
     * Lets a harness archive each interval (the bisect driver renames
     * the file per boundary) instead of keeping only the latest.
     */
    void
    setCheckpointHook(
        std::function<void(Cycle, const std::string &)> hook)
    {
        checkpointHook_ = std::move(hook);
    }

    /** The trace sink, or null when config().trace is off. */
    trace::TraceSink *traceSink() { return trace_.get(); }
    const trace::TraceSink *traceSink() const { return trace_.get(); }

    // --- uniform metrics surface ----------------------------------------
    /** Every component of this session, in tick order. */
    const std::array<Component *, 5> &components() const
    {
        return components_;
    }
    /** The session's stats registry (cumulative engine counters). */
    const StatsRegistry &stats() const { return stats_; }
    /** Cumulative engine stats as nested JSON. */
    std::string statsJson() const { return stats_.read().toJson(); }
    /** Zero every component counter (not architectural state). */
    void resetStats();

    /** Host-visible scalar result register. */
    Word readUcr(int i) const { return sc_.readUcr(i); }
    /** Host-visible stream descriptor (lengths of produced streams). */
    const Sdr &readSdr(int i) const { return sc_.readSdr(i); }

    Cycle now() const { return cycle_; }

    /**
     * Host wall-clock seconds spent inside run() cycle loops so far
     * (the engine-throughput denominator for bench/perf_smoke).
     */
    double runWallSeconds() const { return runWallSeconds_; }

  private:
    /** Build a hang report from every component's in-flight state. */
    std::shared_ptr<const HangReport> buildHangReport(
        Cycle lastProgress, uint64_t cycleLimit) const;

    /**
     * Save or restore the full machine state through @p ar, one field
     * list for both directions: config/program/kernel fingerprints and
     * run ordinal ("meta": written on save, checked on load), the
     * run-loop state and stats registry ("run"), every component in
     * components_ order, and the fault injector.  A restore runs after
     * loadProgram() replayed the session setup and throws
     * SimError(Fatal) on any mismatch or corrupt field.  @p err
     * non-null (save only) marks a crash snapshot and appends the
     * "report" section (error kind, message, HangReport).  @p path
     * names the file in error messages.
     */
    void checkpoint(ckpt::Archive &ar, const std::string &path,
                    const StreamProgram &program, bool playback,
                    uint64_t runIndex, uint64_t &start,
                    Cycle &lastProgress, size_t &trace0,
                    StatsSnapshot &before, const SimError *err);

    MachineConfig cfg_;
    KernelRegistry kernels_;
    std::unique_ptr<FaultInjector> inj_;    ///< null when faults off
    std::unique_ptr<trace::TraceSink> trace_;   ///< null when trace off
    uint32_t engineTrack_ = 0;              ///< folded-idle regions
    Srf srf_;
    MemorySystem mem_;
    ClusterArray clusters_;
    StreamController sc_;
    HostProcessor host_;
    Cycle cycle_ = 0;
    double runWallSeconds_ = 0.0;   ///< host time inside cycle loops
    uint64_t runCount_ = 0;         ///< run() calls so far (checkpoint meta)
    bool restoreConsumed_ = false;  ///< cfg.restorePath is one-shot
    const std::atomic<bool> *abort_ = nullptr;  ///< cooperative cancel
    std::function<void(Cycle, const std::string &)> checkpointHook_;

    /** All components in tick order (engine-owned, session-lifetime). */
    std::array<Component *, 5> components_;
    /** Clusters-idle cycle counts since construction, by IdleCause. */
    uint64_t idleCycles_[5] = {};
    /** Every engine counter by name (components, faults, idle, cache). */
    StatsRegistry stats_;
};

} // namespace imagine

#endif // IMAGINE_CORE_SYSTEM_HH
