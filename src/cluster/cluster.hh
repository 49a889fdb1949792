/**
 * @file
 * The eight-cluster SIMD arithmetic array and its micro-controller.
 *
 * The array executes one compiled kernel at a time, named by its id in
 * the session's KernelRegistry (as a stream instruction names it); all
 * per-kernel state is indexed by that id.  Execution is both
 * *functional* (every op computes real data; stream outputs hold the
 * kernel's actual results) and *cycle-timed* (ops issue at the cycles
 * the VLIW schedule assigned; the whole array stalls in SIMD lockstep
 * whenever a stream buffer cannot supply or absorb data).
 *
 * Software pipelining support: each dataflow node keeps a small
 * circular buffer of per-lane results indexed by loop iteration, so
 * several overlapped iterations can be in flight without register
 * renaming.  The modulo schedule guarantees a consumer never issues
 * before its producer's completion, which makes write-at-issue
 * functionally safe.
 */

#ifndef IMAGINE_CLUSTER_CLUSTER_HH
#define IMAGINE_CLUSTER_CLUSTER_HH

#include <array>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "kernelc/predecode.hh"
#include "kernelc/schedule.hh"
#include "sim/component.hh"
#include "sim/config.hh"
#include "srf/srf.hh"

namespace imagine
{

class StatsRegistry;
namespace trace { class TraceSink; }

/** Registered, compiled kernels addressable by stream instructions:
 *  a kernel's id is its index.  Grows only. */
using KernelRegistry = std::vector<kernelc::CompiledKernel>;

/** Cumulative cluster-array statistics. */
struct ClusterStats
{
    uint64_t startupCycles = 0;     ///< kernel decode / SB bind
    uint64_t prologueCycles = 0;
    uint64_t loopCycles = 0;        ///< non-stalled main-loop cycles
    uint64_t epilogueCycles = 0;
    uint64_t shutdownCycles = 0;
    uint64_t stallCycles = 0;       ///< SIMD-lockstep stream stalls
    /** Subset of loopCycles spent priming/draining the software pipe. */
    uint64_t primingCycles = 0;

    uint64_t issuedOps = 0;         ///< ops issued (x8 lanes)
    uint64_t arithOps = 0;          ///< weighted arithmetic ops (x8)
    uint64_t fpOps = 0;
    uint64_t lrfReads = 0;
    uint64_t lrfWrites = 0;
    uint64_t spAccesses = 0;
    uint64_t commWords = 0;
    uint64_t sbReads = 0;           ///< words read from stream buffers
    uint64_t sbWrites = 0;

    uint64_t kernelsRun = 0;
    uint64_t kernelStreamWords = 0; ///< sum of per-run max stream length

    /** Per-launch kernel run lengths, power-of-two bucketed. */
    static constexpr size_t numKernelCycleBuckets = 16;
    uint64_t kernelCycleHist[numKernelCycleBuckets] = {};

    uint64_t busyTotal() const
    {
        return startupCycles + prologueCycles + loopCycles +
               epilogueCycles + shutdownCycles + stallCycles;
    }

    /** Register every counter on @p reg under @p prefix. */
    void registerOn(StatsRegistry &reg, const std::string &prefix);
};

/**
 * Per-kernel sampled-fidelity fold accounting (DESIGN.md section 12).
 * One record per kernel that folded at least one loop region during a
 * run; drained into RunResult at run end.
 */
struct KernelFoldRecord
{
    std::string name;
    uint64_t launches = 0;      ///< launches that folded >= 1 region
    uint64_t foldedIters = 0;   ///< loop iterations folded analytically
    uint64_t foldedCycles = 0;  ///< wall cycles folded (issue + stalls)
    /** Worst per-launch relative cycle-error bound across launches. */
    double errorBound = 0.0;
};

/** The SIMD cluster array. */
class ClusterArray : public Component
{
  public:
    /** Stream binding passed at kernel launch. */
    struct Binding
    {
        int client = -1;        ///< SRF client handle
        uint32_t length = 0;    ///< stream length in words
    };

    ClusterArray(const MachineConfig &cfg, Srf &srf,
                 const KernelRegistry &kernels);

    /**
     * Launch a kernel.
     *
     * @param kernelId the kernel's index in the registry
     * @param ins input bindings, one per kernel input stream
     * @param outs output bindings, one per kernel output stream
     * @param explicitTrip trip count for kernels with no input stream
     * @param restart continue a previous run of the same kernel:
     *        accumulators carry over, and if this kernel also ran most
     *        recently the prologue is skipped (loop invariants are
     *        still live in the cluster registers)
     */
    void start(uint16_t kernelId, std::vector<Binding> ins,
               std::vector<Binding> outs, uint32_t explicitTrip = 0,
               bool restart = false);

    bool busy() const { return phase_ != Phase::Idle; }
    /** Kernel retired and all output data drained into the SRF. */
    bool done() const;
    /** Return to idle (caller closes the SRF clients). */
    void retire();

    void tick();

    // --- Component ------------------------------------------------------
    const char *componentName() const override { return "cluster"; }
    void tick(Cycle) override { tick(); }
    void registerStats(StatsRegistry &reg) override;
    void resetStats() override { stats_ = {}; }
    Cycle nextEventAfter(Cycle now) const override;
    void skipIdle(Cycle from, uint64_t span) override;
    void state(ckpt::Archive &ar) override;

    // --- micro-controller scalar registers ----------------------------
    Word ucr(int i) const { return ucrs_.at(static_cast<size_t>(i)); }
    void setUcr(int i, Word w) { ucrs_.at(static_cast<size_t>(i)) = w; }

    const ClusterStats &stats() const { return stats_; }
    /** Cycles the current (or last) kernel has been running. */
    uint64_t currentKernelCycles() const { return kernelCycles_; }

    /** Attach the session trace sink (null by default: hooks dead). */
    void setTrace(trace::TraceSink *sink);

    /**
     * Re-lease trace bookkeeping after a checkpoint restore: the trace
     * sink survives the restore but per-launch tracking (kernel span,
     * FU busy baselines, open phase span) is not serialized.  Re-derives
     * the FU busy estimate from the restored schedule and opens spans
     * for the restored phase at the sink's current time.
     */
    void rearmTrace();

    // --- sampled fidelity (DESIGN.md section 12) ----------------------
    /**
     * Arm/disarm steady-state loop sampling for subsequent launches.
     * When armed, bindDerived() plans fold regions for long loops; the
     * driver must poll foldArmed() each cycle and call executeFold().
     */
    void setSampling(bool on, double fraction);
    /** True when the loop clock sits on a planned fold-region arm. */
    bool foldArmed() const
    {
        return phase_ == Phase::Loop && foldNext_ < foldPlan_.size() &&
               t_ == foldPlan_[foldNext_].arm;
    }
    /**
     * Fold the armed region: replay only its stream traffic through the
     * SRF bulk paths, advance the loop clock by the region's issue span
     * and estimate its stall cycles from the cycle-accurate stratum just
     * executed.  The resulting wall-cycle span (issue + estimated stall)
     * is returned and left to run down: the next that many tick()s only
     * count it off, and nextEventAfter() advertises its end as a
     * horizon, so the driver advances the rest of the machine across
     * it with its ordinary tick/skip loop.
     */
    uint64_t executeFold();
    /** True while an executed fold's span is still running down. */
    bool folding() const { return foldLeft_ != 0; }
    /** Move the per-kernel fold records out (cleared afterwards). */
    std::vector<KernelFoldRecord> drainFoldReport();

  private:
    enum class Phase : uint8_t
    {
        Idle, Startup, Prologue, Loop, Epilogue, Shutdown, Done
    };

    /** No kernel (kernel_ / lastKernel_ before any launch). */
    static constexpr uint16_t kNoKernel = UINT16_MAX;

    const kernelc::CompiledKernel &kernel() const
    {
        return kernels_[kernel_];
    }

    /**
     * Re-derive every launch table that is a pure function of the bound
     * kernel, trip count and config: loop extents, steady-state window,
     * sweep tables and the fold plan, all read off the kernel's lowered
     * trace.  Called by start() at launch and by state() after a
     * restore, so a restored run rebinds deterministically.
     */
    void bindDerived();

    /**
     * True when every input stream is fully fetched into the SRF.
     * Latches true for the rest of the launch (a client's fetched count
     * only grows until retire() closes it), so the per-horizon-query
     * cost collapses to a flag test once the fetch phase completes.
     */
    bool insResident() const;
    uint32_t streamElem(uint32_t iter, int lane, uint16_t rec,
                        uint16_t elemIdx) const;
    void accountMix(const kernelc::OpMix &mix, uint64_t times);
    void finishLoopBookkeeping();

    // --- pre-decoded micro-op engine (DESIGN.md section 9) ------------
    /** Resolve one micro-op operand to an 8-lane row: into values_ or
     *  the saved finals, or @p scratch filled by a splat. */
    const Word *resolveSrc(const kernelc::MicroSrc &s, uint32_t iter,
                           uint32_t rowSlot, Word *scratch) const;
    /** Execute one micro-op for all lanes. */
    void execMicro(const kernelc::MicroOp &m, uint32_t iter,
                   uint32_t rowSlot);
    /** True when micro-op @p m can move its 8 stream words at
     *  iteration @p iter (always true for a non-stream op). */
    bool streamReady(const kernelc::MicroOp &m, uint32_t iter) const;
    /** Stream-readiness check for loop bucket @p b at iteration base. */
    bool microLoopCanIssue(size_t b, uint64_t iterBase,
                           bool filter) const;
    /** Execute every live micro-op at loop position @p p. */
    void execLoopPositionMicro(uint64_t p);

    const MachineConfig &cfg_;
    Srf &srf_;
    const KernelRegistry &kernels_;
    std::vector<Word> ucrs_;

    // Active-kernel state ------------------------------------------------
    uint16_t kernel_ = kNoKernel;
    std::vector<Binding> ins_, outs_;
    uint32_t trip_ = 0;
    Phase phase_ = Phase::Idle;
    uint64_t t_ = 0;            ///< cycle within the current phase
    uint64_t kernelCycles_ = 0; ///< cycles since start()
    bool restart_ = false;

    std::vector<Word> values_;  ///< [node][iter & mask][lane]
    std::vector<std::array<Word, numClusters>> scratchpad_;
    /** Per-kernel state: run history (Restart guard) and the
     *  accumulator finals a Restart carries over. */
    struct KernelBind
    {
        bool hasRun = false;
        /** Finals by LoweredKernel::accs slot: all of them, taken at
         *  every loop exit, or none (cleared by a non-Restart launch). */
        std::vector<std::array<Word, numClusters>> saved;
    };
    /** Indexed by kernel id; grown to the registry's size at launch. */
    std::vector<KernelBind> binds_;
    uint16_t lastKernel_ = kNoKernel;
    bool skipPrologue_ = false;
    /** Zero-trip launch of a real loop: no prologue or epilogue. */
    bool skipBlocks_ = false;
    uint64_t loopWindow_ = 0;   ///< total issue window of the main loop
    uint64_t loopTotal_ = 0;    ///< main-loop cycle count for this launch
    /**
     * Steady-state window [steadyLo_, steadyHi_): loop cycles where
     * every bucket op is live (past its first issue, before its last
     * iteration retires), so the stream check needs no per-op stage
     * filtering.
     */
    uint64_t steadyLo_ = 0;
    uint64_t steadyHi_ = 0;
    /**
     * Forward distance from bucket b to the next bucket holding an
     * In/Out/OutCond op (UINT32_MAX when no bucket does).  Inside the
     * steady-state window, stream-free buckets cannot stall and touch
     * only cluster-private state (LRFs, scratchpad, UCRs), so a run of
     * them batch-executes inside skipIdle while the rest of the machine
     * is provably idle.
     */
    std::vector<uint32_t> nextStreamDelta_;
    /** Buckets holding an Out/OutCond op (produce SRF arbiter work). */
    std::vector<uint8_t> bucketHasOut_;
    /**
     * Forward distance from bucket b to the next Out/OutCond bucket
     * (UINT32_MAX when none).  Once every input stream is fully fetched
     * (Srf::inFullyFetched), In buckets can neither stall nor leave the
     * arbiter anything to move, so batched runs extend across them and
     * are cut only at Out buckets, whose produced words wake the
     * arbiter for per-cycle draining.
     */
    std::vector<uint32_t> nextOutDelta_;
    uint64_t stallWatchdog_ = 0;
    /** Latched insResident() result for the current launch. */
    mutable bool insResident_ = false;
    /** Lowered trace of the current kernel (shared by its registry
     *  entry; it outlives the registry vector's reallocation). */
    const kernelc::LoweredKernel *low_ = nullptr;
    /** Row slot epilogue consumers read: (trip-1) & mask (0 if trip 0). */
    uint32_t epiRowSlot_ = 0;
    /** Issue cursors into low_->prologue / low_->epilogue. */
    size_t proCursor_ = 0, epiCursor_ = 0;

    // --- sampled fidelity (DESIGN.md section 12) ----------------------
    /** One analytically folded region of the current launch's loop. */
    struct FoldRegion
    {
        uint64_t arm = 0;       ///< loop position where the fold starts
        uint64_t span = 0;      ///< issue positions folded (iters * ii)
        uint64_t iters = 0;     ///< iterations folded
        /**
         * Loop position where the stall-rate measurement window for
         * this fold begins.  Only the trailing part of the preceding
         * cycle-accurate stratum is measured, so the loop-entry (or
         * post-fold) buffer transient has died out by the time the
         * rate is sampled.
         */
        uint64_t measureFrom = 0;
    };
    /** Plan fold regions for the current launch (end of bindDerived). */
    void planSampling();
    bool allowSampling_ = false;
    double sampleFraction_ = 0.05;
    std::vector<FoldRegion> foldPlan_;  ///< empty: full fidelity
    size_t foldNext_ = 0;               ///< next unexecuted fold region
    /** Wall cycles of the executed fold not yet run down.  Never set at
     *  a checkpoint: sampled runs do not checkpoint. */
    uint64_t foldLeft_ = 0;
    /** low_->loop.ops indices of the In and OutLoop micro-ops in bucket
     *  order: fold replay walks them per folded position block, so the
     *  SRF sees real execution's consume/produce sequence. */
    std::vector<uint32_t> foldStreamOps_;
    /** Measurement marks: loop position / stallCycles at the start of
     *  the cycle-accurate stratum feeding the next fold's stall rate. */
    uint64_t foldPosMark_ = 0;
    uint64_t foldStallMark_ = 0;
    // Per-launch fold accumulators, finalized in finishLoopBookkeeping.
    uint64_t launchFoldedIters_ = 0;
    uint64_t launchFoldedCycles_ = 0;
    double launchRateMin_ = 0.0;
    double launchRateMax_ = 0.0;
    std::vector<KernelFoldRecord> foldReport_;
    std::unordered_map<uint16_t, size_t> foldReportIdx_;  ///< by kernel id

    // --- tracing (DESIGN.md section 10; all dead when trace_ null) ----
    /** Close the open phase span and (unless null) open @p name. */
    void tracePhase(const char *name);
    /** Compute per-FU busy cycles for the launch from the schedule. */
    void traceKernelStart();
    /** Emit kernel span, per-FU busy spans, and the drain close. */
    void traceKernelRetire();
    trace::TraceSink *trace_ = nullptr;
    uint32_t tPhase_ = 0;       ///< phase segments (startup..drain)
    uint32_t tKernel_ = 0;      ///< one span per launch, op deltas
    uint32_t tIssue_ = 0;       ///< coalesced issue buckets
    uint32_t tStall_ = 0;       ///< coalesced lockstep stalls
    std::vector<uint32_t> fuTracks_;    ///< one per FU instance
    uint32_t fuOff_[8] = {};    ///< FuClass -> first fuTracks_ index
    std::vector<uint64_t> traceFuBusy_; ///< busy cycles this launch
    Cycle traceKernelStart_ = 0;
    uint64_t traceArith0_ = 0, traceFp0_ = 0;

    ClusterStats stats_;
};

} // namespace imagine

#endif // IMAGINE_CLUSTER_CLUSTER_HH
