/**
 * @file
 * The on-chip stream controller: a 32-slot scoreboard of stream
 * instructions with compiler-encoded dependencies, issue logic for the
 * cluster array and the two address generators, the SDR/MAR/UCR
 * register files, and the microcode store with dynamic kernel loading.
 *
 * The controller also classifies why the clusters are idle on any given
 * cycle (microcode load / memory / issue overhead / host bandwidth),
 * using the paper's earliest-in-the-list attribution rule (section 4.2).
 */

#ifndef IMAGINE_HOST_STREAM_CONTROLLER_HH
#define IMAGINE_HOST_STREAM_CONTROLLER_HH

#include <cstdint>
#include <list>
#include <vector>

#include "cluster/cluster.hh"
#include "isa/stream.hh"
#include "kernelc/schedule.hh"
#include "mem/memory.hh"
#include "sim/component.hh"
#include "sim/config.hh"
#include "srf/srf.hh"

namespace imagine
{

class FaultInjector;
struct HangReport;
class StatsRegistry;
namespace trace { class TraceSink; }

/** Why the clusters are idle (Fig. 11 attribution categories). */
enum class IdleCause : uint8_t
{
    None,           ///< clusters busy
    UcodeLoad,      ///< kernel blocked on a microcode load
    Memory,         ///< kernel blocked on a memory stream op
    ScOverhead,     ///< stream-controller issue overhead
    Host            ///< waiting on the host interface
};

/** Stream-controller statistics. */
struct ScStats
{
    uint64_t instrsRetired = 0;
    uint64_t kindCount[static_cast<int>(StreamOpKind::NumKinds)] = {};
    uint64_t ucodeLoadsIssued = 0;  ///< dynamic microcode loads
    uint64_t ucodeWordsLoaded = 0;
    uint64_t memOpWords = 0;        ///< words moved by mem stream ops
    uint64_t memStreamOps = 0;

    /** Register every counter on @p reg under @p prefix. */
    void registerOn(StatsRegistry &reg, const std::string &prefix);
};

/** The stream controller. */
class StreamController : public Component
{
  public:
    StreamController(const MachineConfig &cfg, Srf &srf,
                     MemorySystem &mem, ClusterArray &clusters,
                     const KernelRegistry &kernels);

    // --- host-side interface -------------------------------------------
    bool scoreboardFull() const;
    /** Push instruction @p idx of the running program. */
    void enqueue(uint32_t idx, const StreamInstr *instr);
    /** True once program instruction @p idx has completed. */
    bool instrDone(uint32_t idx) const;
    /** True when the scoreboard is empty. */
    bool drained() const { return slots_.empty(); }
    /** Prepare to run @p program (dependency kinds are consulted for
     *  idle-cause classification). */
    void beginProgram(const StreamProgram &program);
    /** Host-side retirement of instructions that never enter the
     *  scoreboard (RegRead host dependencies). */
    void retireHostSide(uint32_t idx, StreamOpKind kind);
    /** True when no internally-generated work (microcode load) remains. */
    bool quiescent() const { return ucodeLoadAg_ < 0; }

    void tick(Cycle now) override;

    // --- Component ------------------------------------------------------
    const char *componentName() const override { return "sc"; }
    void registerStats(StatsRegistry &reg) override;
    void resetStats() override { stats_ = {}; }
    Cycle nextEventAfter(Cycle now) const override;
    void state(ckpt::Archive &ar) override;

    /** Current idle-cause classification (valid when clusters idle). */
    IdleCause idleCause() const { return idleCause_; }

    // --- resilience -----------------------------------------------------
    /** Attach a fault injector (null = no injection; the default). */
    void setFaultInjector(FaultInjector *inj) { inj_ = inj; }
    /**
     * Append the scoreboard (with unsatisfied compiler-encoded deps and
     * retry counts) and a dependency cycle, if any, to a hang report.
     */
    void dumpHang(HangReport &report) const;

    /** Host-visible scalar read (UCR file; used for host dependencies). */
    Word readUcr(int i) const { return ucrs_[static_cast<size_t>(i)]; }
    /** Host-visible SDR read (stream lengths for conditional streams). */
    const Sdr &readSdr(int i) const
    {
        return sdrs_[static_cast<size_t>(i)];
    }

    const ScStats &stats() const { return stats_; }

    /** Attach the session trace sink (null by default: hooks dead). */
    void setTrace(trace::TraceSink *sink);

    /**
     * Re-lease slot trace tracks after a checkpoint restore: the slot
     * lease (traceTrack/traceStage) is not serialized, so restored
     * scoreboard slots would otherwise never emit stage spans again.
     * Opens each occupied slot's current stage span at the sink's
     * current time.
     */
    void rearmTrace();

  private:
    enum class SlotState : uint8_t
    {
        Waiting,        ///< dependencies not yet satisfied
        NeedUcode,      ///< kernel waiting for microcode residency
        Issuing,        ///< in the issue pipeline
        Running,        ///< on its resource
        Stuck,          ///< injected fault: completion signal lost
    };

    struct Slot
    {
        uint32_t idx = 0;
        const StreamInstr *instr = nullptr;
        SlotState state = SlotState::Waiting;
        Cycle issueDone = 0;        ///< end of issue pipeline stage
        int ag = -1;                ///< AG executing a memory op
        int retries = 0;            ///< fault-recovery re-issues
        /** Kernel output overlaps an input (in-place update): a faulted
         *  run has overwritten its own source, so no retry is possible. */
        bool inPlace = false;
        // Kernel bookkeeping.
        std::vector<int> inClients, outClients;
        // Tracing: leased scoreboard-slot track + current stage name.
        int16_t traceTrack = -1;
        const char *traceStage = nullptr;
    };

    bool depsSatisfied(const Slot &s) const
    {
        return pendingDeps_[s.idx] == 0;
    }
    /** Record program instruction @p idx as done and resolve it in its
     *  dependents' counts. */
    void markDone(uint32_t idx);
    /** Recount every instruction's unresolved dependencies from done_. */
    void countPendingDeps();
    /** Rebuild the in-flight list and the cached own next event from
     *  slots_ (after the slot states moved). */
    void refreshInFlight();
    /**
     * A detected fault tainted this slot's result: re-issue it, or
     * throw an UnrecoveredFault SimError once the retry budget is
     * spent.  Restart ops (accumulator carry-over) and in-place stream
     * updates have already destroyed their replay source and give up
     * immediately.
     */
    void retryOrGiveUp(Slot &s);
    /** Start the issue stage for a slot whose resource is free. */
    void tryIssue(Slot &s, Cycle now);
    /** Move an issued slot onto its resource. */
    void dispatch(Slot &s, Cycle now);
    void complete(Slot &s);
    void classifyIdle();

    // Microcode store management.
    bool ucodeResident(uint16_t kernelId) const;
    /** Ensure capacity and begin a load; true if load started. */
    bool startUcodeLoad(uint16_t kernelId, Cycle now);

    const MachineConfig &cfg_;
    Srf &srf_;
    MemorySystem &mem_;
    ClusterArray &clusters_;
    const KernelRegistry &kernels_;
    FaultInjector *inj_ = nullptr;

    std::vector<Slot> slots_;
    const StreamProgram *program_ = nullptr;
    std::vector<uint8_t> done_;         ///< per program instruction
    int reservedAg_ = -1;               ///< AG held by an issuing mem op
    bool issueBusy_ = false;            ///< issue pipeline occupancy
    Cycle issueBusyUntil_ = 0;

    // Wake-on-event bookkeeping (DESIGN.md section 8).  The issue scan
    // and the idle classification can change their outcome only after
    // one of the controller's own events (enqueue, host-side retire,
    // dispatch, completion, retry, microcode-load end, issue pipeline
    // freeing, restore), so they run only on ticks that had one.  All
    // of it is derived from slots_ and done_ and is not serialized.
    bool dirty_ = true;                 ///< an event since the last scan
    bool retired_ = false;              ///< a slot retired this tick
    /** Per program instruction: unresolved dependencies, and how many
     *  of them are memory stream ops (the Memory idle cause). */
    std::vector<uint32_t> pendingDeps_, pendingMemDeps_;
    /** Reverse dependency edges, CSR: the instructions depending on
     *  instruction i are dependents_[dependentsBegin_[i] ..
     *  dependentsBegin_[i + 1]). */
    std::vector<uint32_t> dependentsBegin_, dependents_;
    /** Positions in slots_ of the Issuing and Running slots, in slot
     *  order: the only ones a tick polls for completion. */
    std::vector<uint32_t> inFlight_;
    /** Absolute cycle of the controller's own next event (dispatch or
     *  issue pipeline freeing); kForever when none is scheduled. */
    Cycle ownNext_ = kForever;

    // Register files.
    std::vector<Sdr> sdrs_;
    std::vector<Mar> mars_;
    std::vector<Word> ucrs_;

    // Microcode store: the resident kernel ids, most recently used
    // first; ucodeUsed_ sums their registry instruction counts.
    std::list<uint16_t> ucodeLru_;
    int ucodeUsed_ = 0;
    int ucodeLoadAg_ = -1;              ///< AG busy with a microcode load
    uint16_t ucodeLoading_ = UINT16_MAX;
    int ucodeRetries_ = 0;              ///< corrupted-load re-transfers

    IdleCause idleCause_ = IdleCause::Host;

    /** Re-open a slot's stage span when its lifecycle state moved. */
    void traceSlotStages();
    trace::TraceSink *trace_ = nullptr;
    std::vector<uint32_t> slotTracks_;      ///< fixed scoreboard pool
    std::vector<uint8_t> slotTrackBusy_;

    ScStats stats_;
};

} // namespace imagine

#endif // IMAGINE_HOST_STREAM_CONTROLLER_HH
