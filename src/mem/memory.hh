/**
 * @file
 * The Imagine memory system: two address generators (AGs) feeding a
 * memory controller with a small on-chip cache and four 32-bit 100 MHz
 * SDRAM channels.
 *
 * - Each AG executes one stream load or store at a time.  In strided
 *   mode it can generate several word addresses per cycle (burst
 *   records); in indexed (gather/scatter) mode it is limited to one
 *   address per cycle - which is why tiny-index-range loads saturate
 *   "on-chip maximum AG bandwidth" rather than DRAM bandwidth
 *   (section 3.3).
 * - The controller cache is a small direct-mapped word cache; it
 *   captures indexed accesses over ranges of a few words.
 * - Channels model open-row state per bank with activate/precharge/CAS
 *   timing and limited FR-FCFS reordering.  The prototype's precharge
 *   bug (spurious precharges between same-row accesses, costing ~20%
 *   of unit-stride bandwidth) is reproduced when
 *   MachineConfig::quirkPrechargeBug is set.
 */

#ifndef IMAGINE_MEM_MEMORY_HH
#define IMAGINE_MEM_MEMORY_HH

#include <cstdint>
#include <deque>
#include <vector>

#include "isa/stream.hh"
#include "mem/memspace.hh"
#include "sim/component.hh"
#include "sim/config.hh"
#include "sim/types.hh"
#include "srf/srf.hh"

namespace imagine
{

class FaultInjector;
struct HangReport;
class StatsRegistry;
namespace trace { class TraceSink; }

/** Memory-system statistics. */
struct MemStats
{
    uint64_t wordsLoaded = 0;
    uint64_t wordsStored = 0;
    uint64_t cacheHits = 0;
    uint64_t dramAccesses = 0;
    uint64_t rowMisses = 0;
    uint64_t bugPrecharges = 0;
    uint64_t channelBusyMemCycles = 0;

    /** Register every counter on @p reg under @p prefix. */
    void registerOn(StatsRegistry &reg, const std::string &prefix);
};

/** The complete off-chip memory path. */
class MemorySystem : public Component
{
  public:
    MemorySystem(const MachineConfig &cfg, Srf &srf);

    MemorySpace &space() { return space_; }
    const MemorySpace &space() const { return space_; }

    // --- stream-op control (driven by the stream controller) -----------
    bool agIdle(int ag) const { return !ags_[ag].active; }
    /**
     * Begin a stream load: DRAM -> SRF.
     * @param idx optional SDR describing a gather index stream
     */
    void startLoad(int ag, const Mar &mar, const Sdr &dst,
                   const Sdr *idx);
    /** Begin a stream store: SRF -> DRAM. */
    void startStore(int ag, const Mar &mar, const Sdr &src,
                    const Sdr *idx);
    /** Begin a sink load (microcode transfer): data is discarded. */
    void startSinkLoad(int ag, Addr baseWord, uint32_t words);
    /** True once all words transferred and drained. */
    bool agDone(int ag) const;
    /** Retire the finished op; releases SRF clients. */
    void finish(int ag);

    /** Advance one core cycle. */
    void tick(Cycle now) override;

    // --- Component ------------------------------------------------------
    const char *componentName() const override { return "mem"; }
    void registerStats(StatsRegistry &reg) override;
    void resetStats() override { stats_ = {}; }
    Cycle nextEventAfter(Cycle now) const override;
    void state(ckpt::Archive &ar) override;
    /** A MAR's checkpoint fields (shared with the stream controller's
     *  MAR file). */
    static void marState(ckpt::Archive &ar, Mar &m);

    // --- resilience -----------------------------------------------------
    /** Attach a fault injector (null = no injection; the default). */
    void setFaultInjector(FaultInjector *inj) { inj_ = inj; }
    /**
     * True when a detected-but-uncorrected fault tainted this AG's
     * stream op (DRAM parity hit, or an SRF parity hit on the load's
     * destination client).  Checked by the stream controller before
     * retiring the op; cleared by finish().
     */
    bool agFaulted(int ag) const;
    /** Append AG and channel in-flight state to a hang report. */
    void dumpHang(HangReport &report) const;

    const MemStats &stats() const { return stats_; }
    /** Peak words per core cycle the DRAM interface can move. */
    double peakWordsPerCycle() const;

    /** Attach the session trace sink (null by default: hooks dead). */
    void setTrace(trace::TraceSink *sink);
    /**
     * After a checkpoint restore: re-open the AG stream-op spans for
     * transfers restored mid-flight (open spans are not serialized), so
     * their traced tails appear instead of being silently dropped when
     * the op completes against a track with nothing open.
     */
    void rearmTrace();

  private:
    struct Delivery
    {
        Cycle ready;
        uint32_t elem;
        Word data;
        bool operator>(const Delivery &o) const { return ready > o.ready; }
    };

    struct DramReq
    {
        Addr wordAddr;
        uint32_t elem;
        uint8_t ag;
        bool isWrite;
        Cycle enqueuedMem;  ///< mem cycle for age-based priority
    };

    struct Bank
    {
        int64_t openRow = -1;
        uint64_t nextFreeMem = 0;
        uint32_t seqHits = 0;   ///< consecutive sequential hits (bug)
        Addr lastPerChan = ~Addr(0);    ///< previous in-channel address
    };

    struct Channel
    {
        std::deque<DramReq> queue;
        std::vector<Bank> banks;
        uint64_t busNextFreeMem = 0;
        uint32_t frontSkips = 0;    ///< starvation guard for FR-FCFS
    };

    struct AgState
    {
        bool active = false;
        bool isLoad = false;
        bool indexed = false;
        bool sink = false;      ///< discard data (microcode load)
        Mar mar;
        int dataClient = -1;
        int idxClient = -1;
        uint32_t length = 0;        ///< total words
        uint32_t nextElem = 0;      ///< next word address to generate
        uint32_t completed = 0;     ///< words fully transferred
        uint32_t curRecord = UINT32_MAX;
        Addr curRecordBase = 0;
        /** Pending word deliveries, a min-heap on ready (see
         *  memory.cc's pushHeap/popHeap). */
        std::vector<Delivery> deliveries;
        Cycle startCycle = 0;
        bool faultDetected = false; ///< DRAM parity hit on this op
        Cycle stallUntil = 0;       ///< injected AG stall burst end
    };

    /** Generate addresses for one AG for this cycle. */
    void generate(int ag, Cycle now);
    /** Issue one word access into the cache/DRAM path. */
    void issueAccess(AgState &st, int agIdx, Addr addr, uint32_t elem,
                     Cycle now);
    /** Advance all channels one memory cycle. */
    void tickChannels(uint64_t memCycle);
    /** Compute record base address for element; false if blocked. */
    bool recordBase(AgState &st, uint32_t record, Addr &base);

    const MachineConfig &cfg_;
    Srf &srf_;
    FaultInjector *inj_ = nullptr;
    MemorySpace space_;
    std::vector<AgState> ags_;
    std::vector<Channel> channels_;
    std::vector<int64_t> cacheTags_;    ///< direct-mapped MC cache
    trace::TraceSink *trace_ = nullptr;
    std::vector<uint32_t> agTracks_, chanTracks_;
    MemStats stats_;
};

} // namespace imagine

#endif // IMAGINE_MEM_MEMORY_HH
