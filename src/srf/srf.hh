/**
 * @file
 * Stream register file (SRF): the 128 KB on-chip nexus of Imagine.
 *
 * All stream instructions operate on data in the SRF.  Clients (the
 * eight clusters' stream ports and the two memory address generators)
 * attach through stream buffers; the SRF array itself provides a fixed
 * aggregate bandwidth (16 words/cycle = 12.8 GB/s at 200 MHz) that an
 * arbiter shares round-robin among clients with outstanding demand.
 *
 * Modeling note: stream data lives in the SRF backing array the moment
 * it is produced; the stream buffers model *availability and bandwidth*,
 * not storage.  An input client exposes a sliding availability window
 * (words the SRF has streamed into the buffer); an output client exposes
 * a sliding space window (words not yet drained into the array).  This
 * keeps functional state exact under software-pipelined access patterns
 * where several loop iterations are in flight at once.
 */

#ifndef IMAGINE_SRF_SRF_HH
#define IMAGINE_SRF_SRF_HH

#include <cstdint>
#include <vector>

#include <string>

#include "isa/stream.hh"
#include "sim/component.hh"
#include "sim/config.hh"
#include "sim/types.hh"

namespace imagine
{

class FaultInjector;
class StatsRegistry;
namespace trace { class TraceSink; }

/** Aggregate SRF statistics. */
struct SrfStats
{
    uint64_t wordsTransferred = 0;  ///< words crossing the SRF array port
    uint64_t busyCycles = 0;        ///< cycles with at least one transfer

    /** Register every counter on @p reg under @p prefix. */
    void registerOn(StatsRegistry &reg, const std::string &prefix);
};

/** The stream register file with its stream-buffer clients. */
class Srf : public Component
{
  public:
    explicit Srf(const MachineConfig &cfg);

    // --- functional backing-store access (also used by tests) ---------
    Word read(uint32_t wordAddr) const;
    void write(uint32_t wordAddr, Word w);
    uint32_t sizeWords() const { return size_; }

    // --- client lifecycle ---------------------------------------------
    /**
     * Open an input client: data flows SRF -> consumer.
     * @param sdr stream location and length
     * @param minWindow minimum buffer window in words; clients moving
     *        wide records (record x 8 lanes per SIMD iteration) need a
     *        window that covers at least one full iteration
     * @return client handle
     */
    int openIn(const Sdr &sdr, uint32_t minWindow = 0);
    /**
     * Open an output client: data flows producer -> SRF.
     * @param sdr stream location; length is the maximum (conditional
     *        streams may close shorter)
     */
    int openOut(const Sdr &sdr, uint32_t minWindow = 0);
    /** Release a client. Returns words actually produced (out clients). */
    uint32_t close(int client);

    // --- input-side consumer interface ---------------------------------
    /** True when stream word @p elem has been fetched into the buffer. */
    bool inReady(int client, uint32_t elem) const;
    /** Consume stream word @p elem (must be inReady). */
    Word inConsume(int client, uint32_t elem);
    /**
     * Consume one SIMD row: elements first + lane * stride for the
     * eight lanes, into @p dst.  Bounds and double-consume checks, the
     * final buffer-window state and the arbiter-visible effects are
     * identical to eight inConsume calls in lane order; the base
     * advance and eligibility update run once per row instead of per
     * word (the cluster's granted-path block transfer, DESIGN.md
     * section 9).
     */
    void inConsumeRow(int client, uint32_t first, uint32_t stride,
                      Word *dst);
    /**
     * True when every word of the stream is already in the buffer: the
     * arbiter has nothing left to move for this client, so consumption
     * can never stall nor create SRF work (the basis of the cluster's
     * batched In execution, DESIGN.md section 8).
     */
    bool inFullyFetched(int client) const
    {
        const Client &c = clients_[static_cast<size_t>(client)];
        return c.fetched >= c.length;
    }

    // --- output-side producer interface ---------------------------------
    /** True when the buffer can accept stream word @p elem. */
    bool outCanAccept(int client, uint32_t elem) const;
    /** Produce stream word @p elem (must be accepted). */
    void outProduce(int client, uint32_t elem, Word w);
    /**
     * Produce one SIMD row: elements first + lane * stride from
     * @p vals.  Per-word asserts and fault injection run in lane order
     * (the injector's decision sequence is unchanged); the eligibility
     * update runs once per row.
     */
    void outProduceRow(int client, uint32_t first, uint32_t stride,
                       const Word *vals);
    /** Conditional-stream append position (next element index). */
    uint32_t outAppendPos(int client) const;

    // --- sampled-fidelity bulk paths (DESIGN.md section 12) -------------
    /**
     * One stream op's row range inside a folded region: the op covers
     * record word @p elemIdx and has processed rows [rowLo, rowHi).
     */
    struct WarpRange
    {
        uint32_t elemIdx;
        uint32_t rowLo;
        uint32_t rowHi;
    };
    /**
     * Closed-form bulk advance of an input client across a folded
     * region: equivalent to replaying warpInRow for every row of every
     * op in @p ops (each op consumes record word elemIdx of rows
     * [rowLo, rowHi)), but O(windowWords) instead of O(rows).  The ops
     * must cover every record word exactly once - the full-coverage
     * property any working kernel loop has.  Word counts, base/fetched
     * frontiers and the window flag pattern land exactly where the
     * per-row replay would leave them.
     */
    void warpInBulk(int client, uint32_t rec, const WarpRange *ops,
                    size_t n);
    /**
     * Closed-form bulk advance of an output client: equivalent to
     * replaying warpOutRow for every row, with the folded region's
     * data synthesized by tiling each op's @p tiles slice (tileRows
     * value-ring rows x 8 lanes, row r uses slice r & (tileRows - 1)).
     * Counters, produced/base frontiers and window flags are exact;
     * the folded *data* holds representative ring values, like the
     * per-row replay's re-emitted rows.
     */
    void warpOutBulk(int client, uint32_t rec, const WarpRange *ops,
                     size_t n, const Word *tiles, uint32_t tileRows);
    /**
     * Fold-time variant of inConsumeRow: if part of the row has not yet
     * streamed into the buffer, the fetch is performed inline (counted
     * in wordsTransferred, exactly the words the arbiter would have
     * moved).  Consume order during a fold is identical to real
     * execution, so the buffer-window invariants carry over unchanged.
     */
    void warpInRow(int client, uint32_t first, uint32_t stride,
                   Word *dst);
    /**
     * Fold-time variant of outProduceRow: the row is written to the
     * array, draining just enough of the contiguous present run (as
     * the arbiter would have during the folded cycles, counted in
     * wordsTransferred) to make window space.  Fault injection is
     * skipped - folds are ineligible under armed faults.
     */
    void warpOutRow(int client, uint32_t first, uint32_t stride,
                    const Word *vals);
    /**
     * Buffer occupancy ahead of the consume point (fetched - base).
     * Captured at fold entry so the fold can restore the steady-state
     * occupancy on exit instead of a buffer-rich window that would
     * bias the next stall-rate measurement stratum.
     */
    uint32_t warpInSlack(int client) const;
    /** Produced-but-undrained words (produced - base), same purpose. */
    uint32_t warpOutBacklog(int client) const;
    /**
     * After a fold, refill an input client's availability window to
     * @p slackWords ahead of the consume point - the steady-state
     * occupancy captured at fold entry - counting the refill in
     * wordsTransferred.
     */
    void warpInTopUp(int client, uint32_t slackWords);
    /**
     * After a fold, drain an output client down to @p backlogWords
     * undrained words - the steady-state backlog captured at fold
     * entry - counting the drain in wordsTransferred.
     */
    void warpOutSettle(int client, uint32_t backlogWords);
    /** Credit estimated arbiter busy cycles for a folded region. */
    void warpAddBusy(uint64_t cycles) { stats_.busyCycles += cycles; }

    /** Advance one cycle: the arbiter moves words between array/buffers. */
    void tick();

    // --- Component ------------------------------------------------------
    const char *componentName() const override { return "srf"; }
    void tick(Cycle) override { tick(); }
    void registerStats(StatsRegistry &reg) override;
    void resetStats() override { stats_ = {}; }
    Cycle nextEventAfter(Cycle now) const override;
    void skipIdle(Cycle from, uint64_t span) override;
    void state(ckpt::Archive &ar) override;

    /** True when every produced word has drained into the array. */
    bool outDrained(int client) const;

    // --- resilience -----------------------------------------------------
    /** Attach a fault injector (null = no injection; the default). */
    void setFaultInjector(FaultInjector *inj) { inj_ = inj; }
    /**
     * True when a parity-detected bit flip corrupted a word this client
     * wrote; the owning stream op must be retried.  Cleared by close().
     */
    bool clientFaulted(int client) const { return at(client).faulted; }

    const SrfStats &stats() const { return stats_; }

    /** Attach the session trace sink (null by default: hooks dead). */
    void setTrace(trace::TraceSink *sink) { trace_ = sink; }

  private:
    struct Client
    {
        bool active = false;
        bool isIn = false;
        uint32_t offset = 0;        ///< SRF word offset of element 0
        uint32_t length = 0;        ///< stream length in words
        uint32_t base = 0;          ///< first un-retired element
        uint32_t fetched = 0;       ///< in: elements streamed into buffer
        uint32_t produced = 0;      ///< out: highest produced element + 1
        /** Consumed (in) / present (out) flags, one byte per word
         *  (byte flags beat std::vector<bool> bit ops on this path). */
        std::vector<uint8_t> window;
        uint32_t windowWords = 0;
        bool faulted = false;       ///< detected fault in written data
        /**
         * Cached arbiter eligibility: the client has both demand and
         * window space, i.e. tick() could move a word for it.  Kept
         * exact by updateMovable() at every state mutation so the
         * idle-tick fast path and the O(1) horizon never scan.
         */
        bool movable = false;
    };

    Client &at(int client);
    const Client &at(int client) const;
    /** Recompute @p c's movable flag and the movable-client count. */
    void updateMovable(Client &c);

    const MachineConfig &cfg_;
    FaultInjector *inj_ = nullptr;
    uint32_t size_;
    std::vector<Word> data_;
    std::vector<Client> clients_;
    int movableCount_ = 0;          ///< clients with movable == true
    size_t rrNext_ = 0;             ///< round-robin arbitration cursor
    /** Per-tick arbiter scratch (movable clients, caps, grants). */
    std::vector<uint32_t> grantIdx_, grantCap_, grantCnt_;
    /** Trace track for client slot @p idx (created on first grant). */
    uint32_t clientTrack(size_t idx);
    trace::TraceSink *trace_ = nullptr;
    std::vector<uint32_t> clientTracks_;
    SrfStats stats_;
};

} // namespace imagine

#endif // IMAGINE_SRF_SRF_HH
