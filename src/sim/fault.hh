/**
 * @file
 * Deterministic, seed-driven fault injection.
 *
 * The development board's bring-up was dominated by failures the clean
 * model cannot express: flaky SDRAM bits, the precharge quirk, and
 * host/stream-controller hangs (paper sections 3.1 and 4.2).  This
 * subsystem makes such failures first-class and *reproducible*: every
 * fault site draws from one explicitly-seeded Rng, so a campaign run
 * with the same FaultPlan produces a bit-identical fault trace.
 *
 * Sites (enabled via MachineConfig::faults):
 *  - SrfWord:    a bit flip in a word as it is written into the SRF
 *                array (kernel outputs and memory-load fills).
 *  - DramWord:   a bit flip in a word crossing the SDRAM pins (load
 *                reads and store writes).
 *  - UcodeLoad:  a corrupted microcode transfer (the store is parity-
 *                protected, so corruption is always detected and the
 *                load retried).
 *  - StuckSlot:  a scoreboard slot whose completion signal is lost;
 *                dependents never issue and the forward-progress
 *                watchdog eventually produces a HangReport.
 *  - AgStall:    an address generator that stops generating addresses
 *                for a burst of cycles (timing-only perturbation).
 *
 * Detection depends on the configured EccMode per storage array:
 * Secded corrects single-bit flips in place, Parity detects them and
 * flags the owning operation for retry, None lets them through silently
 * (counted, so harnesses can still distinguish "wrong output because a
 * fault was injected" from a real model bug).
 */

#ifndef IMAGINE_SIM_FAULT_HH
#define IMAGINE_SIM_FAULT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/config.hh"
#include "sim/rng.hh"
#include "sim/types.hh"

namespace imagine
{

class StatsRegistry;
namespace ckpt
{
class Archive;
} // namespace ckpt

/** Where a fault was injected. */
enum class FaultSite : uint8_t
{
    SrfWord,
    DramWord,
    UcodeLoad,
    StuckSlot,
    AgStall,
    NumSites
};

const char *faultSiteName(FaultSite site);

/** What happened to an injected fault. */
enum class FaultOutcome : uint8_t
{
    Corrected,      ///< ECC fixed it in place
    Detected,       ///< flagged for retry / surfaced as an error
    Silent,         ///< no protection: corruption reached the data
    Perf            ///< timing-only (AG stall); no data at risk
};

/** One injected fault, in deterministic injection order. */
struct FaultEvent
{
    uint64_t ordinal = 0;       ///< 0-based injection sequence number
    FaultSite site = FaultSite::SrfWord;
    FaultOutcome outcome = FaultOutcome::Silent;
    uint64_t where = 0;         ///< word address / slot index / AG id
    Word mask = 0;              ///< flipped bits (bit-flip sites)

    bool operator==(const FaultEvent &) const = default;
};

/** Aggregate fault accounting (injected = corrected+detected+silent+perf). */
struct FaultStats
{
    uint64_t injected = 0;
    uint64_t corrected = 0;
    uint64_t detected = 0;
    uint64_t silent = 0;
    uint64_t perfOnly = 0;

    uint64_t retries = 0;           ///< op re-issues triggered by detection
    uint64_t retriesExhausted = 0;  ///< give-up-to-error events
    uint64_t stuckCompletions = 0;
    uint64_t agStallCycles = 0;

    uint64_t bySite[static_cast<int>(FaultSite::NumSites)] = {};

    /** Register every counter on @p reg under @p prefix. */
    void registerOn(StatsRegistry &reg, const std::string &prefix);
};

/** The injector: one per ImagineSystem, shared by all components. */
class FaultInjector
{
  public:
    explicit FaultInjector(const FaultPlan &plan)
        : plan_(plan), rng_(plan.seed)
    {
    }

    const FaultPlan &plan() const { return plan_; }

    /** Result of a bit-flip site evaluation. */
    struct Flip
    {
        bool hit = false;       ///< a fault was injected
        bool detected = false;  ///< parity flagged it (word corrupted)
        Word word = 0;          ///< the word to store/deliver
    };

    /** A word is being written into the SRF array. */
    Flip onSrfWrite(uint64_t wordAddr, Word w);
    /** A word is crossing the SDRAM pins (either direction). */
    Flip onDramWord(uint64_t wordAddr, Word w);
    /** A microcode load completed; true = corrupted (always detected). */
    bool onUcodeLoad(uint16_t kernelId);
    /** A scoreboard slot is completing; true = completion signal lost. */
    bool onSlotCompletion(uint32_t instrIdx);
    /** An AG is generating addresses; returns stall cycles to inject. */
    int onAgGenerate(int ag);

    /** Account an op re-issue caused by a detected fault. */
    void noteRetry() { ++stats_.retries; }
    /** Account a retry budget running out. */
    void noteRetryExhausted() { ++stats_.retriesExhausted; }

    const FaultStats &stats() const { return stats_; }
    const std::vector<FaultEvent> &trace() const { return trace_; }
    /** Register the injector's counters on @p reg under "faults". */
    void registerStats(StatsRegistry &reg)
    {
        stats_.registerOn(reg, "faults");
    }

    /**
     * Checkpoint the RNG cursor and the fault trace.  The FaultStats
     * counters are all registered, so the engine restores them
     * centrally through StatsRegistry::restore.
     */
    void state(ckpt::Archive &ar);

  private:
    /** One uniform draw; compares against an injection rate. */
    bool roll(double rate)
    {
        return rate > 0.0 && rng_.uniform() < rate;
    }
    Flip flipWord(FaultSite site, EccMode ecc, uint64_t where, Word w);
    void record(FaultSite site, FaultOutcome outcome, uint64_t where,
                Word mask);

    FaultPlan plan_;
    Rng rng_;
    FaultStats stats_;
    std::vector<FaultEvent> trace_;
};

} // namespace imagine

#endif // IMAGINE_SIM_FAULT_HH
