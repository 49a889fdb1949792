/**
 * @file
 * Typed simulator errors and structured hang diagnostics.
 *
 * Every abnormal termination in the model is carried by SimError, which
 * unifies the historical fatal()/panic() paths with the new diagnostic
 * classes (watchdog hangs, address-space violations, exhausted fault
 * recovery).  Embedding harnesses and tests catch SimError and inspect
 * kind()/hangReport(); standalone binaries catch it in main() and exit
 * with code 1, preserving the old behaviour.
 */

#ifndef IMAGINE_SIM_ERROR_HH
#define IMAGINE_SIM_ERROR_HH

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace imagine
{

namespace ckpt
{
class Archive;
} // namespace ckpt

/** Why the simulator gave up. */
enum class SimErrorKind : uint8_t
{
    Fatal,              ///< the user asked for something impossible
    Panic,              ///< internal model inconsistency
    Hang,               ///< forward-progress watchdog fired
    MemoryBounds,       ///< access outside the 256 MB board address space
    UnrecoveredFault,   ///< fault detected, retry budget exhausted
    Canceled            ///< cooperative abort (deadline, drain, cancel)
};

const char *simErrorKindName(SimErrorKind kind);

/**
 * Snapshot of everything that can explain a wedged machine: the
 * scoreboard with its compiler-encoded dependencies, a dependency cycle
 * if one exists, address-generator and memory in-flight state, and the
 * host dispatcher position.
 */
struct HangReport
{
    Cycle cycle = 0;                ///< cycle the watchdog fired at
    Cycle lastProgressCycle = 0;    ///< last retirement/issue observed
    uint64_t cycleLimit = 0;        ///< run() bound (0 = stagnation trip)
    uint64_t instrsRetired = 0;     ///< stream instructions retired so far

    /** One scoreboard slot. */
    struct SlotInfo
    {
        uint32_t idx = 0;           ///< program-order instruction index
        std::string label;          ///< profiling label, if any
        std::string kind;           ///< stream-op kind name
        std::string state;          ///< slot state name
        std::vector<uint32_t> waitingOn;    ///< unsatisfied dep indices
        int ag = -1;                ///< AG bound to a memory op
        int retries = 0;            ///< fault-recovery retries so far
    };
    std::vector<SlotInfo> slots;

    /**
     * Instruction indices forming a scoreboard dependency cycle, in
     * edge order, if the finder located one (a malformed program); empty
     * for plain resource hangs.
     */
    std::vector<uint32_t> depCycle;

    /** One address generator. */
    struct AgInfo
    {
        int ag = 0;
        bool active = false;
        bool isLoad = false;
        bool sink = false;          ///< microcode transfer
        uint32_t completed = 0;     ///< words fully transferred
        uint32_t length = 0;        ///< total words requested
    };
    std::vector<AgInfo> ags;
    uint64_t queuedDramRequests = 0;

    // Host dispatcher position.
    size_t hostNext = 0;            ///< next program instruction to send
    bool hostFinished = false;
    Cycle hostBlockedUntil = 0;     ///< host-dependency round trip end

    bool clustersBusy = false;
    uint64_t clusterKernelCycles = 0;   ///< cycles into current kernel

    /** Multi-line human-readable dump. */
    std::string describe() const;
    /**
     * Save or restore every field through a checkpoint archive: crash
     * snapshots carry the structured diagnostics of the failure that
     * produced them (the "report" section, DESIGN.md section 11), so a
     * wedged chaos run is debuggable from its on-disk artifacts alone.
     * The round trip is exact (tests/error_test.cc).
     */
    void state(ckpt::Archive &ar);
};

/**
 * The one exception type the simulator throws.
 *
 * Derives from std::logic_error so long-standing tests that observe
 * panics via EXPECT_THROW(..., std::logic_error) keep working.
 */
class SimError : public std::logic_error
{
  public:
    SimError(SimErrorKind kind, const std::string &msg)
        : std::logic_error(msg), kind_(kind)
    {
    }
    SimError(SimErrorKind kind, const std::string &msg,
             std::shared_ptr<const HangReport> report)
        : std::logic_error(msg), kind_(kind), report_(std::move(report))
    {
    }

    SimErrorKind kind() const { return kind_; }
    /** Non-null only for SimErrorKind::Hang. */
    const HangReport *hangReport() const { return report_.get(); }

  private:
    SimErrorKind kind_;
    std::shared_ptr<const HangReport> report_;
};

} // namespace imagine

#endif // IMAGINE_SIM_ERROR_HH
