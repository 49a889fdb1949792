/**
 * @file
 * Process-wide kernel-compile cache.
 *
 * Iterative modulo scheduling (IMS) is the expensive part of bringing
 * up a session: sweeps and chaos campaigns build hundreds of systems
 * that compile the *same* kernels against the *same* compile-relevant
 * machine parameters.  The cache keys a compiled kernel by
 * (kernel-graph fingerprint, compile-relevant config fingerprint,
 * compile options) and shares the result process-wide, so a second
 * session registering an identical kernel skips IMS entirely.
 *
 * Only the config fields the compiler actually reads (unit counts,
 * latencies, stream-buffer ports, LRF capacity) enter the key: a chaos
 * campaign that varies fault seeds, or a sweep that varies SRF
 * bandwidth or scoreboard depth, still hits.
 *
 * Compilation is deterministic, so a hit returns bit-identical
 * schedules - cached and fresh sessions produce identical cycle
 * counts.  Lowering is compile()'s last pass, so a hit also shares
 * the kernel's micro-op trace (CompiledKernel::lowered).  On a key
 * collision the stored graph is compared structurally before reuse,
 * so a hit can never return the wrong kernel.  All state is
 * mutex-guarded; hit/miss counters are atomics
 * that sessions expose through their StatsRegistry
 * ("kernelc.cacheHits" / "kernelc.cacheMisses" - process-wide values,
 * shared by concurrent sessions).
 */

#ifndef IMAGINE_KERNELC_COMPILE_CACHE_HH
#define IMAGINE_KERNELC_COMPILE_CACHE_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "kernelc/schedule.hh"

namespace imagine::kernelc
{

/** Deterministic structural fingerprint of a kernel graph. */
uint64_t fingerprint(const KernelGraph &g);
/** Fingerprint of the compile-relevant MachineConfig fields. */
uint64_t compileConfigFingerprint(const MachineConfig &cfg);
/** Field-by-field structural equality (fingerprint collision guard). */
bool sameGraph(const KernelGraph &a, const KernelGraph &b);

/** The process-wide cache. */
class CompileCache
{
  public:
    static CompileCache &instance();

    /**
     * Compile @p g through the cache.  The returned kernel is shared
     * and immutable; callers that need an owned copy (KernelRegistry
     * stores kernels by value) copy it - still far cheaper than IMS.
     */
    std::shared_ptr<const CompiledKernel>
    compile(const KernelGraph &g, const MachineConfig &cfg,
            const CompileOptions &opts = {});

    uint64_t hits() const { return hits_.load(); }
    uint64_t misses() const { return misses_.load(); }
    /** A lowering happens exactly on a compile miss. */
    uint64_t loweredHits() const { return hits(); }
    uint64_t loweredMisses() const { return misses(); }
    size_t size() const;
    /** Drop every entry and zero the counters (tests). */
    void clear();

  private:
    CompileCache() = default;

    mutable std::mutex mu_;
    std::unordered_map<
        uint64_t,
        std::vector<std::shared_ptr<const CompiledKernel>>> entries_;
    std::atomic<uint64_t> hits_{0};
    std::atomic<uint64_t> misses_{0};
};

} // namespace imagine::kernelc

#endif // IMAGINE_KERNELC_COMPILE_CACHE_HH
