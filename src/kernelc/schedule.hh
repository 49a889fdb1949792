/**
 * @file
 * VLIW scheduling for Imagine kernels.
 *
 * The prologue and epilogue regions are acyclic and use greedy list
 * scheduling.  The main loop is software pipelined with iterative
 * modulo scheduling (Rau, MICRO-27): the initiation interval II starts
 * at max(resource-constrained MII, recurrence-constrained MII) and ops
 * are placed into a modulo reservation table with bounded eviction,
 * raising II until a feasible schedule is found.
 *
 * The kernel main-loop effects the paper measures all fall out of this
 * scheduler: load imbalance between unit types shows up as ResMII being
 * set by the busiest class, limited ILP shows up as recurrence cycles
 * or long critical paths inflating II / schedule length, and software
 * pipeline priming shows up as the stage count.
 */

#ifndef IMAGINE_KERNELC_SCHEDULE_HH
#define IMAGINE_KERNELC_SCHEDULE_HH

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "kernelc/dfg.hh"
#include "sim/config.hh"

namespace imagine::kernelc
{

struct LoweredKernel;

/** One op placed in a schedule. */
struct ScheduledOp
{
    uint32_t node = 0;  ///< graph node id
    int32_t time = 0;   ///< issue cycle within the block / loop body
    uint8_t unit = 0;   ///< concrete unit index within the FU class
};

/** Schedule of an acyclic block (prologue / epilogue). */
struct BlockSchedule
{
    std::vector<ScheduledOp> ops;
    int length = 0;         ///< cycles from first issue to last completion
};

/** Modulo schedule of the main loop. */
struct LoopSchedule
{
    std::vector<ScheduledOp> ops;
    int ii = 1;             ///< initiation interval
    int length = 0;         ///< single-iteration span (issue to completion)
    int stages() const { return ii ? (length + ii - 1) / ii : 1; }
};

/** Operation-mix statistics for one region (per iteration for loops). */
struct OpMix
{
    uint64_t arithOps = 0;  ///< weighted (packed) arithmetic op count
    uint64_t fpOps = 0;     ///< subset of arithOps that are fp
    uint64_t lrfReads = 0;
    uint64_t lrfWrites = 0;
    uint64_t spAccesses = 0;
    uint64_t commWords = 0;
    uint64_t issuedOps = 0; ///< scheduled (non-free) ops, for IPC
};

/** A fully compiled kernel: graph + schedules + static statistics. */
struct CompiledKernel
{
    KernelGraph graph;
    BlockSchedule prologue;
    LoopSchedule loop;
    BlockSchedule epilogue;

    OpMix loopMix;          ///< per loop iteration
    OpMix prologueMix;
    OpMix epilogueMix;

    /** VLIW instruction count: microcode store footprint. */
    int ucodeInstrs = 0;
    /** Mean live LRF words per cluster in steady state. */
    double lrfMeanLive = 0.0;

    /** The schedules lowered to micro-ops (predecode.hh): compile()'s
     *  last pass.  Immutable, and shared by every copy of the kernel. */
    std::shared_ptr<const LoweredKernel> lowered;

    const char *name() const { return graph.name.c_str(); }
};

/** Compiler options (ablation hooks). */
struct CompileOptions
{
    /**
     * Software pipelining: when false, iterations do not overlap (the
     * initiation interval is stretched to the full single-iteration
     * schedule length) - the classic VLIW-without-modulo-scheduling
     * baseline used by the SWP ablation benchmark.
     */
    bool softwarePipelining = true;
};

/**
 * Compile a kernel graph to VLIW schedules and lower them to the
 * micro-op trace the cluster array executes.
 *
 * @param g verified kernel graph (moved in)
 * @param cfg machine parameters (unit counts, latencies)
 * @param opts compiler options
 * @return the compiled kernel
 */
CompiledKernel compile(KernelGraph g, const MachineConfig &cfg,
                       const CompileOptions &opts = {});

/**
 * Resolve a value reference through accumulator pseudo-nodes: reading
 * an Acc reads its @c next input one iteration earlier, and chained
 * accumulators add up.  Returns the producing node id (possibly a free
 * node) and the total distance.  The scheduler's dependence edges and
 * the micro-op lowering (predecode.hh) both use it, so they agree.
 */
std::pair<uint32_t, int> resolveProducer(const KernelGraph &g,
                                         uint32_t id);

/** True if @p op needs a schedule slot (false for free value nodes). */
inline bool
isScheduled(Opcode op)
{
    switch (op) {
      case Opcode::Imm:
      case Opcode::UcrRd:
      case Opcode::Cid:
      case Opcode::Iter:
      case Opcode::Acc:
        return false;
      default:
        return true;
    }
}

} // namespace imagine::kernelc

#endif // IMAGINE_KERNELC_SCHEDULE_HH
