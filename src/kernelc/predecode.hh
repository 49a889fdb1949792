/**
 * @file
 * Compile-time lowering to a pre-decoded micro-op trace.
 *
 * Interpreting a schedule re-derives per cycle what is static per
 * kernel: walking `ScheduledOp`s, switching on the graph node's
 * `Opcode`, and resolving every operand through a recursive graph walk
 * that switches again per operand per lane.  The lowering pass here
 * runs once per (kernel, schedule) and compiles all three regions —
 * prologue, loop buckets, epilogue — into flat, contiguous `MicroOp`
 * records, which are all the cluster array executes:
 *
 *  - a dense `MicroHandler` index replaces the `Opcode` switch; every
 *    pure-arith opcode gets its own handler whose 8-lane loop inlines
 *    one `evalArithScalar<OP>` instantiation (isa/arith_inline.hh);
 *  - operand sources are pre-resolved to base offsets into the
 *    cluster's `values_` array (`node * depth * numClusters`), with
 *    `depth` rounded to a power of two so the per-iteration slot is
 *    `iter & mask` instead of a modulo, and accumulator reads to their
 *    chain's root and distance plus per-accumulator init and final
 *    sources, so the node graph is never walked at run time;
 *  - immediates, UCR indices and stream bindings (record width,
 *    element slot) are inlined into the record;
 *  - loop records are bucket-major with `[begin, end)` ranges per
 *    issue bucket and a parallel stage array, so liveness filtering in
 *    the issue loop touches one small contiguous `uint32_t` array.
 *
 * The trace depends only on the schedules (never on trip count,
 * stream bindings or restart state — those resolve at execution), so
 * lowering is kernelc::compile()'s last pass: every copy of a
 * `CompiledKernel` shares its trace through `CompiledKernel::lowered`,
 * and a compile-cache hit is a lowering hit.  Execution semantics live
 * in cluster/cluster.cc;
 * tests/predecode_test.cc checks them against the ReferenceInterp
 * oracle and against pinned cycles and counters.
 */

#ifndef IMAGINE_KERNELC_PREDECODE_HH
#define IMAGINE_KERNELC_PREDECODE_HH

#include <cstdint>
#include <vector>

#include "isa/arith_inline.hh"
#include "kernelc/schedule.hh"
#include "sim/types.hh"

namespace imagine::kernelc
{

/** Dense dispatch index; one case per handler in the micro engine. */
enum class MicroHandler : uint8_t
{
    In,           ///< consume 8 stream words into the dst row
    OutLoop,      ///< produce 8 words, loop-region element addressing
    OutEpilogue,  ///< produce 8 words, epilogue element addressing
    OutCond,      ///< per-lane conditional append
    CommPerm,     ///< inter-cluster permutation
    SpRd,
    SpWr,
    UcrWr,
#define IMAGINE_M(name) name,
    IMAGINE_ARITH_OPS(IMAGINE_M)  ///< one dedicated 8-lane handler each
#undef IMAGINE_M
};

/** How a micro-op input resolves at execution time. */
enum class MicroSrcKind : uint8_t
{
    Imm,       ///< constant; payload inlined in `imm`
    Ucr,       ///< UCR read at exec time (UcrWr may mutate mid-run)
    Cid,       ///< lane id 0..7
    IterIdx,   ///< the op's iteration index
    RowLoop,   ///< loop-region producer row: values_[base + rowSlot*8]
    RowFixed,  ///< non-loop producer row: values_[base] (slot 0)
    Chain      ///< accumulator: source `root` read `dist` iterations
               ///< back; iteration i < dist reads the start value of
               ///< accumulator LoweredKernel::chainSlots[chain + i]
};

/** One pre-resolved micro-op input. */
struct MicroSrc
{
    MicroSrcKind kind = MicroSrcKind::Imm;
    MicroSrcKind root = MicroSrcKind::Imm;  ///< Chain: the root's kind
    uint16_t dist = 0;   ///< Chain: accumulators between read and root
    Word imm = 0;        ///< Imm payload / UCR index
    uint32_t base = 0;   ///< values_ word offset of the producer's rows
    uint32_t chain = 0;  ///< Chain: first of `dist` chainSlots entries
};

/** One pre-decoded scheduled op. */
struct MicroOp
{
    MicroHandler h = MicroHandler::In;
    uint8_t numIn = 0;
    uint8_t dstLoop = 0;      ///< dst slot is iter & mask (else slot 0)
    uint16_t streamIdx = 0;   ///< In/Out/OutCond stream binding index
    uint16_t rec = 0;         ///< record words per lane per iteration
    uint16_t elemIdx = 0;     ///< record word slot
    uint16_t ucrIdx = 0;      ///< UcrWr target register
    uint32_t dstBase = 0;     ///< values_ word offset of the dst rows
    MicroSrc src[3];
};

/**
 * One lowered schedule region.  Loop regions are bucket-major
 * (`bucketBegin` has ii + 1 entries); block regions (prologue /
 * epilogue) are time-sorted with `stage[i]` holding the issue time.
 */
struct LoweredRegion
{
    std::vector<MicroOp> ops;
    /** Loop: op's stage (time / ii), so iter = t/ii - stage.
     *  Blocks: the op's absolute issue time. */
    std::vector<uint32_t> stage;
    std::vector<uint32_t> bucketBegin;    ///< loop only; size ii + 1
    std::vector<uint8_t> bucketHasStream; ///< loop only
};

/** One accumulator's lowered sources; its index is its dense slot. */
struct LoweredAcc
{
    MicroSrc init;  ///< start value without Restart carry-over
    MicroSrc fin;   ///< the accumulator read at iteration trip (final)
};

/** A kernel fully lowered to micro-op traces. */
struct LoweredKernel
{
    /** Value-buffer depth (power of two), deep enough for the software
     *  pipeline and for every chained accumulator read. */
    uint32_t depth = 1;
    uint32_t mask = 0;    ///< depth - 1
    uint32_t ii = 1;      ///< loop initiation interval (bucket count)
    LoweredRegion prologue, loop, epilogue;
    std::vector<LoweredAcc> accs;  ///< one per Acc node, ascending id
    /** Per accumulator, the slots of the `dist` accumulators its chain
     *  passes through, head first. */
    std::vector<uint32_t> chainSlots;
};

/**
 * Lower @p k's three scheduled regions.  Deterministic: loop records
 * keep `k.loop.ops` order within each bucket, and block records are
 * sorted by issue time with std::sort, so same-cycle op order is fixed
 * for a given standard library.
 */
LoweredKernel lower(const CompiledKernel &k);

} // namespace imagine::kernelc

#endif // IMAGINE_KERNELC_PREDECODE_HH
