#include "kernelc/predecode.hh"

#include <algorithm>

#include "sim/log.hh"

namespace imagine::kernelc
{

namespace
{

/** The Acc node ids of @p g, ascending: LoweredKernel::accs order. */
std::vector<uint32_t>
accumulatorNodes(const KernelGraph &g)
{
    std::vector<uint32_t> ids;
    for (uint32_t id = 0; id < g.nodes.size(); ++id)
        if (g.nodes[id].op == Opcode::Acc)
            ids.push_back(id);
    return ids;
}

MicroHandler
arithHandler(Opcode op)
{
    switch (op) {
#define IMAGINE_M(name)                                                  \
      case Opcode::name:                                                 \
        return MicroHandler::name;
    IMAGINE_ARITH_OPS(IMAGINE_M)
#undef IMAGINE_M
      default:
        IMAGINE_PANIC("no micro-op handler for opcode %s",
                      opInfo(op).name);
    }
}

/** Pre-resolve a read of producer @p id, which is not an accumulator. */
MicroSrc
lowerDirect(const KernelGraph &g, uint32_t id, uint32_t depth)
{
    const Node &p = g.nodes[id];
    MicroSrc s;
    switch (p.op) {
      case Opcode::Imm:
        s.kind = MicroSrcKind::Imm;
        s.imm = p.payload;
        break;
      case Opcode::UcrRd:
        s.kind = MicroSrcKind::Ucr;
        s.imm = p.payload;
        break;
      case Opcode::Cid:
        s.kind = MicroSrcKind::Cid;
        break;
      case Opcode::Iter:
        s.kind = MicroSrcKind::IterIdx;
        break;
      default:
        // Scheduled producer: a value row in the cluster buffer.
        s.kind = p.region == Region::Loop ? MicroSrcKind::RowLoop
                                          : MicroSrcKind::RowFixed;
        s.base = id * depth * numClusters;
        break;
    }
    return s;
}

/**
 * Value-ring depth: a power of two of at least stages + 2 that keeps
 * every chained accumulator read's row live.  A loop consumer at time
 * tc reads the row its root (at tp) wrote dist iterations back, which
 * the root rewrites depth iterations after writing it, so
 * (depth - dist) * ii > tc - tp.  The epilogue and the finals read
 * iteration trip - dist, so dist <= depth.
 */
uint32_t
valueDepth(const CompiledKernel &k, const std::vector<uint32_t> &slotOf,
           const std::vector<std::pair<uint32_t, int>> &roots)
{
    const KernelGraph &g = k.graph;
    const int64_t ii = std::max(k.loop.ii, 1);
    std::vector<int64_t> time(g.nodes.size(), -1);
    for (const ScheduledOp &s : k.loop.ops)
        time[s.node] = s.time;
    int64_t need = k.loop.stages() + 2;
    for (const auto &r : roots)
        need = std::max<int64_t>(need, r.second);
    for (const ScheduledOp &c : k.loop.ops) {
        const Node &n = g.nodes[c.node];
        for (int i = 0; i < n.numIn; ++i) {
            uint32_t slot = slotOf[n.in[i]];
            if (slot == UINT32_MAX || time[roots[slot].first] < 0)
                continue;   // not an accumulator, or no row ring
            auto [root, dist] = roots[slot];
            int64_t gap = c.time - time[root];
            if (gap >= 0)
                need = std::max(need, dist + gap / ii + 1);
        }
    }
    uint32_t depth = 1;
    while (depth < need)
        depth <<= 1;
    return depth;
}

MicroOp
lowerOp(const KernelGraph &g, const ScheduledOp &sop,
        const LoweredKernel &L, const std::vector<uint32_t> &slotOf)
{
    const Node &n = g.nodes[sop.node];
    MicroOp m;
    m.numIn = n.numIn;
    m.dstLoop = n.region == Region::Loop ? 1 : 0;
    m.dstBase = sop.node * L.depth * numClusters;
    switch (n.op) {
      case Opcode::In:
        m.h = MicroHandler::In;
        m.streamIdx = n.streamIdx;
        m.rec = g.inRec[n.streamIdx];
        m.elemIdx = n.elemIdx;
        break;
      case Opcode::Out:
        m.h = n.region == Region::Loop ? MicroHandler::OutLoop
                                       : MicroHandler::OutEpilogue;
        m.streamIdx = n.streamIdx;
        m.rec = g.outRec[n.streamIdx];
        m.elemIdx = n.elemIdx;
        break;
      case Opcode::OutCond:
        m.h = MicroHandler::OutCond;
        m.streamIdx = n.streamIdx;
        m.rec = g.outRec[n.streamIdx];
        m.elemIdx = n.elemIdx;
        break;
      case Opcode::CommPerm:
        m.h = MicroHandler::CommPerm;
        break;
      case Opcode::SpRd:
        m.h = MicroHandler::SpRd;
        break;
      case Opcode::SpWr:
        m.h = MicroHandler::SpWr;
        break;
      case Opcode::UcrWr:
        m.h = MicroHandler::UcrWr;
        m.ucrIdx = static_cast<uint16_t>(n.payload);
        break;
      default:
        m.h = arithHandler(n.op);
        break;
    }
    for (int i = 0; i < n.numIn; ++i)
        m.src[i] = slotOf[n.in[i]] != UINT32_MAX
                       ? L.accs[slotOf[n.in[i]]].fin
                       : lowerDirect(g, n.in[i], L.depth);
    return m;
}

} // namespace

LoweredKernel
lower(const CompiledKernel &k)
{
    const KernelGraph &g = k.graph;
    LoweredKernel L;
    // Resolve each accumulator once, by the scheduler's own rule.
    const std::vector<uint32_t> accs = accumulatorNodes(g);
    std::vector<uint32_t> slotOf(g.nodes.size(), UINT32_MAX);
    std::vector<std::pair<uint32_t, int>> roots;
    for (uint32_t a = 0; a < accs.size(); ++a) {
        slotOf[accs[a]] = a;
        roots.push_back(resolveProducer(g, accs[a]));
    }
    L.depth = valueDepth(k, slotOf, roots);
    L.mask = L.depth - 1;
    for (uint32_t a = 0; a < accs.size(); ++a) {
        const Node &n = g.nodes[accs[a]];
        IMAGINE_ASSERT(g.nodes[n.in[0]].region == Region::Prologue,
                       "kernel %s: accumulator init in loop", g.name.c_str());
        auto [root, dist] = roots[a];
        MicroSrc r = lowerDirect(g, root, L.depth);
        MicroSrc fin{MicroSrcKind::Chain, r.kind,
                     static_cast<uint16_t>(dist), r.imm, r.base,
                     static_cast<uint32_t>(L.chainSlots.size())};
        for (uint32_t id = accs[a], j = 0; j < fin.dist;
             ++j, id = g.nodes[id].in[1])
            L.chainSlots.push_back(slotOf[id]);
        L.accs.push_back({lowerDirect(g, n.in[0], L.depth), fin});
    }

    // Loop: bucket-major, k.loop.ops order within each bucket.
    const uint32_t ii = static_cast<uint32_t>(std::max(k.loop.ii, 1));
    L.ii = ii;
    std::vector<std::vector<ScheduledOp>> buckets(ii);
    for (const ScheduledOp &s : k.loop.ops)
        buckets[static_cast<uint32_t>(s.time) % ii].push_back(s);
    L.loop.bucketBegin.resize(ii + 1);
    L.loop.bucketHasStream.assign(ii, 0);
    for (uint32_t b = 0; b < ii; ++b) {
        L.loop.bucketBegin[b] = static_cast<uint32_t>(L.loop.ops.size());
        for (const ScheduledOp &s : buckets[b]) {
            L.loop.ops.push_back(lowerOp(g, s, L, slotOf));
            L.loop.stage.push_back(static_cast<uint32_t>(s.time) / ii);
            MicroHandler h = L.loop.ops.back().h;
            if (h == MicroHandler::In || h == MicroHandler::OutLoop ||
                h == MicroHandler::OutEpilogue ||
                h == MicroHandler::OutCond)
                L.loop.bucketHasStream[b] = 1;
        }
    }
    L.loop.bucketBegin[ii] = static_cast<uint32_t>(L.loop.ops.size());

    // Blocks: sorted by issue time.  std::sort's permutation of
    // equal-time ops is implementation-defined but fixed for identical
    // input, so same-cycle op order (conditional appends, scratchpad
    // accesses) is the one the pinned counters were recorded with.
    auto lowerBlock = [&](const BlockSchedule &blk, LoweredRegion &out) {
        std::vector<ScheduledOp> ops = blk.ops;
        std::sort(ops.begin(), ops.end(),
                  [](const ScheduledOp &a, const ScheduledOp &b) {
                      return a.time < b.time;
                  });
        for (const ScheduledOp &s : ops) {
            out.ops.push_back(lowerOp(g, s, L, slotOf));
            out.stage.push_back(static_cast<uint32_t>(s.time));
        }
    };
    lowerBlock(k.prologue, L.prologue);
    lowerBlock(k.epilogue, L.epilogue);
    return L;
}

} // namespace imagine::kernelc
