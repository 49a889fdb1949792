#include "kernelc/schedule.hh"

#include <algorithm>
#include <limits>

#include "kernelc/predecode.hh"
#include "sim/log.hh"

namespace imagine::kernelc
{

namespace
{

/** Dependence edge used by both schedulers. */
struct Edge
{
    uint32_t from;
    uint32_t to;
    int lat;
    int dist;   ///< iteration distance (0 within blocks)
};

/** Edges among scheduled nodes of one region. */
std::vector<Edge>
buildEdges(const KernelGraph &g, Region region)
{
    std::vector<Edge> edges;
    for (uint32_t v = 0; v < g.nodes.size(); ++v) {
        const Node &n = g.nodes[v];
        if (n.region != region || !isScheduled(n.op))
            continue;
        for (int k = 0; k < n.numIn; ++k) {
            auto [p, dist] = resolveProducer(g, n.in[k]);
            const Node &pn = g.nodes[p];
            if (pn.region == region && isScheduled(pn.op)) {
                edges.push_back({p, v, 0, dist});  // lat filled by caller
            }
        }
    }
    return edges;
}

/** Sequencing edges that keep same-stream accesses in element order. */
void
addStreamOrderEdges(const KernelGraph &g, std::vector<Edge> &edges)
{
    auto chain = [&](std::vector<uint32_t> accesses) {
        if (accesses.empty())
            return;
        std::sort(accesses.begin(), accesses.end(),
                  [&](uint32_t a, uint32_t b) {
                      return g.nodes[a].elemIdx < g.nodes[b].elemIdx;
                  });
        for (size_t i = 1; i < accesses.size(); ++i)
            edges.push_back({accesses[i - 1], accesses[i], 0, 0});
        // Keep iterations ordered too: iteration i+1 may not start the
        // stream before iteration i finished it.
        edges.push_back({accesses.back(), accesses.front(), 0, 1});
    };

    for (int s = 0; s < g.numInStreams; ++s) {
        std::vector<uint32_t> reads;
        for (uint32_t v = 0; v < g.nodes.size(); ++v) {
            const Node &n = g.nodes[v];
            if (n.op == Opcode::In && n.streamIdx == s)
                reads.push_back(v);
        }
        chain(std::move(reads));
    }
    for (int s = 0; s < g.numOutStreams; ++s) {
        if (g.outIsCond[s])
            continue;   // conditional streams already chained by builder
        std::vector<uint32_t> writes;
        for (uint32_t v = 0; v < g.nodes.size(); ++v) {
            const Node &n = g.nodes[v];
            if (n.op == Opcode::Out && n.streamIdx == s &&
                n.region == Region::Loop) {
                writes.push_back(v);
            }
        }
        chain(std::move(writes));
    }
}

/** Modulo (or linear, for blocks) resource reservation table. */
class ResourceTable
{
  public:
    ResourceTable(const MachineConfig &cfg, int period)
        : cfg_(cfg), period_(period)
    {
        for (int c = 0; c < static_cast<int>(FuClass::NumClasses); ++c) {
            int units = unitsPerCluster(static_cast<FuClass>(c), cfg);
            grid_[c].assign(static_cast<size_t>(period) *
                                std::max(units, 1),
                            -1);
        }
    }

    int
    slot(FuClass cls, int time, int unit) const
    {
        int units = unitsPerCluster(cls, cfg_);
        int row = ((time % period_) + period_) % period_;
        return grid_[static_cast<int>(cls)][row * units + unit];
    }

    /** Find a unit free for @p occ consecutive (modulo) cycles. */
    int
    findUnit(FuClass cls, int time, int occ) const
    {
        int units = unitsPerCluster(cls, cfg_);
        for (int u = 0; u < units; ++u) {
            bool ok = true;
            for (int j = 0; j < occ && ok; ++j)
                ok = slot(cls, time + j, u) < 0;
            if (ok)
                return u;
        }
        return -1;
    }

    void
    place(FuClass cls, int time, int occ, int unit, int node)
    {
        int units = unitsPerCluster(cls, cfg_);
        for (int j = 0; j < occ; ++j) {
            int row = ((time + j) % period_ + period_) % period_;
            grid_[static_cast<int>(cls)][row * units + unit] = node;
        }
    }

    void
    remove(FuClass cls, int time, int occ, int unit)
    {
        place(cls, time, occ, unit, -1);
    }

    /** Occupants that would conflict with placing at (time, unit). */
    void
    conflicts(FuClass cls, int time, int occ, int unit,
              std::vector<int> &out) const
    {
        for (int j = 0; j < occ; ++j) {
            int n = slot(cls, time + j, unit);
            if (n >= 0 && std::find(out.begin(), out.end(), n) == out.end())
                out.push_back(n);
        }
    }

  private:
    const MachineConfig &cfg_;
    int period_;
    std::vector<int> grid_[static_cast<int>(FuClass::NumClasses)];
};

/** Greedy list scheduler for acyclic blocks. */
BlockSchedule
scheduleBlock(const KernelGraph &g, const MachineConfig &cfg,
              Region region, std::vector<Edge> edges)
{
    BlockSchedule out;
    std::vector<uint32_t> nodes;
    for (uint32_t v = 0; v < g.nodes.size(); ++v) {
        if (g.nodes[v].region == region && isScheduled(g.nodes[v].op))
            nodes.push_back(v);
    }
    if (nodes.empty())
        return out;

    for (Edge &e : edges)
        if (e.lat == 0 && e.dist == 0)
            e.lat = opLatency(g.nodes[e.from].op, cfg);

    // Height-based priority via reverse longest path (DAG).
    std::vector<int> height(g.nodes.size(), 0);
    for (int pass = 0; pass < static_cast<int>(nodes.size()) + 1; ++pass) {
        bool changed = false;
        for (const Edge &e : edges) {
            int h = height[e.to] + e.lat;
            if (h > height[e.from]) {
                height[e.from] = h;
                changed = true;
            }
        }
        if (!changed)
            break;
        IMAGINE_ASSERT(pass < static_cast<int>(nodes.size()),
                       "kernel %s: cycle in %s block", g.name.c_str(),
                       region == Region::Prologue ? "prologue" : "epilogue");
    }

    std::vector<int> indeg(g.nodes.size(), 0);
    for (const Edge &e : edges)
        ++indeg[e.to];

    // Generous linear reservation horizon.
    const int horizon = 4 * static_cast<int>(nodes.size()) + 64;
    ResourceTable table(cfg, horizon);
    std::vector<int> sched(g.nodes.size(), -1);
    std::vector<uint32_t> ready;
    for (uint32_t v : nodes)
        if (indeg[v] == 0)
            ready.push_back(v);

    size_t placed = 0;
    while (!ready.empty()) {
        auto it = std::max_element(ready.begin(), ready.end(),
                                   [&](uint32_t a, uint32_t b) {
                                       return height[a] < height[b];
                                   });
        uint32_t v = *it;
        ready.erase(it);
        int estart = 0;
        for (const Edge &e : edges)
            if (e.to == v && sched[e.from] >= 0)
                estart = std::max(estart, sched[e.from] + e.lat);
        const Node &n = g.nodes[v];
        FuClass cls = opInfo(n.op).cls;
        int occ = opOccupancy(n.op, cfg);
        int t = estart;
        int unit = 0;
        if (cls != FuClass::None) {
            for (;; ++t) {
                IMAGINE_ASSERT(t < horizon, "block scheduler overflow");
                unit = table.findUnit(cls, t, occ);
                if (unit >= 0)
                    break;
            }
            table.place(cls, t, occ, unit, static_cast<int>(v));
        }
        sched[v] = t;
        out.ops.push_back({v, t, static_cast<uint8_t>(unit)});
        out.length = std::max(out.length, t + opLatency(n.op, cfg));
        ++placed;
        for (const Edge &e : edges)
            if (e.from == v && --indeg[e.to] == 0)
                ready.push_back(e.to);
    }
    IMAGINE_ASSERT(placed == nodes.size(),
                   "kernel %s: block scheduling left nodes unplaced",
                   g.name.c_str());
    return out;
}

/** Iterative modulo scheduler for the main loop. */
LoopSchedule
scheduleLoop(const KernelGraph &g, const MachineConfig &cfg,
             std::vector<Edge> edges)
{
    LoopSchedule out;
    std::vector<uint32_t> nodes;
    for (uint32_t v = 0; v < g.nodes.size(); ++v) {
        if (g.nodes[v].region == Region::Loop && isScheduled(g.nodes[v].op))
            nodes.push_back(v);
    }
    if (nodes.empty())
        return out;

    // Resource-constrained minimum II.
    int resMii = 1;
    {
        int demand[static_cast<int>(FuClass::NumClasses)] = {};
        for (uint32_t v : nodes) {
            const Node &n = g.nodes[v];
            demand[static_cast<int>(opInfo(n.op).cls)] +=
                opOccupancy(n.op, cfg);
        }
        for (int c = 1; c < static_cast<int>(FuClass::NumClasses); ++c) {
            int units = unitsPerCluster(static_cast<FuClass>(c), cfg);
            if (units > 0 && demand[c] > 0)
                resMii = std::max(resMii, (demand[c] + units - 1) / units);
        }
    }

    // Incoming-edge index per node for fast estart computation.
    std::vector<std::vector<size_t>> inEdges(g.nodes.size());
    std::vector<std::vector<size_t>> outEdges(g.nodes.size());
    for (size_t i = 0; i < edges.size(); ++i) {
        inEdges[edges[i].to].push_back(i);
        outEdges[edges[i].from].push_back(i);
    }

    const int maxIi = resMii + 512;
    for (int ii = resMii; ii <= maxIi; ++ii) {
        // Height priorities under this II; divergence => II infeasible
        // because of a positive-latency recurrence cycle.
        std::vector<int> height(g.nodes.size(), 0);
        bool feasible = true;
        for (size_t pass = 0; pass <= nodes.size(); ++pass) {
            bool changed = false;
            for (const Edge &e : edges) {
                int h = height[e.to] + e.lat - ii * e.dist;
                if (h > height[e.from]) {
                    height[e.from] = h;
                    changed = true;
                }
            }
            if (!changed)
                break;
            if (pass == nodes.size())
                feasible = false;
        }
        if (!feasible)
            continue;

        ResourceTable table(cfg, ii);
        std::vector<int> sched(g.nodes.size(),
                               std::numeric_limits<int>::min());
        std::vector<int> prevTime(g.nodes.size(),
                                  std::numeric_limits<int>::min());
        std::vector<uint8_t> unitOf(g.nodes.size(), 0);
        auto unscheduled = nodes;
        long budget = 32L * static_cast<long>(nodes.size()) + 256;

        auto isSched = [&](uint32_t v) {
            return sched[v] != std::numeric_limits<int>::min();
        };
        auto unschedule = [&](uint32_t v) {
            const Node &n = g.nodes[v];
            FuClass cls = opInfo(n.op).cls;
            if (cls != FuClass::None)
                table.remove(cls, sched[v], opOccupancy(n.op, cfg),
                             unitOf[v]);
            prevTime[v] = sched[v];
            sched[v] = std::numeric_limits<int>::min();
            unscheduled.push_back(v);
        };

        while (!unscheduled.empty() && budget > 0) {
            --budget;
            auto it = std::max_element(unscheduled.begin(),
                                       unscheduled.end(),
                                       [&](uint32_t a, uint32_t b) {
                                           return height[a] < height[b];
                                       });
            uint32_t v = *it;
            unscheduled.erase(it);

            int estart = 0;
            for (size_t ei : inEdges[v]) {
                const Edge &e = edges[ei];
                if (e.from != v && isSched(e.from)) {
                    estart = std::max(estart,
                                      sched[e.from] + e.lat - ii * e.dist);
                }
            }
            const Node &n = g.nodes[v];
            FuClass cls = opInfo(n.op).cls;
            int occ = opOccupancy(n.op, cfg);
            int t = -1;
            int unit = 0;
            if (cls == FuClass::None) {
                t = estart;
            } else {
                for (int cand = estart; cand < estart + ii; ++cand) {
                    int u = table.findUnit(cls, cand, occ);
                    if (u >= 0) {
                        t = cand;
                        unit = u;
                        break;
                    }
                }
                if (t < 0) {
                    // Forced placement with eviction.
                    t = (prevTime[v] != std::numeric_limits<int>::min() &&
                         prevTime[v] >= estart)
                            ? prevTime[v] + 1
                            : estart;
                    // Evict from the unit with the fewest victims.
                    int bestUnit = 0;
                    size_t bestCount = SIZE_MAX;
                    int units = unitsPerCluster(cls, cfg);
                    for (int u = 0; u < units; ++u) {
                        std::vector<int> victims;
                        table.conflicts(cls, t, occ, u, victims);
                        if (victims.size() < bestCount) {
                            bestCount = victims.size();
                            bestUnit = u;
                        }
                    }
                    unit = bestUnit;
                    std::vector<int> victims;
                    table.conflicts(cls, t, occ, unit, victims);
                    for (int w : victims)
                        unschedule(static_cast<uint32_t>(w));
                }
                table.place(cls, t, occ, unit, static_cast<int>(v));
            }
            sched[v] = t;
            unitOf[v] = static_cast<uint8_t>(unit);

            // Evict neighbours whose constraints the placement broke.
            for (size_t ei : outEdges[v]) {
                const Edge &e = edges[ei];
                if (e.to != v && isSched(e.to) &&
                    sched[e.to] < t + e.lat - ii * e.dist) {
                    unschedule(e.to);
                }
            }
            for (size_t ei : inEdges[v]) {
                const Edge &e = edges[ei];
                if (e.from != v && isSched(e.from) &&
                    t < sched[e.from] + e.lat - ii * e.dist) {
                    unschedule(e.from);
                }
            }
        }

        if (!unscheduled.empty())
            continue;   // budget exhausted, try a larger II

        // Normalize times to start at zero and emit.
        int tmin = std::numeric_limits<int>::max();
        for (uint32_t v : nodes)
            tmin = std::min(tmin, sched[v]);
        out.ii = ii;
        out.length = 0;
        out.ops.clear();
        for (uint32_t v : nodes) {
            int t = sched[v] - tmin;
            out.ops.push_back({v, t, unitOf[v]});
            out.length = std::max(out.length,
                                  t + opLatency(g.nodes[v].op, cfg));
        }
        // Final sanity check of every dependence.
        for (const Edge &e : edges) {
            IMAGINE_ASSERT(sched[e.to] >= sched[e.from] + e.lat -
                                               ii * e.dist,
                           "kernel %s: modulo schedule violates edge "
                           "%u->%u", g.name.c_str(), e.from, e.to);
        }
        return out;
    }
    IMAGINE_PANIC("kernel %s: no feasible II found below %d",
                  g.name.c_str(), maxIi);
}

OpMix
mixOf(const KernelGraph &g, const MachineConfig &cfg, Region region)
{
    (void)cfg;
    OpMix mix;
    std::vector<uint32_t> consumers(g.nodes.size(), 0);
    for (const Node &n : g.nodes)
        for (int k = 0; k < n.numIn; ++k)
            ++consumers[n.in[k]];

    for (uint32_t v = 0; v < g.nodes.size(); ++v) {
        const Node &n = g.nodes[v];
        if (n.region != region)
            continue;
        if (n.op == Opcode::Acc) {
            // The accumulator register is rewritten every iteration and
            // read by each consumer.
            mix.lrfWrites += consumers[v];
            continue;
        }
        if (!isScheduled(n.op))
            continue;
        const OpInfo &info = opInfo(n.op);
        mix.issuedOps += 1;
        mix.arithOps += info.opCount;
        if (info.isFp)
            mix.fpOps += info.opCount;
        mix.lrfReads += n.numIn;
        mix.lrfWrites += consumers[v];
        if (n.op == Opcode::SpRd || n.op == Opcode::SpWr)
            mix.spAccesses += 1;
        if (n.op == Opcode::CommPerm)
            mix.commWords += 1;
    }
    return mix;
}

double
meanLiveWords(const KernelGraph &g, const MachineConfig &cfg,
              const LoopSchedule &loop)
{
    if (loop.ops.empty() || loop.ii == 0)
        return 0.0;
    std::vector<int> sched(g.nodes.size(), -1);
    for (const ScheduledOp &s : loop.ops)
        sched[s.node] = s.time;

    double total = 0.0;
    for (const ScheduledOp &s : loop.ops) {
        const Node &n = g.nodes[s.node];
        int def = s.time + opLatency(n.op, cfg);
        int lastUse = def;
        for (uint32_t w = 0; w < g.nodes.size(); ++w) {
            const Node &m = g.nodes[w];
            if (m.region != Region::Loop)
                continue;
            for (int k = 0; k < m.numIn; ++k) {
                auto [p, dist] = resolveProducer(g, m.in[k]);
                if (p == s.node && sched[w] >= 0) {
                    lastUse = std::max(lastUse,
                                       sched[w] + dist * loop.ii);
                }
            }
        }
        total += lastUse - def;
    }
    return total / loop.ii;
}

} // namespace

std::pair<uint32_t, int>
resolveProducer(const KernelGraph &g, uint32_t id)
{
    int dist = 0;
    while (g.nodes[id].op == Opcode::Acc) {
        id = g.nodes[id].in[1];
        ++dist;
        IMAGINE_ASSERT(dist <= 64, "kernel %s: accumulator cycle",
                       g.name.c_str());
    }
    return {id, dist};
}

CompiledKernel
compile(KernelGraph g, const MachineConfig &cfg,
        const CompileOptions &opts)
{
    verify(g);
    CompiledKernel k;

    // --- prologue / epilogue: plain list scheduling -------------------
    k.prologue = scheduleBlock(g, cfg, Region::Prologue,
                               buildEdges(g, Region::Prologue));
    k.epilogue = scheduleBlock(g, cfg, Region::Epilogue,
                               buildEdges(g, Region::Epilogue));

    // --- main loop: modulo scheduling ---------------------------------
    std::vector<Edge> loopEdges = buildEdges(g, Region::Loop);
    for (Edge &e : loopEdges)
        e.lat = opLatency(g.nodes[e.from].op, cfg);
    for (const OrderEdge &oe : g.orderEdges)
        loopEdges.push_back({oe.from, oe.to, oe.latency, oe.dist});
    addStreamOrderEdges(g, loopEdges);
    k.loop = scheduleLoop(g, cfg, std::move(loopEdges));
    if (!opts.softwarePipelining && !k.loop.ops.empty()) {
        // Ablation: serialize iterations by stretching the initiation
        // interval to the whole single-iteration span.
        k.loop.ii = std::max(k.loop.ii, k.loop.length);
    }

    k.loopMix = mixOf(g, cfg, Region::Loop);
    k.prologueMix = mixOf(g, cfg, Region::Prologue);
    k.epilogueMix = mixOf(g, cfg, Region::Epilogue);
    k.lrfMeanLive = meanLiveWords(g, cfg, k.loop);
    if (k.lrfMeanLive > cfg.lrfWordsPerCluster) {
        IMAGINE_WARN("kernel %s: mean live values (%.0f words) exceed the "
                     "per-cluster LRF capacity (%d words)",
                     g.name.c_str(), k.lrfMeanLive, cfg.lrfWordsPerCluster);
    }

    int proSpan = 0, epiSpan = 0;
    for (const ScheduledOp &s : k.prologue.ops)
        proSpan = std::max(proSpan, s.time + 1);
    for (const ScheduledOp &s : k.epilogue.ops)
        epiSpan = std::max(epiSpan, s.time + 1);
    int loopSpan = 0;
    for (const ScheduledOp &s : k.loop.ops)
        loopSpan = std::max(loopSpan, s.time + 1);
    k.ucodeInstrs = proSpan + loopSpan + epiSpan + 8;

    k.graph = std::move(g);
    k.lowered = std::make_shared<const LoweredKernel>(lower(k));
    return k;
}

} // namespace imagine::kernelc
