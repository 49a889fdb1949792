#include "cluster/cluster.hh"

#include <algorithm>

#include "ckpt/serializer.hh"
#include "sim/log.hh"
#include "sim/stats.hh"
#include "trace/trace.hh"

namespace imagine
{

void
ClusterStats::registerOn(StatsRegistry &reg, const std::string &prefix)
{
    reg.scalar(prefix + ".startupCycles", &startupCycles);
    reg.scalar(prefix + ".prologueCycles", &prologueCycles);
    reg.scalar(prefix + ".loopCycles", &loopCycles);
    reg.scalar(prefix + ".epilogueCycles", &epilogueCycles);
    reg.scalar(prefix + ".shutdownCycles", &shutdownCycles);
    reg.scalar(prefix + ".stallCycles", &stallCycles);
    reg.scalar(prefix + ".primingCycles", &primingCycles);
    reg.scalar(prefix + ".issuedOps", &issuedOps);
    reg.scalar(prefix + ".arithOps", &arithOps);
    reg.scalar(prefix + ".fpOps", &fpOps);
    reg.scalar(prefix + ".lrfReads", &lrfReads);
    reg.scalar(prefix + ".lrfWrites", &lrfWrites);
    reg.scalar(prefix + ".spAccesses", &spAccesses);
    reg.scalar(prefix + ".commWords", &commWords);
    reg.scalar(prefix + ".sbReads", &sbReads);
    reg.scalar(prefix + ".sbWrites", &sbWrites);
    reg.scalar(prefix + ".kernelsRun", &kernelsRun);
    reg.scalar(prefix + ".kernelStreamWords", &kernelStreamWords);
    reg.histogram(prefix + ".kernelCycles", kernelCycleHist,
                  numKernelCycleBuckets);
}

void
ClusterArray::registerStats(StatsRegistry &reg)
{
    stats_.registerOn(reg, componentName());
}

using kernelc::CompiledKernel;
using kernelc::OpMix;
using kernelc::ScheduledOp;

ClusterArray::ClusterArray(const MachineConfig &cfg, Srf &srf,
                           const KernelRegistry &kernels)
    : cfg_(cfg), srf_(srf), kernels_(kernels), ucrs_(cfg.numUcrs, 0),
      scratchpad_(cfg.scratchpadWords)
{
    for (auto &row : scratchpad_)
        row.fill(0);
}

uint32_t
ClusterArray::streamElem(uint32_t iter, int lane, uint16_t rec,
                         uint16_t elemIdx) const
{
    return (iter * numClusters + static_cast<uint32_t>(lane)) * rec +
           elemIdx;
}

void
ClusterArray::start(uint16_t kernelId, std::vector<Binding> ins,
                    std::vector<Binding> outs, uint32_t explicitTrip,
                    bool restart)
{
    IMAGINE_ASSERT(phase_ == Phase::Idle, "kernel launch while busy");
    const CompiledKernel &k = kernels_[kernelId];
    IMAGINE_ASSERT(static_cast<int>(ins.size()) == k.graph.numInStreams,
                   "kernel %s expects %d input streams, got %zu",
                   k.name(), k.graph.numInStreams, ins.size());
    IMAGINE_ASSERT(static_cast<int>(outs.size()) == k.graph.numOutStreams,
                   "kernel %s expects %d output streams, got %zu",
                   k.name(), k.graph.numOutStreams, outs.size());
    binds_.resize(kernels_.size());
    KernelBind &bind = binds_[kernelId];
    IMAGINE_ASSERT(!restart || bind.hasRun,
                   "restart of %s without a prior run", k.name());
    bind.hasRun = true;
    skipPrologue_ = restart && lastKernel_ == kernelId;
    lastKernel_ = kernelId;
    kernel_ = kernelId;
    ins_ = std::move(ins);
    outs_ = std::move(outs);
    restart_ = restart;
    insResident_ = false;

    // Trip count from the first input stream (all must agree).
    if (k.graph.numInStreams > 0) {
        uint32_t wordsPerIter = static_cast<uint32_t>(k.graph.inRec[0]) *
                                numClusters;
        IMAGINE_ASSERT(ins_[0].length % wordsPerIter == 0,
                       "kernel %s: stream length %u not a multiple of %u",
                       k.name(), ins_[0].length, wordsPerIter);
        trip_ = ins_[0].length / wordsPerIter;
        for (size_t s = 1; s < ins_.size(); ++s) {
            uint32_t expect = trip_ * k.graph.inRec[s] * numClusters;
            IMAGINE_ASSERT(ins_[s].length == expect,
                           "kernel %s: input %zu length %u, expected %u",
                           k.name(), s, ins_[s].length, expect);
        }
    } else {
        trip_ = explicitTrip;
    }
    // trip_ == 0 is legal: the main loop degenerates to a single empty
    // issue cycle (loopWindow_ == loopTotal_ == 0) and only the fixed
    // startup/prologue/epilogue/shutdown phases run.

    bindDerived();

    if (!skipPrologue_) {
        // Fresh value buffers; the prologue (if any) re-materializes
        // loop invariants.  A back-to-back restart of the same kernel
        // keeps them live instead.
        values_.assign(static_cast<size_t>(k.graph.nodes.size()) *
                           low_->depth * numClusters,
                       0);
    }
    if (!restart_)
        bind.saved.clear();
    proCursor_ = 0;
    epiCursor_ = 0;

    phase_ = Phase::Startup;
    t_ = 0;
    kernelCycles_ = 0;
    stallWatchdog_ = 0;
    launchFoldedIters_ = 0;
    launchFoldedCycles_ = 0;
    launchRateMin_ = 0.0;
    launchRateMax_ = 0.0;

    ++stats_.kernelsRun;
    uint32_t maxLen = trip_ * numClusters;
    for (const Binding &b : ins_)
        maxLen = std::max(maxLen, b.length);
    stats_.kernelStreamWords += maxLen;

    if (trace_)
        traceKernelStart();
}

void
ClusterArray::bindDerived()
{
    const CompiledKernel &k = kernel();

    // The kernel's pre-decoded micro-op trace; every table below is
    // read off it.
    low_ = k.lowered.get();
    const kernelc::LoweredRegion &L = low_->loop;

    uint64_t span = 0;
    uint64_t minTime = UINT64_MAX;
    for (const ScheduledOp &s : k.loop.ops) {
        span = std::max<uint64_t>(span, static_cast<uint64_t>(s.time) + 1);
        minTime = std::min<uint64_t>(minTime,
                                     static_cast<uint64_t>(s.time));
    }
    bool emptyLoop = k.loop.ops.empty() || trip_ == 0;
    loopWindow_ = emptyLoop
                      ? 0
                      : (static_cast<uint64_t>(trip_) - 1) * k.loop.ii +
                            span;
    loopTotal_ = emptyLoop
                     ? 0
                     : (static_cast<uint64_t>(trip_) - 1) * k.loop.ii +
                           k.loop.length;
    // Steady-state window: once every op is past its first issue
    // (t >= span - 1) and before any op's final iteration expires
    // (t < minTime + trip * ii), every op of a bucket is live.
    const size_t nb = L.bucketHasStream.size();
    bucketHasOut_.assign(nb, 0);
    for (size_t b = 0; b < nb; ++b) {
        for (uint32_t i = L.bucketBegin[b]; i < L.bucketBegin[b + 1]; ++i) {
            kernelc::MicroHandler h = L.ops[i].h;
            if (h == kernelc::MicroHandler::OutLoop ||
                h == kernelc::MicroHandler::OutEpilogue ||
                h == kernelc::MicroHandler::OutCond)
                bucketHasOut_[b] = 1;
        }
    }
    // Circular distance-to-next tables, one O(2*ii) backward sweep per
    // predicate (the naive per-bucket scan is O(ii^2), which shows up
    // at launch time for high-II kernels like the 8x8 DCT).  Walking
    // two laps from the back with the position of the closest hit seen
    // so far leaves, on the second (b < ii) lap, the wrapped distance
    // from b to the next hit strictly ahead.
    nextStreamDelta_.assign(nb, UINT32_MAX);
    nextOutDelta_.assign(nb, UINT32_MAX);
    auto sweep = [nb](auto pred, std::vector<uint32_t> &out) {
        uint64_t next = UINT64_MAX;
        for (size_t i = 2 * nb; i-- > 0;) {
            if (i < nb && next != UINT64_MAX)
                out[i] = static_cast<uint32_t>(next - i);
            if (pred(i % nb))
                next = i;
        }
    };
    sweep([&L](size_t b) { return L.bucketHasStream[b] != 0; },
          nextStreamDelta_);
    sweep([this](size_t b) { return bucketHasOut_[b] != 0; },
          nextOutDelta_);
    if (emptyLoop) {
        steadyLo_ = steadyHi_ = 0;
    } else {
        steadyLo_ = span - 1;
        steadyHi_ = std::min(minTime + static_cast<uint64_t>(trip_) *
                                           k.loop.ii,
                             loopWindow_);
        steadyHi_ = std::max(steadyHi_, steadyLo_);
    }

    // A zero-trip run of a real loop has no iterations to prime or
    // drain: the prologue/epilogue schedules reference iterations that
    // never execute (their In/Out ops would touch stream elements past
    // a zero-length stream), so both phases are skipped outright and
    // the kernel degenerates to startup + one empty loop cycle +
    // shutdown.  Loop-less kernels (trip_ == 0 with no loop ops) keep
    // their prologue: it IS the computation.
    skipBlocks_ = trip_ == 0 && !k.loop.ops.empty();
    epiRowSlot_ = trip_ > 0 ? ((trip_ - 1) & low_->mask) : 0;

    // Sampled-fidelity fold plan (DESIGN.md section 12).  Short loops
    // (trip <= 2048) always run at full fidelity: their steady state is
    // too small to amortize the measurement strata.
    foldPlan_.clear();
    foldStreamOps_.clear();
    foldNext_ = 0;
    if (allowSampling_ && !emptyLoop && trip_ > 2048)
        planSampling();
}

void
ClusterArray::planSampling()
{
    using kernelc::MicroHandler;
    const CompiledKernel &k = kernel();
    const kernelc::LoweredRegion &L = low_->loop;
    const uint64_t ii = low_->ii;
    // Conditional output streams append a data-dependent number of
    // words per iteration; a fold cannot reproduce their element
    // positions without executing the predicate, so such kernels run at
    // full fidelity.  Same for the (theoretical) non-loop-region Out
    // scheduled inside the loop.
    for (const kernelc::MicroOp &m : L.ops) {
        if (m.h == MicroHandler::OutCond ||
            m.h == MicroHandler::OutEpilogue)
            return;
    }
    // Iteration-aligned steady-state window [lo, hi): every position in
    // it executes its full bucket, so folded regions can start and stop
    // on iteration boundaries.
    const uint64_t lo = (steadyLo_ + ii - 1) / ii * ii;
    const uint64_t hi = steadyHi_ / ii * ii;
    if (hi <= lo)
        return;
    const uint64_t usable = (hi - lo) / ii;
    // Three cycle-accurate strata (head, middle, tail) bracket the two
    // folded regions.  Each stall-rate measurement uses only the
    // *trailing* part of its stratum: loop entry and every fold exit
    // leave the stream buffers in a transient occupancy for tens of
    // positions, and rates sampled inside that transient are biased.
    // The stratum floor (96 positions) keeps the trailing window large
    // enough that rate quantization stays well under the error bound.
    const uint64_t minStratum =
        std::max<uint64_t>(96,
                           static_cast<uint64_t>(k.loop.stages()) + 2);
    const uint64_t exact = std::max<uint64_t>(
        4 * minStratum,
        static_cast<uint64_t>(sampleFraction_ *
                              static_cast<double>(usable)) +
            1);
    if (usable < exact + 16)
        return;     // folding fewer than ~16 iterations cannot pay off
    // The head stratum is doubled: it also absorbs the loop-entry
    // transient before its trailing measurement window opens.
    const uint64_t stratum = exact / 4;
    const uint64_t head = 2 * stratum;
    const uint64_t mid = stratum;
    const uint64_t folded = usable - exact;
    const uint64_t f1 = folded / 2;
    const uint64_t f2 = folded - f1;
    const uint64_t armIter = lo / ii;
    foldPlan_.push_back({(armIter + head) * ii, f1 * ii, f1,
                         (armIter + head - stratum) * ii});
    foldPlan_.push_back({(armIter + head + f1 + mid) * ii, f2 * ii, f2,
                         (armIter + head + f1 + mid - mid / 2) * ii});
    // Loop stream ops in bucket (= per-position issue) order: replaying
    // them per folded position block gives the SRF exactly the
    // consume/produce sequence real execution would, so the
    // stream-buffer window invariants carry over.
    for (uint32_t i = 0; i < L.ops.size(); ++i)
        if (L.ops[i].h == MicroHandler::In ||
            L.ops[i].h == MicroHandler::OutLoop)
            foldStreamOps_.push_back(i);
}

void
ClusterArray::setSampling(bool on, double fraction)
{
    allowSampling_ = on;
    sampleFraction_ = std::clamp(fraction, 0.0005, 0.9);
}

std::vector<KernelFoldRecord>
ClusterArray::drainFoldReport()
{
    std::vector<KernelFoldRecord> out;
    out.swap(foldReport_);
    foldReportIdx_.clear();
    return out;
}

uint64_t
ClusterArray::executeFold()
{
    using kernelc::MicroHandler;
    IMAGINE_ASSERT(foldArmed(), "executeFold without an armed fold");
    const FoldRegion &fr = foldPlan_[foldNext_];
    const uint64_t ii = low_->ii;
    const kernelc::LoweredRegion &L = low_->loop;

    // Stall estimate: stalls per issued loop position, measured over
    // the cycle-accurate stratum since the previous mark (loop entry or
    // the previous fold), scaled to the folded span.
    const uint64_t dPos = t_ - foldPosMark_;
    const uint64_t dStall = stats_.stallCycles - foldStallMark_;
    const double rate =
        dPos ? static_cast<double>(dStall) / static_cast<double>(dPos)
             : 0.0;
    const uint64_t estStall = static_cast<uint64_t>(
        rate * static_cast<double>(fr.span) + 0.5);
    if (launchFoldedIters_ == 0) {
        launchRateMin_ = launchRateMax_ = rate;
    } else {
        launchRateMin_ = std::min(launchRateMin_, rate);
        launchRateMax_ = std::max(launchRateMax_, rate);
    }

    // Replay only the region's stream traffic.  Input rows copy the
    // real stream data into the value buffers (downstream consumers of
    // loop-carried state see exact inputs at the fold edges); output
    // rows re-emit the producer's current row, so folded output *data*
    // is an estimate while word counts, window evolution and stream
    // lengths stay exact.  Arithmetic is not executed - that is where
    // the speedup comes from - and the op mix is accounted analytically
    // for the whole loop by finishLoopBookkeeping.
    //
    // Capture the steady-state buffer occupancy (input slack ahead of
    // the consume point, output backlog awaiting drain) so the fold can
    // restore exactly that on exit: leaving the buffers fuller (or
    // emptier) than steady state would re-create the loop-entry
    // transient and bias the next measurement stratum.
    std::vector<uint32_t> inSlack, outBacklog;
    inSlack.reserve(ins_.size());
    outBacklog.reserve(outs_.size());
    for (const Binding &b : ins_)
        inSlack.push_back(srf_.warpInSlack(b.client));
    for (const Binding &b : outs_)
        outBacklog.push_back(srf_.warpOutBacklog(b.client));
    const uint64_t w0 = srf_.stats().wordsTransferred;
    const uint64_t armIter = fr.arm / ii;
    // Split the region: all but the last few iterations advance through
    // the SRF's closed-form bulk paths (O(window) state math plus the
    // O(rows) data synthesis); the boundary tail replays per row so the
    // value rings and stream-buffer windows end exactly where a full
    // per-row replay would, and the tail's per-row asserts double-check
    // the bulk state.  The ring's depth rows plus the deepest stage skew
    // bound how far back post-fold execution can read.
    uint32_t maxStage = 0;
    for (uint32_t i : foldStreamOps_)
        maxStage = std::max(maxStage, L.stage[i]);
    const uint64_t tailIters =
        std::min<uint64_t>(fr.iters, low_->depth + maxStage);
    const uint64_t bulk = fr.iters - tailIters;
    if (bulk) {
        std::vector<Srf::WarpRange> ranges;
        std::vector<Word> tiles;
        for (size_t s = 0; s < ins_.size(); ++s) {
            ranges.clear();
            uint32_t rec = 0;
            for (uint32_t i : foldStreamOps_) {
                const kernelc::MicroOp &m = L.ops[i];
                if (m.h != MicroHandler::In || m.streamIdx != s)
                    continue;
                rec = m.rec;
                ranges.push_back(
                    {m.elemIdx,
                     static_cast<uint32_t>(armIter - L.stage[i]),
                     static_cast<uint32_t>(armIter + bulk - L.stage[i])});
            }
            if (ranges.empty())
                continue;
            srf_.warpInBulk(ins_[s].client, rec, ranges.data(),
                            ranges.size());
            stats_.sbReads += bulk * numClusters * ranges.size();
        }
        for (size_t s = 0; s < outs_.size(); ++s) {
            ranges.clear();
            tiles.clear();
            uint32_t rec = 0;
            for (uint32_t i : foldStreamOps_) {
                const kernelc::MicroOp &m = L.ops[i];
                if (m.h != MicroHandler::OutLoop || m.streamIdx != s)
                    continue;
                rec = m.rec;
                ranges.push_back(
                    {m.elemIdx,
                     static_cast<uint32_t>(armIter - L.stage[i]),
                     static_cast<uint32_t>(armIter + bulk - L.stage[i])});
                // The producer's current ring rows, slot order, as the
                // tile this op's folded rows are synthesized from; zeros
                // for sources without a ring (accumulators, splats).
                const size_t words =
                    static_cast<size_t>(low_->depth) * numClusters;
                const kernelc::MicroSrc &src = m.src[0];
                if (src.kind == kernelc::MicroSrcKind::RowLoop ||
                    src.kind == kernelc::MicroSrcKind::RowFixed)
                    tiles.insert(tiles.end(), &values_[src.base],
                                 &values_[src.base] + words);
                else
                    tiles.resize(tiles.size() + words, 0);
            }
            if (ranges.empty())
                continue;
            srf_.warpOutBulk(outs_[s].client, rec, ranges.data(),
                             ranges.size(), tiles.data(), low_->depth);
            stats_.sbWrites += bulk * numClusters * ranges.size();
        }
    }
    Word row[numClusters];
    for (uint64_t j = bulk; j < fr.iters; ++j) {
        for (uint32_t i : foldStreamOps_) {
            const kernelc::MicroOp &m = L.ops[i];
            uint32_t iter =
                static_cast<uint32_t>(armIter + j - L.stage[i]);
            uint32_t first = iter * numClusters * m.rec + m.elemIdx;
            uint32_t slot = iter & low_->mask;
            if (m.h == MicroHandler::In) {
                srf_.warpInRow(ins_[m.streamIdx].client, first, m.rec,
                               &values_[m.dstBase + slot * numClusters]);
                stats_.sbReads += numClusters;
            } else {
                srf_.warpOutRow(outs_[m.streamIdx].client, first, m.rec,
                                resolveSrc(m.src[0], iter, slot, row));
                stats_.sbWrites += numClusters;
            }
        }
    }
    // Restore each client's captured steady-state occupancy: refill
    // input windows to their entry slack, drain output windows down to
    // their entry backlog.
    for (size_t i = 0; i < ins_.size(); ++i)
        srf_.warpInTopUp(ins_[i].client, inSlack[i]);
    for (size_t i = 0; i < outs_.size(); ++i)
        srf_.warpOutSettle(outs_[i].client, outBacklog[i]);
    const uint64_t moved = srf_.stats().wordsTransferred - w0;
    const uint64_t bw =
        static_cast<uint64_t>(cfg_.srfBandwidthWordsPerCycle);
    srf_.warpAddBusy(std::min<uint64_t>(
        fr.span + estStall, (moved + bw - 1) / bw));

    // Advance the loop clock across the folded region.
    t_ += fr.span;
    kernelCycles_ += fr.span + estStall;
    stats_.loopCycles += fr.span;
    stats_.stallCycles += estStall;
    launchFoldedIters_ += fr.iters;
    launchFoldedCycles_ += fr.span + estStall;
    foldPosMark_ = t_;
    foldStallMark_ = stats_.stallCycles;
    ++foldNext_;
    foldLeft_ = fr.span + estStall;
    return foldLeft_;
}

void
ClusterArray::setTrace(trace::TraceSink *sink)
{
    trace_ = sink;
    if (!sink)
        return;
    tPhase_ = sink->addTrack(trace::Cluster, "phase");
    tKernel_ = sink->addTrack(trace::Cluster, "kernel");
    tIssue_ = sink->addTrack(trace::Cluster, "issue");
    tStall_ = sink->addTrack(trace::Cluster, "stall");
    struct { FuClass cls; const char *base; } classes[] = {
        {FuClass::Adder, "add"}, {FuClass::Mul, "mul"},
        {FuClass::Dsq, "dsq"},   {FuClass::Sp, "sp"},
        {FuClass::Comm, "comm"}, {FuClass::SbIn, "sbin"},
        {FuClass::SbOut, "sbout"},
    };
    fuTracks_.clear();
    for (const auto &c : classes) {
        fuOff_[static_cast<size_t>(c.cls)] =
            static_cast<uint32_t>(fuTracks_.size());
        int n = unitsPerCluster(c.cls, cfg_);
        for (int i = 0; i < n; ++i)
            fuTracks_.push_back(sink->addTrack(
                trace::Cluster,
                n > 1 ? strfmt("%s%d", c.base, i)
                      : std::string(c.base)));
    }
}

void
ClusterArray::tracePhase(const char *name)
{
    // The transition tick belongs to the phase it closes; the new
    // phase's first cycle is the next one.
    Cycle c = trace_->now() + 1;
    trace_->closeSpan(tPhase_, c);
    if (name)
        trace_->openSpan(tPhase_, c, name);
}

void
ClusterArray::traceKernelStart()
{
    traceKernelStart_ = trace_->now();
    traceArith0_ = stats_.arithOps;
    traceFp0_ = stats_.fpOps;
    // Per-FU busy cycles come straight from the schedule: every
    // scheduled op occupies its assigned unit for opOccupancy cycles,
    // loop ops once per iteration.
    const CompiledKernel &k = kernel();
    traceFuBusy_.assign(fuTracks_.size(), 0);
    auto account = [this, &k](const ScheduledOp &s, uint64_t times) {
        Opcode op = k.graph.nodes[s.node].op;
        FuClass cls = opInfo(op).cls;
        if (cls == FuClass::None)
            return;
        int n = unitsPerCluster(cls, cfg_);
        size_t idx = fuOff_[static_cast<size_t>(cls)] +
                     static_cast<size_t>(
                         std::min<int>(s.unit, n - 1));
        traceFuBusy_[idx] +=
            times * static_cast<uint64_t>(opOccupancy(op, cfg_));
    };
    for (const ScheduledOp &s : k.loop.ops)
        account(s, trip_);
    if (!skipBlocks_) {
        if (!skipPrologue_)
            for (const ScheduledOp &s : k.prologue.ops)
                account(s, 1);
        for (const ScheduledOp &s : k.epilogue.ops)
            account(s, 1);
    }
    trace_->openSpan(tKernel_, traceKernelStart_,
                     trace_->intern(k.name()), trip_);
    trace_->openSpan(tPhase_, traceKernelStart_, "startup");
}

void
ClusterArray::traceKernelRetire()
{
    Cycle end = trace_->now();
    trace_->closeSpan(tPhase_, end);    // the post-shutdown drain span
    trace_->closeSpanArgs(tKernel_, end,
                          stats_.arithOps - traceArith0_,
                          stats_.fpOps - traceFp0_);
    Cycle dur = end - traceKernelStart_;
    for (size_t i = 0; i < fuTracks_.size(); ++i) {
        if (!traceFuBusy_[i])
            continue;
        trace_->span(fuTracks_[i], traceKernelStart_, end, "busy",
                     std::min<uint64_t>(traceFuBusy_[i], dur));
    }
}

void
ClusterArray::rearmTrace()
{
    if (!trace_ || phase_ == Phase::Idle)
        return;
    // Re-derive per-launch tracking from the restored schedule and open
    // the kernel span at the restore point; op deltas and FU busy spans
    // then cover the post-restore portion of the launch.
    traceKernelStart();
    // traceKernelStart opened "startup"; move the open phase span to
    // the phase the restore landed in.
    const char *name = nullptr;
    switch (phase_) {
      case Phase::Startup:  break;
      case Phase::Prologue: name = "prologue"; break;
      case Phase::Loop:     name = "loop"; break;
      case Phase::Epilogue: name = "epilogue"; break;
      case Phase::Shutdown: name = "shutdown"; break;
      default:              name = "drain"; break;
    }
    if (name) {
        Cycle c = trace_->now();
        trace_->closeSpan(tPhase_, c);
        trace_->openSpan(tPhase_, c, name);
    }
}

// --- pre-decoded micro-op engine (DESIGN.md section 9) ---------------

const Word *
ClusterArray::resolveSrc(const kernelc::MicroSrc &s, uint32_t iter,
                         uint32_t rowSlot, Word *scratch) const
{
    using kernelc::MicroSrcKind;
    MicroSrcKind kind = s.kind;
    if (kind == MicroSrcKind::Chain) {
        // The first dist iterations read a start value: the Restart's
        // saved final, or the init.  The epilogue runs after the finals
        // are taken, so there the read is the head's own final.
        if (iter < s.dist) {
            const KernelBind &bind = binds_[kernel_];
            if (phase_ == Phase::Epilogue)
                return bind.saved[low_->chainSlots[s.chain]].data();
            uint32_t slot = low_->chainSlots[s.chain + iter];
            if (restart_ && !bind.saved.empty())
                return bind.saved[slot].data();
            return resolveSrc(low_->accs[slot].init, 0, 0, scratch);
        }
        iter -= s.dist;
        rowSlot = iter & low_->mask;
        kind = s.root;
    }
    switch (kind) {
      case MicroSrcKind::RowLoop:
        return &values_[s.base + rowSlot * numClusters];
      case MicroSrcKind::RowFixed:
        return &values_[s.base];
      case MicroSrcKind::Imm:
        for (int l = 0; l < numClusters; ++l)
            scratch[l] = s.imm;
        return scratch;
      case MicroSrcKind::Ucr: {
        Word w = ucrs_[s.imm];
        for (int l = 0; l < numClusters; ++l)
            scratch[l] = w;
        return scratch;
      }
      case MicroSrcKind::Cid:
        for (int l = 0; l < numClusters; ++l)
            scratch[l] = static_cast<Word>(l);
        return scratch;
      default:  // IterIdx
        for (int l = 0; l < numClusters; ++l)
            scratch[l] = iter;
        return scratch;
    }
}

void
ClusterArray::execMicro(const kernelc::MicroOp &m, uint32_t iter,
                        uint32_t rowSlot)
{
    using kernelc::MicroHandler;
    // Unused operands resolve to a zero row so the dedicated arith
    // handlers stay branch-free across 1/2/3-input opcodes.
    static constexpr Word kZeroRow[numClusters] = {};
    Word b0[numClusters], b1[numClusters], b2[numClusters];
    const Word *s0 = m.numIn > 0
                         ? resolveSrc(m.src[0], iter, rowSlot, b0)
                         : kZeroRow;
    const Word *s1 = m.numIn > 1
                         ? resolveSrc(m.src[1], iter, rowSlot, b1)
                         : kZeroRow;
    const Word *s2 = m.numIn > 2
                         ? resolveSrc(m.src[2], iter, rowSlot, b2)
                         : kZeroRow;
    Word *d = &values_[m.dstBase +
                       (m.dstLoop ? rowSlot : 0u) * numClusters];
    switch (m.h) {
      case MicroHandler::In:
        srf_.inConsumeRow(ins_[m.streamIdx].client,
                          iter * numClusters * m.rec + m.elemIdx,
                          m.rec, d);
        stats_.sbReads += numClusters;
        break;
      case MicroHandler::OutLoop:
        srf_.outProduceRow(outs_[m.streamIdx].client,
                           iter * numClusters * m.rec + m.elemIdx,
                           m.rec, s0);
        stats_.sbWrites += numClusters;
        break;
      case MicroHandler::OutEpilogue:
        srf_.outProduceRow(outs_[m.streamIdx].client,
                           trip_ * m.rec * numClusters +
                               m.elemIdx * numClusters,
                           1, s0);
        stats_.sbWrites += numClusters;
        break;
      case MicroHandler::OutCond: {
        int client = outs_[m.streamIdx].client;
        for (int l = 0; l < numClusters; ++l) {
            if (s1[l]) {
                srf_.outProduce(client, srf_.outAppendPos(client),
                                s0[l]);
                ++stats_.sbWrites;
            }
        }
        break;
      }
      case MicroHandler::CommPerm:
        for (int l = 0; l < numClusters; ++l)
            d[l] = s0[s1[l] % numClusters];
        break;
      case MicroHandler::SpRd:
        for (int l = 0; l < numClusters; ++l)
            d[l] = scratchpad_[s0[l] % scratchpad_.size()]
                              [static_cast<size_t>(l)];
        break;
      case MicroHandler::SpWr:
        for (int l = 0; l < numClusters; ++l)
            scratchpad_[s0[l] % scratchpad_.size()]
                       [static_cast<size_t>(l)] = s1[l];
        break;
      case MicroHandler::UcrWr:
        ucrs_[m.ucrIdx] = s0[0];
        break;
#define IMAGINE_M(name)                                                  \
      case MicroHandler::name:                                           \
        for (int l = 0; l < numClusters; ++l)                            \
            d[l] = evalArithScalar<Opcode::name>(s0[l], s1[l], s2[l]);   \
        break;
    IMAGINE_ARITH_OPS(IMAGINE_M)
#undef IMAGINE_M
    }
}

bool
ClusterArray::streamReady(const kernelc::MicroOp &m, uint32_t iter) const
{
    using kernelc::MicroHandler;
    switch (m.h) {
      case MicroHandler::In:
        return srf_.inReady(ins_[m.streamIdx].client,
                            streamElem(iter, numClusters - 1, m.rec,
                                       m.elemIdx));
      case MicroHandler::OutLoop:
        return srf_.outCanAccept(outs_[m.streamIdx].client,
                                 streamElem(iter, numClusters - 1, m.rec,
                                            m.elemIdx));
      case MicroHandler::OutEpilogue:
        return srf_.outCanAccept(outs_[m.streamIdx].client,
                                 trip_ * m.rec * numClusters +
                                     m.elemIdx * numClusters +
                                     (numClusters - 1));
      case MicroHandler::OutCond: {
        int client = outs_[m.streamIdx].client;
        return srf_.outCanAccept(client, srf_.outAppendPos(client) +
                                             numClusters - 1);
      }
      default:
        return true;
    }
}

bool
ClusterArray::microLoopCanIssue(size_t b, uint64_t iterBase,
                                bool filter) const
{
    using kernelc::MicroHandler;
    const kernelc::LoweredRegion &L = low_->loop;
    for (uint32_t i = L.bucketBegin[b]; i < L.bucketBegin[b + 1]; ++i) {
        const kernelc::MicroOp &m = L.ops[i];
        if (m.h > MicroHandler::OutCond)  // stream handlers are 0..3
            continue;
        uint32_t st = L.stage[i];
        if (filter && (st > iterBase || iterBase - st >= trip_))
            continue;
        if (!streamReady(m, static_cast<uint32_t>(iterBase - st)))
            return false;
    }
    return true;
}

void
ClusterArray::execLoopPositionMicro(uint64_t p)
{
    if (p >= loopWindow_)
        return;
    const kernelc::LoweredRegion &L = low_->loop;
    uint64_t ib = p / low_->ii;
    size_t b = static_cast<size_t>(p % low_->ii);
    uint32_t mask = low_->mask;
    for (uint32_t i = L.bucketBegin[b]; i < L.bucketBegin[b + 1]; ++i) {
        uint32_t st = L.stage[i];
        if (st > ib || ib - st >= trip_)
            continue;
        uint32_t iter = static_cast<uint32_t>(ib - st);
        execMicro(L.ops[i], iter, iter & mask);
    }
}

void
ClusterArray::accountMix(const OpMix &mix, uint64_t times)
{
    uint64_t lanes = static_cast<uint64_t>(numClusters) * times;
    stats_.issuedOps += mix.issuedOps * lanes;
    stats_.arithOps += mix.arithOps * lanes;
    stats_.fpOps += mix.fpOps * lanes;
    stats_.lrfReads += mix.lrfReads * lanes;
    stats_.lrfWrites += mix.lrfWrites * lanes;
    stats_.spAccesses += mix.spAccesses * lanes;
    stats_.commWords += mix.commWords * lanes;
}

void
ClusterArray::finishLoopBookkeeping()
{
    // Save accumulator finals so a Restart can carry them over.  All
    // are resolved before any is stored: on a short Restart, a chain's
    // final is another accumulator's carried-in value.
    std::vector<std::array<Word, numClusters>> fin(low_->accs.size());
    Word scratch[numClusters];
    for (size_t a = 0; a < fin.size(); ++a) {
        const Word *w = resolveSrc(low_->accs[a].fin, trip_, 0, scratch);
        std::copy(w, w + numClusters, fin[a].begin());
    }
    binds_[kernel_].saved = std::move(fin);
    // Software-pipeline priming/drain attribution (the paper counts
    // priming iterations as non-main-loop time).
    const CompiledKernel &k = kernel();
    uint64_t priming = static_cast<uint64_t>(k.loop.stages() - 1) *
                       low_->ii;
    stats_.primingCycles += std::min(priming, loopTotal_);
    accountMix(k.loopMix, trip_);

    // Finalize the launch's sampled-fidelity record.  The error bound
    // combines a fixed floor (strata edge effects plus the residual
    // arbiter-phase bias that steady-occupancy restoration cannot
    // capture, measured under 0.8% across all kernel families) with
    // the spread of observed stall rates scaled by the folded share of
    // the launch: the folded cycles are exact in issue slots and
    // bounded by the best/worst measured stall behavior.
    if (launchFoldedIters_ > 0) {
        double bound =
            0.01 + (launchRateMax_ - launchRateMin_) *
                        static_cast<double>(launchFoldedCycles_) /
                        static_cast<double>(
                            std::max<uint64_t>(kernelCycles_, 1));
        auto [it, fresh] =
            foldReportIdx_.try_emplace(kernel_, foldReport_.size());
        if (fresh) {
            KernelFoldRecord r;
            r.name = k.name();
            foldReport_.push_back(std::move(r));
        }
        KernelFoldRecord &rec = foldReport_[it->second];
        ++rec.launches;
        rec.foldedIters += launchFoldedIters_;
        rec.foldedCycles += launchFoldedCycles_;
        rec.errorBound = std::max(rec.errorBound, bound);
    }
}

bool
ClusterArray::done() const
{
    if (phase_ != Phase::Done)
        return false;
    for (const Binding &b : outs_)
        if (!srf_.outDrained(b.client))
            return false;
    return true;
}

void
ClusterArray::retire()
{
    IMAGINE_ASSERT(done(), "retire before kernel completion");
    ++stats_.kernelCycleHist[StatsRegistry::bucketOf(
        kernelCycles_, ClusterStats::numKernelCycleBuckets)];
    if (trace_)
        traceKernelRetire();
    phase_ = Phase::Idle;
}

void
ClusterArray::tick()
{
    // An executed fold already accounted its span; its ticks only count
    // it off.
    if (foldLeft_) {
        --foldLeft_;
        return;
    }
    if (phase_ == Phase::Idle || phase_ == Phase::Done)
        return;
    ++kernelCycles_;

    switch (phase_) {
      case Phase::Startup:
        ++stats_.startupCycles;
        if (++t_ >= static_cast<uint64_t>(cfg_.kernelStartupCycles)) {
            phase_ = (skipPrologue_ || skipBlocks_ ||
                      low_->prologue.ops.empty())
                         ? Phase::Loop
                         : Phase::Prologue;
            t_ = 0;
            if (phase_ == Phase::Loop) {
                foldPosMark_ = 0;
                foldStallMark_ = stats_.stallCycles;
            }
            if (phase_ == Phase::Prologue)
                accountMix(kernel().prologueMix, 1);
            if (trace_)
                tracePhase(phase_ == Phase::Prologue ? "prologue"
                                                     : "loop");
        }
        break;

      case Phase::Prologue: {
        const auto &L = low_->prologue;
        while (proCursor_ < L.ops.size() && L.stage[proCursor_] < t_)
            ++proCursor_;
        while (proCursor_ < L.ops.size() && L.stage[proCursor_] == t_) {
            execMicro(L.ops[proCursor_], 0, 0);
            ++proCursor_;
        }
        ++stats_.prologueCycles;
        if (++t_ >= static_cast<uint64_t>(kernel().prologue.length)) {
            phase_ = Phase::Loop;
            t_ = 0;
            foldPosMark_ = 0;
            foldStallMark_ = stats_.stallCycles;
            if (trace_)
                tracePhase("loop");
        }
        break;
      }

      case Phase::Loop: {
        // A driver that ignores foldArmed() (direct-tick rigs, chaos
        // drivers) forfeits the fold: execution simply stays
        // cycle-accurate past the arm position.
        while (foldNext_ < foldPlan_.size() &&
               t_ > foldPlan_[foldNext_].arm)
            ++foldNext_;
        // Open the next fold's stall-rate measurement window: marks are
        // (re)taken when the loop clock first reaches measureFrom, so
        // only the transient-free tail of the stratum is measured.  The
        // foldPosMark_ guard makes this one-shot while stalled here.
        if (foldNext_ < foldPlan_.size() &&
            t_ == foldPlan_[foldNext_].measureFrom &&
            foldPosMark_ != t_) {
            foldPosMark_ = t_;
            foldStallMark_ = stats_.stallCycles;
        }
        // The stage array filters liveness outside the steady-state
        // window; the stream check walks only the bucket's contiguous
        // records.
        size_t b = static_cast<size_t>(t_ % low_->ii);
        bool steady = t_ >= steadyLo_ && t_ < steadyHi_;
        if (t_ < loopWindow_ && low_->loop.bucketHasStream[b] &&
            !microLoopCanIssue(b, t_ / low_->ii, !steady)) {
            ++stats_.stallCycles;
            if (trace_)
                trace_->touchSpan(tStall_, "stall");
            if (++stallWatchdog_ > 2'000'000) {
                IMAGINE_PANIC("kernel %s wedged in main loop at t=%llu",
                              kernel().name(),
                              static_cast<unsigned long long>(t_));
            }
            break;
        }
        stallWatchdog_ = 0;
        execLoopPositionMicro(t_);
        ++stats_.loopCycles;
        if (trace_)
            trace_->touchSpan(tIssue_, "issue");
        ++t_;
        if (t_ >= loopTotal_) {
            finishLoopBookkeeping();
            phase_ = (skipBlocks_ || low_->epilogue.ops.empty())
                         ? Phase::Shutdown
                         : Phase::Epilogue;
            if (phase_ == Phase::Epilogue)
                accountMix(kernel().epilogueMix, 1);
            t_ = 0;
            if (trace_)
                tracePhase(phase_ == Phase::Epilogue ? "epilogue"
                                                     : "shutdown");
        }
        break;
      }

      case Phase::Epilogue: {
        const auto &L = low_->epilogue;
        size_t begin = epiCursor_;
        while (begin < L.ops.size() && L.stage[begin] < t_)
            ++begin;
        size_t end = begin;
        bool ready = true;
        for (; end < L.ops.size() && L.stage[end] == t_; ++end)
            ready = ready && streamReady(L.ops[end], trip_);
        if (!ready) {
            ++stats_.stallCycles;
            if (trace_)
                trace_->touchSpan(tStall_, "stall");
            if (++stallWatchdog_ > 2'000'000)
                IMAGINE_PANIC("kernel %s wedged in epilogue",
                              kernel().name());
            break;
        }
        stallWatchdog_ = 0;
        for (size_t i = begin; i < end; ++i)
            execMicro(L.ops[i], trip_, epiRowSlot_);
        epiCursor_ = end;
        ++stats_.epilogueCycles;
        if (++t_ >= static_cast<uint64_t>(kernel().epilogue.length)) {
            phase_ = Phase::Shutdown;
            t_ = 0;
            if (trace_)
                tracePhase("shutdown");
        }
        break;
      }

      case Phase::Shutdown:
        ++stats_.shutdownCycles;
        if (++t_ >= static_cast<uint64_t>(cfg_.kernelShutdownCycles)) {
            phase_ = Phase::Done;
            t_ = 0;
            if (trace_)
                tracePhase("drain");
        }
        break;

      default:
        break;
    }
}

bool
ClusterArray::insResident() const
{
    if (insResident_)
        return true;
    for (const Binding &b : ins_)
        if (!srf_.inFullyFetched(b.client))
            return false;
    insResident_ = true;
    return true;
}

Cycle
ClusterArray::nextEventAfter(Cycle now) const
{
    if (foldLeft_)
        return now + foldLeft_ + 1;
    switch (phase_) {
      case Phase::Idle:
      case Phase::Done:
        return kForever;
      case Phase::Startup:
        // Fixed countdown; the interesting tick is the transition.
        return now + (static_cast<uint64_t>(cfg_.kernelStartupCycles) -
                      t_);
      case Phase::Shutdown:
        return now + (static_cast<uint64_t>(cfg_.kernelShutdownCycles) -
                      t_);
      case Phase::Loop: {
        // A run of loop positions is batchable (skipIdle executes it
        // verbatim, with the per-position stage filtering) when none of
        // its buckets can stall or produce work for another component:
        //
        //  - stream-free buckets touch only cluster-private state
        //    (LRFs, scratchpad, UCRs);
        //  - once every input stream is resident in the SRF
        //    (Srf::inFullyFetched), In buckets cannot stall and leave
        //    the arbiter nothing to move, so only Out buckets - whose
        //    produced words wake the arbiter - cut the run.
        //
        // The run is also cut at the loop-exit tick (position
        // loopTotal_ - 1, which flips phase and must run per-cycle).
        // Stalled positions never reach here with a horizon: a stall
        // re-ticks the same stream bucket, which reports now + 1.
        if (t_ + 1 >= loopTotal_)
            return now + 1;
        size_t b = static_cast<size_t>(t_ % low_->ii);
        if (bucketHasOut_[b])
            return now + 1;
        uint64_t o;
        if (insResident())
            o = nextOutDelta_[b];
        else if (!low_->loop.bucketHasStream[b])
            o = nextStreamDelta_[b];
        else
            return now + 1;
        o = std::min(o, loopTotal_ - 1 - t_);
        // Never advertise a horizon across a fold arm: the driver must
        // observe foldArmed() exactly at the arm position.  At or past
        // the arm, stay per-cycle until the fold fires (or forfeits).
        if (foldNext_ < foldPlan_.size()) {
            uint64_t arm = foldPlan_[foldNext_].arm;
            if (t_ >= arm)
                return now + 1;
            o = std::min(o, arm - 1 - t_);
            // Same for the measurement-window open: the mark is taken
            // by a per-cycle tick, so the event-driven skip must not
            // batch-execute across measureFrom.
            uint64_t mf = foldPlan_[foldNext_].measureFrom;
            if (t_ == mf && foldPosMark_ != t_)
                return now + 1;
            if (t_ < mf)
                o = std::min(o, mf - 1 - t_);
        }
        if (o == 0)
            return now + 1;
        return now + o + 1;
      }
      case Phase::Prologue:
      case Phase::Epilogue: {
        // Op-free cycles in the fixed schedules only bump counters;
        // the next event is the first cycle holding an op, or the
        // phase-exit tick (position length - 1).
        const std::vector<uint32_t> &times =
            phase_ == Phase::Prologue ? low_->prologue.stage
                                      : low_->epilogue.stage;
        uint64_t len = phase_ == Phase::Prologue
                           ? kernel().prologue.length
                           : kernel().epilogue.length;
        if (t_ + 1 >= len)
            return now + 1;
        // Block stage arrays hold the sorted issue times.
        auto it = std::lower_bound(times.begin(), times.end(), t_);
        uint64_t next = it == times.end() ? len - 1 : *it;
        if (next <= t_)
            return now + 1;
        return now + std::min(next, len - 1) - t_ + 1;
      }
      default:
        // Stalled positions are kept per-cycle: predicting stall spans
        // would re-run the stream checks here, costing what it saves.
        return now + 1;
    }
}

void
ClusterArray::skipIdle(Cycle from, uint64_t span)
{
    if (foldLeft_) {
        IMAGINE_ASSERT(span <= foldLeft_, "skip past a fold's end");
        foldLeft_ -= span;
        return;
    }
    // Fold the counters a skipped tick would have bumped.  Beyond the
    // countdown phases, only op-free schedule positions advertise
    // horizons past now + 1; their ticks increment exactly these
    // counters (and reset the stall watchdog, which is provably zero
    // already: a stalled position re-ticks a non-empty bucket).
    if (phase_ == Phase::Startup) {
        t_ += span;
        kernelCycles_ += span;
        stats_.startupCycles += span;
    } else if (phase_ == Phase::Shutdown) {
        t_ += span;
        kernelCycles_ += span;
        stats_.shutdownCycles += span;
    } else if (phase_ == Phase::Loop) {
        // Batch-execute the advertised run: each skipped position
        // executes what its per-cycle tick would have.  The horizon
        // guarantees no position can stall.
        for (uint64_t p = t_; p < t_ + span; ++p)
            execLoopPositionMicro(p);
        t_ += span;
        kernelCycles_ += span;
        stats_.loopCycles += span;
        stallWatchdog_ = 0;
        // One bucket-granularity issue region for the whole batch;
        // per-cycle ticking would have touched the same cycles.
        if (trace_)
            trace_->mergeSpan(tIssue_, from, from + span, "issue",
                              span);
    } else if (phase_ == Phase::Prologue) {
        t_ += span;
        kernelCycles_ += span;
        stats_.prologueCycles += span;
    } else if (phase_ == Phase::Epilogue) {
        t_ += span;
        kernelCycles_ += span;
        stats_.epilogueCycles += span;
        stallWatchdog_ = 0;
    }
}

void
ClusterArray::saveState(ckpt::Serializer &s) const
{
    s.vec(ucrs_);
    s.vec(scratchpad_);
    // Per-kernel state in kernel-id order; the lowered traces belong to
    // the registry and are never serialized.
    s.u64(binds_.size());
    for (const KernelBind &b : binds_) {
        s.b(b.hasRun);
        s.vec(b.saved);
    }
    s.u16(kernel_);
    s.u16(lastKernel_);
    s.u64(ins_.size());
    for (const Binding &b : ins_) {
        s.i32(b.client);
        s.u32(b.length);
    }
    s.u64(outs_.size());
    for (const Binding &b : outs_) {
        s.i32(b.client);
        s.u32(b.length);
    }
    s.u32(trip_);
    s.b(restart_);
    s.b(skipPrologue_);
    s.b(insResident_);
    s.u8(static_cast<uint8_t>(phase_));
    s.u64(t_);
    s.u64(kernelCycles_);
    s.u64(stallWatchdog_);
    s.u64(proCursor_);
    s.u64(epiCursor_);
    s.vec(values_);
}

void
ClusterArray::loadState(ckpt::Deserializer &d)
{
    ucrs_ = d.vec<Word>();
    scratchpad_ = d.vec<std::array<Word, numClusters>>();
    const uint64_t n = d.u64();
    if (n > kernels_.size())
        IMAGINE_FATAL("checkpoint: state for %llu kernels, %zu registered",
                      static_cast<unsigned long long>(n), kernels_.size());
    binds_.assign(n, KernelBind{});
    for (size_t id = 0; id < n; ++id) {
        KernelBind &b = binds_[id];
        b.hasRun = d.b();
        b.saved = d.vec<std::array<Word, numClusters>>();
        if (!b.saved.empty() &&
            b.saved.size() != kernels_[id].lowered->accs.size())
            IMAGINE_FATAL("checkpoint: %zu saved accumulators mismatch",
                          b.saved.size());
    }
    kernel_ = d.u16();
    lastKernel_ = d.u16();
    if (kernel_ != kNoKernel && kernel_ >= n)
        IMAGINE_FATAL("checkpoint: kernel id %u out of range", kernel_);
    ins_.assign(d.u64(), Binding{});
    for (Binding &b : ins_) {
        b.client = d.i32();
        b.length = d.u32();
    }
    outs_.assign(d.u64(), Binding{});
    for (Binding &b : outs_) {
        b.client = d.i32();
        b.length = d.u32();
    }
    trip_ = d.u32();
    restart_ = d.b();
    skipPrologue_ = d.b();
    insResident_ = d.b();
    phase_ = static_cast<Phase>(d.u8());
    t_ = d.u64();
    kernelCycles_ = d.u64();
    stallWatchdog_ = d.u64();
    proCursor_ = d.u64();
    epiCursor_ = d.u64();
    values_ = d.vec<Word>();
    // Everything derived from (kernel, trip) is recomputed, not
    // restored: same inputs, same tables.
    if (kernel_ != kNoKernel)
        bindDerived();
}

} // namespace imagine
