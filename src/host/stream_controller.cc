#include "host/stream_controller.hh"

#include <algorithm>
#include <unordered_map>

#include "ckpt/serializer.hh"
#include "sim/error.hh"
#include "sim/fault.hh"
#include "sim/log.hh"
#include "sim/stats.hh"
#include "trace/trace.hh"

namespace imagine
{

namespace
{

/** Imagine-memory region holding kernel microcode images. */
constexpr Addr ucodeImageBase = Addr(1) << 24;

} // namespace

void
ScStats::registerOn(StatsRegistry &reg, const std::string &prefix)
{
    reg.scalar(prefix + ".instrsRetired", &instrsRetired);
    std::vector<std::string> kinds;
    for (int i = 0; i < static_cast<int>(StreamOpKind::NumKinds); ++i)
        kinds.push_back(
            streamOpKindName(static_cast<StreamOpKind>(i)));
    reg.vector(prefix + ".kind", kindCount, kinds);
    reg.scalar(prefix + ".ucodeLoadsIssued", &ucodeLoadsIssued);
    reg.scalar(prefix + ".ucodeWordsLoaded", &ucodeWordsLoaded);
    reg.scalar(prefix + ".memOpWords", &memOpWords);
    reg.scalar(prefix + ".memStreamOps", &memStreamOps);
}

void
StreamController::registerStats(StatsRegistry &reg)
{
    stats_.registerOn(reg, componentName());
}

StreamController::StreamController(const MachineConfig &cfg, Srf &srf,
                                   MemorySystem &mem,
                                   ClusterArray &clusters,
                                   const KernelRegistry &kernels)
    : cfg_(cfg), srf_(srf), mem_(mem), clusters_(clusters),
      kernels_(kernels), sdrs_(cfg.numSdrs), mars_(cfg.numMars),
      ucrs_(cfg.numUcrs, 0)
{
}

void
StreamController::setTrace(trace::TraceSink *sink)
{
    trace_ = sink;
    if (!sink)
        return;
    slotTracks_.clear();
    for (int i = 0; i < cfg_.scoreboardSlots; ++i)
        slotTracks_.push_back(
            sink->addTrack(trace::ScComp, strfmt("slot%d", i)));
    slotTrackBusy_.assign(slotTracks_.size(), 0);
}

void
StreamController::rearmTrace()
{
    if (!trace_)
        return;
    slotTrackBusy_.assign(slotTracks_.size(), 0);
    for (Slot &s : slots_) {
        if (!s.instr)
            continue;
        for (size_t i = 0; i < slotTrackBusy_.size(); ++i) {
            if (slotTrackBusy_[i])
                continue;
            slotTrackBusy_[i] = 1;
            s.traceTrack = static_cast<int16_t>(i);
            const char *stage;
            switch (s.state) {
              case SlotState::Waiting:
                stage = depsSatisfied(s) ? "res" : "dep";
                break;
              case SlotState::NeedUcode: stage = "ucode"; break;
              case SlotState::Issuing: stage = "issue"; break;
              case SlotState::Running: stage = "run"; break;
              default: stage = "stuck"; break;
            }
            s.traceStage = stage;
            trace_->openSpan(slotTracks_[i], trace_->now(), stage,
                             s.idx,
                             static_cast<uint64_t>(s.instr->kind));
            break;
        }
    }
}

void
StreamController::beginProgram(const StreamProgram &program)
{
    IMAGINE_ASSERT(slots_.empty(), "beginProgram with busy scoreboard");
    program_ = &program;
    const size_t n = program.instrs.size();
    done_.assign(n, 0);
    // Reverse the compiler-encoded dependency edges once per program,
    // so a completion resolves exactly its dependents' counts.
    dependentsBegin_.assign(n + 1, 0);
    for (const StreamInstr &si : program.instrs)
        for (uint32_t d : si.deps)
            ++dependentsBegin_[d + 1];
    for (size_t i = 0; i < n; ++i)
        dependentsBegin_[i + 1] += dependentsBegin_[i];
    dependents_.resize(dependentsBegin_[n]);
    std::vector<uint32_t> fill(dependentsBegin_.begin(),
                               dependentsBegin_.end() - 1);
    for (size_t j = 0; j < n; ++j)
        for (uint32_t d : program.instrs[j].deps)
            dependents_[fill[d]++] = static_cast<uint32_t>(j);
    countPendingDeps();
    inFlight_.clear();
    ownNext_ = kForever;
    dirty_ = true;
}

void
StreamController::countPendingDeps()
{
    const std::vector<StreamInstr> &instrs = program_->instrs;
    pendingDeps_.assign(instrs.size(), 0);
    pendingMemDeps_.assign(instrs.size(), 0);
    for (size_t j = 0; j < instrs.size(); ++j) {
        for (uint32_t d : instrs[j].deps) {
            if (done_[d])
                continue;
            ++pendingDeps_[j];
            if (isMemOp(instrs[d].kind))
                ++pendingMemDeps_[j];
        }
    }
}

void
StreamController::markDone(uint32_t idx)
{
    if (done_[idx])
        return;
    done_[idx] = 1;
    const bool mem = isMemOp(program_->instrs[idx].kind);
    for (uint32_t k = dependentsBegin_[idx]; k < dependentsBegin_[idx + 1];
         ++k) {
        uint32_t j = dependents_[k];
        --pendingDeps_[j];
        if (mem)
            --pendingMemDeps_[j];
    }
}

void
StreamController::retireHostSide(uint32_t idx, StreamOpKind kind)
{
    IMAGINE_ASSERT(idx < done_.size(), "retire out of range");
    markDone(idx);
    dirty_ = true;
    ++stats_.instrsRetired;
    ++stats_.kindCount[static_cast<int>(kind)];
}

bool
StreamController::scoreboardFull() const
{
    return static_cast<int>(slots_.size()) >= cfg_.scoreboardSlots;
}

void
StreamController::enqueue(uint32_t idx, const StreamInstr *instr)
{
    IMAGINE_ASSERT(!scoreboardFull(), "scoreboard overflow");
    IMAGINE_ASSERT(idx < done_.size(), "instruction index out of range");
    Slot s;
    s.idx = idx;
    s.instr = instr;
    if (trace_) {
        // Lease a free track from the fixed scoreboard pool (one always
        // exists: slots_ is bounded by the same cfg.scoreboardSlots).
        for (size_t i = 0; i < slotTrackBusy_.size(); ++i) {
            if (slotTrackBusy_[i])
                continue;
            slotTrackBusy_[i] = 1;
            s.traceTrack = static_cast<int16_t>(i);
            s.traceStage = depsSatisfied(s) ? "res" : "dep";
            trace_->openSpan(slotTracks_[i], trace_->now(),
                             s.traceStage, s.idx,
                             static_cast<uint64_t>(instr->kind));
            break;
        }
    }
    slots_.push_back(std::move(s));
    dirty_ = true;
}

bool
StreamController::instrDone(uint32_t idx) const
{
    return done_[idx] != 0;
}

bool
StreamController::ucodeResident(uint16_t kernelId) const
{
    return std::find(ucodeLru_.begin(), ucodeLru_.end(), kernelId) !=
           ucodeLru_.end();
}

bool
StreamController::startUcodeLoad(uint16_t kernelId, Cycle now)
{
    (void)now;
    if (ucodeLoadAg_ >= 0)
        return ucodeLoading_ == kernelId;
    int ag = -1;
    for (int i = 0; i < cfg_.numAddressGenerators; ++i) {
        if (mem_.agIdle(i) && i != reservedAg_) {
            ag = i;
            break;
        }
    }
    if (ag < 0)
        return false;
    const kernelc::CompiledKernel &k = kernels_[kernelId];
    IMAGINE_ASSERT(k.ucodeInstrs <= cfg_.ucodeStoreInstrs,
                   "kernel %s does not fit in the microcode store",
                   k.name());
    // Evict least-recently-used kernels until the new one fits.
    while (ucodeUsed_ + k.ucodeInstrs > cfg_.ucodeStoreInstrs) {
        IMAGINE_ASSERT(!ucodeLru_.empty(), "microcode store accounting");
        ucodeUsed_ -= kernels_[ucodeLru_.back()].ucodeInstrs;
        ucodeLru_.pop_back();
    }
    uint32_t words = static_cast<uint32_t>(k.ucodeInstrs) *
                     cfg_.ucodeWordsPerInstr;
    mem_.startSinkLoad(ag, ucodeImageBase + Addr(kernelId) * 65536, words);
    ucodeLoadAg_ = ag;
    ucodeLoading_ = kernelId;
    ++stats_.ucodeLoadsIssued;
    stats_.ucodeWordsLoaded += words;
    return true;
}

void
StreamController::tryIssue(Slot &s, Cycle now)
{
    int extra = 0;
    switch (s.instr->kind) {
      case StreamOpKind::KernelExec:
      case StreamOpKind::Restart:
      case StreamOpKind::MemLoad:
      case StreamOpKind::MemStore:
        extra = cfg_.quirkIssueLatency;
        break;
      default:
        break;
    }
    s.state = SlotState::Issuing;
    s.issueDone = now + cfg_.scIssueOverhead + extra;
    issueBusy_ = true;
    issueBusyUntil_ = s.issueDone;
}

void
StreamController::dispatch(Slot &s, Cycle now)
{
    (void)now;
    dirty_ = true;
    const StreamInstr &si = *s.instr;
    switch (si.kind) {
      case StreamOpKind::SdrWrite:
        sdrs_[si.regIndex] = si.sdr;
        complete(s);
        return;
      case StreamOpKind::MarWrite:
        mars_[si.regIndex] = si.mar;
        complete(s);
        return;
      case StreamOpKind::UcrWrite:
        ucrs_[si.regIndex] = si.value;
        complete(s);
        return;
      case StreamOpKind::Move:
      case StreamOpKind::Sync:
      case StreamOpKind::RegRead:
      case StreamOpKind::UcodeLoad:
        complete(s);
        return;
      case StreamOpKind::MemLoad:
      case StreamOpKind::MemStore: {
        const Mar &mar = mars_[si.marIndex];
        const Sdr &data = sdrs_[si.dataSdr];
        const Sdr *idx = si.indexed ? &sdrs_[si.indexSdr] : nullptr;
        if (reservedAg_ == s.ag)
            reservedAg_ = -1;
        if (si.kind == StreamOpKind::MemLoad)
            mem_.startLoad(s.ag, mar, data, idx);
        else
            mem_.startStore(s.ag, mar, data, idx);
        stats_.memOpWords += data.length;
        ++stats_.memStreamOps;
        s.state = SlotState::Running;
        return;
      }
      case StreamOpKind::KernelExec:
      case StreamOpKind::Restart: {
        const kernelc::CompiledKernel &k = kernels_[si.kernelId];
        s.inPlace = false;
        for (uint8_t o : si.outSdrs) {
            const Sdr &os = sdrs_[o];
            for (uint8_t in : si.inSdrs) {
                const Sdr &is = sdrs_[in];
                if (os.srfOffset < is.srfOffset + is.length &&
                    is.srfOffset < os.srfOffset + os.length)
                    s.inPlace = true;
            }
        }
        std::vector<ClusterArray::Binding> ins, outs;
        for (size_t i = 0; i < si.inSdrs.size(); ++i) {
            Sdr sd = sdrs_[si.inSdrs[i]];
            if (si.truncateInputs) {
                uint32_t group = static_cast<uint32_t>(
                                     k.graph.inRec[i]) *
                                 numClusters;
                sd.length -= sd.length % group;
            }
            uint32_t window = static_cast<uint32_t>(k.graph.inRec[i]) *
                              numClusters * 2;
            s.inClients.push_back(srf_.openIn(sd, window));
            ins.push_back({s.inClients.back(), sd.length});
        }
        for (size_t i = 0; i < si.outSdrs.size(); ++i) {
            const Sdr &sd = sdrs_[si.outSdrs[i]];
            uint32_t rec = std::max<uint32_t>(k.graph.outRec[i], 1);
            s.outClients.push_back(
                srf_.openOut(sd, rec * numClusters * 2));
            outs.push_back({s.outClients.back(), sd.length});
        }
        // Snapshot kernel parameters into the micro-controller.
        for (int i = 0; i < cfg_.numUcrs; ++i)
            clusters_.setUcr(i, ucrs_[static_cast<size_t>(i)]);
        clusters_.start(si.kernelId, std::move(ins), std::move(outs),
                        si.explicitTrip,
                        si.kind == StreamOpKind::Restart);
        // Mark recency for the microcode store.
        auto it = std::find(ucodeLru_.begin(), ucodeLru_.end(),
                            si.kernelId);
        if (it != ucodeLru_.end())
            ucodeLru_.erase(it);
        ucodeLru_.push_front(si.kernelId);
        s.state = SlotState::Running;
        return;
      }
      default:
        IMAGINE_PANIC("dispatch of unknown stream op kind");
    }
}

void
StreamController::complete(Slot &s)
{
    dirty_ = true;
    // Injected stuck-completion fault: the op finished on its resource
    // but the scoreboard never sees the completion signal.  Dependents
    // never issue; the forward-progress watchdog reports the hang.
    if (inj_ && inj_->onSlotCompletion(s.idx)) {
        s.state = SlotState::Stuck;
        return;
    }
    markDone(s.idx);
    ++stats_.instrsRetired;
    ++stats_.kindCount[static_cast<int>(s.instr->kind)];
    if (trace_ && s.traceTrack >= 0) {
        uint32_t t = slotTracks_[static_cast<size_t>(s.traceTrack)];
        trace_->closeSpan(t, trace_->now() + 1);
        trace_->instant(t, "retire", s.idx,
                        static_cast<uint64_t>(s.instr->kind));
        slotTrackBusy_[static_cast<size_t>(s.traceTrack)] = 0;
        s.traceTrack = -1;
    }
    s.instr = nullptr;  // marks the slot for removal
    retired_ = true;
}

void
StreamController::retryOrGiveUp(Slot &s)
{
    dirty_ = true;
    const StreamInstr &si = *s.instr;
    if (si.kind == StreamOpKind::Restart || s.inPlace ||
        s.retries >= cfg_.faults.maxRetries) {
        const char *why;
        std::string budget;
        if (si.kind == StreamOpKind::Restart) {
            why = "Restart accumulator carry-over cannot be replayed";
        } else if (s.inPlace) {
            why = "in-place stream update overwrote its own input";
        } else {
            budget = strfmt("retry budget (%d) exhausted",
                            cfg_.faults.maxRetries);
            why = budget.c_str();
        }
        inj_->noteRetryExhausted();
        throw SimError(
            SimErrorKind::UnrecoveredFault,
            strfmt("detected fault in %s instr %u%s%s%s: %s",
                   streamOpKindName(si.kind), s.idx,
                   si.label.empty() ? "" : " \"",
                   si.label.c_str(), si.label.empty() ? "" : "\"",
                   why));
    }
    ++s.retries;
    inj_->noteRetry();
    // Back to Waiting: the issue loop re-acquires resources and the
    // dispatch path re-runs the op from intact SRF/DRAM source data.
    s.state = SlotState::Waiting;
    s.ag = -1;
    s.issueDone = 0;
}

void
StreamController::tick(Cycle now)
{
    // --- finish a microcode load ---------------------------------------
    if (ucodeLoadAg_ >= 0 && mem_.agDone(ucodeLoadAg_)) {
        dirty_ = true;
        mem_.finish(ucodeLoadAg_);
        if (inj_ && inj_->onUcodeLoad(ucodeLoading_)) {
            // Parity caught a corrupted transfer: discard and re-run.
            uint16_t kernelId = ucodeLoading_;
            ucodeLoadAg_ = -1;
            ucodeLoading_ = UINT16_MAX;
            if (++ucodeRetries_ > cfg_.faults.maxRetries) {
                inj_->noteRetryExhausted();
                throw SimError(
                    SimErrorKind::UnrecoveredFault,
                    strfmt("microcode load of kernel %s corrupted; "
                           "retry budget (%d) exhausted",
                           kernels_[kernelId].name(),
                           cfg_.faults.maxRetries));
            }
            inj_->noteRetry();
            startUcodeLoad(kernelId, now);
        } else {
            ucodeUsed_ += kernels_[ucodeLoading_].ucodeInstrs;
            ucodeLru_.push_front(ucodeLoading_);
            ucodeLoadAg_ = -1;
            ucodeLoading_ = UINT16_MAX;
            ucodeRetries_ = 0;
        }
    }

    // --- completions and dispatches (in-flight slots only) -------------
    for (uint32_t pos : inFlight_) {
        Slot &s = slots_[pos];
        if (s.state == SlotState::Issuing) {
            if (now >= s.issueDone)
                dispatch(s, now);
            continue;
        }
        switch (s.instr->kind) {
          case StreamOpKind::MemLoad:
          case StreamOpKind::MemStore:
            if (mem_.agDone(s.ag)) {
                bool faulted = inj_ && mem_.agFaulted(s.ag);
                mem_.finish(s.ag);
                if (faulted) {
                    // Source data (DRAM for loads, SRF for stores) is
                    // intact: re-run the transfer.
                    retryOrGiveUp(s);
                    break;
                }
                complete(s);
            }
            break;
          case StreamOpKind::KernelExec:
          case StreamOpKind::Restart:
            if (clusters_.done()) {
                bool faulted = false;
                if (inj_) {
                    for (int c : s.outClients)
                        faulted = faulted || srf_.clientFaulted(c);
                }
                clusters_.retire();
                if (faulted) {
                    // Discard this run's outputs; inputs are still
                    // resident in the SRF, so the kernel can re-run.
                    for (int c : s.inClients)
                        srf_.close(c);
                    for (int c : s.outClients)
                        srf_.close(c);
                    s.inClients.clear();
                    s.outClients.clear();
                    retryOrGiveUp(s);
                    break;
                }
                for (int c : s.inClients)
                    srf_.close(c);
                // Conditional streams report their produced length back
                // into the SDR file.
                for (size_t i = 0; i < s.outClients.size(); ++i) {
                    uint32_t produced = srf_.close(s.outClients[i]);
                    sdrs_[s.instr->outSdrs[i]].length = produced;
                }
                // Scalar kernel results become host-visible.
                const kernelc::CompiledKernel &k =
                    kernels_[s.instr->kernelId];
                for (const kernelc::Node &n : k.graph.nodes) {
                    if (n.op == Opcode::UcrWr)
                        ucrs_[n.payload] = clusters_.ucr(
                            static_cast<int>(n.payload));
                }
                complete(s);
            }
            break;
          default:
            break;
        }
    }
    if (retired_) {
        std::erase_if(slots_, [](const Slot &s) { return !s.instr; });
        retired_ = false;
    }

    if (issueBusy_ && now >= issueBusyUntil_) {
        issueBusy_ = false;
        dirty_ = true;
    }

    // Nothing the scan or the idle classification reads has moved
    // since the last event tick, so both would repeat their outcome.
    if (!dirty_)
        return;
    dirty_ = false;

    // --- pick the next instruction to issue (oldest eligible) ----------
    if (!issueBusy_) {
        bool kernelInFlight = clusters_.busy();
        for (Slot &s : slots_) {
            if (s.state == SlotState::Issuing ||
                s.state == SlotState::Running) {
                if (s.instr->kind == StreamOpKind::KernelExec ||
                    s.instr->kind == StreamOpKind::Restart) {
                    kernelInFlight = true;
                }
            }
        }
        for (Slot &s : slots_) {
            if (s.state != SlotState::Waiting &&
                s.state != SlotState::NeedUcode) {
                continue;
            }
            if (!depsSatisfied(s))
                continue;
            switch (s.instr->kind) {
              case StreamOpKind::KernelExec:
              case StreamOpKind::Restart: {
                if (kernelInFlight)
                    continue;
                if (!ucodeResident(s.instr->kernelId)) {
                    s.state = SlotState::NeedUcode;
                    startUcodeLoad(s.instr->kernelId, now);
                    continue;
                }
                s.state = SlotState::Waiting;
                tryIssue(s, now);
                break;
              }
              case StreamOpKind::MemLoad:
              case StreamOpKind::MemStore: {
                int ag = -1;
                for (int i = 0; i < cfg_.numAddressGenerators; ++i) {
                    if (mem_.agIdle(i) && i != ucodeLoadAg_ &&
                        i != reservedAg_) {
                        ag = i;
                        break;
                    }
                }
                // Reserve an AG for a pending microcode load.
                if (ag < 0)
                    continue;
                s.ag = ag;
                reservedAg_ = ag;   // held until dispatch
                tryIssue(s, now);
                break;
              }
              default:
                tryIssue(s, now);
                break;
            }
            if (issueBusy_)
                break;
        }
    }

    if (trace_)
        traceSlotStages();
    classifyIdle();
    refreshInFlight();
}

void
StreamController::refreshInFlight()
{
    inFlight_.clear();
    ownNext_ = issueBusy_ ? issueBusyUntil_ : kForever;
    for (uint32_t pos = 0; pos < slots_.size(); ++pos) {
        const Slot &s = slots_[pos];
        if (s.state == SlotState::Issuing)
            ownNext_ = std::min(ownNext_, s.issueDone);
        else if (s.state != SlotState::Running)
            continue;
        inFlight_.push_back(pos);
    }
}

void
StreamController::traceSlotStages()
{
    // Slot lifecycle state only moves on the controller's event ticks,
    // so re-opening the stage span there segments every slot's
    // residency exactly: dep-blocked -> resource-blocked -> ucode ->
    // issue -> run -> stuck.
    for (Slot &s : slots_) {
        if (!s.instr || s.traceTrack < 0)
            continue;
        const char *stage;
        switch (s.state) {
          case SlotState::Waiting:
            stage = depsSatisfied(s) ? "res" : "dep";
            break;
          case SlotState::NeedUcode: stage = "ucode"; break;
          case SlotState::Issuing: stage = "issue"; break;
          case SlotState::Running: stage = "run"; break;
          default: stage = "stuck"; break;
        }
        if (stage == s.traceStage)
            continue;
        uint32_t t = slotTracks_[static_cast<size_t>(s.traceTrack)];
        Cycle c = trace_->now() + 1;
        trace_->closeSpan(t, c);
        trace_->openSpan(t, c, stage, s.idx,
                         static_cast<uint64_t>(s.instr->kind));
        s.traceStage = stage;
    }
}

Cycle
StreamController::nextEventAfter(Cycle now) const
{
    // The resources the controller polls signal only "finished" (and
    // "faulted", which implies finished); each such signal is processed
    // on the next tick.  Every active AG belongs to a running memory op
    // or to the microcode load.
    for (int i = 0; i < cfg_.numAddressGenerators; ++i)
        if (mem_.agDone(i))
            return now + 1;
    if (clusters_.done())
        return now + 1;
    // Everything else that moves a slot is one of the controller's own
    // events, and the only ones not triggered by a resource signal are
    // the dispatch of the issuing slot and the issue pipeline freeing.
    return std::max(now + 1, ownNext_);
}

namespace
{

const char *
slotStateName(int state)
{
    switch (state) {
      case 0: return "Waiting";
      case 1: return "NeedUcode";
      case 2: return "Issuing";
      case 3: return "Running";
      case 4: return "Stuck";
    }
    return "unknown";
}

} // namespace

void
StreamController::dumpHang(HangReport &report) const
{
    std::unordered_map<uint32_t, const Slot *> byIdx;
    for (const Slot &s : slots_) {
        if (!s.instr)
            continue;
        byIdx.emplace(s.idx, &s);
        HangReport::SlotInfo info;
        info.idx = s.idx;
        info.label = s.instr->label;
        info.kind = streamOpKindName(s.instr->kind);
        info.state = slotStateName(static_cast<int>(s.state));
        for (uint32_t d : s.instr->deps)
            if (!done_[d])
                info.waitingOn.push_back(d);
        info.ag = s.ag;
        info.retries = s.retries;
        report.slots.push_back(std::move(info));
    }
    report.instrsRetired = stats_.instrsRetired;

    // Dependency-cycle finder over the occupied scoreboard slots: an
    // edge instr -> dep for every unsatisfied compiler-encoded dep that
    // is itself sitting in the scoreboard.  A cycle means the program
    // is malformed (deps normally point strictly backwards) and no
    // amount of waiting will resolve it.
    std::unordered_map<uint32_t, int> color;    // 1 in-stack, 2 done
    std::vector<uint32_t> path;
    auto dfs = [&](auto &&self, uint32_t idx) -> bool {
        color[idx] = 1;
        path.push_back(idx);
        for (uint32_t d : byIdx.at(idx)->instr->deps) {
            if (done_[d] || !byIdx.count(d))
                continue;
            int c = color.count(d) ? color[d] : 0;
            if (c == 1) {
                // Found a back edge: report the cycle portion of the
                // current path, starting at d.
                auto it = std::find(path.begin(), path.end(), d);
                report.depCycle.assign(it, path.end());
                return true;
            }
            if (c == 0 && self(self, d))
                return true;
        }
        path.pop_back();
        color[idx] = 2;
        return false;
    };
    for (const auto &[idx, slot] : byIdx) {
        (void)slot;
        if (!color.count(idx) && dfs(dfs, idx))
            break;
    }
}

void
StreamController::state(ckpt::Archive &ar)
{
    const size_t nInstrs = program_->instrs.size();
    const int nAgs = cfg_.numAddressGenerators;
    auto agInRange = [nAgs](int ag) { return ag >= -1 && ag < nAgs; };
    ar.list(slots_, [&](Slot &sl) {
        // The instr pointer is always &program_->instrs[idx] (enqueue
        // stores the reference it is handed), so idx alone recovers it.
        ar.u32(sl.idx);
        ar.check(sl.idx < nInstrs, "slot instruction index out of range");
        ar.e8(sl.state, SlotState::Stuck);
        ar.u64(sl.issueDone);
        ar.i32(sl.ag);
        ar.check(agInRange(sl.ag), "slot AG out of range");
        ar.i32(sl.retries);
        ar.b(sl.inPlace);
        ar.vec(sl.inClients);
        ar.vec(sl.outClients);
        if (!ar.loading())
            return;
        sl.instr = &program_->instrs[sl.idx];
        const bool issued = sl.state == SlotState::Issuing ||
                            sl.state == SlotState::Running;
        // An issued memory op drives its AG directly.
        ar.check(!issued || !isMemOp(sl.instr->kind) || sl.ag >= 0,
                 "issued memory op without an AG");
        // A dispatched kernel holds one SRF client per stream binding
        // (kept after a lost completion); no other slot holds any.
        const bool held = sl.state == SlotState::Running ||
                          sl.state == SlotState::Stuck;
        auto clientsFit = [held](const std::vector<int> &clients,
                                 const std::vector<uint8_t> &sdrs) {
            return clients.empty() ||
                   (held && clients.size() == sdrs.size());
        };
        ar.check(clientsFit(sl.inClients, sl.instr->inSdrs) &&
                     clientsFit(sl.outClients, sl.instr->outSdrs),
                 "slot SRF clients differ from its instruction");
    }, static_cast<size_t>(cfg_.scoreboardSlots));
    ar.vec(done_);
    ar.check(done_.size() == nInstrs, "done flags differ from the program");
    ar.i32(reservedAg_);
    ar.check(agInRange(reservedAg_), "reserved AG out of range");
    ar.b(issueBusy_);
    ar.u64(issueBusyUntil_);
    ar.vec(sdrs_);
    ar.check(sdrs_.size() == static_cast<size_t>(cfg_.numSdrs),
             "SDR count differs from the config");
    ar.list(mars_, [&](Mar &m) { MemorySystem::marState(ar, m); });
    ar.check(mars_.size() == static_cast<size_t>(cfg_.numMars),
             "MAR count differs from the config");
    ar.vec(ucrs_);
    ar.check(ucrs_.size() == static_cast<size_t>(cfg_.numUcrs),
             "UCR count differs from the config");
    // LRU order is meaningful; the list serializes front to back.
    std::vector<uint16_t> lru(ucodeLru_.begin(), ucodeLru_.end());
    ar.vec(lru);
    for (uint16_t id : lru)
        ar.check(id < kernels_.size(), "resident kernel id out of range");
    ar.i32(ucodeUsed_);
    ar.i32(ucodeLoadAg_);
    ar.check(agInRange(ucodeLoadAg_), "microcode AG out of range");
    ar.u16(ucodeLoading_);
    ar.check(ucodeLoadAg_ < 0 || ucodeLoading_ < kernels_.size(),
             "loading kernel id out of range");
    ar.i32(ucodeRetries_);
    ar.e8(idleCause_, IdleCause::Host);
    if (ar.loading()) {
        ucodeLru_.assign(lru.begin(), lru.end());
        countPendingDeps();
        refreshInFlight();
        dirty_ = true;
    }
}

void
StreamController::classifyIdle()
{
    if (clusters_.busy()) {
        idleCause_ = IdleCause::None;
        return;
    }
    bool kernelNeedsUcode = false;
    bool kernelBlockedOnMem = false;
    bool kernelIssuing = false;
    bool anyKernel = false;
    bool anyMem = false;
    for (const Slot &s : slots_) {
        StreamOpKind k = s.instr->kind;
        if (isMemOp(k))
            anyMem = true;
        if (k != StreamOpKind::KernelExec && k != StreamOpKind::Restart)
            continue;
        anyKernel = true;
        if (s.state == SlotState::NeedUcode) {
            kernelNeedsUcode = true;
        } else if (s.state == SlotState::Issuing) {
            kernelIssuing = true;
        } else if (s.state == SlotState::Waiting) {
            if (pendingMemDeps_[s.idx] != 0)
                kernelBlockedOnMem = true;  // blocked on a memory op
            if (depsSatisfied(s))
                kernelIssuing = true;   // eligible, waiting for pipeline
        }
    }
    if (kernelNeedsUcode)
        idleCause_ = IdleCause::UcodeLoad;
    else if (kernelBlockedOnMem)
        idleCause_ = IdleCause::Memory;
    else if (kernelIssuing)
        idleCause_ = IdleCause::ScOverhead;
    else if (!anyKernel && anyMem)
        idleCause_ = IdleCause::Memory;
    else
        idleCause_ = IdleCause::Host;
}

} // namespace imagine
