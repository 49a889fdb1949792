#include "mem/memory.hh"

#include <algorithm>
#include <functional>

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

// Each AG's delivery queue is a min-heap on the ready cycle kept in a
// plain vector with the std::priority_queue algorithm, so a checkpoint
// writes and restores its exact layout (and with it the pop order).

template <typename D>
void
pushHeap(std::vector<D> &heap, const D &d)
{
    heap.push_back(d);
    std::push_heap(heap.begin(), heap.end(), std::greater<>());
}

template <typename D>
D
popHeap(std::vector<D> &heap)
{
    std::pop_heap(heap.begin(), heap.end(), std::greater<>());
    D d = heap.back();
    heap.pop_back();
    return d;
}

} // namespace

void
MemStats::registerOn(StatsRegistry &reg, const std::string &prefix)
{
    reg.scalar(prefix + ".wordsLoaded", &wordsLoaded);
    reg.scalar(prefix + ".wordsStored", &wordsStored);
    reg.scalar(prefix + ".cacheHits", &cacheHits);
    reg.scalar(prefix + ".dramAccesses", &dramAccesses);
    reg.scalar(prefix + ".rowMisses", &rowMisses);
    reg.scalar(prefix + ".bugPrecharges", &bugPrecharges);
    reg.scalar(prefix + ".channelBusyMemCycles", &channelBusyMemCycles);
}

void
MemorySystem::registerStats(StatsRegistry &reg)
{
    stats_.registerOn(reg, componentName());
}

MemorySystem::MemorySystem(const MachineConfig &cfg, Srf &srf)
    : cfg_(cfg), srf_(srf), ags_(cfg.numAddressGenerators),
      channels_(cfg.numChannels),
      cacheTags_(static_cast<size_t>(cfg.mcCacheWords), -1)
{
    for (Channel &ch : channels_)
        ch.banks.assign(cfg.banksPerChannel, Bank{});
}

double
MemorySystem::peakWordsPerCycle() const
{
    return static_cast<double>(cfg_.numChannels) / cfg_.memClockDivider;
}

void
MemorySystem::setTrace(trace::TraceSink *sink)
{
    trace_ = sink;
    if (!sink)
        return;
    agTracks_.clear();
    chanTracks_.clear();
    for (size_t i = 0; i < ags_.size(); ++i)
        agTracks_.push_back(
            sink->addTrack(trace::MemComp, strfmt("ag%zu", i)));
    for (size_t i = 0; i < channels_.size(); ++i)
        chanTracks_.push_back(
            sink->addTrack(trace::MemComp, strfmt("chan%zu", i)));
}

void
MemorySystem::rearmTrace()
{
    if (!trace_)
        return;
    for (size_t i = 0; i < ags_.size(); ++i) {
        const AgState &st = ags_[i];
        if (!st.active)
            continue;
        trace_->openSpan(agTracks_[i], trace_->now(),
                         st.sink ? "ucode"
                                 : (st.isLoad ? "load" : "store"),
                         st.length);
    }
}

void
MemorySystem::startLoad(int ag, const Mar &mar, const Sdr &dst,
                        const Sdr *idx)
{
    AgState &st = ags_[ag];
    IMAGINE_ASSERT(!st.active, "AG%d already busy", ag);
    st = AgState{};
    st.active = true;
    st.isLoad = true;
    st.mar = mar;
    st.length = dst.length;
    st.dataClient = srf_.openOut(dst);
    if (mar.mode == MarMode::Indexed) {
        IMAGINE_ASSERT(idx, "indexed load without index stream");
        st.indexed = true;
        st.idxClient = srf_.openIn(*idx);
        IMAGINE_ASSERT(idx->length * mar.recordWords == dst.length,
                       "index stream length %u does not cover %u words",
                       idx->length, dst.length);
    } else {
        IMAGINE_ASSERT(dst.length % mar.recordWords == 0,
                       "stream length %u not a multiple of record size %u",
                       dst.length, mar.recordWords);
    }
    if (trace_)
        trace_->openSpan(agTracks_[static_cast<size_t>(ag)],
                         trace_->now(), "load", st.length);
}

void
MemorySystem::startStore(int ag, const Mar &mar, const Sdr &src,
                         const Sdr *idx)
{
    AgState &st = ags_[ag];
    IMAGINE_ASSERT(!st.active, "AG%d already busy", ag);
    st = AgState{};
    st.active = true;
    st.isLoad = false;
    st.mar = mar;
    st.length = src.length;
    st.dataClient = srf_.openIn(src);
    if (mar.mode == MarMode::Indexed) {
        IMAGINE_ASSERT(idx, "indexed store without index stream");
        st.indexed = true;
        st.idxClient = srf_.openIn(*idx);
    }
    if (trace_)
        trace_->openSpan(agTracks_[static_cast<size_t>(ag)],
                         trace_->now(), "store", st.length);
}

void
MemorySystem::startSinkLoad(int ag, Addr baseWord, uint32_t words)
{
    AgState &st = ags_[ag];
    IMAGINE_ASSERT(!st.active, "AG%d already busy", ag);
    st = AgState{};
    st.active = true;
    st.isLoad = true;
    st.sink = true;
    st.mar.baseWord = baseWord;
    st.mar.mode = MarMode::Stride;
    st.mar.strideWords = 1;
    st.mar.recordWords = 1;
    st.length = words;
    if (trace_)
        trace_->openSpan(agTracks_[static_cast<size_t>(ag)],
                         trace_->now(), "ucode", st.length);
}

bool
MemorySystem::agDone(int ag) const
{
    const AgState &st = ags_[ag];
    if (!st.active || st.completed < st.length)
        return false;
    if (st.isLoad && !st.sink)
        return srf_.outDrained(st.dataClient);
    return true;
}

bool
MemorySystem::agFaulted(int ag) const
{
    const AgState &st = ags_[ag];
    if (!st.active)
        return false;
    if (st.faultDetected)
        return true;
    return st.isLoad && !st.sink && st.dataClient >= 0 &&
           srf_.clientFaulted(st.dataClient);
}

void
MemorySystem::dumpHang(HangReport &report) const
{
    for (size_t i = 0; i < ags_.size(); ++i) {
        const AgState &st = ags_[i];
        HangReport::AgInfo info;
        info.ag = static_cast<int>(i);
        info.active = st.active;
        info.isLoad = st.isLoad;
        info.sink = st.sink;
        info.completed = st.completed;
        info.length = st.length;
        report.ags.push_back(std::move(info));
    }
    report.queuedDramRequests = 0;
    for (const Channel &ch : channels_)
        report.queuedDramRequests += ch.queue.size();
}

void
MemorySystem::marState(ckpt::Archive &ar, Mar &m)
{
    ar.u64(m.baseWord);
    ar.e8(m.mode, MarMode::Indexed);
    ar.u32(m.strideWords);
    ar.u32(m.recordWords);
}

void
MemorySystem::state(ckpt::Archive &ar)
{
    const size_t nAgs = ags_.size();
    ar.list(ags_, [&](AgState &st) {
        ar.b(st.active);
        ar.b(st.isLoad);
        ar.b(st.indexed);
        ar.b(st.sink);
        marState(ar, st.mar);
        ar.i32(st.dataClient);
        ar.i32(st.idxClient);
        ar.u32(st.length);
        ar.u32(st.nextElem);
        ar.u32(st.completed);
        ar.u32(st.curRecord);
        ar.u64(st.curRecordBase);
        // The heap array verbatim, so pop order is bit-identical to the
        // run that wrote it.
        ar.vec(st.deliveries);
        ar.check(std::is_heap(st.deliveries.begin(), st.deliveries.end(),
                              std::greater<>()) &&
                     std::all_of(st.deliveries.begin(),
                                 st.deliveries.end(),
                                 [&st](const Delivery &d) {
                                     return d.elem < st.length;
                                 }),
                 "delivery queue");
        ar.u64(st.startCycle);
        ar.b(st.faultDetected);
        ar.u64(st.stallUntil);
    }, nAgs);
    ar.check(ags_.size() == nAgs, "AG count differs from the config");
    const size_t nBanks = channels_.front().banks.size();
    ar.list(channels_, [&](Channel &ch) {
        ar.list(ch.queue, [&](DramReq &rq) {
            ar.u64(rq.wordAddr);
            ar.u32(rq.elem);
            ar.u8(rq.ag);
            ar.check(rq.ag < nAgs && rq.elem < ags_[rq.ag].length,
                     "DRAM request out of range");
            ar.b(rq.isWrite);
            ar.u64(rq.enqueuedMem);
        });
        ar.list(ch.banks, [&](Bank &bk) {
            ar.i64(bk.openRow);
            ar.u64(bk.nextFreeMem);
            ar.u32(bk.seqHits);
            ar.u64(bk.lastPerChan);
        }, nBanks);
        ar.check(ch.banks.size() == nBanks,
                 "bank count differs from the config");
        ar.u64(ch.busNextFreeMem);
        ar.u32(ch.frontSkips);
    }, channels_.size());
    ar.check(channels_.size() == static_cast<size_t>(cfg_.numChannels),
             "channel count differs from the config");
    ar.vec(cacheTags_);
    ar.check(cacheTags_.size() == static_cast<size_t>(cfg_.mcCacheWords),
             "cache size differs from the config");
    space_.state(ar);
}

void
MemorySystem::finish(int ag)
{
    AgState &st = ags_[ag];
    IMAGINE_ASSERT(agDone(ag), "finish on unfinished AG%d", ag);
    if (trace_)
        trace_->closeSpan(agTracks_[static_cast<size_t>(ag)],
                          trace_->now());
    if (st.dataClient >= 0)
        srf_.close(st.dataClient);
    if (st.idxClient >= 0)
        srf_.close(st.idxClient);
    st = AgState{};
}

bool
MemorySystem::recordBase(AgState &st, uint32_t record, Addr &base)
{
    if (!st.indexed) {
        base = st.mar.baseWord +
               static_cast<Addr>(record) * st.mar.strideWords;
        return true;
    }
    if (st.curRecord == record) {
        base = st.curRecordBase;
        return true;
    }
    if (!srf_.inReady(st.idxClient, record))
        return false;
    Word off = srf_.inConsume(st.idxClient, record);
    st.curRecord = record;
    st.curRecordBase = st.mar.baseWord + off;
    base = st.curRecordBase;
    return true;
}

void
MemorySystem::issueAccess(AgState &st, int agIdx, Addr addr, uint32_t elem,
                          Cycle now)
{
    if (st.isLoad) {
        size_t slot = addr % cacheTags_.size();
        if (cacheTags_[slot] == static_cast<int64_t>(addr)) {
            ++stats_.cacheHits;
            pushHeap(st.deliveries, {now + cfg_.mcPipelineCycles, elem,
                                     space_.readWord(addr)});
            return;
        }
        cacheTags_[slot] = static_cast<int64_t>(addr);
    } else {
        // Write-through: memory image updated at consume time; the tag
        // stays valid because data is always read from the image.
        size_t slot = addr % cacheTags_.size();
        if (cacheTags_[slot] != static_cast<int64_t>(addr))
            cacheTags_[slot] = -1;
    }
    Channel &ch = channels_[addr % channels_.size()];
    ch.queue.push_back({addr, elem, static_cast<uint8_t>(agIdx),
                        !st.isLoad, now / cfg_.memClockDivider});
}

void
MemorySystem::generate(int ag, Cycle now)
{
    AgState &st = ags_[ag];
    // Injected AG stall bursts: the generator goes quiet for a stretch
    // of cycles (a timing-only fault; no data is at risk).
    if (inj_) {
        if (now < st.stallUntil)
            return;
        if (st.nextElem < st.length) {
            int burst = inj_->onAgGenerate(ag);
            if (burst > 0) {
                st.stallUntil = now + static_cast<Cycle>(burst);
                return;
            }
        }
    }
    // Strided records burst several words per cycle; indexed (gather/
    // scatter) access is limited to one generated address per cycle.
    int budget = st.indexed ? 1 : 4;
    // Keep outstanding work inside the SRF buffer window (or a fixed
    // window for sink loads).
    while (budget > 0 && st.nextElem < st.length) {
        if (st.sink) {
            if (st.nextElem - st.completed >= 128)
                break;
        } else if (st.isLoad) {
            if (!srf_.outCanAccept(st.dataClient, st.nextElem))
                break;
        } else {
            if (!srf_.inReady(st.dataClient, st.nextElem))
                break;
        }
        uint32_t record = st.nextElem / st.mar.recordWords;
        uint32_t w = st.nextElem % st.mar.recordWords;
        Addr base;
        if (!recordBase(st, record, base))
            break;
        Addr addr = base + w;
        if (!MemorySpace::inBounds(addr)) {
            throw SimError(
                SimErrorKind::MemoryBounds,
                strfmt("AG%d %s generated word address 0x%llx outside "
                       "the 256 MB board address space (element %u, "
                       "base 0x%llx)",
                       ag, st.isLoad ? "load" : "store",
                       static_cast<unsigned long long>(addr),
                       st.nextElem,
                       static_cast<unsigned long long>(st.mar.baseWord)));
        }
        if (!st.isLoad) {
            Word data = srf_.inConsume(st.dataClient, st.nextElem);
            if (inj_) {
                // A flip on the way out over the SDRAM pins.
                FaultInjector::Flip f = inj_->onDramWord(addr, data);
                if (f.hit) {
                    data = f.word;
                    if (f.detected)
                        st.faultDetected = true;
                }
            }
            space_.writeWord(addr, data);
        }
        issueAccess(st, ag, addr, st.nextElem, now);
        ++st.nextElem;
        --budget;
    }
}

void
MemorySystem::tickChannels(uint64_t memCycle)
{
    for (Channel &ch : channels_) {
        if (ch.queue.empty() || ch.busNextFreeMem > memCycle)
            continue;
        // FR-FCFS with a starvation guard: prefer a row hit among the
        // oldest eight requests, but never skip the front more than 16
        // times in a row.
        size_t pick = 0;
        if (ch.frontSkips < 16) {
            size_t scan = std::min<size_t>(ch.queue.size(), 8);
            for (size_t i = 0; i < scan; ++i) {
                const DramReq &r = ch.queue[i];
                Addr perChan = r.wordAddr / channels_.size();
                uint64_t bankRow = perChan / cfg_.rowWords;
                size_t bank = bankRow % ch.banks.size();
                int64_t row = static_cast<int64_t>(bankRow /
                                                   ch.banks.size());
                if (ch.banks[bank].openRow == row &&
                    ch.banks[bank].nextFreeMem <= memCycle) {
                    pick = i;
                    break;
                }
            }
        }
        ch.frontSkips = (pick == 0) ? 0 : ch.frontSkips + 1;
        DramReq req = ch.queue[pick];
        // Order-preserving removal: shift the entries older than the
        // pick down one slot and pop the front.  The FR-FCFS scan keys
        // on position (oldest eight), so relative order must survive;
        // this moves at most seven entries instead of deque::erase's
        // O(queue depth) tail shift.
        for (size_t i = pick; i > 0; --i)
            ch.queue[i] = ch.queue[i - 1];
        ch.queue.pop_front();

        Addr perChan = req.wordAddr / channels_.size();
        uint64_t bankRow = perChan / cfg_.rowWords;
        Bank &bank = ch.banks[bankRow % ch.banks.size()];
        int64_t row = static_cast<int64_t>(bankRow / ch.banks.size());

        uint64_t start = std::max(memCycle, bank.nextFreeMem);
        uint64_t cost;
        if (bank.openRow == row) {
            // The prototype bug only affects sequential (streaming)
            // access patterns: spurious precharges between consecutive
            // same-row accesses (section 3.3).
            if (perChan == bank.lastPerChan + 1)
                ++bank.seqHits;
            else
                bank.seqHits = 0;
            if (cfg_.quirkPrechargeBug && bank.seqHits >= 24) {
                cost = cfg_.tRp + cfg_.tRcd + cfg_.tCas;
                bank.seqHits = 0;
                ++stats_.bugPrecharges;
            } else {
                cost = 1;
            }
        } else {
            cost = (bank.openRow < 0 ? 0 : cfg_.tRp) + cfg_.tRcd +
                   cfg_.tCas;
            bank.openRow = row;
            bank.seqHits = 0;
            ++stats_.rowMisses;
        }
        bank.lastPerChan = perChan;
        uint64_t doneMem = start + cost;
        bank.nextFreeMem = doneMem;
        ch.busNextFreeMem = doneMem;
        ++stats_.dramAccesses;
        stats_.channelBusyMemCycles += cost;
        if (trace_) {
            // One access = one busy region in core cycles; contiguous
            // accesses coalesce (busNextFreeMem serializes the track).
            size_t chIdx = static_cast<size_t>(&ch - channels_.data());
            uint64_t div = static_cast<uint64_t>(cfg_.memClockDivider);
            trace_->mergeSpan(chanTracks_[chIdx], start * div,
                              doneMem * div, "busy", cost);
        }

        AgState &st = ags_[req.ag];
        Cycle readyCore = doneMem * cfg_.memClockDivider +
                          cfg_.mcPipelineCycles;
        Word data = req.isWrite ? 0 : space_.readWord(req.wordAddr);
        // A flip on the way in over the SDRAM pins.  Microcode (sink)
        // transfers are handled by the UcodeLoad fault site instead.
        if (inj_ && !req.isWrite && !st.sink) {
            FaultInjector::Flip f = inj_->onDramWord(req.wordAddr, data);
            if (f.hit) {
                data = f.word;
                if (f.detected)
                    st.faultDetected = true;
            }
        }
        pushHeap(st.deliveries, {readyCore, req.elem, data});
    }
}

void
MemorySystem::tick(Cycle now)
{
    if (now % cfg_.memClockDivider == 0)
        tickChannels(now / cfg_.memClockDivider);

    for (size_t ag = 0; ag < ags_.size(); ++ag) {
        AgState &st = ags_[ag];
        if (!st.active)
            continue;
        generate(static_cast<int>(ag), now);
        while (!st.deliveries.empty() &&
               st.deliveries.front().ready <= now) {
            Delivery d = popHeap(st.deliveries);
            if (st.isLoad && !st.sink) {
                srf_.outProduce(st.dataClient, d.elem, d.data);
                ++stats_.wordsLoaded;
            } else if (st.isLoad) {
                ++stats_.wordsLoaded;
            } else {
                ++stats_.wordsStored;
            }
            ++st.completed;
        }
    }
}

Cycle
MemorySystem::nextEventAfter(Cycle now) const
{
    Cycle h = kForever;

    // Channels act on core cycles that are memClockDivider multiples,
    // once the data bus frees; the pick ignores bank.nextFreeMem (the
    // dequeue stalls inside the bank instead), so bus + queue is the
    // complete condition.
    uint64_t div = static_cast<uint64_t>(cfg_.memClockDivider);
    for (const Channel &ch : channels_) {
        if (ch.queue.empty())
            continue;
        uint64_t mem = std::max(now / div + 1, ch.busNextFreeMem);
        h = std::min(h, mem * div);
    }

    for (const AgState &st : ags_) {
        if (!st.active)
            continue;
        if (!st.deliveries.empty())
            h = std::min(h, std::max(now + 1, st.deliveries.front().ready));
        if (st.nextElem >= st.length)
            continue;
        // An armed AG-stall site rolls the RNG on every unstalled
        // generate cycle; skipping one would desynchronise the fault
        // trace, so the horizon pins to the next roll.
        if (inj_ && inj_->plan().agStallRate > 0.0) {
            h = std::min(h, std::max(now + 1, st.stallUntil));
            continue;
        }
        bool can;
        if (st.sink)
            can = st.nextElem - st.completed < 128;
        else if (st.isLoad)
            can = srf_.outCanAccept(st.dataClient, st.nextElem);
        else
            can = srf_.inReady(st.dataClient, st.nextElem);
        if (can && st.indexed) {
            uint32_t record = st.nextElem / st.mar.recordWords;
            can = st.curRecord == record ||
                  srf_.inReady(st.idxClient, record);
        }
        if (can)
            return now + 1;
        // Blocked generation resumes only after an SRF transfer or a
        // delivery; both are covered by the horizons above.
    }
    return h;
}

} // namespace imagine
