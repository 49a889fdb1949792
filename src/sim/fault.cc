#include "sim/fault.hh"

#include <algorithm>
#include <cstring>

#include "ckpt/serializer.hh"
#include "sim/stats.hh"

namespace imagine
{

void
FaultStats::registerOn(StatsRegistry &reg, const std::string &prefix)
{
    reg.scalar(prefix + ".injected", &injected);
    reg.scalar(prefix + ".corrected", &corrected);
    reg.scalar(prefix + ".detected", &detected);
    reg.scalar(prefix + ".silent", &silent);
    reg.scalar(prefix + ".perfOnly", &perfOnly);
    reg.scalar(prefix + ".retries", &retries);
    reg.scalar(prefix + ".retriesExhausted", &retriesExhausted);
    reg.scalar(prefix + ".stuckCompletions", &stuckCompletions);
    reg.scalar(prefix + ".agStallCycles", &agStallCycles);
    std::vector<std::string> sites;
    for (int i = 0; i < static_cast<int>(FaultSite::NumSites); ++i)
        sites.push_back(faultSiteName(static_cast<FaultSite>(i)));
    reg.vector(prefix + ".bySite", bySite, sites);
}

const char *
faultSiteName(FaultSite site)
{
    switch (site) {
      case FaultSite::SrfWord: return "srf-word";
      case FaultSite::DramWord: return "dram-word";
      case FaultSite::UcodeLoad: return "ucode-load";
      case FaultSite::StuckSlot: return "stuck-slot";
      case FaultSite::AgStall: return "ag-stall";
      case FaultSite::NumSites: break;
    }
    return "unknown";
}

void
FaultInjector::record(FaultSite site, FaultOutcome outcome,
                      uint64_t where, Word mask)
{
    ++stats_.injected;
    ++stats_.bySite[static_cast<int>(site)];
    switch (outcome) {
      case FaultOutcome::Corrected: ++stats_.corrected; break;
      case FaultOutcome::Detected: ++stats_.detected; break;
      case FaultOutcome::Silent: ++stats_.silent; break;
      case FaultOutcome::Perf: ++stats_.perfOnly; break;
    }
    // Checkpoints write the trace as raw bytes: zero the padding so
    // they never carry indeterminate stack bytes.
    FaultEvent e;
    std::memset(static_cast<void *>(&e), 0, sizeof(e));
    e.ordinal = trace_.size();
    e.site = site;
    e.outcome = outcome;
    e.where = where;
    e.mask = mask;
    trace_.push_back(e);
}

FaultInjector::Flip
FaultInjector::flipWord(FaultSite site, EccMode ecc, uint64_t where,
                        Word w)
{
    Flip f;
    f.word = w;
    Word mask = Word(1) << rng_.below(32);
    f.hit = true;
    switch (ecc) {
      case EccMode::Secded:
        // Single-bit flip corrected in place; data unharmed.
        record(site, FaultOutcome::Corrected, where, mask);
        break;
      case EccMode::Parity:
        // Detected but not correctable: the corrupted word is stored
        // and the owning operation flagged for retry.
        f.detected = true;
        f.word = w ^ mask;
        record(site, FaultOutcome::Detected, where, mask);
        break;
      case EccMode::None:
        f.word = w ^ mask;
        record(site, FaultOutcome::Silent, where, mask);
        break;
    }
    return f;
}

FaultInjector::Flip
FaultInjector::onSrfWrite(uint64_t wordAddr, Word w)
{
    if (!roll(plan_.srfFlipRate))
        return {false, false, w};
    return flipWord(FaultSite::SrfWord, plan_.srfEcc, wordAddr, w);
}

FaultInjector::Flip
FaultInjector::onDramWord(uint64_t wordAddr, Word w)
{
    if (!roll(plan_.dramFlipRate))
        return {false, false, w};
    return flipWord(FaultSite::DramWord, plan_.memEcc, wordAddr, w);
}

bool
FaultInjector::onUcodeLoad(uint16_t kernelId)
{
    if (!roll(plan_.ucodeCorruptRate))
        return false;
    // The microcode store is parity-protected in hardware: corruption
    // is always detected at load time and the transfer re-run.
    record(FaultSite::UcodeLoad, FaultOutcome::Detected, kernelId, 0);
    return true;
}

bool
FaultInjector::onSlotCompletion(uint32_t instrIdx)
{
    if (!roll(plan_.stuckSlotRate))
        return false;
    record(FaultSite::StuckSlot, FaultOutcome::Detected, instrIdx, 0);
    ++stats_.stuckCompletions;
    return true;
}

void
FaultInjector::state(ckpt::Archive &ar)
{
    uint32_t st[4];
    std::copy_n(rng_.state(), 4, st);
    for (uint32_t &w : st)
        ar.u32(w);
    if (ar.loading())
        rng_.setState(st);
    ar.vec(trace_);
}

int
FaultInjector::onAgGenerate(int ag)
{
    if (!roll(plan_.agStallRate))
        return 0;
    int burst = plan_.agStallBurstCycles;
    record(FaultSite::AgStall, FaultOutcome::Perf,
           static_cast<uint64_t>(ag), 0);
    stats_.agStallCycles += static_cast<uint64_t>(burst);
    return burst;
}

} // namespace imagine
