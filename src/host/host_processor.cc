#include "host/host_processor.hh"

#include <algorithm>

#include "ckpt/serializer.hh"
#include "sim/log.hh"
#include "sim/stats.hh"
#include "trace/trace.hh"

namespace imagine
{

void
HostStats::registerOn(StatsRegistry &reg, const std::string &prefix)
{
    reg.scalar(prefix + ".instrsSent", &instrsSent);
    reg.scalar(prefix + ".scoreboardFullCycles", &scoreboardFullCycles);
    reg.scalar(prefix + ".dependencyStallCycles",
               &dependencyStallCycles);
    reg.scalar(prefix + ".interfaceBusyCycles", &interfaceBusyCycles);
}

void
HostProcessor::registerStats(StatsRegistry &reg)
{
    stats_.registerOn(reg, componentName());
}

HostProcessor::HostProcessor(const MachineConfig &cfg,
                             StreamController &sc)
    : cfg_(cfg), sc_(sc)
{
}

void
HostProcessor::setTrace(trace::TraceSink *sink)
{
    trace_ = sink;
    if (sink)
        hostTrack_ = sink->addTrack(trace::HostComp, "issue");
}

void
HostProcessor::loadProgram(const StreamProgram &program, bool playback)
{
    program_ = &program;
    next_ = 0;
    budget_ = 0.0;
    blockedUntil_ = 0;
    playback_ = playback;
    sc_.beginProgram(program);
}

void
HostProcessor::tick(Cycle now)
{
    if (!program_ || finished())
        return;

    double cost = cfg_.hostCyclesPerInstr();
    if (!playback_)
        cost += cfg_.nonPlaybackHostOverheadCycles;
    budget_ = std::min(budget_ + 1.0, 2.0 * cost);

    if (blockedUntil_ > now) {
        ++stats_.dependencyStallCycles;
        return;
    }

    const StreamInstr &si = program_->instrs[next_];
    if (si.kind == StreamOpKind::RegRead) {
        // The host polls for the producing instructions, then spends a
        // full read-compute-write round trip before moving on.
        for (uint32_t d : si.deps)
            if (!sc_.instrDone(d))
                return;
        if (budget_ < cost)
            return;
        budget_ -= cost;
        ++stats_.instrsSent;
        sc_.retireHostSide(static_cast<uint32_t>(next_), si.kind);
        blockedUntil_ = now + cfg_.hostRoundTripCycles;
        if (trace_)
            trace_->span(hostTrack_, now, blockedUntil_, "roundtrip",
                         next_);
        ++next_;
        return;
    }

    if (budget_ < cost) {
        ++stats_.interfaceBusyCycles;
        return;
    }
    if (sc_.scoreboardFull()) {
        ++stats_.scoreboardFullCycles;
        return;
    }
    sc_.enqueue(static_cast<uint32_t>(next_), &si);
    budget_ -= cost;
    ++stats_.instrsSent;
    if (trace_)
        trace_->instant(hostTrack_, streamOpKindName(si.kind), next_);
    ++next_;
}

Cycle
HostProcessor::nextEventAfter(Cycle now) const
{
    if (!program_ || finished())
        return kForever;
    double cost = cfg_.hostCyclesPerInstr();
    if (!playback_)
        cost += cfg_.nonPlaybackHostOverheadCycles;

    // While blocked every tick is a pure dependency-stall tick; the
    // branch flips (and anything can happen) at blockedUntil_.
    if (blockedUntil_ > now)
        return blockedUntil_;

    // The cycle at which the interface budget first covers the
    // instruction, replaying tick()'s exact capped accumulation (budget
    // grows by repeated `+1.0` under a min, which is not the same
    // double as `+ span`).
    auto sendCycle = [&]() -> Cycle {
        double b = budget_;
        Cycle j = 0;
        do {
            ++j;
            b = std::min(b + 1.0, 2.0 * cost);
        } while (b < cost);
        return now + j;
    };

    const StreamInstr &si = program_->instrs[next_];
    if (si.kind == StreamOpKind::RegRead) {
        for (uint32_t d : si.deps)
            if (!sc_.instrDone(d))
                return kForever;    // woken by a retirement
        return sendCycle();
    }
    if (sc_.scoreboardFull())
        return kForever;            // woken by a slot freeing
    return sendCycle();
}

void
HostProcessor::state(ckpt::Archive &ar)
{
    // program_ is re-bound by loadProgram() before a restore; only the
    // dispatcher position and interface timers are checkpoint state.
    ar.u64(next_);
    ar.check(next_ <= program_->instrs.size(),
             "host position past the program end");
    ar.f64(budget_);
    ar.u64(blockedUntil_);
    ar.b(playback_);
}

void
HostProcessor::skipIdle(Cycle from, uint64_t span)
{
    if (!program_ || finished())
        return;
    double cost = cfg_.hostCyclesPerInstr();
    if (!playback_)
        cost += cfg_.nonPlaybackHostOverheadCycles;
    bool blocked = blockedUntil_ > from;    // constant across the span
    bool regRead =
        program_->instrs[next_].kind == StreamOpKind::RegRead;

    // Budget accumulates on every tick, including blocked ones.  Replay
    // the capped `+1.0` steps until saturation (bit-exact; at most
    // ~2*cost iterations), then bulk-account the rest.
    uint64_t i = 0;
    for (; i < span; ++i) {
        budget_ = std::min(budget_ + 1.0, 2.0 * cost);
        if (!blocked && !regRead) {
            if (budget_ < cost)
                ++stats_.interfaceBusyCycles;
            else
                ++stats_.scoreboardFullCycles;
        }
        if (budget_ == 2.0 * cost) {
            ++i;
            break;
        }
    }
    if (uint64_t rest = span - i) {
        if (!blocked && !regRead) {
            // Saturated budget always covers cost.
            stats_.scoreboardFullCycles += rest;
        }
    }
    if (blocked)
        stats_.dependencyStallCycles += span;
}

} // namespace imagine
