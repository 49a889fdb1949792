#include "ckpt/serializer.hh"
#include "sim/error.hh"

namespace imagine
{

void
HangReport::state(ckpt::Archive &ar)
{
    ar.u64(cycle);
    ar.u64(lastProgressCycle);
    ar.u64(cycleLimit);
    ar.u64(instrsRetired);
    ar.list(slots, [&](SlotInfo &sl) {
        ar.u32(sl.idx);
        ar.str(sl.label);
        ar.str(sl.kind);
        ar.str(sl.state);
        ar.vec(sl.waitingOn);
        ar.i32(sl.ag);
        ar.i32(sl.retries);
    });
    ar.vec(depCycle);
    ar.list(ags, [&](AgInfo &ag) {
        ar.i32(ag.ag);
        ar.b(ag.active);
        ar.b(ag.isLoad);
        ar.b(ag.sink);
        ar.u32(ag.completed);
        ar.u32(ag.length);
    });
    ar.u64(queuedDramRequests);
    ar.u64(hostNext);
    ar.b(hostFinished);
    ar.u64(hostBlockedUntil);
    ar.b(clustersBusy);
    ar.u64(clusterKernelCycles);
}

} // namespace imagine
