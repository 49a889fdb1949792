#include "kernelc/compile_cache.hh"

namespace imagine::kernelc
{

namespace
{

/** 64-bit FNV-1a. */
struct Hasher
{
    uint64_t h = 0xcbf29ce484222325ull;

    void
    bytes(const void *p, size_t n)
    {
        const unsigned char *c = static_cast<const unsigned char *>(p);
        for (size_t i = 0; i < n; ++i) {
            h ^= c[i];
            h *= 0x100000001b3ull;
        }
    }
    template <typename T>
    void
    pod(const T &v)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        bytes(&v, sizeof(v));
    }
    template <typename T>
    void
    podVec(const std::vector<T> &v)
    {
        pod(v.size());
        for (const T &e : v)
            pod(e);
    }
};

} // namespace

uint64_t
fingerprint(const KernelGraph &g)
{
    Hasher h;
    h.pod(g.name.size());
    h.bytes(g.name.data(), g.name.size());
    h.pod(g.nodes.size());
    for (const Node &n : g.nodes) {
        h.pod(n.op);
        h.pod(n.region);
        h.pod(n.numIn);
        h.pod(n.in);
        h.pod(n.payload);
        h.pod(n.streamIdx);
        h.pod(n.elemIdx);
    }
    h.pod(g.orderEdges.size());
    for (const OrderEdge &e : g.orderEdges) {
        h.pod(e.from);
        h.pod(e.to);
        h.pod(e.latency);
        h.pod(e.dist);
    }
    h.pod(g.numInStreams);
    h.pod(g.numOutStreams);
    h.podVec(g.inRec);
    h.podVec(g.outRec);
    h.pod(g.outIsCond.size());
    for (bool b : g.outIsCond)
        h.pod(b);
    h.podVec(g.outEpilogueWords);
    return h.h;
}

uint64_t
compileConfigFingerprint(const MachineConfig &cfg)
{
    // Exactly the fields read by kernelc::compile and the opcode
    // latency/occupancy/unit tables (isa/opcode.cc).  Keeping this list
    // tight is what lets fault-plan, SRF-bandwidth and scoreboard
    // sweeps hit the cache.
    Hasher h;
    h.pod(cfg.numAdders);
    h.pod(cfg.numMultipliers);
    h.pod(cfg.sbInPorts);
    h.pod(cfg.sbOutPorts);
    h.pod(cfg.lrfWordsPerCluster);
    h.pod(cfg.latFpAdd);
    h.pod(cfg.latFpMul);
    h.pod(cfg.latDsq);
    h.pod(cfg.dsqOccupancy);
    h.pod(cfg.latIntAdd);
    h.pod(cfg.latIntMul);
    h.pod(cfg.latSubword);
    h.pod(cfg.latSpRead);
    h.pod(cfg.latSpWrite);
    h.pod(cfg.latComm);
    h.pod(cfg.latSbRead);
    h.pod(cfg.latSbWrite);
    h.pod(cfg.latMov);
    return h.h;
}

bool
sameGraph(const KernelGraph &a, const KernelGraph &b)
{
    auto sameNode = [](const Node &x, const Node &y) {
        return x.op == y.op && x.region == y.region &&
               x.numIn == y.numIn && x.in == y.in &&
               x.payload == y.payload && x.streamIdx == y.streamIdx &&
               x.elemIdx == y.elemIdx;
    };
    auto sameEdge = [](const OrderEdge &x, const OrderEdge &y) {
        return x.from == y.from && x.to == y.to &&
               x.latency == y.latency && x.dist == y.dist;
    };
    if (a.name != b.name || a.nodes.size() != b.nodes.size() ||
        a.orderEdges.size() != b.orderEdges.size() ||
        a.numInStreams != b.numInStreams ||
        a.numOutStreams != b.numOutStreams || a.inRec != b.inRec ||
        a.outRec != b.outRec || a.outIsCond != b.outIsCond ||
        a.outEpilogueWords != b.outEpilogueWords)
        return false;
    for (size_t i = 0; i < a.nodes.size(); ++i)
        if (!sameNode(a.nodes[i], b.nodes[i]))
            return false;
    for (size_t i = 0; i < a.orderEdges.size(); ++i)
        if (!sameEdge(a.orderEdges[i], b.orderEdges[i]))
            return false;
    return true;
}

CompileCache &
CompileCache::instance()
{
    static CompileCache cache;
    return cache;
}

std::shared_ptr<const CompiledKernel>
CompileCache::compile(const KernelGraph &g, const MachineConfig &cfg,
                      const CompileOptions &opts)
{
    Hasher key;
    key.pod(fingerprint(g));
    key.pod(compileConfigFingerprint(cfg));
    key.pod(opts.softwarePipelining);

    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = entries_.find(key.h);
        if (it != entries_.end())
            for (const auto &k : it->second)
                if (sameGraph(k->graph, g)) {
                    hits_.fetch_add(1);
                    return k;
                }
    }

    // Compile outside the lock: IMS can take a while and independent
    // sessions must not serialize on it.  A racing duplicate compile
    // produces an identical kernel; first insert wins.
    auto compiled = std::make_shared<const CompiledKernel>(
        kernelc::compile(KernelGraph(g), cfg, opts));
    misses_.fetch_add(1);

    std::lock_guard<std::mutex> lock(mu_);
    auto &bucket = entries_[key.h];
    for (const auto &k : bucket)
        if (sameGraph(k->graph, g))
            return k;
    bucket.push_back(compiled);
    return compiled;
}

size_t
CompileCache::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    size_t n = 0;
    for (const auto &[key, bucket] : entries_)
        n += bucket.size();
    return n;
}

void
CompileCache::clear()
{
    std::lock_guard<std::mutex> lock(mu_);
    entries_.clear();
    hits_.store(0);
    misses_.store(0);
}

} // namespace imagine::kernelc
