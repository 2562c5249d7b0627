#include "system/multicore.hh"

#include <algorithm>
#include <limits>
#include <string>

#include "core/regfiles.hh"
#include "monitor/factory.hh"
#include "monitor/interleave.hh"
#include "sim/logging.hh"

namespace fade
{

BenchProfile
shardWorkload(const std::vector<BenchProfile> &workloads, unsigned idx)
{
    fatal_if(workloads.empty(), "multi-core system needs >= 1 workload");
    unsigned pos = idx % unsigned(workloads.size());
    BenchProfile p = workloads[pos];
    // Threads of one multi-threaded process share the plan seed: every
    // shard must rebuild the identical SyncPlan (trace/threads.hh), so
    // process profiles are exempt from repeat decorrelation — the
    // per-thread filler RNGs already decorrelate the shards' private
    // streams.
    if (p.isProcess())
        return p;
    // Repeated profiles decorrelate via a per-shard seed offset —
    // whether the repeat comes from round-robin wraparound or from a
    // duplicate entry in the workload list itself. The first
    // occurrence keeps its profile verbatim, so the N=1 system
    // reproduces the single-core run exactly.
    bool repeat = idx >= workloads.size();
    for (unsigned j = 0; !repeat && j < pos; ++j)
        repeat = workloads[j].name == p.name &&
                 workloads[j].seed == p.seed;
    if (repeat) {
        // Multiplicative mix, not a linear offset: two list entries
        // with nearby seeds must not land on the same value when
        // bumped by nearby shard indices.
        p.seed += std::uint64_t(idx) * 0x9E3779B97F4A7C15ULL;
        p.name += "#s" + std::to_string(idx);
    }
    return p;
}

std::optional<std::string>
validateConfig(const MultiCoreConfig &cfg)
{
    using log_detail::str;
    if (cfg.workloads.empty())
        return str("multi-core system needs >= 1 workload");
    const std::vector<std::string> &mons = monitorNames();
    if (!cfg.monitor.empty() &&
        std::count(mons.begin(), mons.end(), cfg.monitor) == 0)
        return str("unknown monitor: ", cfg.monitor);

    // Topology, resolved in 64 bits so no shape wraps into range.
    const Topology &t = cfg.topology;
    if (t.clusters == 0)
        return str("topology: clusters must be >= 1");
    if (t.fadesPerShard == 0 || t.fadesPerShard > maxFadesPerShard)
        return str("topology: fadesPerShard must be in [1, ",
                   maxFadesPerShard, "]");
    const std::uint64_t shards =
        t.shardsPerCluster != 0
            ? std::uint64_t(t.clusters) * t.shardsPerCluster
            : cfg.numShards;
    if (shards == 0)
        return str("topology: numShards must be >= 1");
    if (shards % t.clusters != 0)
        return str("topology: numShards (", shards,
                   ") must divide evenly across ", t.clusters,
                   " clusters");
    if (shards > 256)
        return str("shard tag is 8 bits (max 256 shards)");
    if (cfg.scheduler.sliceTicks == 0)
        return str("sliceTicks must be >= 1");
    if (cfg.shard.core.width == 0)
        return str("core width must be positive");
    if (cfg.shard.core.robSize == 0)
        return str("ROB size must be positive");

    // Every shard hosts threads of ONE process (thread t on shard
    // t % shards); identical copies of its profile are that process.
    const BenchProfile &proc = cfg.workloads.front();
    for (const BenchProfile &p : cfg.workloads)
        if (p.isProcess() != proc.isProcess() ||
            (p.isProcess() &&
             (p.procThreads != proc.procThreads || p.name != proc.name ||
              p.seed != proc.seed)))
            return str("a multi-threaded process profile cannot mix "
                       "with other workloads");
    if (proc.isProcess()) {
        const unsigned threads = proc.procThreads;
        if (shards > threads)
            return str("more shards (", shards,
                       ") than process threads (", threads, ")");
        if (threads > maxThreads)
            return str("process has ", threads,
                       " threads but the MD register file supports ",
                       unsigned(maxThreads));
        if (threads % shards != 0)
            return str("process threads (", threads,
                       ") must divide evenly across shards (", shards,
                       ")");
    }
    return std::nullopt;
}

namespace
{

const MultiCoreConfig &
checked(const MultiCoreConfig &cfg)
{
    if (std::optional<std::string> err = validateConfig(cfg))
        fatal(*err);
    return cfg;
}

DirectoryParams
directoryParams(const MultiCoreConfig &cfg)
{
    DirectoryParams p;
    p.clusters = cfg.topology.clusters;
    p.remoteLatency = cfg.topology.remoteLatency;
    p.slice = l2Params();
    p.memLatency = dramLatency;
    return p;
}

} // namespace

MultiCoreSystem::MultiCoreSystem(const MultiCoreConfig &cfg)
    : cfg_(checked(cfg)), dir_(directoryParams(cfg))
{
    // The resolved cluster shape is authoritative from here on.
    cfg_.numShards = cfg_.topology.resolveShards(cfg_.numShards);
    unsigned perCluster = cfg_.numShards / cfg_.topology.clusters;

    if (const TraceReader *reader = cfg_.traceIn.get()) {
        fatal_if(reader->numStreams() != cfg_.numShards,
                 "trace '", reader->path(), "' holds ",
                 reader->numStreams(), " streams but this system has ",
                 cfg_.numShards, " shards");
    }
    if (!cfg_.traceOut.empty()) {
        writer_ = std::make_unique<TraceWriter>(cfg_.traceOut);
        writer_->setConfigFingerprint(traceConfigFingerprint(cfg_));
    }

    // Multi-threaded process mode (validateConfig): the shards host
    // the threads of one process and share its log/analysis state.
    const BenchProfile &proc = cfg_.workloads.front();
    if (proc.isProcess())
        procShared_ = std::make_unique<ProcessShared>(proc.procThreads);

    for (unsigned i = 0; i < cfg_.numShards; ++i) {
        BenchProfile prof = shardWorkload(cfg_.workloads, i);
        if (proc.isProcess()) {
            prof.procShardId = i;
            prof.procShards = cfg_.numShards;
        }
        workloadNames_.push_back(prof.name);

        monitors_.push_back(cfg_.monitor.empty()
                                ? nullptr
                                : makeMonitor(cfg_.monitor));
        if (procShared_ && monitors_.back())
            monitors_.back()->bindProcess(procShared_.get(), i,
                                          cfg_.numShards);

        SystemConfig scfg = cfg_.shard;
        scfg.shardId = std::uint8_t(i);
        scfg.engine = cfg_.engine;
        scfg.fadesPerShard = cfg_.topology.fadesPerShard;
        scfg.traceIn = cfg_.traceIn.get();
        scfg.traceOut = writer_.get();
        unsigned cluster = cfg_.topology.clusterOf(i, perCluster);
        shardClusters_.push_back(cluster);
        // The shard's nominal L2 is its own cluster's slice; all
        // L2-bound traffic actually routes through the shard's
        // DirectoryPort (installed by its ShardRunner) so the home
        // hash and remote penalty apply from the first access.
        shards_.push_back(std::make_unique<MonitoringSystem>(
            scfg, prof, monitors_.back().get(), &dir_.slice(cluster)));
    }

    std::vector<MonitoringSystem *> raw;
    for (auto &s : shards_)
        raw.push_back(s.get());
    sched_ = std::make_unique<ShardScheduler>(cfg_.scheduler,
                                              std::move(raw), dir_,
                                              shardClusters_);
    // Route every shard through its directory port from the start
    // (construction leaves the L1s pointed straight at the cluster
    // slice; the port adds home hashing + the remote penalty).
    for (unsigned i = 0; i < cfg_.numShards; ++i)
        sched_->runner(i).detach();
}

MultiCoreSystem::~MultiCoreSystem() = default;

namespace
{

// The fingerprint below hand-enumerates every FadeStats / RunResult
// field; a field added without extending appendFade/appendRun would
// silently escape the scheduler bit-equality checks. These asserts
// trip on the CI platform when either struct grows: extend the
// matching append helper (and FadeStats::merge), then update the size.
#if defined(__linux__) && defined(__x86_64__)
static_assert(sizeof(FadeStats) == 368,
              "FadeStats changed: update appendFade + this size");
static_assert(sizeof(RunResult) == 72,
              "RunResult changed: update appendRun + this size");
#endif

void
appendHist(std::vector<std::uint64_t> &fp, const Log2Histogram &h)
{
    fp.push_back(h.total());
    fp.push_back(h.maxValue());
    for (std::uint64_t b : h.buckets())
        fp.push_back(b);
}

void
appendFade(std::vector<std::uint64_t> &fp, const FadeStats &f)
{
    fp.insert(fp.end(),
              {f.instEvents, f.filtered, f.filteredCC, f.filteredRU,
               f.partialPass, f.partialFail, f.unfiltered, f.stackEvents,
               f.highLevelEvents, f.shots, f.comparisons,
               f.crossShardEvents, f.stallUeqFull, f.stallBlocking,
               f.stallDrain, f.stallMdRead, f.stallFsqFull, f.suuCycles,
               f.busyCycles, f.idleCycles});
    appendHist(fp, f.unfDistance);
    appendHist(fp, f.unfBurst);
    for (std::uint64_t c : f.filteredById)
        fp.push_back(c);
    for (std::uint64_t c : f.softwareById)
        fp.push_back(c);
}

void
appendRun(std::vector<std::uint64_t> &fp, const RunResult &r)
{
    fp.insert(fp.end(),
              {r.appInstructions, r.cycles, r.monitoredEvents,
               r.appStallCycles, r.monIdleCycles, r.handlerInstructions,
               r.handlersRun});
}

} // namespace

std::vector<std::uint64_t>
resultFingerprint(MultiCoreSystem &sys, const MultiCoreResult &r)
{
    std::vector<std::uint64_t> fp{r.cycles, r.totalInstructions,
                                  r.totalEvents};
    appendFade(fp, r.fade);
    appendHist(fp, r.eqOccupancy);
    for (const ShardResult &s : r.shards) {
        appendRun(fp, s.run);
        appendFade(fp, s.fade);
        appendHist(fp, s.eqOccupancy);
        fp.push_back(s.bugReports);
    }
    for (unsigned i = 0; i < sys.numShards(); ++i)
        fp.push_back(sys.monitor(i) ? sys.monitor(i)->reports().size()
                                    : 0);
    // Per-slice LLC counters; with one cluster this is exactly the
    // {hits, misses} pair the flat fingerprint always ended with, so
    // flat fingerprints stay comparable across the topology refactor.
    for (unsigned c = 0; c < sys.numClusters(); ++c) {
        fp.push_back(sys.directory().slice(c).hits());
        fp.push_back(sys.directory().slice(c).misses());
    }
    // Clustered topologies additionally pin the routing decisions.
    if (sys.numClusters() > 1) {
        for (const ShardResult &s : r.shards) {
            fp.push_back(s.l2Local);
            fp.push_back(s.l2Remote);
        }
    }
    return fp;
}

std::vector<std::uint64_t>
MultiCoreSystem::functionalFingerprint()
{
    for (auto &s : shards_)
        s->drain();
    std::vector<std::uint64_t> fp;
    for (auto &s : shards_) {
        std::vector<std::uint64_t> sf = s->functionalFingerprint();
        fp.insert(fp.end(), sf.begin(), sf.end());
    }
    return fp;
}

void
MultiCoreSystem::beginWarmup(std::uint64_t instructions)
{
    panic_if(phase_ != Phase::Idle, "beginWarmup() with a phase active");
    capturedWarmup_ += instructions;
    sched_->beginRun(instructions, "warmup");
    phase_ = Phase::Warmup;
}

bool
MultiCoreSystem::advanceRun(std::uint64_t maxEpochs)
{
    panic_if(phase_ == Phase::Idle, "advanceRun() with no phase armed");
    return sched_->stepEpochs(maxEpochs);
}

void
MultiCoreSystem::finishWarmup()
{
    panic_if(phase_ != Phase::Warmup || sched_->runActive(),
             "finishWarmup() before the warmup target was reached");
    for (auto &s : shards_)
        s->drain();
    for (auto &s : shards_)
        s->resetStats();
    dir_.resetStats();
    phase_ = Phase::Idle;
}

std::uint64_t
MultiCoreSystem::retiredTotal() const
{
    std::uint64_t n = 0;
    for (const auto &s : shards_)
        n += s->retired();
    return n;
}

std::uint64_t
MultiCoreSystem::producedTotal() const
{
    std::uint64_t n = 0;
    for (const auto &s : shards_)
        n += s->produced();
    return n;
}

void
MultiCoreSystem::warmup(std::uint64_t instructions)
{
    beginWarmup(instructions);
    while (!advanceRun(~std::uint64_t(0))) {
    }
    finishWarmup();
}

void
MultiCoreSystem::beginMeasure(std::uint64_t instructions)
{
    panic_if(phase_ != Phase::Idle, "beginMeasure() with a phase active");
    capturedRun_ += instructions;
    reportsBefore_.assign(shards_.size(), 0);
    for (std::size_t i = 0; i < shards_.size(); ++i) {
        shards_[i]->beginSlice();
        sched_->runner(unsigned(i)).resetRouteStats();
        if (monitors_[i])
            reportsBefore_[i] = monitors_[i]->reports().size();
    }
    dir_.resetStats();
    sched_->beginRun(instructions, "run");
    phase_ = Phase::Measure;
}

MultiCoreResult
MultiCoreSystem::finishMeasure()
{
    panic_if(phase_ != Phase::Measure || sched_->runActive(),
             "finishMeasure() before the measure target was reached");
    MultiCoreResult agg;
    double ipcSum = 0.0;
    for (std::size_t i = 0; i < shards_.size(); ++i) {
        ShardResult sr;
        sr.shard = unsigned(i);
        sr.workload = workloadNames_[i];
        sr.run = shards_[i]->endSlice();
        sr.fade = shards_[i]->fadeStats();
        sr.filteringRatio = sr.fade.filteringRatio();
        sr.eqOccupancy = shards_[i]->eventQueue().occupancy();
        if (monitors_[i])
            sr.bugReports =
                monitors_[i]->reports().size() - reportsBefore_[i];
        sr.cluster = shardClusters_[i];
        const DirectoryPortStats &route =
            sched_->runner(unsigned(i)).routeStats();
        sr.l2Local = route.localAccesses;
        sr.l2Remote = route.remoteAccesses;

        agg.cycles = std::max(agg.cycles, sr.run.cycles);
        agg.totalInstructions += sr.run.appInstructions;
        agg.totalEvents += sr.run.monitoredEvents;
        ipcSum += sr.run.appIpc;
        agg.fade.merge(sr.fade);
        agg.eqOccupancy.merge(sr.eqOccupancy);
        agg.l2LocalAccesses += sr.l2Local;
        agg.l2RemoteAccesses += sr.l2Remote;
        agg.shards.push_back(std::move(sr));
    }
    agg.aggregateIpc =
        agg.cycles ? double(agg.totalInstructions) / double(agg.cycles)
                   : 0.0;
    agg.meanShardIpc =
        shards_.empty() ? 0.0 : ipcSum / double(shards_.size());
    agg.filteringRatio = agg.fade.filteringRatio();
    phase_ = Phase::Idle;
    return agg;
}

MultiCoreResult
MultiCoreSystem::run(std::uint64_t instructions)
{
    beginMeasure(instructions);
    while (!advanceRun(~std::uint64_t(0))) {
    }
    return finishMeasure();
}

void
MultiCoreSystem::finishTrace(bool hasResult, std::uint64_t resultHash)
{
    panic_if(!writer_, "closeTrace() without an active capture");
    TraceManifest m;
    m.present = true;
    m.monitor = cfg_.monitor;
    m.warmupInstructions = capturedWarmup_;
    m.measureInstructions = capturedRun_;
    m.numShards = cfg_.numShards;
    m.clusters = cfg_.topology.clusters;
    m.shardsPerCluster = cfg_.numShards / cfg_.topology.clusters;
    m.fadesPerShard = cfg_.topology.fadesPerShard;
    m.remoteLatency = cfg_.topology.remoteLatency;
    m.sliceTicks = cfg_.scheduler.sliceTicks;
    m.eqCapacity = cfg_.shard.eqCapacity;
    m.ueqCapacity = cfg_.shard.ueqCapacity;
    m.coreName = cfg_.shard.core.name;
    m.coreWidth = cfg_.shard.core.width;
    m.robSize = cfg_.shard.core.robSize;
    m.inOrder = cfg_.shard.core.inOrder;
    m.mispredictPenalty = cfg_.shard.core.mispredictPenalty;
    m.accelerated = cfg_.shard.accelerated;
    m.twoCore = cfg_.shard.twoCore;
    m.perfectConsumer = cfg_.shard.perfectConsumer;
    m.hasFingerprint = hasResult;
    m.fingerprintHash = resultHash;
    writer_->setManifest(m);
    writer_->close();
}

void
MultiCoreSystem::closeTrace()
{
    finishTrace(false, 0);
}

void
MultiCoreSystem::closeTrace(std::uint64_t resultHash)
{
    finishTrace(true, resultHash);
}

std::uint64_t
traceConfigFingerprint(const MultiCoreConfig &cfg)
{
    std::vector<std::uint64_t> v;
    auto str = [&v](const std::string &s) {
        v.push_back(s.size());
        for (char c : s)
            v.push_back(std::uint8_t(c));
    };
    v.push_back(cfg.numShards);
    v.push_back(cfg.topology.clusters);
    v.push_back(cfg.topology.shardsPerCluster);
    v.push_back(cfg.topology.fadesPerShard);
    v.push_back(cfg.topology.remoteLatency);
    v.push_back(cfg.scheduler.sliceTicks);
    v.push_back(cfg.shard.eqCapacity);
    v.push_back(cfg.shard.ueqCapacity);
    str(cfg.shard.core.name);
    v.push_back(cfg.shard.core.width);
    v.push_back(cfg.shard.core.robSize);
    v.push_back(cfg.shard.core.inOrder);
    v.push_back(cfg.shard.core.mispredictPenalty);
    v.push_back(cfg.shard.accelerated);
    v.push_back(cfg.shard.twoCore);
    v.push_back(cfg.shard.perfectConsumer);
    str(cfg.monitor);
    for (const BenchProfile &p : cfg.workloads) {
        str(p.name);
        v.push_back(p.seed);
        v.push_back(p.numThreads);
        v.push_back(p.procThreads);
    }
    return fingerprintHash(v);
}

MultiCoreConfig
replayConfig(const std::string &path, TraceManifest *manifest)
{
    auto reader = std::make_shared<const TraceReader>(path);
    const TraceReader &r = *reader;
    const TraceManifest &m = r.manifest();
    if (!m.present)
        throw TraceError("'" + path + "' carries no replay manifest "
                         "(capture was not finished with closeTrace)");

    // The one rule validateConfig() cannot see: one shard per stream
    // (each factor bounded first, so the product cannot wrap).
    const std::uint64_t n = r.numStreams();
    if (m.shardsPerCluster != 0
            ? m.clusters > n || m.shardsPerCluster > n ||
                  m.clusters * m.shardsPerCluster != n
            : m.numShards != n)
        throw TraceError("'" + path + "' holds " + std::to_string(n) +
                         " streams but its manifest describes another "
                         "shard count");

    // Every count must fit its config field: a wrapped value would
    // silently replay another system.
    auto narrow = [&path](std::uint64_t v, const char *field) {
        if (v > std::numeric_limits<unsigned>::max())
            throw TraceError("'" + path + "' manifest field " + field +
                             " (" + std::to_string(v) +
                             ") is out of range");
        return unsigned(v);
    };

    MultiCoreConfig cfg;
    cfg.traceIn = reader;
    cfg.monitor = m.monitor;
    cfg.numShards = narrow(m.numShards, "numShards");
    cfg.topology.clusters = narrow(m.clusters, "clusters");
    cfg.topology.shardsPerCluster =
        narrow(m.shardsPerCluster, "shardsPerCluster");
    cfg.topology.fadesPerShard = narrow(m.fadesPerShard, "fadesPerShard");
    cfg.topology.remoteLatency = narrow(m.remoteLatency, "remoteLatency");
    cfg.scheduler.sliceTicks = m.sliceTicks;
    cfg.shard.eqCapacity = std::size_t(m.eqCapacity);
    cfg.shard.ueqCapacity = std::size_t(m.ueqCapacity);
    cfg.shard.core.name = m.coreName;
    cfg.shard.core.width = narrow(m.coreWidth, "coreWidth");
    cfg.shard.core.robSize = narrow(m.robSize, "robSize");
    cfg.shard.core.inOrder = m.inOrder;
    cfg.shard.core.mispredictPenalty =
        narrow(m.mispredictPenalty, "mispredictPenalty");
    cfg.shard.accelerated = m.accelerated;
    cfg.shard.twoCore = m.twoCore;
    cfg.shard.perfectConsumer = m.perfectConsumer;
    // One workload per stream, exactly as captured. Repeated profiles
    // were renamed/reseeded at capture time (shardWorkload), so the
    // reconstructed list round-trips through shardWorkload verbatim.
    for (unsigned s = 0; s < r.numStreams(); ++s) {
        const TraceStreamMeta &sm = r.stream(s);
        BenchProfile p;
        p.name = sm.profile;
        p.seed = sm.seed;
        p.numThreads = sm.numThreads;
        p.procThreads = sm.procThreads;
        cfg.workloads.push_back(std::move(p));
    }
    if (manifest)
        *manifest = m;
    return cfg;
}

} // namespace fade
