#include "layers.hh"

#include <sys/mman.h>
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <stdexcept>

#include "monitor/factory.hh"
#include "system/producer.hh"
#include "system/rungrain.hh"
#include "trace/generator.hh"
#include "trace/tracefile.hh"

namespace perfbench
{

using namespace fade;

namespace
{

/** Results the timed loops compute but nothing else reads; stored so
 *  the compiler cannot drop the loops. */
volatile std::uint64_t gSink;

} // namespace

// ------------------------------------------------------------ kernel

double
refKernelNs()
{
    // The table is a fresh anonymous mapping of 4 MiB, larger than a
    // core's L2 like the simulator's own working set, so the kernel
    // also pays a first-touch page fault per page. On the 4-vCPU
    // Xeon VM the bounds were measured on, this kernel's speed
    // correlated with the simulator's at r = 0.96 over 1 s windows;
    // the same loop on an already-mapped table, at 0.84. Keys stay
    // below half the slots, so the table never exceeds half load.
    constexpr std::uint32_t kLogSlots = 20;
    constexpr std::uint32_t kSlots = 1u << kLogSlots;
    constexpr std::uint32_t kOps = 1u << 15;
    constexpr std::size_t kBytes = kSlots * sizeof(std::uint32_t);
    void *map = mmap(nullptr, kBytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (map == MAP_FAILED)
        throw std::runtime_error("reference kernel: mmap failed");
    std::uint32_t *table = static_cast<std::uint32_t *>(map);
    std::uint64_t state = 0x853c49e6748fea9bULL;
    auto pcg32 = [&state]() {
        std::uint64_t old = state;
        state = old * 6364136223846793005ULL + 0xda3e39cb94b95bdbULL;
        std::uint32_t xs = std::uint32_t(((old >> 18u) ^ old) >> 27u);
        std::uint32_t rot = std::uint32_t(old >> 59u);
        return (xs >> rot) | (xs << ((32u - rot) & 31u));
    };
    auto home = [](std::uint32_t k) {
        return (k * 2654435761u) >> (32 - kLogSlots);
    };
    std::uint64_t hits = 0;
    std::uint64_t t0 = nowNs();
    for (std::uint32_t op = 0; op < kOps; ++op) {
        std::uint32_t x = pcg32();
        std::uint32_t key = (x & (kSlots / 2 - 1)) + 1;
        std::uint32_t i = home(key);
        while (table[i] && table[i] != key)
            i = (i + 1) & (kSlots - 1);
        switch (x >> 30) {
          case 0: // insert
            table[i] = key;
            break;
          case 1: // erase with backward-shift deletion
            if (table[i]) {
                std::uint32_t hole = i;
                for (std::uint32_t j = (hole + 1) & (kSlots - 1);
                     table[j]; j = (j + 1) & (kSlots - 1)) {
                    std::uint32_t h = home(table[j]);
                    if (((j - h) & (kSlots - 1)) >=
                        ((j - hole) & (kSlots - 1))) {
                        table[hole] = table[j];
                        hole = j;
                    }
                }
                table[hole] = 0;
            }
            break;
          default: // lookup
            hits += table[i] != 0;
            break;
        }
    }
    std::uint64_t t1 = nowNs();
    munmap(map, kBytes);
    gSink = hits;
    return double(t1 - t0) / kOps;
}

// ------------------------------------------------------------ tracer

void
Tracer::merge(const Tracer &o)
{
    std::int64_t base = std::int64_t(spans_.size());
    for (Span s : o.spans_) {
        if (s.parent >= 0)
            s.parent += base;
        spans_.push_back(s);
    }
}

double
Tracer::totalNs(const std::string &name) const
{
    double t = 0.0;
    for (const Span &s : spans_)
        if (name == s.name)
            t += double(s.t1 - s.t0);
    return t;
}

std::vector<double>
Tracer::durations(const std::string &name) const
{
    std::vector<double> d;
    for (const Span &s : spans_)
        if (name == s.name)
            d.push_back(double(s.t1 - s.t0));
    return d;
}

bool
Tracer::dump(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span &s : spans_)
        if (s.parent >= 0)
            child[std::size_t(s.parent)] += double(s.t1 - s.t0);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(f,
                     "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%" PRIu64
                     ",\"end_ns\":%" PRIu64 ",\"parent\":%" PRId64
                     ",\"session\":%" PRIu64 ",\"self_ns\":%.0f}\n",
                     i, s.name, s.t0, s.t1, s.parent, s.session,
                     double(s.t1 - s.t0) - child[i]);
    }
    return std::fclose(f) == 0;
}

// ----------------------------------------------------------- metrics

void
emitEndToEnd(const EndToEnd &e, Result &r)
{
    Tail tail = tailOf(e.latencies);
    double refNs = median(e.refNs);
    r.set("setup_s", e.setupS, "s");
    r.set("minst_per_s", e.minstPerS, "Minst/s");
    r.set("cpu_s", e.cpuS, "s");
    r.set("peak_rss_mb", e.peakRssMb, "MiB");
    r.set("sessions_per_s", e.sessionsPerS, "1/s");
    r.set("session_p50_ms", median(e.latencies) * 1e3, "ms");
    r.set("session_tail_ms", tail.value * 1e3, "ms");
    r.detail["ref_ns"] = refNs;
    r.detail["cpu_s"] = e.cpuS;
    r.detail["raw_minst_per_s"] = e.rawMinstPerS;
    r.detail["raw_session_p50_ms"] = e.rawP50S * 1e3;
    r.detail["session_tail_pct"] = tail.pct;
    r.detail["session_samples"] = double(tail.samples);
}

namespace
{

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

/** Minimum host time of one layer or decode pass: its inputs are a
 *  single experiment's stream, a few milliseconds of work. */
constexpr double kPassSeconds = 0.3;

} // namespace

void
emitLayers(const LayerReport &l, Result &r)
{
    const SimCounts &c = l.counts;
    double rgTotal = double(c.rgStepped + c.rgClosed + c.rgFf);
    r.set("trace.synth_ns_per_inst", l.synthNs, "ns");
    r.set("trace.decode_ns_per_inst", l.decodeNs, "ns");
    r.set("monitor.dispatch_ns_per_inst", l.dispatchNs, "ns");
    r.set("system.extract_ns_per_inst", l.extractNs, "ns");
    r.set("system.advance_ns_per_inst", l.advanceNs, "ns");
    r.set("system.engine_residual_ns_per_inst",
          l.advanceNs - l.synthNs - l.dispatchNs - l.extractNs, "ns");
    r.set("system.rungrain.stepped_frac", ratio(c.rgStepped, rgTotal),
          "fraction");
    r.set("system.rungrain.closed_frac", ratio(c.rgClosed, rgTotal),
          "fraction");
    r.set("system.rungrain.ff_frac", ratio(c.rgFf, rgTotal), "fraction");
    r.set("system.construct_ms", l.constructMs, "ms");
    r.set("system.warmup_ms", l.warmupMs, "ms");
    r.set("system.scheduler.epochs", l.epochs, "count");
    r.set("system.scheduler.epoch_us_p50", l.epochUsP50, "us");
    r.set("system.scheduler.epoch_us_max", l.epochUsMax, "us");
    r.set("system.scheduler.speedup", l.speedup, "x");
    r.set("system.scheduler.cpu_per_wall", l.cpuPerWall, "ratio");
    r.set("core.filter_ratio", ratio(c.filtered, c.instEvents), "ratio");
    r.set("core.stall_ueq_full_per_kcycle",
          ratio(1e3 * c.stallUeqFull, c.cycles), "1/kcycle");
    r.set("cpu.app_stall_frac", ratio(c.appStall, c.cycles), "fraction");
    r.set("cpu.mon_idle_frac", ratio(c.monIdle, c.cycles), "fraction");
    r.set("mem.l2_miss_ratio", ratio(c.l2Misses, c.l2Hits + c.l2Misses),
          "ratio");
    r.set("mem.l2_remote_frac", ratio(c.l2Remote, c.l2Local + c.l2Remote),
          "fraction");
    r.set("monitor.handlers_per_kinst", ratio(1e3 * c.handlers, c.insts),
          "1/kinst");
    r.set("daemon.connect_ms", l.connectMs, "ms");
    r.set("daemon.configure_ms", l.configureMs, "ms");
    r.set("daemon.upload_ms", l.uploadMs, "ms");
    r.set("daemon.run_ms", l.runMs, "ms");
    r.set("daemon.overhead_ms", l.overheadMs, "ms");
    r.set("daemon.quanta", l.quanta, "count");
    r.set("daemon.parks", l.parks, "count");
    r.set("daemon.rejects", l.rejects, "count");
    r.set("bench.ref_ns", l.refNs, "ns");
    r.set("bench.traced_minst_ratio", l.tracedMinstRatio, "ratio");
}

// ---------------------------------------------------------- counters

std::vector<RunGrainDriverStats>
runGrainTotals(const MultiCoreSystem &sys)
{
    std::vector<RunGrainDriverStats> v(sys.numShards());
    for (unsigned i = 0; i < sys.numShards(); ++i)
        if (const RunGrainDriver *rg = sys.shard(i).runGrainDriver())
            v[i] = rg->stats();
    return v;
}

SimCounts
multiCounts(MultiCoreSystem &sys, const MultiCoreResult &res,
            const std::vector<RunGrainDriverStats> &rgBefore)
{
    SimCounts c;
    for (const ShardResult &s : res.shards) {
        c.insts += s.run.appInstructions;
        c.cycles += s.run.cycles;
        c.appStall += s.run.appStallCycles;
        c.monIdle += s.run.monIdleCycles;
        c.handlers += s.run.handlersRun;
        c.l2Local += s.l2Local;
        c.l2Remote += s.l2Remote;
    }
    c.instEvents = res.fade.instEvents;
    c.filtered = res.fade.filtered;
    c.stallUeqFull = res.fade.stallUeqFull;
    for (unsigned s = 0; s < sys.numClusters(); ++s) {
        c.l2Hits += sys.directory().slice(s).hits();
        c.l2Misses += sys.directory().slice(s).misses();
    }
    std::vector<RunGrainDriverStats> after = runGrainTotals(sys);
    for (std::size_t i = 0; i < after.size(); ++i)
        addRunGrain(c, rgBefore[i], after[i]);
    return c;
}

void
addRunGrain(SimCounts &c, const RunGrainDriverStats &before,
            const RunGrainDriverStats &after)
{
    c.rgStepped += after.cyclesStepped - before.cyclesStepped;
    c.rgClosed += after.cyclesClosedFormed - before.cyclesClosedFormed;
    c.rgFf += after.cyclesFastForwarded - before.cyclesFastForwarded;
}

double
selfPeakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0;
}

// -------------------------------------------------------- layer pass

void
layerPass(const std::string &monitor,
          const std::vector<LayerInput> &inputs, Tracer &tr,
          LayerReport &l, Result &r)
{
    // The run-grain engine's span width (RunGrainDriver::kStageRun)
    // and a block of spans per recorded span.
    constexpr std::size_t kSpan = 64;
    constexpr std::size_t kBlock = 4096;
    std::unique_ptr<Monitor> mon = makeMonitor(monitor);
    // EventProducer only needs a bound queue as its enable flag:
    // commitSpan writes into the caller's buffer.
    BoundedQueue<MonEvent> eq(16);
    std::vector<Instruction> window(kBlock);
    std::vector<std::uint8_t> verdicts(kBlock);
    std::vector<MonEvent> events(kSpan);

    // Repeat the pass until it has run long enough to time; the event
    // check is made on the first repetition.
    std::uint64_t total = 0;
    double t0 = wallNow();
    for (unsigned rep = 0; rep == 0 || wallNow() - t0 < kPassSeconds;
         ++rep) {
        for (std::size_t k = 0; k < inputs.size(); ++k) {
            const LayerInput &in = inputs[k];
            TraceGenerator gen(in.profile);
            EventProducer prod(mon.get(), &eq, nullptr);
            const std::uint64_t end = in.warmRetired + in.measured;
            std::uint64_t pos = 0;
            std::uint64_t measuredEvents = 0;
            while (pos < end) {
                // Blocks never straddle the warmup/measure boundary.
                std::uint64_t limit =
                    pos < in.warmRetired ? in.warmRetired : end;
                std::size_t n = std::size_t(
                    std::min<std::uint64_t>(kBlock, limit - pos));
                {
                    Scope s(tr, "trace.synth", k);
                    std::size_t got = 0;
                    while (got < n) {
                        std::size_t want = std::min(kSpan, n - got);
                        gen.stageRun(want);
                        InstSpan sp = gen.fetchSpan(want);
                        if (sp.empty()) {
                            window[got++] = gen.fetch();
                            continue;
                        }
                        std::copy(sp.begin(), sp.end(),
                                  window.begin() + got);
                        got += sp.count;
                    }
                }
                {
                    Scope s(tr, "monitor.dispatch", k);
                    for (std::size_t at = 0; at < n; at += kSpan)
                        mon->monitoredSpan(window.data() + at,
                                           std::min(kSpan, n - at),
                                           verdicts.data() + at);
                }
                std::uint64_t ev = 0;
                {
                    Scope s(tr, "system.extract", k);
                    for (std::size_t at = 0; at < n; at += kSpan)
                        ev += prod.commitSpan(window.data() + at,
                                              verdicts.data() + at,
                                              std::min(kSpan, n - at),
                                              events.data());
                }
                if (pos >= in.warmRetired)
                    measuredEvents += ev;
                pos += n;
            }
            total += end;
            if (rep == 0)
                r.check(measuredEvents == in.events,
                        "layer pass of " + in.profile.name + " saw " +
                            std::to_string(measuredEvents) +
                            " measured events, the simulator produced " +
                            std::to_string(in.events));
        }
    }
    l.synthNs = ratio(tr.totalNs("trace.synth"), double(total));
    l.dispatchNs = ratio(tr.totalNs("monitor.dispatch"), double(total));
    l.extractNs = ratio(tr.totalNs("system.extract"), double(total));
}

void
decodePass(const std::string &path, Tracer &tr, LayerReport &l,
           Result &r)
{
    constexpr std::size_t kSpan = 64;
    std::uint64_t expected = 0, decoded = 0;
    std::uint64_t sink = 0;
    double t0 = wallNow();
    for (unsigned rep = 0; rep == 0 || wallNow() - t0 < kPassSeconds;
         ++rep) {
        Scope s(tr, "trace.decode", rep);
        TraceReader reader(path);
        for (unsigned st = 0; st < reader.numStreams(); ++st) {
            ReplaySource src(reader, st);
            expected += src.remaining();
            while (src.remaining() != 0) {
                src.stageRun(kSpan);
                InstSpan sp = src.fetchSpan(kSpan);
                if (sp.empty())
                    break;
                decoded += sp.count;
                sink += sp.data[sp.count - 1].pc;
            }
        }
    }
    gSink = sink;
    r.check(decoded == expected && decoded != 0,
            "decode pass read " + std::to_string(decoded) + " of " +
                std::to_string(expected) + " records");
    l.decodeNs = ratio(tr.totalNs("trace.decode"), double(decoded));
}

// ---------------------------------------------------- scheduler pass

std::uint64_t
captureRun(const MultiCoreConfig &cfg, std::uint64_t warm,
           std::uint64_t measure, const std::string &path)
{
    MultiCoreConfig c = cfg;
    c.traceOut = path;
    MultiCoreSystem sys(c);
    sys.warmup(warm);
    MultiCoreResult res = sys.run(measure);
    std::uint64_t hash = fingerprintHash(resultFingerprint(sys, res));
    sys.closeTrace(hash);
    return hash;
}

Experiment
phaseRun(const MultiCoreConfig &cfg, std::uint64_t warm,
         std::uint64_t measure, Tracer &tr, std::uint64_t id,
         const char *epochSpan)
{
    Experiment x;
    std::unique_ptr<MultiCoreSystem> sys;
    double t0 = wallNow();
    {
        Scope s(tr, "system.construct", id);
        sys = std::make_unique<MultiCoreSystem>(cfg);
    }
    double t1 = wallNow();
    std::vector<std::uint64_t> warmRetired(sys->numShards());
    {
        Scope s(tr, "system.warmup", id);
        sys->beginWarmup(warm);
        while (!sys->advanceRun(~std::uint64_t(0))) {
        }
        for (unsigned i = 0; i < sys->numShards(); ++i) {
            sys->shard(i).drain();
            warmRetired[i] = sys->shard(i).retired();
        }
        sys->finishWarmup();
    }
    double t2 = wallNow(), c2 = processCpu();
    std::vector<RunGrainDriverStats> rgBefore = runGrainTotals(*sys);
    MultiCoreResult res;
    {
        Scope s(tr, "system.measure", id);
        sys->beginMeasure(measure);
        for (bool done = false; !done;) {
            Scope a(tr, epochSpan, id);
            done = sys->advanceRun(1);
        }
        res = sys->finishMeasure();
    }
    double t3 = wallNow(), c3 = processCpu();
    x.constructS = t1 - t0;
    x.warmupS = t2 - t1;
    x.setupS = t2 - t0;
    x.measureS = t3 - t2;
    x.totalS = t3 - t0;
    x.cpuS = c3 - c2;
    x.insts = res.totalInstructions;
    x.counts = multiCounts(*sys, res, rgBefore);
    for (unsigned i = 0; i < sys->numShards(); ++i) {
        LayerInput in;
        in.profile = shardWorkload(cfg.workloads, i);
        in.warmRetired = warmRetired[i];
        in.measured = res.shards[i].run.appInstructions;
        in.events = res.shards[i].run.monitoredEvents;
        x.inputs.push_back(in);
    }
    x.hash = fingerprintHash(resultFingerprint(*sys, res));
    return x;
}

Experiment
schedulerPass(const MultiCoreConfig &cfg, std::uint64_t warm,
              std::uint64_t measure, std::uint64_t refHash, Tracer &tr,
              LayerReport &l, Result &r)
{
    Experiment x[2];
    for (int par = 0; par < 2; ++par) {
        MultiCoreConfig c = cfg;
        c.scheduler.policy = par ? SchedulerPolicy::ParallelBatched
                                 : SchedulerPolicy::Lockstep;
        x[par] = phaseRun(c, warm, measure, tr, 0,
                          par ? "sched.parallel.epoch"
                              : "sched.lockstep.epoch");
        r.check(x[par].hash == refHash,
                std::string("scheduler pass (") +
                    (par ? "parallel" : "lockstep") +
                    ") result differs from the reference run");
    }
    std::vector<double> epochs = tr.durations("sched.parallel.epoch");
    l.epochs = double(epochs.size());
    l.epochUsP50 = median(epochs) * 1e-3;
    l.epochUsMax =
        epochs.empty() ? 0.0
                       : *std::max_element(epochs.begin(), epochs.end()) *
                             1e-3;
    l.speedup = ratio(x[0].measureS, x[1].measureS);
    l.cpuPerWall = ratio(x[1].cpuS, x[1].measureS);
    return x[0];
}

} // namespace perfbench
