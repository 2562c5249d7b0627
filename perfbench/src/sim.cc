/**
 * @file
 * The simulator workloads: spec_percycle and spec_rungrain drive one
 * MonitoringSystem per experiment, cmp_parallel one four-shard
 * MultiCoreSystem through its phase protocol. An experiment is
 * construct + warmup (the set-up every experiment pays) followed by
 * the measured slice; the run repeats experiments for the requested
 * seconds and checks each one's result fingerprint.
 */

#include <memory>

#include "daemon/session.hh"
#include "layers.hh"
#include "monitor/factory.hh"
#include "trace/tracefile.hh"

namespace perfbench
{

using namespace fade;
using namespace fade::daemon;

namespace
{

/**
 * Streams per run. Seeds change the work per instruction by up to a
 * fifth between otherwise equal experiments, so each run cycles
 * through this many seed offsets derived from its own seed and
 * reports medians over all of them; with fewer, the tail percentile
 * lands between two streams' latencies and jumps from run to run.
 */
constexpr std::uint64_t kVariants = 32;

/** One simulator experiment. The wire config describes it as a daemon
 *  session; cmp_parallel's system is built from that (sessionPlan),
 *  and the traced run serves it through faded. */
struct SimWorkload
{
    const char *name = "";
    WireSessionConfig wire;
    /** Single-shard workloads: the MonitoringSystem configuration. */
    bool multi = false;
    SystemConfig sys;
    BenchProfile profile;
    /** Instructions per traced advance() call (single shard). */
    std::uint64_t chunk = 0;
    /** cmp_parallel: the system configuration. */
    MultiCoreConfig cfg;
};

/** @p w with every profile seed offset by @p offset. */
SimWorkload
variant(SimWorkload w, std::uint64_t offset)
{
    w.wire.seedOffset = offset;
    if (w.multi) {
        w.cfg = sessionPlan(w.wire).cfg;
    } else {
        w.profile = specProfile(w.wire.profiles.at(0));
        w.profile.seed += offset;
    }
    return w;
}

/** Every simulated value of a single-shard measured slice, then the
 *  engine-invariant functional fingerprint after draining. */
std::uint64_t
singleHash(MonitoringSystem &sys, Monitor *mon, const RunResult &r)
{
    std::vector<std::uint64_t> fp = {
        r.appInstructions, r.cycles,        r.monitoredEvents,
        r.appStallCycles,  r.monIdleCycles, r.handlerInstructions,
        r.handlersRun,
    };
    const FadeStats f = sys.fadeStats();
    fp.insert(fp.end(),
              {f.instEvents, f.filtered, f.filteredCC, f.filteredRU,
               f.partialPass, f.partialFail, f.unfiltered, f.stackEvents,
               f.highLevelEvents, f.shots, f.comparisons, f.stallUeqFull,
               f.stallBlocking, f.stallDrain, f.stallMdRead,
               f.stallFsqFull, f.suuCycles, f.busyCycles, f.idleCycles});
    fp.push_back(sys.eventQueue().pushes());
    fp.push_back(sys.eventQueue().rejects());
    fp.push_back(sys.eventQueue().occupancy().maxValue());
    fp.push_back(sys.unfilteredQueue().pushes());
    fp.push_back(mon->reports().size());
    sys.drain();
    std::vector<std::uint64_t> fun = sys.functionalFingerprint();
    fp.insert(fp.end(), fun.begin(), fun.end());
    return fingerprintHash(fp);
}

Experiment
singleRep(const SimWorkload &w)
{
    Experiment rep;
    double t0 = wallNow();
    std::unique_ptr<Monitor> mon = makeMonitor(w.wire.monitor);
    MonitoringSystem sys(w.sys, w.profile, mon.get());
    sys.warmup(w.wire.warmup);
    double t1 = wallNow(), c1 = processCpu();
    RunResult r = sys.run(w.wire.measure);
    double t2 = wallNow(), c2 = processCpu();
    rep.setupS = t1 - t0;
    rep.measureS = t2 - t1;
    rep.totalS = t2 - t0;
    rep.cpuS = c2 - c1;
    rep.insts = r.appInstructions;
    rep.hash = singleHash(sys, mon.get(), r);
    return rep;
}

/**
 * The same experiment through the calls singleRep's warmup() and
 * run() are made of, with spans around each: construction, the warmup
 * slice (advance, drain, read the retired count, reset), and the
 * measured slice as chunked advance() calls. The L2 is the caller's
 * (the shard constructor), so its counters can be read.
 */
Experiment
singleRepTraced(const SimWorkload &w, Tracer &tr, std::uint64_t id)
{
    Experiment rep;
    Scope whole(tr, "experiment", id);
    Cache l2(l2Params(), nullptr, dramLatency);
    std::unique_ptr<Monitor> mon;
    std::unique_ptr<MonitoringSystem> sys;
    const std::uint64_t warm = w.wire.warmup, measure = w.wire.measure;
    double t0 = wallNow();
    {
        Scope s(tr, "system.construct", id);
        mon = makeMonitor(w.wire.monitor);
        sys = std::make_unique<MonitoringSystem>(w.sys, w.profile,
                                                 mon.get(), &l2);
    }
    double t1 = wallNow();
    LayerInput in;
    in.profile = w.profile;
    {
        Scope s(tr, "system.warmup", id);
        sys->advance(sliceCycleLimit(warm), warm);
        sys->drain();
        in.warmRetired = sys->retired();
        sys->resetStats();
    }
    double t2 = wallNow(), c2 = processCpu();
    const std::uint64_t l2Hits = l2.hits(), l2Misses = l2.misses();
    RunGrainDriverStats rgBefore;
    if (sys->runGrainDriver())
        rgBefore = sys->runGrainDriver()->stats();
    RunResult r;
    {
        Scope s(tr, "system.measure", id);
        sys->beginSlice();
        while (sys->retired() < measure) {
            Scope a(tr, "system.advance", id);
            std::uint64_t target = std::min(
                measure, (sys->retired() / w.chunk + 1) * w.chunk);
            if (sys->advance(sliceCycleLimit(measure), target) == 0)
                break;
        }
        r = sys->endSlice();
    }
    double t3 = wallNow(), c3 = processCpu();
    rep.constructS = t1 - t0;
    rep.warmupS = t2 - t1;
    rep.setupS = t2 - t0;
    rep.measureS = t3 - t2;
    rep.totalS = t3 - t0;
    rep.cpuS = c3 - c2;
    rep.insts = r.appInstructions;

    SimCounts &c = rep.counts;
    const FadeStats f = sys->fadeStats();
    c.insts = r.appInstructions;
    c.cycles = r.cycles;
    c.instEvents = f.instEvents;
    c.filtered = f.filtered;
    c.stallUeqFull = f.stallUeqFull;
    c.appStall = r.appStallCycles;
    c.monIdle = r.monIdleCycles;
    c.handlers = r.handlersRun;
    c.l2Hits = l2.hits() - l2Hits;
    c.l2Misses = l2.misses() - l2Misses;
    c.l2Local = c.l2Hits + c.l2Misses;
    if (const RunGrainDriver *rg = sys->runGrainDriver())
        addRunGrain(c, rgBefore, rg->stats());
    in.measured = r.appInstructions;
    in.events = r.monitoredEvents;
    rep.inputs.push_back(in);
    rep.hash = singleHash(*sys, mon.get(), r);
    return rep;
}

Experiment
multiRep(const SimWorkload &w)
{
    Experiment rep;
    double t0 = wallNow();
    MultiCoreSystem sys(w.cfg);
    sys.warmup(w.wire.warmup);
    double t1 = wallNow(), c1 = processCpu();
    MultiCoreResult r = sys.run(w.wire.measure);
    double t2 = wallNow(), c2 = processCpu();
    rep.setupS = t1 - t0;
    rep.measureS = t2 - t1;
    rep.totalS = t2 - t0;
    rep.cpuS = c2 - c1;
    rep.insts = r.totalInstructions;
    rep.hash = fingerprintHash(resultFingerprint(sys, r));
    return rep;
}

/** Experiments repeated for a fixed host time. */
struct RepLoop
{
    std::vector<Experiment> reps;
    std::vector<double> refNs;
    double peakRssMb = 0.0;
};

/**
 * spec_rungrain's gate: run-grain's functional fingerprint equals
 * per-cycle's on a matched window the length of one experiment. The
 * per-cycle reference overshoots a retirement target by up to a
 * commit width, so run-grain is driven to per-cycle's actual count;
 * no warmup, which would offset the windows by that overshoot.
 */
bool
crossEngineMatch(const SimWorkload &w)
{
    std::vector<std::uint64_t> fp[2];
    std::uint64_t target = w.wire.warmup + w.wire.measure;
    for (int i = 0; i < 2; ++i) {
        SystemConfig cfg = w.sys;
        cfg.engine = i ? Engine::RunGrain : Engine::PerCycle;
        std::unique_ptr<Monitor> mon = makeMonitor(w.wire.monitor);
        MonitoringSystem sys(cfg, w.profile, mon.get());
        sys.run(target);
        sys.drain();
        if (!i)
            target = sys.retired();
        fp[i] = sys.functionalFingerprint();
    }
    return fp[0] == fp[1];
}

void
runSim(const SimWorkload &tmpl, const Options &o, Result &r)
{
    std::vector<SimWorkload> ws;
    for (std::uint64_t j = 0; j < kVariants; ++j)
        ws.push_back(variant(tmpl, o.seed * kVariants + j));

    // References, outside the timed region: one untimed experiment per
    // stream (which also warms the host), whose fingerprint every
    // later experiment on that stream must repeat; for cmp_parallel it
    // runs under Lockstep, and for spec_rungrain per-cycle must agree
    // with run-grain on a matched window.
    std::vector<std::uint64_t> refs;
    for (const SimWorkload &w : ws) {
        // The per-cycle matched window costs several experiments;
        // check every fourth stream.
        bool crossCheck = w.sys.engine == Engine::RunGrain &&
                          refs.size() % 4 == 0;
        if (w.multi) {
            SimWorkload lock = w;
            lock.cfg.scheduler.policy = SchedulerPolicy::Lockstep;
            refs.push_back(multiRep(lock).hash);
            r.check(multiRep(w).hash == refs.back(),
                    "ParallelBatched result differs from Lockstep");
        } else {
            if (crossCheck)
                r.check(crossEngineMatch(w),
                        "run-grain functional fingerprint differs from "
                        "per-cycle on a matched window");
            refs.push_back(singleRep(w).hash);
        }
    }

    auto loop = [&](double seconds, Tracer *tr) {
        RepLoop out;
        double deadline = wallNow() + seconds;
        for (std::uint64_t id = 0; wallNow() < deadline; ++id) {
            const SimWorkload &w = ws[id % kVariants];
            out.refNs.push_back(refKernelNs());
            Experiment rep =
                !tr        ? (w.multi ? multiRep(w) : singleRep(w))
                : w.multi ? phaseRun(w.cfg, w.wire.warmup, w.wire.measure,
                                     *tr, id, "system.advance")
                          : singleRepTraced(w, *tr, id);
            r.check(rep.hash == refs[id % kVariants],
                    std::string(tr ? "traced " : "") + "experiment " +
                        std::to_string(id) +
                        " fingerprint differs from the reference");
            out.reps.push_back(std::move(rep));
        }
        out.peakRssMb = selfPeakRssMb();
        return out;
    };
    // Each experiment's host times, scaled by the kernel samples
    // around it.
    auto scaled = [](const RepLoop &l) {
        std::vector<Experiment> v = l.reps;
        for (std::size_t i = 0; i < v.size(); ++i) {
            double k = hostScale(l.refNs, i);
            v[i].setupS *= k;
            v[i].measureS *= k;
            v[i].totalS *= k;
            v[i].cpuS *= k;
        }
        return v;
    };
    auto minstPerS = [](const std::vector<Experiment> &reps) {
        std::vector<double> v;
        for (const Experiment &rep : reps)
            v.push_back(double(rep.insts) / rep.measureS / 1e6);
        return median(v);
    };

    RepLoop main = loop(o.trace ? o.seconds / 2 : o.seconds, nullptr);
    const std::vector<Experiment> reps = scaled(main);
    EndToEnd e;
    std::vector<double> setup, cpu, raw;
    for (const Experiment &rep : reps) {
        setup.push_back(rep.setupS);
        cpu.push_back(rep.cpuS);
        e.latencies.push_back(rep.totalS);
    }
    for (const Experiment &rep : main.reps)
        raw.push_back(rep.totalS);
    e.setupS = median(setup);
    e.minstPerS = minstPerS(reps);
    e.cpuS = median(cpu);
    e.peakRssMb = main.peakRssMb;
    // Experiments run one after another: the rate is the reciprocal
    // of the median experiment.
    e.sessionsPerS = 1.0 / median(e.latencies);
    e.refNs = main.refNs;
    e.rawMinstPerS = minstPerS(main.reps);
    e.rawP50S = median(raw);
    emitEndToEnd(e, r);
    if (!o.trace)
        return;

    Tracer tr;
    RepLoop traced = loop(o.seconds / 2, &tr);
    LayerReport l;
    l.refNs = median(traced.refNs);
    l.tracedMinstRatio = minstPerS(scaled(traced)) / minstPerS(reps);
    std::vector<double> construct, warmup;
    std::uint64_t insts = 0;
    for (const Experiment &rep : traced.reps) {
        construct.push_back(rep.constructS * 1e3);
        warmup.push_back(rep.warmupS * 1e3);
        insts += rep.insts;
    }
    l.constructMs = median(construct);
    l.warmupMs = median(warmup);
    l.advanceNs = tr.totalNs("system.advance") / double(insts);
    // Simulated counters and the layer pass: the first stream.
    l.counts = traced.reps.front().counts;
    layerPass(tmpl.wire.monitor, traced.reps.front().inputs, tr, l, r);

    // The first stream as a multi-core configuration: scheduler pass,
    // a captured trace and its decode, and the daemon serving the
    // experiment live and as an upload.
    const SimWorkload &w = ws.front();
    const std::string capture =
        o.workdir + "/" + w.name + "-" + std::to_string(o.seed) + ".ftrace";
    std::uint64_t passRef = w.multi ? refs.front()
                                    : standaloneRun(w.wire).hash;
    MultiCoreConfig passCfg = w.multi ? w.cfg : sessionPlan(w.wire).cfg;
    schedulerPass(passCfg, w.wire.warmup, w.wire.measure, passRef, tr, l,
                  r);
    r.check(captureRun(passCfg, w.wire.warmup, w.wire.measure, capture) ==
                passRef,
            "capturing run differs from the reference run");
    decodePass(capture, tr, l, r);
    daemonProbe(o, w.wire, capture, tr, l, r);

    r.metrics.clear();
    emitLayers(l, r);
    tr.dump(o.workdir + "/spans-" + w.name + "-" + std::to_string(o.seed) +
            ".jsonl");
}

SimWorkload
singleShard(const char *name, const char *monitor, const char *profile,
            Engine engine, std::uint64_t warm, std::uint64_t measure,
            std::uint64_t chunk)
{
    SimWorkload w;
    w.name = name;
    w.wire.monitor = monitor;
    w.wire.profiles = {profile};
    w.wire.engine = std::uint8_t(engine);
    w.wire.warmup = warm;
    w.wire.measure = measure;
    w.sys.engine = engine;
    w.chunk = chunk;
    return w;
}

} // namespace

void
runSpecPerCycle(const Options &o, Result &r)
{
    runSim(singleShard("spec_percycle", "MemLeak", "mcf", Engine::PerCycle,
                       20000, 80000, 10000),
           o, r);
}

void
runSpecRunGrain(const Options &o, Result &r)
{
    runSim(singleShard("spec_rungrain", "AddrCheck", "astar",
                       Engine::RunGrain, 20000, 300000, 20000),
           o, r);
}

void
runCmpParallel(const Options &o, Result &r)
{
    SimWorkload w;
    w.name = "cmp_parallel";
    w.multi = true;
    w.wire.monitor = "MemLeak";
    // The first four profiles of multiprogramWorkloads("hmmer").
    w.wire.profiles = {"hmmer", "astar", "bzip", "gcc"};
    w.wire.shards = 4;
    w.wire.clusters = 2;
    w.wire.fadesPerShard = 2;
    w.wire.policy = std::uint8_t(SchedulerPolicy::ParallelBatched);
    w.wire.engine = std::uint8_t(Engine::RunGrain);
    w.wire.warmup = 5000;
    w.wire.measure = 25000;
    runSim(w, o, r);
}

} // namespace perfbench
