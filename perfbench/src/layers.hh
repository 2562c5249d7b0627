/**
 * @file
 * The traced run's building blocks, shared by every workload: the
 * layer pass over a workload's own instruction and event stream, the
 * decode pass over a captured trace, the scheduler pass over the
 * workload's multi-core configuration, the daemon probe, and the one
 * place that names every end-to-end and per-layer metric.
 */

#ifndef PERFBENCH_LAYERS_HH
#define PERFBENCH_LAYERS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "bench.hh"
#include "daemon/protocol.hh"
#include "system/multicore.hh"
#include "system/rungrain.hh"

namespace perfbench
{

/** End-to-end figures of one run (BENCHMARK.json "end_to_end"),
 *  host times scaled to the nominal kernel speed (kNominalRefNs). */
struct EndToEnd
{
    double setupS = 0.0;
    double minstPerS = 0.0;
    double cpuS = 0.0;
    double peakRssMb = 0.0;
    double sessionsPerS = 0.0;
    /** Per-session (per-experiment) latencies, seconds. */
    std::vector<double> latencies;
    /** Reference kernel samples (ns/op) taken during the run. */
    std::vector<double> refNs;
    /** minst_per_s and session p50 before scaling. */
    double rawMinstPerS = 0.0, rawP50S = 0.0;
};

/** Simulated counters of one measured slice, summed over shards. */
struct SimCounts
{
    std::uint64_t insts = 0;
    std::uint64_t cycles = 0;
    std::uint64_t instEvents = 0;
    std::uint64_t filtered = 0;
    std::uint64_t stallUeqFull = 0;
    std::uint64_t appStall = 0;
    std::uint64_t monIdle = 0;
    std::uint64_t handlers = 0;
    std::uint64_t l2Hits = 0;
    std::uint64_t l2Misses = 0;
    std::uint64_t l2Local = 0;
    std::uint64_t l2Remote = 0;
    std::uint64_t rgStepped = 0;
    std::uint64_t rgClosed = 0;
    std::uint64_t rgFf = 0;
};

/** One stream the layer pass replays: the first warmRetired
 *  instructions of @p profile are the warmup slice, the next
 *  measured ones the measured slice, which produced @p events
 *  monitored events in the simulator. */
struct LayerInput
{
    fade::BenchProfile profile;
    std::uint64_t warmRetired = 0;
    std::uint64_t measured = 0;
    std::uint64_t events = 0;
};

/** Everything the traced run reports (BENCHMARK.json "per_layer"). */
struct LayerReport
{
    double synthNs = 0.0, dispatchNs = 0.0, extractNs = 0.0;
    double decodeNs = 0.0;
    double advanceNs = 0.0;
    double constructMs = 0.0, warmupMs = 0.0;
    double epochs = 0.0, epochUsP50 = 0.0, epochUsMax = 0.0;
    double speedup = 0.0, cpuPerWall = 0.0;
    SimCounts counts;
    double connectMs = 0.0, configureMs = 0.0, uploadMs = 0.0;
    double runMs = 0.0, overheadMs = 0.0;
    double quanta = 0.0, parks = 0.0, rejects = 0.0;
    double refNs = 0.0;
    /** Traced over untraced minst_per_s of the same run. */
    double tracedMinstRatio = 0.0;
};

/** Put every end-to-end metric into @p r.metrics and the context
 *  (reference kernel, tail percentile, sample count) into
 *  @p r.detail. */
void emitEndToEnd(const EndToEnd &e, Result &r);

/** Put every per-layer metric into @p r.metrics. */
void emitLayers(const LayerReport &l, Result &r);

/** Counters of a finished multi-core measured slice (stats of the
 *  measured slice only: the directory and shard stats were reset at
 *  beginMeasure; @p rgBefore holds each shard's run-grain driver
 *  totals taken before it). */
SimCounts multiCounts(fade::MultiCoreSystem &sys,
                      const fade::MultiCoreResult &res,
                      const std::vector<fade::RunGrainDriverStats> &rgBefore);

/** Add the cycle decomposition a run-grain driver accumulated from
 *  @p before to @p after into @p c. */
void addRunGrain(SimCounts &c, const fade::RunGrainDriverStats &before,
                 const fade::RunGrainDriverStats &after);

/** Each shard's cumulative run-grain driver totals (zeros for other
 *  engines). */
std::vector<fade::RunGrainDriverStats>
runGrainTotals(const fade::MultiCoreSystem &sys);

/**
 * Feed each input stream through the public layer calls the run-grain
 * span path makes — TraceGenerator::stageRun/fetchSpan,
 * Monitor::monitoredSpan, EventProducer::commitSpan — with one span
 * per call batch, and check that the measured slice yields exactly
 * the simulator's event count. Fills synth/dispatch/extract ns per
 * instruction.
 */
void layerPass(const std::string &monitor,
               const std::vector<LayerInput> &inputs, Tracer &tr,
               LayerReport &l, Result &r);

/** Decode every stream of the trace at @p path through TraceReader
 *  and ReplaySource; fills decodeNs (file validation included). */
void decodePass(const std::string &path, Tracer &tr, LayerReport &l,
                Result &r);

/** What one experiment produced. Host times are seconds as measured;
 *  the traced fields are filled by traced experiments only. */
struct Experiment
{
    double setupS = 0.0, measureS = 0.0, totalS = 0.0, cpuS = 0.0;
    std::uint64_t insts = 0;
    std::uint64_t hash = 0;
    double constructS = 0.0, warmupS = 0.0;
    SimCounts counts;
    /** Each shard's stream, for the layer pass. */
    std::vector<LayerInput> inputs;
};

/**
 * One traced experiment on @p cfg through the MultiCoreSystem phase
 * protocol: spans around construction, the warmup phase, and each
 * measured slice epoch (advanceRun(1)), the latter named
 * @p epochSpan. Each shard is drained before finishWarmup() — which
 * drains them too, so nothing changes — to read how many
 * instructions its stream retired in the warmup.
 */
Experiment phaseRun(const fade::MultiCoreConfig &cfg, std::uint64_t warm,
                    std::uint64_t measure, Tracer &tr, std::uint64_t id,
                    const char *epochSpan);

/**
 * Run @p cfg twice with phaseRun(): under Lockstep (epoch spans
 * "sched.lockstep.epoch") and under ParallelBatched
 * ("sched.parallel.epoch"). Checks that both results equal
 * @p refHash and fills the scheduler metrics of @p l (epochs and
 * epoch times from the parallel run; speedup is Lockstep over
 * parallel wall time of the measured slice). @return the Lockstep
 * experiment.
 */
Experiment schedulerPass(const fade::MultiCoreConfig &cfg,
                         std::uint64_t warm, std::uint64_t measure,
                         std::uint64_t refHash, Tracer &tr, LayerReport &l,
                         Result &r);

/** Run @p cfg (warmup, measured slice) capturing every shard's stream
 *  to the trace file @p path, finished with its replay manifest.
 *  @return the result hash recorded in the manifest. */
std::uint64_t captureRun(const fade::MultiCoreConfig &cfg,
                         std::uint64_t warm, std::uint64_t measure,
                         const std::string &path);

/**
 * Serve @p live and an upload of @p capturePath through a freshly
 * started faded (one session each), checking both results against
 * standaloneRun(); fills the daemon.* metrics.
 */
void daemonProbe(const Options &o,
                 const fade::daemon::WireSessionConfig &live,
                 const std::string &capturePath, Tracer &tr,
                 LayerReport &l, Result &r);

/** Peak resident set of this process, MiB. */
double selfPeakRssMb();

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HH
