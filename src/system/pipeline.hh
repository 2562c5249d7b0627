/**
 * @file
 * The per-cycle engine's driver for one shard (Engine::PerCycle).
 *
 * The cycle-by-cycle reference (MonitoringSystem::tickOnce) walks
 * core -> event queue -> FADE -> unfiltered event queue -> MD cache ->
 * monitor every cycle, even when most components are idle or the whole
 * shard is waiting out a long memory latency. This driver advances the
 * same components through the same cycles with the same semantics, but
 * in two cheaper ways:
 *
 *  - Active cycles run through a fused step (Core::tick + Fade::tick in
 *    the exact tickOnce() order) whose source probes (SrcProbe) elide
 *    InstSource::available() calls whose outcome is already known to
 *    be side-effect free.
 *
 *  - Frozen spans — every component stalled with provably constant
 *    inputs (ROB head waiting on a cache miss, FADE waiting on an
 *    MD-cache fill or on backpressure, monitor idle) — are skipped in
 *    one jump to the earliest wake-up cycle, with each component
 *    batch-applying exactly the per-cycle condition counters the
 *    skipped ticks would have recorded (Core::skipCycles,
 *    Fade::skipCycles, BoundedQueue::popRun for the perfect consumer).
 *
 * Because every fused step performs the reference transition for its
 * cycle and every jump is taken only when the reference ticks of the
 * span are proven to change nothing but the batch-applied counters,
 * advance() is bit-identical to a tickOnce() loop — same cycle counts,
 * same statistics, same RNG/functional state — for every
 * configuration. docs/ARCHITECTURE.md gives the stall-condition table
 * and the equality argument; tests/test_pipeline.cc pins the engine to
 * goldens and to tickOnce() across the profile x monitor x shard-count
 * x policy matrix.
 */

#ifndef FADE_SYSTEM_PIPELINE_HH
#define FADE_SYSTEM_PIPELINE_HH

#include <cstdint>

#include "cpu/core.hh"
#include "system/system.hh"

namespace fade
{

/** Host-side accounting of one driver (simulation-invisible). */
struct PipelineDriverStats
{
    /** Cycles executed through the fused step. */
    std::uint64_t fusedCycles = 0;
    /** Cycles fast-forwarded without execution. */
    std::uint64_t skippedCycles = 0;
    /** Jumps taken (each skips >= 1 cycle). */
    std::uint64_t jumps = 0;
};

/**
 * Drives one MonitoringSystem through fused steps and frozen-span
 * jumps. Owned by the system when SystemConfig::engine ==
 * Engine::PerCycle; stateless between calls except for cached
 * component pointers, so it composes with the shard scheduler's
 * bounded slices exactly like a tickOnce() loop (a slice boundary is
 * just a cycle limit).
 */
class PipelineDriver
{
  public:
    explicit PipelineDriver(MonitoringSystem &sys);

    /**
     * Advance until @p maxCycles cycles are consumed or the producer
     * has retired @p targetRetired instructions, whichever first —
     * semantically identical to that many tickOnce() calls.
     * @return the number of simulated cycles consumed.
     */
    std::uint64_t runUntil(std::uint64_t maxCycles,
                           std::uint64_t targetRetired);

    const PipelineDriverStats &stats() const { return stats_; }

  private:
    /** Source probe for the monitor software process this cycle. */
    SrcProbe monProbe() const;

    /**
     * Try to fast-forward a frozen span starting at the current cycle.
     * @return true (with state batch-updated and the clock advanced)
     *         when a span of at least one cycle was skipped.
     */
    bool tryJump(Cycle end, const SrcProbe *appProbes,
                 const SrcProbe *monProbes);

    MonitoringSystem &sys_;
    Core *appCore_;
    Core *monCore_;
    FadeGroup *fades_;
    BoundedQueue<MonEvent> *eq_;
    EventProducer *producer_;
    MonitorProcess *mproc_;
    /** The monitor process runs as hardware thread 1 of the app core
     *  (single-core SMT config). */
    bool monOnApp_;
    /** The monitor process consumes the event queue directly
     *  (unaccelerated config): its input can grow mid-core-tick, so
     *  its source may never be probed away. */
    bool monReadsEq_;
    bool perfect_;
    /** Probe of the application thread's source: Pure for the endless
     *  generator and threaded sources (available() is constantly true
     *  and side-effect free), Effectful for a finite replay stream,
     *  whose available() turns false mid-cycle once the last record is
     *  fetched. */
    SrcProbe appProbe_;
    PipelineDriverStats stats_;
};

} // namespace fade

#endif // FADE_SYSTEM_PIPELINE_HH
