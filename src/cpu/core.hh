/**
 * @file
 * Unified core timing model covering the paper's three design points
 * (Table 1): in-order 1-way, lean OoO 2-way/48-entry ROB, and aggressive
 * OoO 4-way/96-entry ROB, plus the fine-grained dual-threaded (SMT)
 * configuration used by the single-core monitoring system (Fig. 8(b)).
 *
 * The model dispatches up to `width` instructions per cycle into a
 * reorder buffer, computes each instruction's completion time from its
 * register dependences, execution latency, and data cache access, and
 * commits up to `width` completed instructions per cycle in order.
 * In-order cores additionally force monotonically non-decreasing issue
 * times in program order. Mispredicted branches stall fetch until the
 * branch resolves plus a redirect penalty. With two hardware threads the
 * fetch/dispatch and commit bandwidth is shared slot-by-slot round-robin
 * and the ROB is statically partitioned.
 */

#ifndef FADE_CPU_CORE_HH
#define FADE_CPU_CORE_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "cpu/source.hh"
#include "isa/instruction.hh"
#include "mem/cache.hh"
#include "sim/ring.hh"
#include "sim/types.hh"

namespace fade
{

/** Core microarchitecture parameters. */
struct CoreParams
{
    std::string name = "core";
    unsigned width = 4;
    unsigned robSize = 96;
    bool inOrder = false;
    /** Fetch redirect penalty after a mispredicted branch resolves. */
    unsigned mispredictPenalty = 8;
};

/** Table 1 presets. */
CoreParams inOrderParams();
CoreParams leanOooParams();
CoreParams aggressiveOooParams();

/** Per-hardware-thread statistics. */
struct ThreadStats
{
    std::uint64_t retired = 0;
    /** Cycles a completed head-of-ROB was refused by the commit sink. */
    std::uint64_t sinkStallCycles = 0;
    /** Cycles with an empty ROB and no instruction supplied. */
    std::uint64_t idleCycles = 0;
    std::uint64_t robFullCycles = 0;
    std::uint64_t fetchBubbleCycles = 0;
};

/**
 * Closed-form per-thread timing recurrence of the run-grain engine
 * (Engine::RunGrain, system/rungrain.hh). Models the same pipeline
 * resources as Core — dispatch/commit width, a partitioned ROB,
 * register dependences, in-order issue coupling, branch-redirect
 * stalls, commit-sink backpressure — but advances a whole instruction
 * run by recurrence instead of cycle-by-cycle state transitions. For
 * instruction k with width W and ROB partition R:
 *
 *   d_k = max(d_{k-1}, d_{k-W} + 1, redirect, c_{k-R})     dispatch
 *   e_k = max(d_k + 1, ready(srcs) [, e_{k-1} if in-order]) issue
 *   r_k = e_k + latency                                     complete
 *   c_k = max(r_k, c_{k-1}, c_{k-W} + 1, sinkGate)          commit
 *
 * The rings holding the last R commit and last W dispatch times are
 * the entire state: one instruction costs O(1) regardless of how many
 * cycles it spans. Each hardware thread gets dedicated width (the
 * per-cycle engine shares slots round-robin between SMT threads),
 * which is the engine's one structural timing divergence on
 * dual-threaded cores (docs/ARCHITECTURE.md, "Run-grain engine").
 */
class RunGrainThread
{
  public:
    /** Timing of one retired instruction. */
    struct Retire
    {
        Cycle dispatched = 0;
        Cycle ready = 0;
        Cycle committed = 0;
        /** Cycles dispatch waited on the full ROB partition. */
        std::uint64_t robWait = 0;
        /** Cycles dispatch waited on a branch redirect. */
        std::uint64_t fetchWait = 0;
        /** Cycles commit waited on the sink gate past readiness. */
        std::uint64_t sinkWait = 0;
    };

    /** Bind the model to a core geometry and a ROB partition size. */
    void configure(const CoreParams &p, unsigned robPartition);

    /**
     * Advance the recurrence by one instruction.
     * @param inst      the retiring instruction
     * @param execLat   execution latency (Core::instLatency)
     * @param fetchGate earliest dispatch cycle (source availability)
     * @param sinkGate  earliest commit cycle (queue backpressure)
     */
    Retire retire(const Instruction &inst, unsigned execLat,
                  Cycle fetchGate, Cycle sinkGate);

    Cycle lastCommit() const { return lastCommit_; }
    std::uint64_t retired() const { return count_; }

  private:
    unsigned width_ = 1;
    unsigned robCap_ = 1;
    bool inOrder_ = false;
    unsigned mispredictPenalty_ = 0;
    /** Commit times of the last robCap_ instructions (ring, k mod R). */
    std::vector<Cycle> commitRing_;
    /** Dispatch times of the last width_ instructions (ring, k mod W). */
    std::vector<Cycle> dispatchRing_;
    /** Ring cursors maintained incrementally so the per-retire hot
     *  path never divides: count_ mod R, (count_ - W) mod R, and
     *  count_ mod W (identical to the mod expressions they replace). */
    unsigned robIdx_ = 0;
    unsigned robLagIdx_ = 0;
    unsigned wIdx_ = 0;
    std::array<Cycle, numArchRegs> regReady_{};
    Cycle lastIssue_ = 0;
    Cycle fetchStallUntil_ = 0;
    Cycle lastDispatch_ = 0;
    Cycle lastCommit_ = 0;
    std::uint64_t count_ = 0;
};

/**
 * What the caller of Core::tick() knows about one hardware thread's
 * instruction source for the current cycle. The per-cycle driver
 * (system/pipeline.hh) uses this to elide InstSource::available() calls
 * whose outcome is already known — legal only because the elided call
 * would have been side-effect free — and to predict thread activity
 * across a fast-forwarded span.
 */
enum class SrcProbe : std::uint8_t
{
    /** available() would return false, with no side effects. */
    None,
    /** available() would return true, with no side effects. */
    Pure,
    /** available() may mutate state (e.g. pop an input queue); it must
     *  be called exactly as the reference tick() would call it. */
    Effectful,
};

/**
 * A core with one or two hardware threads sharing its pipeline.
 */
class Core
{
  public:
    /**
     * @param p    microarchitecture parameters
     * @param l1d  private L1 data cache (loads/stores consult it)
     */
    Core(const CoreParams &p, Cache *l1d);

    /**
     * Attach a hardware thread.
     * @return the hardware thread index.
     */
    unsigned addThread(InstSource *src, CommitSink *sink);

    /** All-Effectful probes for both hardware threads: tick()'s
     *  default, the cycle-by-cycle reference call pattern. */
    static const SrcProbe effectfulProbes[2];

    /**
     * Advance one cycle. @p probes[t] says what is known about hardware
     * thread t's source this cycle: with SrcProbe::Effectful (the
     * default) every InstSource::available() call is made exactly as
     * the reference model makes it; None/Pure skip only calls that
     * would have been side-effect free, so the state transitions and
     * counters are identical either way. Allocation-free.
     * @return the number of commits plus dispatches performed (0 means
     *         this cycle changed nothing but per-cycle counters).
     */
    unsigned tick(Cycle now, const SrcProbe *probes = effectfulProbes);

    /**
     * Earliest cycle >= @p now at which ticking this core could do more
     * than per-cycle condition accounting, assuming every external
     * input (sources, sinks, queues) stays frozen. Returns @p now when
     * the core is active this cycle and invalidCycle when only an
     * external change can wake it. May invoke CommitSink::canCommit
     * (side-effect free by contract); never invokes
     * InstSource::available().
     */
    Cycle nextActivity(Cycle now, const SrcProbe *probes) const;

    /**
     * Account for @p n skipped cycles starting at @p from, during which
     * the driver has established (via nextActivity and frozen external
     * state) that tick() would have performed no commit and no
     * dispatch: applies exactly the per-cycle condition counters,
     * cycle count, and round-robin rotation those ticks would have.
     */
    void skipCycles(Cycle from, std::uint64_t n, const SrcProbe *probes);

    unsigned numThreads() const { return unsigned(threads_.size()); }
    const CoreParams &params() const { return params_; }
    const ThreadStats &threadStats(unsigned t) const;

    /**
     * The execution latency of @p inst, with its data-cache access
     * (loads probe the L1d for their latency; stores keep the tags
     * warm and complete through the store buffer in one cycle). The
     * one latency selection of both engines: dispatch calls it, and
     * the run-grain engine calls it in retirement order, so the cache
     * state evolves identically; only the cycle the access lands on is
     * modeled there.
     */
    unsigned
    instLatency(const Instruction &inst)
    {
        if (inst.cls == InstClass::Load)
            return l1d_ ? l1d_->access(inst.memAddr, false) : 2;
        if (inst.cls == InstClass::Store) {
            // Stores retire through a store buffer: keep the tags warm
            // but do not stall the dependence chain.
            if (l1d_)
                l1d_->access(inst.memAddr, true);
            return 1;
        }
        return execLatency(inst.cls);
    }

    /** Run-grain engine support: mutable per-thread statistics, for
     *  batch-applying modeled condition counters the way skipCycles()
     *  batch-applies frozen spans. */
    ThreadStats &runGrainThreadStats(unsigned t);

    /** Run-grain engine support: batch-apply @p n elapsed cycles. */
    void runGrainAddCycles(std::uint64_t n) { cycles_ += n; }

    /** The thread's ROB partition (run-grain model geometry). */
    unsigned robPartition() const { return robCap_; }
    std::uint64_t cycles() const { return cycles_; }

    /** All ROBs empty and no source has work. */
    bool drained() const;

    void resetStats();

  private:
    struct RobEntry
    {
        Instruction inst;
        Cycle readyAt = 0;
    };

    struct HwThread
    {
        InstSource *src = nullptr;
        CommitSink *sink = nullptr;
        /** Sink declared alwaysCommits(): skip canCommit entirely. */
        bool freeSink = false;
        /** Reorder buffer: bounded FIFO in one contiguous ring (sized
         *  once in addThread; never reallocates afterwards). */
        RingDeque<RobEntry> rob;
        std::array<Cycle, numArchRegs> regReady{};
        /** In-order cores: issue time of the previously dispatched op. */
        Cycle lastIssue = 0;
        /** Fetch stalled until this cycle (branch redirect). */
        Cycle fetchStallUntil = 0;
        ThreadStats stats;
    };

    unsigned robCapacity() const;
    bool tryCommitOne(HwThread &t, Cycle now);
    bool tryDispatchOne(HwThread &t, Cycle now, SrcProbe probe);
    /** Timing computation for the just-claimed ROB entry @p e (its
     *  instruction is already in place). */
    void dispatchInst(HwThread &t, Cycle now, RobEntry &e);

    CoreParams params_;
    Cache *l1d_;
    std::vector<HwThread> threads_;
    unsigned commitRr_ = 0;
    unsigned dispatchRr_ = 0;
    /** robSize / numThreads, cached off the per-cycle paths. */
    unsigned robCap_ = 0;
    std::uint64_t cycles_ = 0;
};

} // namespace fade

#endif // FADE_CPU_CORE_HH
