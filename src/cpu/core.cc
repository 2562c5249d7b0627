#include "cpu/core.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace fade
{

CoreParams
inOrderParams()
{
    CoreParams p;
    p.name = "in-order";
    p.width = 1;
    p.robSize = 16;
    p.inOrder = true;
    p.mispredictPenalty = 4;
    return p;
}

CoreParams
leanOooParams()
{
    CoreParams p;
    p.name = "lean-ooo";
    p.width = 2;
    p.robSize = 48;
    p.inOrder = false;
    p.mispredictPenalty = 8;
    return p;
}

CoreParams
aggressiveOooParams()
{
    CoreParams p;
    p.name = "aggr-ooo";
    p.width = 4;
    p.robSize = 96;
    p.inOrder = false;
    p.mispredictPenalty = 8;
    return p;
}

void
RunGrainThread::configure(const CoreParams &p, unsigned robPartition)
{
    width_ = std::max(1u, p.width);
    // The recurrence indexes c_{k-W} inside the commit ring, so the
    // ring must cover at least one full dispatch group.
    robCap_ = std::max(std::max(1u, robPartition), width_);
    inOrder_ = p.inOrder;
    mispredictPenalty_ = p.mispredictPenalty;
    commitRing_.assign(robCap_, 0);
    dispatchRing_.assign(width_, 0);
    robIdx_ = 0;
    // First read when count_ == W must see (W - W) mod R == 0, so the
    // lagged cursor starts W increments behind that.
    robLagIdx_ = (robCap_ - width_ % robCap_) % robCap_;
    wIdx_ = 0;
}

RunGrainThread::Retire
RunGrainThread::retire(const Instruction &inst, unsigned execLat,
                       Cycle fetchGate, Cycle sinkGate)
{
    Retire out;

    // Dispatch: width pacing, branch redirect, then ROB-partition
    // space (the entry k-R must have committed; commit precedes
    // dispatch inside one reference tick, so the same cycle is legal).
    // Ring cursors: wIdx_ == count_ mod W (which also equals
    // (count_ - W) mod W, so the dispatch ring is read and written at
    // the same slot), robIdx_ == count_ mod R, robLagIdx_ ==
    // (count_ - W) mod R. Maintained by wrap-around increments below —
    // the hot path never divides (R defaults to 96, not a power of 2).
    Cycle base = std::max(fetchGate, lastDispatch_);
    if (count_ >= width_)
        base = std::max(base, dispatchRing_[wIdx_] + 1);
    Cycle afterStall = std::max(base, fetchStallUntil_);
    out.fetchWait = afterStall - base;
    Cycle d = afterStall;
    if (count_ >= robCap_)
        d = std::max(d, commitRing_[robIdx_]);
    out.robWait = d - afterStall;
    dispatchRing_[wIdx_] = d;
    lastDispatch_ = d;

    // Issue and complete (dispatchInst()'s timing math).
    Cycle exec = d + 1;
    if (inst.numSrc >= 1)
        exec = std::max(exec, regReady_[inst.src1]);
    if (inst.numSrc >= 2)
        exec = std::max(exec, regReady_[inst.src2]);
    if (inOrder_) {
        exec = std::max(exec, lastIssue_);
        lastIssue_ = exec;
    }
    Cycle r = exec + execLat;
    if (inst.hasDst)
        regReady_[inst.dst] = r;
    if (inst.mispredict)
        fetchStallUntil_ = r + mispredictPenalty_;

    // Commit: in order, width-paced, gated by the sink.
    Cycle cPre = std::max(r, lastCommit_);
    if (count_ >= width_)
        cPre = std::max(cPre, commitRing_[robLagIdx_] + 1);
    Cycle c = std::max(cPre, sinkGate);
    out.sinkWait = c - cPre;
    commitRing_[robIdx_] = c;
    lastCommit_ = c;
    ++count_;
    wIdx_ = (wIdx_ + 1 == width_) ? 0 : wIdx_ + 1;
    robIdx_ = (robIdx_ + 1 == robCap_) ? 0 : robIdx_ + 1;
    robLagIdx_ = (robLagIdx_ + 1 == robCap_) ? 0 : robLagIdx_ + 1;

    out.dispatched = d;
    out.ready = r;
    out.committed = c;
    return out;
}

Core::Core(const CoreParams &p, Cache *l1d)
    : params_(p), l1d_(l1d), robCap_(p.robSize)
{
    fatal_if(p.width == 0, "core width must be positive");
    fatal_if(p.robSize == 0, "ROB size must be positive");
}

unsigned
Core::addThread(InstSource *src, CommitSink *sink)
{
    fatal_if(threads_.size() >= 2, "at most two hardware threads");
    panic_if(!src, "a hardware thread needs an instruction source");
    HwThread t;
    t.src = src;
    t.sink = sink;
    t.freeSink = !sink || sink->alwaysCommits();
    // Size the ROB ring once for the full (unpartitioned) capacity so
    // it never grows on the dispatch path.
    t.rob = RingDeque<RobEntry>(params_.robSize);
    threads_.push_back(std::move(t));
    robCap_ = params_.robSize /
              std::max<unsigned>(1, unsigned(threads_.size()));
    return unsigned(threads_.size() - 1);
}

const ThreadStats &
Core::threadStats(unsigned t) const
{
    panic_if(t >= threads_.size(), "bad thread index");
    return threads_[t].stats;
}

ThreadStats &
Core::runGrainThreadStats(unsigned t)
{
    panic_if(t >= threads_.size(), "bad thread index");
    return threads_[t].stats;
}

unsigned
Core::robCapacity() const
{
    // Static partitioning between hardware threads (cached: this sits
    // on every commit/dispatch test).
    return robCap_;
}

bool
Core::tryCommitOne(HwThread &t, Cycle now)
{
    if (t.rob.empty())
        return false;
    RobEntry &head = t.rob.front();
    if (head.readyAt > now)
        return false;
    if (t.freeSink) {
        if (t.sink)
            t.sink->onCommit(head.inst);
    } else if (!t.sink->commitIfAllowed(head.inst)) {
        ++t.stats.sinkStallCycles;
        return false;
    }
    ++t.stats.retired;
    t.rob.pop_front();
    return true;
}

bool
Core::tryDispatchOne(HwThread &t, Cycle now, SrcProbe probe)
{
    if (t.rob.size() >= robCapacity())
        return false;
    if (now < t.fetchStallUntil)
        return false;
    // A None/Pure probe elides the availability call whose outcome the
    // pipeline driver already knows to be side-effect free (the
    // default, Effectful, is the reference behaviour).
    if (probe == SrcProbe::None)
        return false;
    // Run-replay fast path: instructions come straight out of a
    // prefetched run (a handler sequence, staged or decoded application
    // instructions); a non-null fetchNext() certifies available() would
    // have been true and side-effect free, so the per-instruction
    // round-trip is elided. A null falls back to the reference
    // available()/fetch() protocol — pops and handler builds happen at
    // exactly the same points.
    const Instruction *pre = t.src->fetchNext();
    if (!pre) {
        if (probe == SrcProbe::Effectful && !t.src->available())
            return false;
        pre = t.src->fetchNext();
    }
    // All checks passed: the dispatch is committed, so the instruction
    // lands straight in the claimed ROB slot (no staging copy).
    RobEntry &e = t.rob.pushSlot();
    e.inst = pre ? *pre : t.src->fetch();
    dispatchInst(t, now, e);
    return true;
}

void
Core::dispatchInst(HwThread &t, Cycle now, RobEntry &e)
{
    const Instruction &inst = e.inst;
    Cycle depReady = 0;
    if (inst.numSrc >= 1)
        depReady = std::max(depReady, t.regReady[inst.src1]);
    if (inst.numSrc >= 2)
        depReady = std::max(depReady, t.regReady[inst.src2]);
    // Loads and stores use a register-held address: model the address
    // dependence through src1 (already covered above).

    Cycle execStart = std::max<Cycle>(now + 1, depReady);
    if (params_.inOrder) {
        // Program-order issue: an instruction cannot begin execution
        // before its predecessor began.
        execStart = std::max(execStart, t.lastIssue);
        t.lastIssue = execStart;
    }

    Cycle readyAt = execStart + instLatency(inst);
    if (inst.hasDst)
        t.regReady[inst.dst] = readyAt;

    if (inst.mispredict)
        t.fetchStallUntil = readyAt + params_.mispredictPenalty;

    e.readyAt = readyAt;
}

const SrcProbe Core::effectfulProbes[2] = {SrcProbe::Effectful,
                                           SrcProbe::Effectful};

unsigned
Core::tick(Cycle now, const SrcProbe *probes)
{
    // With all-Effectful probes every source call is made exactly as
    // the cycle-by-cycle reference makes it; a None/Pure probe only
    // skips calls whose outcome is known and side-effect free.
    ++cycles_;
    unsigned n = unsigned(threads_.size());
    if (n == 0)
        return 0;

    // Per-cycle condition accounting (before any state changes).
    for (unsigned i = 0; i < n; ++i) {
        HwThread &t = threads_[i];
        if (t.rob.size() >= robCapacity())
            ++t.stats.robFullCycles;
        if (now < t.fetchStallUntil)
            ++t.stats.fetchBubbleCycles;
        if (t.rob.empty()) {
            bool avail = probes[i] == SrcProbe::Pure ||
                         (probes[i] == SrcProbe::Effectful &&
                          t.src->available());
            if (!avail)
                ++t.stats.idleCycles;
        }
    }

    // Commit: up to `width` slots shared round-robin across threads.
    // A thread whose head is not ready (or is refused by its sink)
    // yields its slots to the other thread.
    unsigned activity = 0;
    {
        unsigned budget = params_.width;
        std::array<bool, 2> open{true, n > 1};
        unsigned t = commitRr_;
        while (budget > 0 && (open[0] || open[1])) {
            if (open[t]) {
                if (tryCommitOne(threads_[t], now)) {
                    --budget;
                    ++activity;
                } else {
                    open[t] = false;
                }
            }
            if (++t == n)
                t = 0;
        }
        commitRr_ = commitRr_ + 1 == n ? 0 : commitRr_ + 1;
    }

    // Dispatch: same slot-by-slot sharing.
    {
        unsigned budget = params_.width;
        std::array<bool, 2> open{true, n > 1};
        unsigned t = dispatchRr_;
        while (budget > 0 && (open[0] || open[1])) {
            if (open[t]) {
                if (tryDispatchOne(threads_[t], now, probes[t])) {
                    --budget;
                    ++activity;
                } else {
                    open[t] = false;
                }
            }
            if (++t == n)
                t = 0;
        }
        dispatchRr_ = dispatchRr_ + 1 == n ? 0 : dispatchRr_ + 1;
    }
    return activity;
}

Cycle
Core::nextActivity(Cycle now, const SrcProbe *probes) const
{
    Cycle wake = invalidCycle;
    for (unsigned i = 0; i < threads_.size(); ++i) {
        const HwThread &t = threads_[i];
        // With an empty ROB and an effectful source, the idle-condition
        // accounting itself calls available() (which may pop work), so
        // the cycle cannot be skipped.
        if (t.rob.empty() && probes[i] == SrcProbe::Effectful)
            return now;
        if (!t.rob.empty()) {
            const RobEntry &head = t.rob.front();
            if (t.freeSink || t.sink->canCommit(head.inst)) {
                if (head.readyAt <= now)
                    return now;
                wake = std::min(wake, head.readyAt);
            }
            // A refused head never commits while external state is
            // frozen; only sinkStallCycles accrue (see skipCycles).
        }
        if (t.rob.size() < robCapacity() && probes[i] != SrcProbe::None) {
            if (now >= t.fetchStallUntil)
                return now;
            wake = std::min(wake, t.fetchStallUntil);
        }
    }
    return wake;
}

void
Core::skipCycles(Cycle from, std::uint64_t n, const SrcProbe *probes)
{
    cycles_ += n;
    unsigned nt = unsigned(threads_.size());
    if (nt == 0)
        return;
    for (unsigned i = 0; i < nt; ++i) {
        HwThread &t = threads_[i];
        if (t.rob.size() >= robCapacity())
            t.stats.robFullCycles += n;
        if (from < t.fetchStallUntil)
            t.stats.fetchBubbleCycles +=
                std::min<std::uint64_t>(n, t.fetchStallUntil - from);
        if (t.rob.empty() && probes[i] == SrcProbe::None)
            t.stats.idleCycles += n;
        if (!t.rob.empty() && !t.freeSink &&
            !t.sink->canCommit(t.rob.front().inst)) {
            // Refusal stalls count from the cycle the head is ready.
            Cycle readyFrom = std::max(t.rob.front().readyAt, from);
            if (readyFrom < from + n)
                t.stats.sinkStallCycles += from + n - readyFrom;
        }
    }
    commitRr_ = unsigned((commitRr_ + n) % nt);
    dispatchRr_ = unsigned((dispatchRr_ + n) % nt);
}

bool
Core::drained() const
{
    for (const auto &t : threads_) {
        if (!t.rob.empty())
            return false;
    }
    return true;
}

void
Core::resetStats()
{
    for (auto &t : threads_)
        t.stats = ThreadStats{};
    cycles_ = 0;
}

} // namespace fade
