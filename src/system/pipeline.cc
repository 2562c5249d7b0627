#include "system/pipeline.hh"

#include <algorithm>

#include "monitor/process.hh"
#include "system/producer.hh"

namespace fade
{

PipelineDriver::PipelineDriver(MonitoringSystem &sys)
    : sys_(sys),
      appCore_(sys.appCore_.get()),
      monCore_(sys.monCore_.get()),
      fades_(sys.fades_.get()),
      eq_(&sys.eq_),
      producer_(sys.producer_.get()),
      mproc_(sys.mproc_.get()),
      monOnApp_(sys.mproc_ && !sys.monCore_),
      monReadsEq_(!sys.cfg_.accelerated),
      perfect_(sys.cfg_.perfectConsumer),
      appProbe_(sys.replay_ ? SrcProbe::Effectful : SrcProbe::Pure)
{
}

SrcProbe
PipelineDriver::monProbe() const
{
    if (!mproc_)
        return SrcProbe::None;
    // A probe must hold for the whole cycle. Pure never does for the
    // monitor process: even with instructions currently fetchable, a
    // handler can drain mid-cycle, after which the next availability
    // call pops the input queue — so any fetchable/poppable state must
    // keep the real calls (Effectful).
    if (mproc_->fetchPending())
        return SrcProbe::Effectful;
    // Unaccelerated systems feed the monitor from the event queue,
    // which the application thread can grow within the same core tick
    // (commit slots precede dispatch slots); the availability call must
    // then really be made.
    if (monReadsEq_)
        return SrcProbe::Effectful;
    // Accelerated: the unfiltered event queue only changes between
    // core ticks (FADE runs after the core), so the pre-tick state
    // decides: with an empty input and no fetchable instructions,
    // available() is false for the whole cycle with no side effects.
    return mproc_->inputEmpty() ? SrcProbe::None : SrcProbe::Effectful;
}

bool
PipelineDriver::tryJump(Cycle end, const SrcProbe *appProbes,
                        const SrcProbe *monProbes)
{
    Cycle now = sys_.now_;
    FadeGroupStallProfile fp;
    fp.active = false;
    if (fades_) {
        fp = fades_->stallProfile(now);
        if (fp.active)
            return false;
    }
    // The perfect consumer's pops can lift producer backpressure, so a
    // full event queue pins the refusal-frozen argument only without
    // it.
    if (perfect_ && eq_->full())
        return false;

    Cycle wake = appCore_->nextActivity(now, appProbes);
    if (wake <= now)
        return false;
    if (monCore_) {
        Cycle mw = monCore_->nextActivity(now, monProbes);
        if (mw <= now)
            return false;
        wake = std::min(wake, mw);
    }
    if (fades_)
        wake = std::min(wake, fp.wakeAt);
    wake = std::min(wake, end);
    if (wake <= now)
        return false;

    std::uint64_t n = wake - now;
    appCore_->skipCycles(now, n, appProbes);
    if (fades_)
        fades_->skipCycles(fp, n);
    if (monCore_)
        monCore_->skipCycles(now, n, monProbes);
    if (perfect_)
        sys_.perfectConsumed_ += eq_->popRun(n);
    sys_.now_ = wake;
    stats_.skippedCycles += n;
    ++stats_.jumps;
    return true;
}

std::uint64_t
PipelineDriver::runUntil(std::uint64_t maxCycles,
                         std::uint64_t targetRetired)
{
    Cycle start = sys_.now_;
    Cycle end = start + maxCycles;
    // The application thread's probe is fixed for the source (see
    // appProbe_); the monitor thread's probe is refreshed every cycle.
    SrcProbe appProbes[2] = {appProbe_, SrcProbe::None};
    SrcProbe monProbes[2] = {SrcProbe::Pure, SrcProbe::None};
    // Whether the previous fused cycle performed any commit/dispatch;
    // a jump can only become possible after a do-nothing cycle.
    bool quiet = false;

    while (sys_.now_ < end && producer_->retired() < targetRetired) {
        // The monitor's probe is valid for the components that tick
        // before its input can change: the app core ticks before FADE,
        // so a pre-cycle probe holds for the SMT thread; the monitor
        // core ticks after FADE, so its probe is refreshed below. For
        // jump eligibility a pre-cycle probe is always valid — a jump
        // requires FADE inert, so no push can intervene.
        if (monOnApp_)
            appProbes[1] = monProbe();
        else if (monCore_)
            monProbes[0] = monProbe();

        if (quiet && tryJump(end, appProbes, monProbes))
            continue;

        // Fused step: exactly tickOnce()'s component order.
        Cycle now = sys_.now_;
        unsigned act = appCore_->tick(now, appProbes);
        if (fades_)
            fades_->tick(now);
        if (monCore_) {
            monProbes[0] = monProbe();
            act += monCore_->tick(now, monProbes);
        }
        if (perfect_ && !eq_->empty()) {
            eq_->pop();
            ++sys_.perfectConsumed_;
        }
        ++sys_.now_;
        ++stats_.fusedCycles;
        quiet = act == 0;
    }
    return sys_.now_ - start;
}

} // namespace fade
