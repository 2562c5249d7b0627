/**
 * @file
 * Calibration harness (development tool): prints per-benchmark,
 * per-monitor headline numbers — app IPC, monitored IPC, filtering
 * ratio, and slowdowns — so profile constants can be tuned against the
 * paper's reported values. Not one of the reproduced figures, but kept
 * as a convenient overview binary.
 */

#include <cstdio>
#include <memory>

#include "bench/common.hh"

using namespace fade;

namespace
{

constexpr std::uint64_t warmN = 30000;
constexpr std::uint64_t runN = 120000;

struct Line
{
    double appIpc;
    double monIpc;
    double filtering;
    double slowUnacc;
    double slowFade;
};

Line
measure(const std::string &mon, const BenchProfile &prof)
{
    Line ln{};

    // Unmonitored baseline.
    SystemConfig base;
    base.accelerated = false;
    MonitoringSystem sysBase(base, prof, nullptr);
    sysBase.warmup(warmN);
    RunResult rb = sysBase.run(runN);

    // Producer-side measurement (ideal consumer, unbounded queue).
    {
        SystemConfig cfg;
        cfg.perfectConsumer = true;
        cfg.eqCapacity = 0;
        auto m = makeMonitor(mon);
        MonitoringSystem sys(cfg, prof, m.get());
        sys.warmup(warmN);
        RunResult r = sys.run(runN);
        ln.appIpc = r.appIpc;
        ln.monIpc = r.monitoredIpc;
    }

    // Unaccelerated single-core dual-threaded.
    {
        SystemConfig cfg;
        cfg.accelerated = false;
        auto m = makeMonitor(mon);
        MonitoringSystem sys(cfg, prof, m.get());
        sys.warmup(warmN);
        RunResult r = sys.run(runN);
        ln.slowUnacc = double(r.cycles) / rb.cycles;
    }

    // FADE single-core dual-threaded.
    {
        SystemConfig cfg;
        cfg.accelerated = true;
        auto m = makeMonitor(mon);
        MonitoringSystem sys(cfg, prof, m.get());
        sys.warmup(warmN);
        RunResult r = sys.run(runN);
        ln.slowFade = double(r.cycles) / rb.cycles;
        ln.filtering = sys.fade()->stats().filteringRatio();
    }
    return ln;
}

} // namespace

int
main()
{
    std::printf("== calibration overview ==\n");
    for (const auto &mon : monitorNames()) {
        TextTable t;
        t.header({"bench", "appIPC", "monIPC", "filter%", "unaccX",
                  "fadeX"});
        for (const auto &b : bench::benchmarksFor(mon)) {
            Line ln = measure(mon, findProfile(mon, b).value());
            t.row({b, fmt("%.2f", ln.appIpc), fmt("%.2f", ln.monIpc),
                   fmtPct(ln.filtering), fmtX(ln.slowUnacc),
                   fmtX(ln.slowFade)});
        }
        std::printf("\n-- %s --\n", mon.c_str());
        t.print();
    }
    return 0;
}
