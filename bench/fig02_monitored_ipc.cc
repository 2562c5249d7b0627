/**
 * @file
 * Reproduces Fig. 2 of the paper: the breakdown of application IPC into
 * monitored and unmonitored instructions on an aggressive 4-way OoO
 * core. (a) per-monitor averages across benchmarks; (b) per-benchmark
 * AddrCheck; (c) per-benchmark MemLeak.
 *
 * Paper reference points: memory-tracking monitors have a monitored IPC
 * of up to ~0.4 and propagation trackers up to ~0.68 on average;
 * AddrCheck averages 0.24 and MemLeak 0.68 with bzip at 1.2 and mcf at
 * 0.2; MemLeak's load is ~2.8x AddrCheck's.
 */

#include "bench/common.hh"

using namespace fade;
using namespace fade::bench;

namespace
{

Measured
producerRun(const std::string &monitor, const BenchProfile &prof)
{
    // Producer-side measurement: ideal consumer, unbounded queue, so
    // the application never stalls on monitoring (Section 3.1).
    SystemConfig cfg;
    cfg.perfectConsumer = true;
    cfg.eqCapacity = 0;
    return measure(cfg, monitor, prof);
}

} // namespace

int
main()
{
    header("Fig. 2(a): app IPC split, averaged across benchmarks");
    {
        TextTable t;
        t.header({"monitor", "app IPC", "monitored IPC",
                  "unmonitored IPC", "paper (monitored)"});
        const char *paperMon[] = {"~0.24", "~0.3", "~0.55", "0.68",
                                  "~0.6"};
        unsigned idx = 0;
        for (const auto &mon : paperMonitorNames()) {
            double app = 0, monitored = 0;
            const auto &benches = benchmarksFor(mon);
            for (const auto &b : benches) {
                Measured m = producerRun(mon, findProfile(mon, b).value());
                app += m.run.appIpc;
                monitored += m.run.monitoredIpc;
            }
            app /= benches.size();
            monitored /= benches.size();
            t.row({mon, fmt("%.2f", app), fmt("%.2f", monitored),
                   fmt("%.2f", app - monitored), paperMon[idx++]});
        }
        t.print();
    }

    header("Fig. 2(b): AddrCheck per benchmark (paper avg: 0.24)");
    {
        TextTable t;
        t.header({"bench", "app IPC", "monitored IPC"});
        double avg = 0;
        for (const auto &b : specBenchmarks()) {
            Measured m = producerRun("AddrCheck", specProfile(b));
            avg += m.run.monitoredIpc;
            t.row({b, fmt("%.2f", m.run.appIpc),
                   fmt("%.2f", m.run.monitoredIpc)});
        }
        t.row({"average", "", fmt("%.2f", avg / specBenchmarks().size())});
        t.print();
    }

    header("Fig. 2(c): MemLeak per benchmark "
           "(paper: avg 0.68, bzip 1.2, mcf 0.2)");
    {
        TextTable t;
        t.header({"bench", "app IPC", "monitored IPC"});
        double avg = 0, addrAvg = 0;
        for (const auto &b : specBenchmarks()) {
            Measured m = producerRun("MemLeak", specProfile(b));
            Measured a = producerRun("AddrCheck", specProfile(b));
            avg += m.run.monitoredIpc;
            addrAvg += a.run.monitoredIpc;
            t.row({b, fmt("%.2f", m.run.appIpc),
                   fmt("%.2f", m.run.monitoredIpc)});
        }
        avg /= specBenchmarks().size();
        addrAvg /= specBenchmarks().size();
        t.row({"average", "", fmt("%.2f", avg)});
        t.print();
        std::printf("\nMemLeak/AddrCheck monitored-IPC ratio: %.1fx "
                    "(paper: 2.8x)\n",
                    avg / addrAvg);
    }
    return 0;
}
