/**
 * @file
 * Reproduces Fig. 11 of the paper:
 *  (a) single-core dual-threaded vs two-core FADE-enabled systems
 *      (paper: two-core wins by 15% on average, 28% max);
 *  (b) two-core utilization breakdown — app core idle (event queue
 *      backpressure), monitor core idle (everything filtered), or both
 *      utilized (paper: one core idle 48-97% of the time, both busy
 *      only 22% on average);
 *  (c) Non-Blocking vs baseline (blocking) FADE (paper: ~2x for
 *      AtomCheck/MemLeak/TaintCheck whose filtering ratio is <87%, and
 *      ~1.1x for AddrCheck/MemCheck at >98%).
 */

#include "bench/common.hh"

using namespace fade;
using namespace fade::bench;

int
main()
{
    header("Fig. 11(a): single-core (dual-threaded) vs two-core, "
           "both FADE-enabled (gmean slowdown)");
    {
        TextTable t;
        t.header({"monitor", "single-core", "two-core", "two-core gain"});
        double gainAcc = 0, gainMax = 0;
        for (const auto &mon : paperMonitorNames()) {
            std::vector<double> sc, tc;
            for (const auto &b : benchmarksFor(mon)) {
                BenchProfile prof = findProfile(mon, b).value();
                SystemConfig cfgS;
                Measured ms = measure(cfgS, mon, prof);
                SystemConfig cfgT;
                cfgT.twoCore = true;
                Measured mt = measure(cfgT, mon, prof);
                sc.push_back(ms.slowdown);
                tc.push_back(mt.slowdown);
                gainMax = std::max(gainMax,
                                   ms.slowdown / mt.slowdown - 1.0);
            }
            double gs = geomean(sc), gt = geomean(tc);
            gainAcc += gs / gt - 1.0;
            t.row({mon, fmtX(gs), fmtX(gt), fmtPct(gs / gt - 1.0)});
        }
        t.print();
        std::printf("\naverage two-core gain: %.0f%% | max per-pair gain:"
                    " %.0f%% (paper: 15%% avg, 28%% max)\n\n",
                    gainAcc / 5 * 100.0, gainMax * 100.0);
    }

    header("Fig. 11(b): two-core utilization breakdown "
           "(paper: both cores busy only ~22% on average)");
    {
        TextTable t;
        t.header({"monitor", "app core idle (EQ full)",
                  "monitor core idle", "both utilized"});
        double bothAvg = 0;
        for (const auto &mon : paperMonitorNames()) {
            double appIdle = 0, monIdle = 0, both = 0;
            const auto &benches = benchmarksFor(mon);
            for (const auto &b : benches) {
                SystemConfig cfg;
                cfg.twoCore = true;
                auto m = makeMonitor(mon);
                MonitoringSystem sys(cfg, findProfile(mon, b).value(),
                                     m.get());
                sys.warmup(warmupInsts);
                RunResult r = sys.run(measureInsts);
                double ai = double(r.appStallCycles) / r.cycles;
                double mi = double(r.monIdleCycles) / r.cycles;
                if (ai + mi > 1.0) {
                    double s = ai + mi;
                    ai /= s;
                    mi /= s;
                }
                appIdle += ai;
                monIdle += mi;
                both += std::max(0.0, 1.0 - ai - mi);
            }
            unsigned n = unsigned(benches.size());
            bothAvg += both / n;
            t.row({mon, fmtPct(appIdle / n), fmtPct(monIdle / n),
                   fmtPct(both / n)});
        }
        t.print();
        std::printf("\naverage both-utilized: %.0f%% (paper: 22%%)\n\n",
                    bothAvg / 5 * 100.0);
    }

    header("Fig. 11(c): Non-Blocking vs baseline (blocking) FADE "
           "(gmean slowdown)");
    {
        TextTable t;
        t.header({"monitor", "blocking", "non-blocking", "benefit",
                  "paper benefit"});
        const std::map<std::string, const char *> paper = {
            {"AddrCheck", "~1.1x"}, {"AtomCheck", "~2x"},
            {"MemCheck", "~1.1x"},  {"MemLeak", "~2x"},
            {"TaintCheck", "~2x"},
        };
        for (const auto &mon : paperMonitorNames()) {
            std::vector<double> blk, nbk;
            for (const auto &b : benchmarksFor(mon)) {
                BenchProfile prof = findProfile(mon, b).value();
                SystemConfig cfgB;
                cfgB.fade.nonBlocking = false;
                Measured mb = measure(cfgB, mon, prof);
                SystemConfig cfgN;
                Measured mn = measure(cfgN, mon, prof);
                blk.push_back(mb.slowdown);
                nbk.push_back(mn.slowdown);
            }
            double gb = geomean(blk), gn = geomean(nbk);
            t.row({mon, fmtX(gb), fmtX(gn), fmtX(gb / gn),
                   paper.at(mon)});
        }
        t.print();
    }
    return 0;
}
