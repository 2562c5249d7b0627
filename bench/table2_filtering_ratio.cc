/**
 * @file
 * Reproduces Table 2 of the paper: FADE's filtering efficiency — the
 * fraction of instruction event handlers elided by hardware (fully
 * filtered events plus partial-filtering events whose hardware check
 * passed, replacing the full handler with the short update handler).
 *
 * Paper: AddrCheck 99.5%, AtomCheck 85.5%, MemCheck 98.0%,
 * MemLeak 87.0%, TaintCheck 84.0%.
 */

#include "bench/common.hh"

using namespace fade;
using namespace fade::bench;

int
main()
{
    header("Table 2: FADE filtering efficiency (average across "
           "benchmarks)");
    TextTable t;
    t.header({"monitor", "measured", "paper", "CC share", "RU share",
              "partial share"});
    const std::map<std::string, const char *> paper = {
        {"AddrCheck", "99.5%"}, {"AtomCheck", "85.5%"},
        {"MemCheck", "98.0%"},  {"MemLeak", "87.0%"},
        {"TaintCheck", "84.0%"},
    };
    for (const auto &mon : paperMonitorNames()) {
        double ratio = 0, cc = 0, ru = 0, pp = 0;
        const auto &benches = benchmarksFor(mon);
        for (const auto &b : benches) {
            SystemConfig cfg;
            Measured m = measure(cfg, mon, findProfile(mon, b).value());
            ratio += m.filtering;
            double n = double(m.fadeStats.instEvents);
            if (n > 0) {
                cc += m.fadeStats.filteredCC / n;
                ru += m.fadeStats.filteredRU / n;
                pp += m.fadeStats.partialPass / n;
            }
        }
        unsigned n = unsigned(benches.size());
        t.row({mon, fmtPct(ratio / n), paper.at(mon), fmtPct(cc / n),
               fmtPct(ru / n), fmtPct(pp / n)});
    }
    t.print();
    return 0;
}
