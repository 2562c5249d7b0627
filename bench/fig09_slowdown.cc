/**
 * @file
 * Reproduces Fig. 9 of the paper: monitoring slowdown of FADE versus
 * the unaccelerated system, on a single dual-threaded 4-way OoO core,
 * normalized to the unmonitored system.
 *
 * Paper reference points: unaccelerated averages 4.1x across monitors
 * (memory tracking 2.5x, propagation tracking 5.8x); FADE averages 1.5x
 * (1.3x / 1.6x). AddrCheck: unaccelerated 1.2-2.9x (avg 1.6x), FADE
 * 1.2x. MemLeak: unaccelerated 3.4-11.5x (avg 7.4x), FADE 1.8x with
 * astar 2.2x and gcc 3.3x. AtomCheck: unaccelerated 3.9x avg (8.2x
 * max), FADE 1.6x (1.9x max). MemCheck FADE 1.4x; TaintCheck 1.6x.
 */

#include "bench/common.hh"

using namespace fade;
using namespace fade::bench;

int
main()
{
    double allUnacc = 0, allFade = 0;
    double memUnacc = 0, memFade = 0, propUnacc = 0, propFade = 0;
    unsigned memN = 0, propN = 0;

    for (const auto &mon : paperMonitorNames()) {
        header(("Fig. 9: " + mon +
                " slowdown per benchmark (single-core dual-threaded, "
                "4-way OoO)")
                   .c_str());
        TextTable t;
        t.header({"bench", "unaccelerated", "FADE", "filtering"});
        std::vector<double> unacc, fadeX;
        const auto &benches = benchmarksFor(mon);
        for (const auto &b : benches) {
            BenchProfile prof = findProfile(mon, b).value();
            SystemConfig cfgU;
            cfgU.accelerated = false;
            Measured mu = measure(cfgU, mon, prof);
            SystemConfig cfgF;
            Measured mf = measure(cfgF, mon, prof);
            unacc.push_back(mu.slowdown);
            fadeX.push_back(mf.slowdown);
            t.row({b, fmtX(mu.slowdown), fmtX(mf.slowdown),
                   fmtPct(mf.filtering)});
        }
        double gu = geomean(unacc), gf = geomean(fadeX);
        t.row({"gmean", fmtX(gu), fmtX(gf), ""});
        t.print();

        const std::map<std::string, std::pair<const char *, const char *>>
            paper = {
                {"AddrCheck", {"1.6x (1.2-2.9x)", "1.2x"}},
                {"AtomCheck", {"3.9x (max 8.2x)", "1.6x (max 1.9x)"}},
                {"MemCheck", {"(propagation ~5.8x)", "1.4x"}},
                {"MemLeak", {"7.4x (3.4-11.5x)", "1.8x"}},
                {"TaintCheck", {"(propagation ~5.8x)", "1.6x"}},
            };
        std::printf("paper: unaccelerated %s, FADE %s\n\n",
                    paper.at(mon).first, paper.at(mon).second);

        allUnacc += gu;
        allFade += gf;
        bool memTrk = mon == "AddrCheck" || mon == "AtomCheck";
        if (memTrk) {
            memUnacc += gu;
            memFade += gf;
            ++memN;
        } else {
            propUnacc += gu;
            propFade += gf;
            ++propN;
        }
    }

    header("Fig. 9 summary");
    TextTable t;
    t.header({"class", "unaccelerated", "FADE", "paper unacc",
              "paper FADE"});
    t.row({"memory tracking", fmtX(memUnacc / memN), fmtX(memFade / memN),
           "2.5x", "1.3x"});
    t.row({"propagation tracking", fmtX(propUnacc / propN),
           fmtX(propFade / propN), "5.8x", "1.6x"});
    t.row({"all monitors", fmtX(allUnacc / 5), fmtX(allFade / 5), "4.1x",
           "1.5x"});
    t.print();
    return 0;
}
