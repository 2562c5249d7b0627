/**
 * @file
 * Reproduces Fig. 4 of the paper: (a) the monitors' execution-time
 * breakdown into stack updates and instruction handlers (clean-check
 * style vs redundant-update style); (b) the cumulative distribution of
 * distances between unfiltered events for MemLeak; (c) unfiltered burst
 * sizes for every monitor/benchmark pair.
 *
 * Paper reference points: instructions dominate the profile, but stack
 * updates consume up to ~17% of time in two of the five monitors; two
 * unfiltered events are typically separated by at most 16 filterable
 * events; bursts average 16 or fewer unfiltered events for the
 * majority of monitor/benchmark pairs.
 */

#include "bench/common.hh"

using namespace fade;
using namespace fade::bench;

int
main()
{
    header("Fig. 4(a): monitor execution-time breakdown "
           "(unaccelerated; handler instructions by class)");
    {
        TextTable t;
        t.header({"monitor", "stack updates", "instr: RU-style",
                  "instr: CC-style", "high-level"});
        for (const auto &mon : monitorNames()) {
            std::array<double, 4> acc{};
            const auto &benches = benchmarksFor(mon);
            for (const auto &b : benches) {
                SystemConfig cfg;
                cfg.accelerated = false;
                auto m = makeMonitor(mon);
                MonitoringSystem sys(cfg, findProfile(mon, b).value(),
                                     m.get());
                sys.warmup(warmupInsts);
                sys.run(measureInsts);
                const auto &s = sys.monitorProcess()->stats();
                double tot = double(s.instructions);
                if (tot == 0)
                    continue;
                acc[0] += s.instrByClass[unsigned(
                              HandlerClass::StackUpdate)] / tot;
                acc[1] +=
                    s.instrByClass[unsigned(HandlerClass::Update)] / tot;
                acc[2] += s.instrByClass[unsigned(
                              HandlerClass::CheckOnly)] / tot;
                acc[3] += s.instrByClass[unsigned(
                              HandlerClass::HighLevel)] / tot;
            }
            for (auto &v : acc)
                v /= benches.size();
            t.row({mon, fmtPct(acc[0]), fmtPct(acc[1]), fmtPct(acc[2]),
                   fmtPct(acc[3])});
        }
        t.print();
        std::printf("\npaper: stack updates up to ~17%% for two of the "
                    "five monitors; instructions dominate.\n\n");
    }

    header("Fig. 4(b): CDF of distance between unfiltered events, "
           "MemLeak (paper: typically <= 16)");
    {
        TextTable t;
        std::vector<std::uint64_t> pts = {0, 1, 2, 4, 8, 16, 32, 64, 128};
        std::vector<std::string> hdr = {"bench"};
        for (auto p : pts)
            hdr.push_back("<=" + std::to_string(p));
        t.header(hdr);
        for (const auto &b : specBenchmarks()) {
            SystemConfig cfg;
            Measured m = measure(cfg, "MemLeak", specProfile(b));
            std::vector<std::string> row = {b};
            for (auto p : pts)
                row.push_back(
                    fmt("%.0f", m.fadeStats.unfDistance.cdfAt(p) * 100.0) +
                    "%");
            t.row(row);
        }
        t.print();
        std::printf("\n");
    }

    header("Fig. 4(c): average unfiltered burst size "
           "(<=16-distance rule; paper: <= 16 for most pairs)");
    {
        TextTable t;
        // Use the union of benchmark suites as columns.
        std::vector<std::string> cols = specBenchmarks();
        cols.insert(cols.end(), parallelBenchmarks().begin(),
                    parallelBenchmarks().end());
        std::vector<std::string> hdr = {"monitor"};
        hdr.insert(hdr.end(), cols.begin(), cols.end());
        t.header(hdr);
        for (const auto &mon : monitorNames()) {
            std::vector<std::string> row = {mon};
            const auto &benches = benchmarksFor(mon);
            for (const auto &b : cols) {
                if (std::find(benches.begin(), benches.end(), b) ==
                    benches.end()) {
                    row.push_back("-");
                    continue;
                }
                SystemConfig cfg;
                Measured m = measure(cfg, mon, findProfile(mon, b).value());
                double avg =
                    m.fadeStats.unfBurst.total()
                        ? double(m.fadeStats.unfDistance.total()) /
                              m.fadeStats.unfBurst.total()
                        : 0.0;
                row.push_back(fmt("%.0f", avg));
            }
            t.row(row);
        }
        t.print();
        std::printf("\n(avg burst = software-bound events / bursts; "
                    "AtomCheck's partial filtering sends every event to "
                    "software, giving its very large bursts, matching "
                    "the paper's tallest bars.)\n");
    }
    return 0;
}
