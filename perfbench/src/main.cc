/**
 * @file
 * perfbench — one benchmark for the FADE simulator and the faded
 * daemon. Normally started through perfbench/run.py, which builds it:
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             --workdir DIR
 *
 * Runs one workload for S seconds and prints, as its last line, one
 * JSON object: correct, attempted and failed operation counts, and
 * the end-to-end metrics (--trace 0) or the per-layer metrics of a
 * traced run (--trace 1). The line before it carries the context
 * (reference kernel, raw values, tail percentile, sample count), and
 * every mismatch is printed before both. DIR receives the daemon's
 * socket and log, captured traces and the traced run's spans.
 */

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "bench.hh"

using namespace perfbench;

namespace
{

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload spec_percycle|"
                 "spec_rungrain|cmp_parallel|daemon_mix\n"
                 "                 --seed N --seconds S --trace 0|1 "
                 "--workdir DIR\n");
    return 2;
}

void
printNumber(double v)
{
    if (std::isfinite(v))
        std::printf("%.17g", v);
    else
        std::printf("0");
}

void
printResult(const Result &r)
{
    std::printf("{\"detail\": {");
    const char *sep = "";
    for (const auto &[name, v] : r.detail) {
        std::printf("%s\"%s\": ", sep, name.c_str());
        printNumber(v);
        sep = ", ";
    }
    std::printf("}}\n");
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": {",
                r.failed == 0 ? "true" : "false", r.attempted, r.failed);
    sep = "";
    for (const auto &[name, m] : r.metrics) {
        std::printf("%s\"%s\": {\"value\": ", sep, name.c_str());
        printNumber(m.value);
        std::printf(", \"unit\": \"%s\"}", m.unit.c_str());
        sep = ", ";
    }
    std::printf("}}\n");
}

} // namespace

int
main(int argc, char **argv)
{
    Options o;
    bool haveSeed = false, haveSeconds = false;
    for (int i = 1; i < argc; ++i) {
        if (i + 1 >= argc)
            return usage();
        const char *v = argv[++i];
        if (!std::strcmp(argv[i - 1], "--workload")) {
            o.workload = v;
        } else if (!std::strcmp(argv[i - 1], "--seed")) {
            o.seed = std::strtoull(v, nullptr, 10);
            haveSeed = true;
        } else if (!std::strcmp(argv[i - 1], "--seconds")) {
            o.seconds = std::strtod(v, nullptr);
            haveSeconds = o.seconds > 0.0 && o.seconds <= 60.0;
        } else if (!std::strcmp(argv[i - 1], "--trace")) {
            o.trace = std::strcmp(v, "0") != 0;
        } else if (!std::strcmp(argv[i - 1], "--workdir")) {
            o.workdir = v;
        } else {
            return usage();
        }
    }
    if (!haveSeed || !haveSeconds || o.workdir.empty())
        return usage();

    Result r;
    try {
        if (o.workload == "spec_percycle")
            runSpecPerCycle(o, r);
        else if (o.workload == "spec_rungrain")
            runSpecRunGrain(o, r);
        else if (o.workload == "cmp_parallel")
            runCmpParallel(o, r);
        else if (o.workload == "daemon_mix")
            runDaemonMix(o, r);
        else
            return usage();
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
    for (const std::string &n : r.notes)
        std::printf("%s\n", n.c_str());
    printResult(r);
    return 0;
}
