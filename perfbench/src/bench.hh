/**
 * @file
 * Shared pieces of the perfbench driver: host clocks, order
 * statistics, the reference kernel, the in-memory span recorder, and
 * the result record every workload fills.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <ctime>
#include <map>
#include <string>
#include <vector>

namespace perfbench
{

/** Command line of one benchmark run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    /** Scratch directory inside the checkout (sockets, traces,
     *  span dumps). */
    std::string workdir;
};

inline double
wallNow()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** CPU seconds consumed by every thread of this process. */
inline double
processCpu()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

inline std::uint64_t
nowNs()
{
    return std::uint64_t(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** Median (mean of the middle pair for even counts); 0 when empty. */
inline double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank percentile @p p (0..100) of @p v; 0 when empty. */
inline double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t rank = std::size_t(p / 100.0 * double(v.size()) + 0.999999);
    rank = std::min(std::max<std::size_t>(rank, 1), v.size());
    return v[rank - 1];
}

/** The highest percentile of a fixed ladder that still has at least
 *  ten samples beyond it, and its value. */
struct Tail
{
    double pct = 50.0;
    double value = 0.0;
    std::size_t samples = 0;
};

inline Tail
tailOf(const std::vector<double> &v)
{
    Tail t;
    t.samples = v.size();
    for (double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
        if (double(v.size()) * (1.0 - p / 100.0) >= 10.0 || p == 50.0) {
            t.pct = p;
            break;
        }
    }
    t.value = percentile(v, t.pct);
    return t;
}

/**
 * Fixed reference kernel, run interleaved with the measured work so
 * every result can be read against the host's speed at that moment.
 * It is built only from this file's code (a PCG32 stream driving an
 * open-addressing hash set), so no change to the simulator can move
 * it. @return nanoseconds per kernel operation.
 */
double refKernelNs();

/**
 * The reference kernel's ns/op the end-to-end metrics are scaled to.
 * Host speed in a shared VM drifts by a fifth or more over tens of
 * seconds, moving the simulator and the kernel together; every
 * host-time metric is therefore reported as measured times
 * kNominalRefNs / (kernel ns/op measured next to it): the value the
 * run would have read with the kernel at 120 ns/op, its typical speed
 * on the 4-vCPU Intel Xeon VM the bounds were measured on. Raw values
 * and the kernel's median are printed on the detail line.
 */
constexpr double kNominalRefNs = 120.0;

/** Host-speed scale of sample @p i of a series of kernel samples
 *  taken between measured operations: kNominalRefNs over the median
 *  of the samples within @p half places of it. */
inline double
hostScale(const std::vector<double> &refNs, std::size_t i,
          std::size_t half = 4)
{
    std::size_t lo = i > half ? i - half : 0;
    std::size_t hi = std::min(refNs.size(), i + half + 1);
    return kNominalRefNs /
           median(std::vector<double>(refNs.begin() + lo,
                                      refNs.begin() + hi));
}

/** One recorded span: a timed call into a layer. */
struct Span
{
    const char *name = "";
    std::uint64_t t0 = 0;
    std::uint64_t t1 = 0;
    /** Index of the enclosing span in the same recorder, or -1. */
    std::int64_t parent = -1;
    /** Session (daemon) or repetition (simulator) the span served. */
    std::uint64_t session = 0;
};

/**
 * In-memory span recorder. One recorder per thread; spans nest
 * through begin()/end() pairs (use Scope). Spans are only written out
 * (dump()) after the measurement ends.
 */
class Tracer
{
  public:
    explicit Tracer(bool on = true) : on_(on) {}

    std::int64_t
    begin(const char *name, std::uint64_t session)
    {
        if (!on_)
            return -1;
        Span s;
        s.name = name;
        s.parent = open_;
        s.session = session;
        spans_.push_back(s);
        open_ = std::int64_t(spans_.size() - 1);
        spans_.back().t0 = nowNs();
        return open_;
    }

    void
    end(std::int64_t id)
    {
        if (id < 0)
            return;
        Span &s = spans_[std::size_t(id)];
        s.t1 = nowNs();
        open_ = s.parent;
    }

    /** Append another recorder's spans (parents re-based). */
    void merge(const Tracer &o);

    /** Total duration (ns) of the spans named @p name. */
    double totalNs(const std::string &name) const;
    /** Durations (ns) of every span named @p name. */
    std::vector<double> durations(const std::string &name) const;

    /** Write every span as one JSON line to @p path, with its self
     *  time: its duration minus the time its direct children cover. */
    bool dump(const std::string &path) const;

  private:
    bool on_;
    std::vector<Span> spans_;
    std::int64_t open_ = -1;
};

/** RAII span: begins on construction, ends on destruction. */
class Scope
{
  public:
    Scope(Tracer &t, const char *name, std::uint64_t session = 0)
        : t_(t), id_(t.begin(name, session))
    {}
    ~Scope() { t_.end(id_); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer &t_;
    std::int64_t id_;
};

/** A named metric value with its unit. */
struct Metric
{
    double value = 0.0;
    std::string unit;
};

/** What one workload run reports. */
struct Result
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Printed in the result line (end-to-end or per-layer set). */
    std::map<std::string, Metric> metrics;
    /** Context printed on the line before the result: reference
     *  kernel, tail percentile, sample counts, gate outcomes. */
    std::map<std::string, double> detail;
    std::vector<std::string> notes;

    void
    check(bool ok, const std::string &what)
    {
        ++attempted;
        if (!ok) {
            ++failed;
            notes.push_back("MISMATCH: " + what);
        }
    }
    void set(const std::string &name, double v, const char *unit)
    {
        metrics[name] = Metric{v, unit};
    }
};

// ----------------------------------------------------------- workloads
// Each returns after filling @p r; see BENCHMARK.json for what they
// measure and why they exist.

void runSpecPerCycle(const Options &o, Result &r);
void runSpecRunGrain(const Options &o, Result &r);
void runCmpParallel(const Options &o, Result &r);
void runDaemonMix(const Options &o, Result &r);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
