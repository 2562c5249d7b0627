/**
 * @file
 * The daemon workload (daemon_mix) and the daemon probe the traced
 * simulator runs use: a real faded process started from the build,
 * DaemonClient sessions against it, and every session's result
 * checked against standaloneRun() of the same configuration.
 */

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <exception>
#include <cmath>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "daemon/client.hh"
#include "daemon/session.hh"
#include "layers.hh"
#include "trace/tracefile.hh"

extern char **environ;

namespace perfbench
{

using namespace fade;
using namespace fade::daemon;

namespace
{

/** faded's pool shape for every run: two workers, and an admission
 *  cap well above the four clients so no session is refused. */
constexpr const char *kWorkers = "2";
constexpr const char *kMaxSessions = "16";
constexpr unsigned kClients = 4;

/** A faded child process, stopped (SIGTERM, drained) and reaped on
 *  destruction. */
class FadedProcess
{
  public:
    FadedProcess(const std::string &socket, const std::string &workdir)
        : socket_(socket)
    {
        std::vector<std::string> args = {
            PERFBENCH_FADED, "--socket",       socket,
            "--workers",     kWorkers,         "--max-sessions",
            kMaxSessions,    "--upload-dir",   workdir};
        std::vector<char *> argv;
        for (std::string &a : args)
            argv.push_back(a.data());
        argv.push_back(nullptr);
        std::string log = workdir + "/faded.log";
        posix_spawn_file_actions_t fa;
        posix_spawn_file_actions_init(&fa);
        posix_spawn_file_actions_addopen(&fa, 1, log.c_str(),
                                         O_WRONLY | O_CREAT | O_APPEND,
                                         0644);
        posix_spawn_file_actions_adddup2(&fa, 1, 2);
        t0_ = wallNow();
        int rc = posix_spawn(&pid_, PERFBENCH_FADED, &fa, nullptr,
                             argv.data(), environ);
        posix_spawn_file_actions_destroy(&fa);
        if (rc != 0) {
            pid_ = -1;
            throw std::runtime_error("cannot start faded");
        }
    }

    ~FadedProcess() { stop(); }

    FadedProcess(const FadedProcess &) = delete;
    FadedProcess &operator=(const FadedProcess &) = delete;

    /** Poll until a handshake succeeds. @return seconds from spawn
     *  to the first successful handshake. */
    double
    waitReady()
    {
        for (;;) {
            try {
                DaemonClient c(socket_, 0);
                double t = wallNow() - t0_;
                c.close();
                return t;
            } catch (const ProtocolError &) {
            }
            int st = 0;
            if (waitpid(pid_, &st, WNOHANG) == pid_) {
                pid_ = -1;
                throw std::runtime_error("faded exited during start-up");
            }
            if (wallNow() - t0_ > 30.0)
                throw std::runtime_error("faded did not accept a "
                                         "handshake within 30 s");
            std::this_thread::sleep_for(std::chrono::microseconds(100));
        }
    }

    /** User + system CPU seconds of every faded thread so far. */
    double
    cpuSeconds() const
    {
        std::ifstream f("/proc/" + std::to_string(pid_) + "/stat");
        std::string line;
        std::getline(f, line);
        std::size_t close = line.rfind(')');
        if (close == std::string::npos)
            return 0.0;
        std::istringstream rest(line.substr(close + 2));
        std::string field;
        double ticks = 0.0;
        // Fields 3.. of proc(5) stat; utime and stime are 14 and 15.
        for (int i = 3; i <= 15 && rest >> field; ++i)
            if (i >= 14)
                ticks += std::stod(field);
        return ticks / double(sysconf(_SC_CLK_TCK));
    }

    /** Peak resident set (VmHWM) of faded, MiB. */
    double
    peakRssMb() const
    {
        std::ifstream f("/proc/" + std::to_string(pid_) + "/status");
        std::string key;
        while (f >> key) {
            if (key == "VmHWM:") {
                double kb = 0.0;
                f >> kb;
                return kb / 1024.0;
            }
            f.ignore(1 << 20, '\n');
        }
        return 0.0;
    }

    /** SIGTERM (faded drains its sessions) and reap. */
    void
    stop()
    {
        if (pid_ <= 0)
            return;
        kill(pid_, SIGTERM);
        int st = 0;
        waitpid(pid_, &st, 0);
        pid_ = -1;
    }

  private:
    std::string socket_;
    pid_t pid_ = -1;
    double t0_ = 0.0;
};

/**
 * Threads that are always joined: join() waits for all of them and
 * rethrows the first exception any of them raised; the destructor
 * joins too, so no exception path destroys a running thread.
 */
class ThreadGroup
{
  public:
    ThreadGroup() = default;
    ~ThreadGroup() { joinAll(); }

    ThreadGroup(const ThreadGroup &) = delete;
    ThreadGroup &operator=(const ThreadGroup &) = delete;

    template <typename Fn>
    void
    spawn(Fn fn)
    {
        threads_.emplace_back([this, fn]() {
            try {
                fn();
            } catch (...) {
                std::lock_guard<std::mutex> lk(m_);
                if (!err_)
                    err_ = std::current_exception();
            }
        });
    }

    void
    join()
    {
        joinAll();
        if (err_)
            std::rethrow_exception(err_);
    }

  private:
    void
    joinAll()
    {
        for (std::thread &t : threads_)
            if (t.joinable())
                t.join();
    }

    std::vector<std::thread> threads_;
    std::mutex m_;
    std::exception_ptr err_;
};

std::string
socketPath(const Options &o)
{
    return o.workdir + "/faded-" + std::to_string(getpid()) + ".sock";
}

/** Key of a session's configuration: a live session's seed offset,
 *  or kUploadKey - k for an upload of trace k. */
constexpr std::uint64_t kUploadKey = ~std::uint64_t(0);

std::uint64_t
uploadKey(std::size_t trace)
{
    return kUploadKey - trace;
}

struct SessionRecord
{
    std::uint64_t key = 0;
    bool upload = false;
    bool ok = false;
    bool rejected = false;
    std::string error;
    double connectS = 0.0, configureS = 0.0, runS = 0.0, latencyS = 0.0;
    ResultInfo result;
};

SessionRecord
runSession(const std::string &socket, const WireSessionConfig &wc,
           const std::string &upload, std::uint64_t key, Tracer &tr,
           std::uint64_t id)
{
    SessionRecord rec;
    rec.upload = wc.upload;
    rec.key = key;
    Scope whole(tr, "daemon.session", id);
    double t0 = wallNow();
    try {
        std::optional<DaemonClient> c;
        {
            Scope s(tr, "daemon.connect", id);
            c.emplace(socket, 5000);
        }
        double t1 = wallNow();
        std::optional<ErrorInfo> rej;
        {
            Scope s(tr, wc.upload ? "daemon.upload" : "daemon.configure",
                    id);
            rej = c->configure(wc, upload);
        }
        double t2 = wallNow();
        if (rej) {
            rec.rejected = true;
            rec.error = std::string(reasonName(rej->reason)) + ": " +
                        rej->message;
            return rec;
        }
        SessionOutcome out;
        {
            Scope s(tr, "daemon.run", id);
            out = c->run();
        }
        double t3 = wallNow();
        c->close();
        rec.connectS = t1 - t0;
        rec.configureS = t2 - t1;
        rec.runS = t3 - t2;
        rec.latencyS = t3 - t0;
        rec.ok = out.ok;
        rec.result = out.result;
        if (!out.ok) {
            rec.rejected = out.error.reason == Reason::AdmissionFull;
            rec.error = std::string(reasonName(out.error.reason)) + ": " +
                        out.error.message;
        }
    } catch (const std::exception &e) {
        rec.error = e.what();
    }
    return rec;
}

/** A standalone reference: result hash and host seconds. */
struct Reference
{
    bool ok = false;
    std::uint64_t hash = 0;
    double seconds = 0.0;
};

Reference
standalone(const WireSessionConfig &wc, const std::string &upload)
{
    Reference ref;
    try {
        double t0 = wallNow();
        ResultInfo res = standaloneRun(wc, upload);
        ref.seconds = wallNow() - t0;
        ref.hash = res.hash;
        ref.ok = true;
    } catch (const std::exception &) {
    }
    return ref;
}

/** Compute standaloneRun() of every configuration in @p keys on up to
 *  four threads; upload keys index @p traces. */
std::map<std::uint64_t, Reference>
references(const std::vector<std::uint64_t> &keys,
           const WireSessionConfig &live, const WireSessionConfig &up,
           const std::vector<std::string> &traces)
{
    std::map<std::uint64_t, Reference> refs;
    for (std::uint64_t k : keys)
        refs[k];
    std::vector<std::map<std::uint64_t, Reference>::iterator> work;
    for (auto it = refs.begin(); it != refs.end(); ++it)
        work.push_back(it);
    std::atomic<std::size_t> next{0};
    auto worker = [&]() {
        for (std::size_t i; (i = next.fetch_add(1)) < work.size();) {
            std::uint64_t key = work[i]->first;
            if (key > kUploadKey - traces.size()) {
                work[i]->second = standalone(up, traces[kUploadKey - key]);
            } else {
                WireSessionConfig wc = live;
                wc.seedOffset = key;
                work[i]->second = standalone(wc, "");
            }
        }
    };
    ThreadGroup threads;
    for (unsigned t = 0; t < kClients; ++t)
        threads.spawn(worker);
    threads.join();
    return refs;
}

/** Check every session against its reference; count rejections. */
void
checkSessions(const std::vector<SessionRecord> &recs,
              const std::map<std::uint64_t, Reference> &refs, Result &r)
{
    for (const SessionRecord &s : recs) {
        const Reference &ref = refs.at(s.key);
        r.check(s.ok && ref.ok && s.result.hash == ref.hash,
                std::string(s.upload ? "upload" : "live") +
                    " session (key " + std::to_string(s.key) + ") " +
                    (s.ok ? "result differs from standaloneRun()"
                          : "failed: " + s.error));
    }
}

/** daemon.* per-layer metrics from completed sessions. */
void
daemonLayers(const std::vector<SessionRecord> &recs,
             const std::map<std::uint64_t, Reference> &refs,
             LayerReport &l)
{
    std::vector<double> connect, configure, upload, run, overhead;
    double quanta = 0.0, done = 0.0;
    l.parks = l.rejects = 0.0;
    for (const SessionRecord &s : recs) {
        l.rejects += s.rejected;
        if (!s.ok)
            continue;
        connect.push_back(s.connectS);
        (s.upload ? upload : configure).push_back(s.configureS);
        run.push_back(s.runS);
        overhead.push_back(s.runS - refs.at(s.key).seconds);
        quanta += double(s.result.quanta);
        l.parks += double(s.result.parks);
        done += 1.0;
    }
    l.connectMs = median(connect) * 1e3;
    l.configureMs = median(configure) * 1e3;
    l.uploadMs = median(upload) * 1e3;
    l.runMs = median(run) * 1e3;
    l.overheadMs = median(overhead) * 1e3;
    l.quanta = done > 0.0 ? quanta / done : 0.0;
}

/** The upload session of a captured trace: budget, seeds and shape
 *  come from the trace's manifest. */
WireSessionConfig
uploadConfig(const WireSessionConfig &like)
{
    WireSessionConfig up;
    up.upload = true;
    up.policy = like.policy;
    up.engine = like.engine;
    return up;
}

} // namespace

void
daemonProbe(const Options &o, const WireSessionConfig &live,
            const std::string &capturePath, Tracer &tr, LayerReport &l,
            Result &r)
{
    WireSessionConfig up = uploadConfig(live);
    std::map<std::uint64_t, Reference> refs;
    refs[live.seedOffset] = standalone(live, "");
    refs[uploadKey(0)] = standalone(up, capturePath);
    std::string sock = socketPath(o);
    std::vector<SessionRecord> recs;
    {
        FadedProcess faded(sock, o.workdir);
        faded.waitReady();
        recs.push_back(
            runSession(sock, live, "", live.seedOffset, tr, 0));
        recs.push_back(
            runSession(sock, up, capturePath, uploadKey(0), tr, 1));
    }
    checkSessions(recs, refs, r);
    daemonLayers(recs, refs, l);
}

namespace
{

/** daemon_mix's shapes. A live session: one shard, run-grain,
 *  MemLeak on bzip. The upload replays a two-shard capture whose
 *  shards are shorter than a live session by about what the upload
 *  itself costs, so both kinds of session take about as long and a
 *  quarter of the sessions are uploads. */
constexpr std::uint64_t kWarm = 10000;
constexpr std::uint64_t kMeasure = 40000;
constexpr std::uint64_t kUploadWarm = 5000;
constexpr std::uint64_t kUploadMeasure = 15000;
/** Stride between the seed offsets of consecutive live sessions. */
constexpr std::uint64_t kOffsetStride = 7919;
/** Upload traces per run (the upload client cycles through them), so
 *  the upload share of the load is not one seed's stream. */
constexpr std::size_t kUploadTraces = 4;
constexpr unsigned kSetupStarts = 15;
/** The load runs in rounds of about this length, each scaled by the
 *  reference kernel sampled during it. The kernel runs beside the
 *  load: sampled in idle gaps instead, it moved half again as much as
 *  the daemon's throughput did. */
constexpr double kRoundSeconds = 2.5;
/** Kernel samples before each daemon start (setup_s). */
constexpr unsigned kQuietSamples = 3;

WireSessionConfig
liveTemplate()
{
    WireSessionConfig wc;
    wc.monitor = "MemLeak";
    wc.profiles = {"bzip"};
    wc.engine = std::uint8_t(Engine::RunGrain);
    wc.warmup = kWarm;
    wc.measure = kMeasure;
    return wc;
}

/** Median of a few kernel samples taken back to back. */
double
quietRefNs()
{
    std::vector<double> v;
    for (unsigned k = 0; k < kQuietSamples; ++k)
        v.push_back(refKernelNs());
    return median(v);
}

struct Round
{
    std::vector<SessionRecord> recs;
    double wall = 0.0;
    double fadedCpu = 0.0;
    /** Median reference kernel ns/op during the round. */
    double refNs = kNominalRefNs;

    double scale() const { return kNominalRefNs / refNs; }
};

struct LoopOut
{
    std::vector<Round> rounds;
    std::vector<double> refNs;

    std::vector<SessionRecord>
    records() const
    {
        std::vector<SessionRecord> v;
        for (const Round &r : rounds)
            v.insert(v.end(), r.recs.begin(), r.recs.end());
        return v;
    }
};

/**
 * One round of the closed loop: kClients threads, each submitting its
 * next session as soon as the previous one returned, until @p seconds
 * have passed. The last client uploads one of @p traces every time,
 * so a quarter of the load is upload replays and never more than one
 * is in flight; the others run live sessions, each with its own seed
 * offset. Session indices continue from @p next across rounds.
 */
Round
runRound(const Options &o, FadedProcess &faded, const std::string &sock,
         const WireSessionConfig &live, const WireSessionConfig &up,
         const std::vector<std::string> &traces, double seconds,
         std::atomic<std::uint64_t> &next, std::vector<Tracer> &tracers)
{
    Round out;
    std::vector<std::vector<SessionRecord>> recs(kClients);
    double cpu0 = faded.cpuSeconds();
    double t0 = wallNow();
    double deadline = t0 + seconds;
    ThreadGroup threads;
    for (unsigned c = 0; c < kClients; ++c) {
        threads.spawn([&, c]() {
            while (wallNow() < deadline) {
                std::uint64_t i = next.fetch_add(1);
                if (c == kClients - 1) {
                    std::size_t k = i % traces.size();
                    recs[c].push_back(runSession(sock, up, traces[k],
                                                 uploadKey(k), tracers[c],
                                                 i));
                } else {
                    WireSessionConfig wc = live;
                    wc.seedOffset = o.seed + kOffsetStride * i;
                    recs[c].push_back(runSession(sock, wc, "",
                                                 wc.seedOffset, tracers[c],
                                                 i));
                }
            }
        });
    }
    // The kernel samples run beside the load, every 50 ms.
    std::vector<double> refNs;
    do {
        refNs.push_back(refKernelNs());
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    } while (wallNow() < deadline);
    threads.join();
    out.wall = wallNow() - t0;
    out.fadedCpu = faded.cpuSeconds() - cpu0;
    out.refNs = median(refNs);
    for (unsigned c = 0; c < kClients; ++c)
        out.recs.insert(out.recs.end(), recs[c].begin(), recs[c].end());
    return out;
}

/** The closed loop for @p seconds, in rounds. */
LoopOut
closedLoop(const Options &o, FadedProcess &faded, const std::string &sock,
           const WireSessionConfig &live, const WireSessionConfig &up,
           const std::vector<std::string> &traces, double seconds,
           std::atomic<std::uint64_t> &next, bool traced, Tracer &merged)
{
    LoopOut out;
    std::vector<Tracer> tracers(kClients, Tracer(traced));
    unsigned rounds =
        std::max(1u, unsigned(std::lround(seconds / kRoundSeconds)));
    for (unsigned k = 0; k < rounds; ++k) {
        out.rounds.push_back(runRound(o, faded, sock, live, up, traces,
                                      seconds / rounds, next, tracers));
        out.refNs.push_back(out.rounds.back().refNs);
    }
    for (const Tracer &t : tracers)
        merged.merge(t);
    return out;
}

std::vector<std::uint64_t>
keysOf(const std::vector<SessionRecord> &recs)
{
    std::vector<std::uint64_t> keys;
    for (const SessionRecord &s : recs)
        keys.push_back(s.key);
    return keys;
}

/** End-to-end figures of a loop, host times scaled round by round. */
EndToEnd
loopFigures(const LoopOut &l)
{
    EndToEnd e;
    double ok = 0.0, insts = 0.0, wall = 0.0, rawWall = 0.0, cpu = 0.0;
    std::vector<double> raw;
    for (const Round &r : l.rounds) {
        wall += r.wall * r.scale();
        rawWall += r.wall;
        cpu += r.fadedCpu * r.scale();
        for (const SessionRecord &s : r.recs) {
            if (!s.ok)
                continue;
            ok += 1.0;
            insts += double(s.result.instructions);
            e.latencies.push_back(s.latencyS * r.scale());
            raw.push_back(s.latencyS);
        }
    }
    e.sessionsPerS = ok / wall;
    e.minstPerS = insts / wall / 1e6;
    e.cpuS = ok > 0.0 ? cpu / ok : 0.0;
    e.refNs = l.refNs;
    e.rawMinstPerS = insts / rawWall / 1e6;
    e.rawP50S = median(raw);
    return e;
}

} // namespace

void
runDaemonMix(const Options &o, Result &r)
{
    const WireSessionConfig live = liveTemplate();

    // Set-up: capture the two-shard traces the upload sessions replay.
    std::vector<std::string> traces;
    for (std::size_t k = 0; k < kUploadTraces; ++k) {
        WireSessionConfig src = live;
        src.profiles = {"bzip", "astar"};
        src.shards = 2;
        src.warmup = kUploadWarm;
        src.measure = kUploadMeasure;
        src.seedOffset = o.seed * kUploadTraces + k;
        traces.push_back(o.workdir + "/daemon_mix-" + std::to_string(k) +
                         ".ftrace");
        captureRun(sessionPlan(src).cfg, kUploadWarm, kUploadMeasure,
                   traces.back());
    }
    const WireSessionConfig up = uploadConfig(live);

    // setup_s: start faded several times, each until its first
    // handshake, with the kernel sampled before each start; the last
    // daemon serves the measured load.
    const std::string sock = socketPath(o);
    std::vector<double> setups;
    std::unique_ptr<FadedProcess> faded;
    for (unsigned k = 0; k < kSetupStarts; ++k) {
        faded.reset();
        double scale = kNominalRefNs / quietRefNs();
        faded = std::make_unique<FadedProcess>(sock, o.workdir);
        setups.push_back(faded->waitReady() * scale);
    }

    Tracer tr(o.trace);
    Tracer untraced(false);
    std::atomic<std::uint64_t> next{0};
    // One short untimed round fills the daemon's pool and caches.
    LoopOut warm = closedLoop(o, *faded, sock, live, up, traces, 0.5,
                              next, false, untraced);
    double measureS = o.trace ? o.seconds / 2 : o.seconds;
    LoopOut main = closedLoop(o, *faded, sock, live, up, traces,
                              measureS, next, false, untraced);
    LoopOut traced;
    if (o.trace)
        traced = closedLoop(o, *faded, sock, live, up, traces, measureS,
                            next, true, tr);
    double peakRss = faded->peakRssMb();
    faded.reset();

    std::vector<std::uint64_t> keys = {o.seed};
    for (const LoopOut *l : {&warm, &main, &traced}) {
        std::vector<std::uint64_t> k = keysOf(l->records());
        keys.insert(keys.end(), k.begin(), k.end());
    }
    std::map<std::uint64_t, Reference> refs =
        references(keys, live, up, traces);
    for (const LoopOut *l : {&warm, &main, &traced})
        checkSessions(l->records(), refs, r);

    EndToEnd e = loopFigures(main);
    e.setupS = median(setups);
    e.peakRssMb = peakRss;
    emitEndToEnd(e, r);
    if (!o.trace)
        return;

    // Traced run: daemon layers from the traced half of the load; the
    // simulator layers from the first live configuration run
    // standalone (what one live session executes inside faded).
    LayerReport l;
    daemonLayers(traced.records(), refs, l);
    l.refNs = median(traced.refNs);
    l.tracedMinstRatio = loopFigures(traced).minstPerS / e.minstPerS;
    WireSessionConfig first = live;
    first.seedOffset = o.seed;
    Experiment x = schedulerPass(sessionPlan(first).cfg, kWarm, kMeasure,
                                 refs.at(first.seedOffset).hash, tr, l, r);
    l.constructMs = x.constructS * 1e3;
    l.warmupMs = x.warmupS * 1e3;
    l.advanceNs = tr.totalNs("sched.lockstep.epoch") / double(x.insts);
    l.counts = x.counts;
    layerPass(live.monitor, x.inputs, tr, l, r);
    decodePass(traces.front(), tr, l, r);
    r.metrics.clear();
    emitLayers(l, r);
    tr.dump(o.workdir + "/spans-daemon_mix-" + std::to_string(o.seed) +
            ".jsonl");
}

} // namespace perfbench
