/**
 * @file
 * Shared test helpers: self-deleting temp-file and temp-directory RAII
 * wrappers used by every suite that round-trips files through disk
 * (trace capture, golden replay, threaded-matrix capture tests), the
 * unique-socket-path helper the daemon tests bind their unix sockets
 * under, a trace rewriter for crafting manifests, and the quiesced
 * single-shard run the engine-equality tests compare.
 */

#ifndef FADE_TESTS_TESTUTIL_HH
#define FADE_TESTS_TESTUTIL_HH

#include <dirent.h>
#include <stdlib.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "monitor/factory.hh"
#include "system/system.hh"
#include "trace/tracefile.hh"

namespace fade::test
{

/** Self-deleting temporary file (mkstemp-backed RAII path). */
class TempFile
{
  public:
    explicit TempFile(const char *prefix = "fade_test")
    {
        std::string tmpl = std::string("/tmp/") + prefix + "_XXXXXX";
        std::vector<char> buf(tmpl.begin(), tmpl.end());
        buf.push_back('\0');
        int fd = ::mkstemp(buf.data());
        if (fd >= 0)
            ::close(fd);
        path_ = buf.data();
    }

    TempFile(const TempFile &) = delete;
    TempFile &operator=(const TempFile &) = delete;

    ~TempFile() { std::remove(path_.c_str()); }

    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

/** Self-deleting temporary directory (mkdtemp-backed RAII path).
 *  Removes its remaining entries — one level, no subdirectories —
 *  and itself on destruction. */
class TempDir
{
  public:
    explicit TempDir(const char *prefix = "fade_test")
    {
        std::string tmpl = std::string("/tmp/") + prefix + "_XXXXXX";
        std::vector<char> buf(tmpl.begin(), tmpl.end());
        buf.push_back('\0');
        if (::mkdtemp(buf.data()))
            path_ = buf.data();
    }

    TempDir(const TempDir &) = delete;
    TempDir &operator=(const TempDir &) = delete;

    ~TempDir()
    {
        if (path_.empty())
            return;
        if (DIR *d = ::opendir(path_.c_str())) {
            while (dirent *e = ::readdir(d)) {
                std::string n = e->d_name;
                if (n != "." && n != "..")
                    std::remove((path_ + "/" + n).c_str());
            }
            ::closedir(d);
        }
        ::rmdir(path_.c_str());
    }

    const std::string &path() const { return path_; }

    /** A path inside the directory (cleaned up with it). */
    std::string file(const char *name) const
    {
        return path_ + "/" + name;
    }

  private:
    std::string path_;
};

/**
 * A unique, unused unix-socket path, short enough for sockaddr_un
 * (its own mkdtemp directory keeps the name under the ~100-char
 * limit regardless of the test name). The socket file and directory
 * are removed on destruction.
 */
class UniqueSocketPath
{
  public:
    UniqueSocketPath() : dir_("fade_sock"), path_(dir_.file("d.sock"))
    {}

    const std::string &path() const { return path_; }

  private:
    TempDir dir_;
    std::string path_;
};

/** Copy the trace at @p from to @p to record for record (TraceReader
 *  -> ReplaySource -> TraceWriter) under manifest @p m: a CRC-valid
 *  trace whose manifest says whatever the test wants. */
inline void
rewriteTrace(const std::string &from, const std::string &to,
             const TraceManifest &m)
{
    TraceReader r(from);
    TraceWriter w(to);
    w.setConfigFingerprint(r.configFingerprint());
    for (unsigned s = 0; s < r.numStreams(); ++s)
        w.addStream(r.stream(s));
    for (unsigned s = 0; s < r.numStreams(); ++s) {
        ReplaySource src(r, s);
        while (src.available())
            w.append(s, src.fetch());
    }
    w.setManifest(m);
    w.close();
}

/**
 * One single-shard run of @p cfg under @p eng, quiesced: run to
 * @p target retirements, drain, and return the cumulative functional
 * fingerprint. @p retiredOut receives the post-drain retirement count
 * (per-cycle overshoots the target by up to commit-width-1 and retires
 * an unmonitored tail during drain; run-grain stops exactly on
 * target), which is how a caller matches windows across engines: run
 * per-cycle first, then run-grain to the count it reported.
 */
inline std::vector<std::uint64_t>
functionalRun(Engine eng, const std::string &monitor,
              const BenchProfile &prof, std::uint64_t target,
              SystemConfig cfg = {}, std::uint64_t *retiredOut = nullptr)
{
    cfg.engine = eng;
    std::unique_ptr<Monitor> mon;
    if (!monitor.empty())
        mon = makeMonitor(monitor);
    MonitoringSystem sys(cfg, prof, mon.get());
    sys.run(target);
    sys.drain();
    if (retiredOut)
        *retiredOut = sys.retired();
    return sys.functionalFingerprint();
}

} // namespace fade::test

#endif // FADE_TESTS_TESTUTIL_HH
