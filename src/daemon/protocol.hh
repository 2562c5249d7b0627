/**
 * @file
 * Wire protocol of the monitoring daemon (faded): a length-prefixed,
 * CRC-protected frame stream over a SOCK_STREAM unix socket, built on
 * the same varint/CRC primitives as the .ftrace format
 * (trace/wire.hh).
 *
 * Connection layout:
 *
 *   preamble (client -> server): magic "FADEDMN1" (8 bytes)
 *   then frames, both directions:
 *     fixed32 length L of the body (1 <= L <= maxFrameBytes)
 *     body: u8 frame type, payload (type-specific, varint-encoded)
 *     fixed32 CRC32 of the body bytes
 *
 * The first client frame must be Hello carrying the protocol version;
 * the server answers HelloOk (or Rejected on a version it does not
 * speak). Versioning rule: any incompatible change to the framing or a
 * payload bumps protocolVersion; the server rejects versions it does
 * not know, like the trace reader rejects unknown .ftrace versions.
 *
 * Session conversation (one session per connection):
 *
 *   client                         server
 *   Hello{version}            ->
 *                             <-   HelloOk{version, limits}
 *   Configure{config}         ->       (live: answers immediately;
 *   [TraceData{bytes}...           upload: answers after TraceEnd
 *    TraceEnd{}]              ->       validates the uploaded file)
 *                             <-   Configured{} | Rejected{reason}
 *   Run{}                     ->
 *                             <-   Started{} | Rejected{reason}
 *                             <-   Progress{phase, insts, events}...
 *                             <-   Result{fingerprints, stats}
 *                             <-   Bye{}
 *   Close{}                   ->       (any time: orderly teardown)
 *
 * Robustness contract: malformed input of any kind — bad magic, a
 * declared length beyond maxFrameBytes, a CRC mismatch, a truncated
 * frame, an unknown type, a frame illegal in the session's state, or a
 * connection torn down mid-anything — yields a typed per-session error
 * (Rejected/Error frame when the socket still works, otherwise a clean
 * local teardown). It never crashes the daemon, never hangs another
 * session, and never leaks state across sessions
 * (tests/test_daemon.cc fuzzes exactly these cases under ASan/UBSan).
 */

#ifndef FADE_DAEMON_PROTOCOL_HH
#define FADE_DAEMON_PROTOCOL_HH

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "trace/wire.hh"

namespace fade::daemon
{

/** Bumped on any incompatible framing or payload change. */
constexpr std::uint32_t protocolVersion = 1;

/** Connection preamble sent by the client before the first frame. */
constexpr char connectionMagic[8] = {'F', 'A', 'D', 'E',
                                     'D', 'M', 'N', '1'};

/** Hard cap on one frame's body; a declared length beyond it is
 *  rejected before any allocation. Result frames of the largest legal
 *  session shape stay far below this. */
constexpr std::size_t maxFrameBytes = 4u << 20;

/** Malformed frame stream or socket failure. Always carries a
 *  human-readable diagnostic; the daemon maps it to a typed Error
 *  frame, the client surfaces it to the caller. */
class ProtocolError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** Frame types. Client frames occupy 0x01..0x7F, server frames have
 *  the high bit set. */
enum class FrameType : std::uint8_t
{
    // client -> server
    Hello = 0x01,
    Configure = 0x02,
    TraceData = 0x03,
    TraceEnd = 0x04,
    Run = 0x05,
    Close = 0x06,
    // server -> client
    HelloOk = 0x81,
    Configured = 0x82,
    Rejected = 0x83,
    Started = 0x84,
    Progress = 0x85,
    Result = 0x86,
    Bye = 0x87,
    Error = 0x88,
};

/** Typed reasons carried by Rejected and Error frames. */
enum class Reason : std::uint8_t
{
    None = 0,
    /** Admission control: the session pool is at its in-flight limit. */
    AdmissionFull = 1,
    /** Configuration failed validation (unknown monitor/profile,
     *  illegal shape, instruction budget exceeded). */
    BadConfig = 2,
    /** Frame stream violated the protocol (framing, CRC, state). */
    Protocol = 3,
    /** Uploaded trace failed .ftrace validation. */
    BadTrace = 4,
    /** The daemon is shutting down and admits no new work. */
    Shutdown = 5,
    /** Client vanished / session torn down before completion. */
    Aborted = 6,
    /** Unexpected server-side failure. */
    Internal = 7,
};

const char *reasonName(Reason r);

/**
 * Session configuration as it crosses the wire. Names (monitor,
 * benchmark profiles) are resolved server-side against the same
 * factories the benchmark harnesses use, so a daemon session and a
 * standalone run of the same wire config are the same experiment
 * (daemon/session.hh: sessionPlan()).
 */
struct WireSessionConfig
{
    /** Lifeguard name ("" = unmonitored baseline). */
    std::string monitor = "MemLeak";
    /** Benchmark profile names, dealt round-robin over shards exactly
     *  like MultiCoreConfig::workloads ("-mt" names a multi-threaded
     *  process workload). Ignored (and must be empty) under upload. */
    std::vector<std::string> profiles;
    std::uint32_t shards = 1;
    std::uint32_t clusters = 1;
    std::uint32_t fadesPerShard = 1;
    std::uint32_t remoteLatency = 40;
    /** 0 keeps the scheduler default. */
    std::uint64_t sliceTicks = 0;
    /** SchedulerPolicy by value (0 = lockstep, 1 = parallel). */
    std::uint8_t policy = 0;
    /** Engine by value (0 = percycle, 2 = rungrain; any other byte,
     *  1 included, is rejected with Reason::BadConfig). */
    std::uint8_t engine = 0;
    std::uint64_t warmup = 0;
    std::uint64_t measure = 0;
    /** Added to every profile's seed (load generators use it to run
     *  distinct sessions of one shape). */
    std::uint64_t seedOffset = 0;
    /** An .ftrace upload follows (TraceData* TraceEnd); the session
     *  replays it under the trace's own manifest config, with
     *  policy/engine above applied as overrides. */
    bool upload = false;
};

/** Server limits advertised in HelloOk. */
struct HelloInfo
{
    std::uint32_t version = protocolVersion;
    std::uint32_t maxSessions = 0;
    std::uint32_t activeSessions = 0;
};

/** Progress report of a running session. */
struct ProgressInfo
{
    std::uint8_t phase = 0; ///< 0 = warmup, 1 = measure
    std::uint64_t instructions = 0;
    std::uint64_t events = 0;
};

/** Final result of a completed session. */
struct ResultInfo
{
    /** fingerprintHash() of resultFp. */
    std::uint64_t hash = 0;
    /** resultFingerprint() of the measured run — every simulated
     *  value, bit-comparable against a standalone run. */
    std::vector<std::uint64_t> resultFp;
    /** MultiCoreSystem::functionalFingerprint(), taken after the
     *  measured run (engine-invariant functional results). */
    std::vector<std::uint64_t> functionalFp;
    std::uint64_t instructions = 0;
    std::uint64_t events = 0;
    std::uint64_t cycles = 0;
    std::uint64_t bugReports = 0;
    /** Scheduling telemetry: pool quanta executed and times the
     *  session was parked on a full output queue (backpressure). */
    std::uint64_t quanta = 0;
    std::uint64_t parks = 0;
    /** 1-based order of completion among the daemon's sessions. */
    std::uint64_t completionSeq = 0;
};

/** Rejected/Error payload. */
struct ErrorInfo
{
    Reason reason = Reason::None;
    std::string message;
};

// ------------------------------------------------------------ payloads
// Each frame body is the type byte followed by the payload encoded
// with these helpers. Decoders take a wire::Dec positioned after the
// type byte and fail through its handler (ProtocolError on both ends).

void encodeHello(wire::Enc &e, std::uint32_t version);
std::uint32_t decodeHello(wire::Dec &d);

void encodeHelloOk(wire::Enc &e, const HelloInfo &h);
HelloInfo decodeHelloOk(wire::Dec &d);

void encodeConfig(wire::Enc &e, const WireSessionConfig &c);
WireSessionConfig decodeConfig(wire::Dec &d);

void encodeProgress(wire::Enc &e, const ProgressInfo &p);
ProgressInfo decodeProgress(wire::Dec &d);

void encodeResult(wire::Enc &e, const ResultInfo &r);
ResultInfo decodeResult(wire::Dec &d);

void encodeError(wire::Enc &e, const ErrorInfo &err);
ErrorInfo decodeError(wire::Dec &d);

// ------------------------------------------------------------- framing

/** Encode a complete frame (length prefix + body + CRC) around
 *  @p body, which must start with the FrameType byte. */
std::vector<std::uint8_t> sealFrame(const std::vector<std::uint8_t> &body);

/** Build a frame with just a type byte and no payload. */
std::vector<std::uint8_t> sealFrame(FrameType t);

// ------------------------------------------------------- socket plumbing

/** Create, bind, and listen on a unix stream socket at @p path
 *  (unlinking a stale file first). Throws ProtocolError on failure. */
int listenUnix(const std::string &path);

/** Connect to the daemon at @p path, retrying while the socket does
 *  not exist / refuses, up to @p timeoutMs. Throws ProtocolError. */
int connectUnix(const std::string &path, int timeoutMs);

/** Write all of @p n bytes (MSG_NOSIGNAL; throws ProtocolError on any
 *  failure, including a peer that went away). */
void writeAll(int fd, const void *p, std::size_t n);

/**
 * Read one frame into @p body (the type byte + payload, CRC already
 * verified and stripped).
 * @return false on a clean end of stream before the first length
 * byte. Throws ProtocolError on oversized declared lengths, CRC
 * mismatches, truncation inside a frame, or socket errors.
 */
bool readFrame(int fd, std::vector<std::uint8_t> &body);

/** Seal and write one frame. */
void writeFrame(int fd, const std::vector<std::uint8_t> &body);

/** Read the 8-byte connection preamble; throws on mismatch or EOF. */
void readMagic(int fd);

/** Write the 8-byte connection preamble. */
void writeMagic(int fd);

/** The [[noreturn]] wire::Dec fail handler both ends use. */
[[noreturn]] void protocolDecodeFail(const std::string &msg);

/** Make a wire::Dec over a received frame body, positioned after the
 *  type byte. */
inline wire::Dec
frameDec(const std::vector<std::uint8_t> &body, const char *region)
{
    return wire::Dec(body.data() + 1, body.size() - 1, region,
                     &protocolDecodeFail);
}

} // namespace fade::daemon

#endif // FADE_DAEMON_PROTOCOL_HH
