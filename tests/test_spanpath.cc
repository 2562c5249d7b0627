/**
 * @file
 * Span fast-path differential tests (the PR 4 bit-identity
 * discipline applied to batched synthesis and bulk extraction).
 *
 * The batched functional fast path — TraceGenerator::stageRun block
 * synthesis served through InstSource::fetchSpan, the span protocol on
 * ThreadedSource / CaptureSource / ReplaySource, and the run-grain
 * driver's bulk event extraction — is only legal because every staged
 * or bulk-consumed stream is instruction-for-instruction and
 * draw-for-draw identical to on-demand generation. This suite pins
 * that contract:
 *
 *  - batch-synthesized streams equal on-demand streams for every
 *    modelled profile, across stage sizes (including size 1 and sizes
 *    that straddle the staging array), with consumption interleaving
 *    fetch(), fetchNext() and fetchSpan() arbitrarily;
 *  - injectBug() splices at stage boundaries land at the same stream
 *    position as in on-demand generation;
 *  - ThreadedSource spans reproduce its round-robin fetch() stream;
 *  - capture through the span tee and replay through block-decoded
 *    spans reproduce the live stream record for record;
 *  - bulk event extraction (EventProducer::commitSpan) emits the same
 *    events, field for field, as the per-cycle engine's one-at-a-time
 *    EventProducer::onCommit();
 *  - the run-grain engine's result fingerprints (functional AND
 *    modeled-timing values) are pinned by goldens.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <algorithm>
#include <string>
#include <vector>

#include "cpu/source.hh"
#include "monitor/factory.hh"
#include "sim/queue.hh"
#include "sim/random.hh"
#include "system/multicore.hh"
#include "system/producer.hh"
#include "testutil.hh"
#include "trace/generator.hh"
#include "trace/profile.hh"
#include "trace/threads.hh"
#include "trace/tracefile.hh"

namespace fade
{

namespace
{

/** Exact field equality (memcmp is unreliable across padding). */
bool
sameInst(const Instruction &a, const Instruction &b)
{
    return a.pc == b.pc && a.cls == b.cls && a.src1 == b.src1 &&
           a.src2 == b.src2 && a.numSrc == b.numSrc && a.dst == b.dst &&
           a.hasDst == b.hasDst && a.memAddr == b.memAddr &&
           a.memSize == b.memSize && a.tid == b.tid &&
           a.mispredict == b.mispredict &&
           a.mayPropagate == b.mayPropagate &&
           a.frameBytes == b.frameBytes && a.frameBase == b.frameBase &&
           a.hlKind == b.hlKind && a.truth == b.truth;
}

/** Exact field equality of two extracted events. */
bool
sameEvent(const MonEvent &a, const MonEvent &b)
{
    return a.kind == b.kind && a.eventId == b.eventId &&
           a.appAddr == b.appAddr && a.appPc == b.appPc &&
           a.src1 == b.src1 && a.src2 == b.src2 && a.numSrc == b.numSrc &&
           a.dst == b.dst && a.hasDst == b.hasDst && a.len == b.len &&
           a.tid == b.tid && a.shard == b.shard && a.unit == b.unit &&
           a.truth == b.truth && a.seq == b.seq;
}

/** Drain @p n instructions via stageRun + fetchSpan in @p stage-sized
 *  batches, comparing against @p ref served on demand. */
void
expectSpansMatchOnDemand(InstSource &batch, InstSource &ref,
                         std::uint64_t n, std::size_t stage)
{
    std::uint64_t seen = 0;
    while (seen < n) {
        std::size_t want = std::size_t(
            stage < n - seen ? stage : n - seen);
        ASSERT_EQ(batch.stageRun(want), want);
        std::size_t got = 0;
        while (got < want) {
            InstSpan s = batch.fetchSpan(want - got);
            ASSERT_FALSE(s.empty());
            for (std::size_t i = 0; i < s.count; ++i) {
                Instruction want_i = ref.fetch();
                ASSERT_TRUE(sameInst(s.data[i], want_i))
                    << "diverged at instruction " << (seen + got + i)
                    << " (stage size " << stage << ")";
            }
            got += s.count;
        }
        seen += want;
    }
}

class SpanPathProfileSweep
    : public ::testing::TestWithParam<std::string>
{
  protected:
    /** SPEC and parallel benchmarks use different profile factories. */
    BenchProfile
    profile() const
    {
        bool parallel = std::find(parallelBenchmarks().begin(),
                                  parallelBenchmarks().end(),
                                  GetParam()) != parallelBenchmarks().end();
        return parallel ? parallelProfile(GetParam())
                        : specProfile(GetParam());
    }
};

} // namespace

/** Batch synthesis == on-demand synthesis for every profile, across
 *  stage sizes that cover the degenerate (1), sub-batch, driver (64)
 *  and multi-block shapes. */
TEST_P(SpanPathProfileSweep, BatchSynthesisMatchesOnDemand)
{
    for (std::size_t stage : {std::size_t(1), std::size_t(7),
                              std::size_t(64), std::size_t(257)}) {
        TraceGenerator batch(profile());
        TraceGenerator ref(profile());
        expectSpansMatchOnDemand(batch, ref, 20000, stage);
    }
}

/** Consumption may interleave fetch(), fetchNext() and fetchSpan()
 *  against the same staged stream without perturbing it. */
TEST_P(SpanPathProfileSweep, MixedConsumptionMatchesOnDemand)
{
    TraceGenerator batch(profile());
    TraceGenerator ref(profile());
    Rng rng(0xc0ffee);
    std::uint64_t seen = 0;
    while (seen < 20000) {
        std::size_t want = 1 + rng.range(96);
        ASSERT_EQ(batch.stageRun(want), want);
        std::size_t got = 0;
        while (got < want) {
            switch (rng.range(3)) {
              case 0: {
                Instruction i = batch.fetch();
                ASSERT_TRUE(sameInst(i, ref.fetch()));
                ++got;
                break;
              }
              case 1: {
                const Instruction *i = batch.fetchNext();
                ASSERT_NE(i, nullptr);
                ASSERT_TRUE(sameInst(*i, ref.fetch()));
                ++got;
                break;
              }
              default: {
                InstSpan s = batch.fetchSpan(1 + rng.range(32));
                ASSERT_FALSE(s.empty());
                for (std::size_t k = 0; k < s.count; ++k)
                    ASSERT_TRUE(sameInst(s.data[k], ref.fetch()));
                got += s.count;
                break;
              }
            }
        }
        seen += want;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllProfiles, SpanPathProfileSweep,
    ::testing::Values("astar", "bzip", "gcc", "gobmk", "hmmer",
                      "libquantum", "mcf", "omnetpp", "water", "ocean",
                      "blackscholes", "streamcluster", "fluidanimate"));

/** injectBug() between drained stages lands at the same stream
 *  position as the identical injection in on-demand generation. */
TEST(SpanPathBugs, StageBoundaryInjection)
{
    for (TruthBits kind : {truthAccessUnallocated, truthUseUninit,
                           truthLeakDrop}) {
        TraceGenerator batch(specProfile("mcf"));
        TraceGenerator ref(specProfile("mcf"));
        std::uint64_t at = 0;
        for (unsigned round = 0; round < 6; ++round) {
            // A few stages, then a bug at the drained boundary.
            for (std::size_t stage : {std::size_t(64), std::size_t(13)}) {
                expectSpansMatchOnDemand(batch, ref, stage, stage);
                at += stage;
            }
            batch.injectBug(kind);
            ref.injectBug(kind);
        }
        // The spliced instructions (and everything after) line up.
        bool sawTruth = false;
        for (unsigned k = 0; k < 4096; ++k) {
            Instruction b = batch.fetch();
            ASSERT_TRUE(sameInst(b, ref.fetch()));
            sawTruth = sawTruth || b.truth == kind;
        }
        EXPECT_TRUE(sawTruth) << "bug kind " << unsigned(kind)
                              << " never surfaced";
    }
}

/** ThreadedSource spans reproduce its round-robin on-demand stream
 *  (quantum rotation and per-thread draw order included). */
TEST(SpanPathThreaded, MatchesOnDemand)
{
    for (unsigned threads : {2u, 3u, 4u}) {
        BenchProfile p = threadedProfile("ocean", threads);
        for (std::size_t stage : {std::size_t(1), std::size_t(17),
                                  std::size_t(64), std::size_t(300)}) {
            ThreadedSource batch(p);
            ThreadedSource ref(p);
            expectSpansMatchOnDemand(batch, ref, 12000, stage);
        }
    }
}

/** Capture consumed through the span tee, then replay consumed
 *  through block-decoded spans, reproduce the live stream. */
TEST(SpanPathTrace, CaptureReplayRoundTrip)
{
    test::TempFile tmp("fade_spanpath");
    constexpr std::uint64_t kRecords = 30000;

    {
        TraceWriter writer(tmp.path());
        TraceStreamMeta meta;
        meta.profile = "gcc";
        unsigned stream = writer.addStream(meta);
        TraceGenerator gen(specProfile("gcc"));
        CaptureSource tee(gen, writer, stream);
        std::uint64_t seen = 0;
        while (seen < kRecords) {
            std::size_t want = std::size_t(
                seen + 64 <= kRecords ? 64 : kRecords - seen);
            ASSERT_EQ(tee.stageRun(want), want);
            InstSpan s = tee.fetchSpan(want);
            ASSERT_EQ(s.count, want);
            seen += s.count;
        }
        writer.close();
    }

    TraceReader reader(tmp.path());
    TraceGenerator live(specProfile("gcc"));

    // Span replay == live.
    {
        ReplaySource rep(reader, 0);
        std::uint64_t seen = 0;
        while (seen < kRecords) {
            rep.stageRun(64);
            InstSpan s = rep.fetchSpan(64);
            ASSERT_FALSE(s.empty());
            for (std::size_t i = 0; i < s.count; ++i)
                ASSERT_TRUE(sameInst(s.data[i], live.fetch()));
            seen += s.count;
        }
        EXPECT_EQ(rep.remaining(), 0u);
        EXPECT_EQ(rep.consumed(), kRecords);
    }

    // Per-record replay == span replay (fetchNext against fetchSpan).
    {
        ReplaySource byOne(reader, 0);
        ReplaySource bySpan(reader, 0);
        std::uint64_t seen = 0;
        while (seen < kRecords) {
            InstSpan s = bySpan.fetchSpan(97);
            ASSERT_FALSE(s.empty());
            for (std::size_t i = 0; i < s.count; ++i) {
                const Instruction *r = byOne.fetchNext();
                ASSERT_NE(r, nullptr);
                ASSERT_TRUE(sameInst(s.data[i], *r));
            }
            seen += s.count;
        }
        EXPECT_EQ(byOne.fetchNext(), nullptr);
        EXPECT_TRUE(bySpan.fetchSpan(1).empty());
    }
}

/** Bulk extraction (commitSpan) over a staged window with monitor
 *  verdicts emits exactly the events the per-cycle engine's
 *  one-at-a-time onCommit() does: same count, same fields, same
 *  sequence numbers, same retired and produced accounting — for every
 *  span size, including the degenerate 1 and sizes that do not divide
 *  the window. */
TEST(SpanPathExtraction, CommitSpanMatchesOnCommit)
{
    constexpr std::size_t kWindow = 6000;
    constexpr std::uint8_t kShard = 3;
    const std::pair<const char *, BenchProfile> cases[] = {
        {"AddrCheck", specProfile("astar")},
        {"MemLeak", specProfile("bzip")},
        {"AtomCheck", parallelProfile("ocean")}, // thread switches
    };
    for (const auto &[monitor, profile] : cases) {
        std::vector<Instruction> window;
        TraceGenerator g(profile);
        for (std::size_t i = 0; i < kWindow; ++i)
            window.push_back(g.fetch());
        std::vector<std::uint8_t> verdicts(kWindow);
        makeMonitor(monitor)->monitoredSpan(window.data(), kWindow,
                                            verdicts.data());

        // Reference: one retirement at a time through a one-slot queue,
        // the monitor deciding each verdict itself.
        auto refMon = makeMonitor(monitor);
        BoundedQueue<MonEvent> one(1);
        EventProducer ref(refMon.get(), &one, nullptr, kShard);
        std::vector<MonEvent> want;
        for (std::size_t i = 0; i < kWindow; ++i) {
            ref.onCommit(window[i]);
            if (!one.empty()) {
                want.push_back(one.front());
                one.pop();
            }
        }
        ASSERT_GT(want.size(), 0u) << monitor;
        ASSERT_LT(want.size(), kWindow) << monitor << ": none filtered";

        for (std::size_t span : {std::size_t(1), std::size_t(7),
                                 std::size_t(64)}) {
            SCOPED_TRACE(testing::Message()
                         << monitor << " span " << span);
            auto mon = makeMonitor(monitor);
            // The bound queue only enables extraction; commitSpan
            // writes into the caller's buffer.
            BoundedQueue<MonEvent> eq(16);
            EventProducer bulk(mon.get(), &eq, nullptr, kShard);
            std::vector<MonEvent> got;
            std::vector<MonEvent> buf(span);
            for (std::size_t at = 0; at < kWindow; at += span) {
                std::size_t n = std::min(span, kWindow - at);
                std::size_t ev = bulk.commitSpan(
                    window.data() + at, verdicts.data() + at, n,
                    buf.data());
                got.insert(got.end(), buf.begin(), buf.begin() + ev);
            }
            EXPECT_TRUE(eq.empty());
            EXPECT_EQ(bulk.retired(), ref.retired());
            EXPECT_EQ(bulk.produced(), ref.produced());
            ASSERT_EQ(got.size(), want.size());
            for (std::size_t e = 0; e < got.size(); ++e)
                ASSERT_TRUE(sameEvent(got[e], want[e]))
                    << "event " << e << " differs";
        }
    }
}

/** The run-grain engine's span path, pinned: full result-fingerprint
 *  hashes (functional results, modeled timing, queue statistics, bug
 *  reports) of two-shard runs with one and two filter units per shard,
 *  captured when a per-instruction path still ran beside the span path
 *  and produced the same values. */
TEST(SpanPathEngine, PinnedFingerprints)
{
    const struct
    {
        const char *monitor;
        std::uint64_t hash[2]; ///< fadesPerShard = 1, 2
    } golden[] = {
        {"AddrCheck", {0xCD0D9C70E183980CULL, 0xF063F01DFFFA1E9FULL}},
        {"TaintCheck", {0x68EACD1EB9C9CAC1ULL, 0xF428CB6DABC2A06CULL}},
        {"", {0xBC0DBBDEC9EFC76EULL, 0xBC0DBBDEC9EFC76EULL}},
    };
    for (const auto &g : golden) {
        for (unsigned fades : {1u, 2u}) {
            SCOPED_TRACE(testing::Message() << "monitor=" << g.monitor
                                            << " fades=" << fades);
            MultiCoreConfig cfg;
            cfg.engine = Engine::RunGrain;
            cfg.monitor = g.monitor;
            cfg.workloads = {specProfile("astar"), specProfile("gcc")};
            cfg.numShards = 2;
            cfg.topology.fadesPerShard = fades;
            MultiCoreSystem sys(cfg);
            sys.warmup(2000);
            MultiCoreResult r = sys.run(8000);
            std::uint64_t h = fingerprintHash(resultFingerprint(sys, r));
            EXPECT_EQ(h, g.hash[fades - 1])
                << "actual hash 0x" << std::hex << h;
        }
    }
}

} // namespace fade
