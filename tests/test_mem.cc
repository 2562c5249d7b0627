/** @file Unit tests for the memory hierarchy and shadow memory. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "mem/cache.hh"
#include "mem/directory.hh"
#include "mem/mdcache.hh"
#include "mem/shadow.hh"
#include "sim/random.hh"

namespace fade
{

TEST(Cache, HitAfterMiss)
{
    Cache c(l1Params("t"), nullptr, 90);
    unsigned first = c.access(0x1000, false);
    unsigned second = c.access(0x1000, false);
    EXPECT_EQ(first, 2u + 90u);
    EXPECT_EQ(second, 2u);
    EXPECT_EQ(c.hits(), 1u);
    EXPECT_EQ(c.misses(), 1u);
}

TEST(Cache, BlockGranularity)
{
    Cache c(l1Params("t"), nullptr, 90);
    c.access(0x1000, false);
    EXPECT_EQ(c.access(0x103F, false), 2u) << "same 64B block hits";
    EXPECT_GT(c.access(0x1040, false), 2u) << "next block misses";
}

TEST(Cache, LruEviction)
{
    CacheParams p;
    p.sizeBytes = 2 * 64; // 1 set, 2 ways
    p.ways = 2;
    p.blockBytes = 64;
    p.latency = 1;
    Cache c(p, nullptr, 10);
    c.access(0 * 64, false);
    c.access(1 * 64, false);
    c.access(0 * 64, false); // touch 0: 1 becomes LRU
    c.access(2 * 64, false); // evicts 1
    EXPECT_TRUE(c.contains(0 * 64));
    EXPECT_FALSE(c.contains(1 * 64));
    EXPECT_TRUE(c.contains(2 * 64));
}

TEST(Cache, HierarchyLatencyComposition)
{
    Cache l2(l2Params(), nullptr, 90);
    Cache l1(l1Params("l1"), &l2, 90);
    // Cold: L1 miss (2) + L2 miss (10) + DRAM (90).
    EXPECT_EQ(l1.access(0x4000, false), 2u + 10u + 90u);
    // L1 hit after fill.
    EXPECT_EQ(l1.access(0x4000, false), 2u);
    l1.flush();
    // L1 miss, L2 hit.
    EXPECT_EQ(l1.access(0x4000, false), 2u + 10u);
}

TEST(Cache, FlushInvalidatesAll)
{
    Cache c(l1Params("t"), nullptr, 90);
    c.access(0x1000, false);
    c.flush();
    EXPECT_FALSE(c.contains(0x1000));
}

TEST(Cache, TouchWarmsWithoutStats)
{
    Cache c(l1Params("t"), nullptr, 90);
    c.touch(0x2000);
    EXPECT_TRUE(c.contains(0x2000));
    EXPECT_EQ(c.misses(), 0u);
    EXPECT_EQ(c.access(0x2000, false), 2u);
}

TEST(Cache, MissRate)
{
    Cache c(l1Params("t"), nullptr, 90);
    c.access(0x0, false);
    c.access(0x0, false);
    c.access(0x0, false);
    c.access(0x40, false);
    EXPECT_DOUBLE_EQ(c.missRate(), 0.5);
}

/** Property: working sets within capacity never miss after warmup. */
class CacheWorkingSetSweep : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(CacheWorkingSetSweep, ResidentSetStaysResident)
{
    unsigned blocks = GetParam();
    Cache c(l1Params("t"), nullptr, 90);
    // 32KB/64B = 512 blocks; use contiguous blocks (no conflict).
    for (unsigned i = 0; i < blocks; ++i)
        c.access(i * 64, false);
    c.resetStats();
    for (int pass = 0; pass < 3; ++pass)
        for (unsigned i = 0; i < blocks; ++i)
            c.access(i * 64, false);
    EXPECT_EQ(c.misses(), 0u);
    EXPECT_EQ(c.hits(), std::uint64_t(3 * blocks));
}

INSTANTIATE_TEST_SUITE_P(Sizes, CacheWorkingSetSweep,
                         ::testing::Values(1, 16, 128, 512));

namespace
{

/** 64 sets x 4 ways, salted like a shard's view of a shared slice. */
CacheParams
viewParams()
{
    CacheParams p;
    p.sizeBytes = 64 * 4 * 64;
    p.ways = 4;
    p.blockBytes = 64;
    p.latency = 10;
    return p;
}

constexpr std::uint64_t kViewSalt = std::uint64_t(3) << 44;
constexpr unsigned kViewSets = 64;
/** Two lines' worth of tags per way, so every set sees evictions. */
constexpr unsigned kViewBlocks = kViewSets * 4 * 2;

/** A seeded stream that first touches every set once, then draws
 *  random bytes of the kViewBlocks-block universe. */
std::vector<Addr>
viewStream(std::uint64_t seed, unsigned n)
{
    Rng rng(seed);
    std::vector<Addr> s;
    for (unsigned set = 0; set < kViewSets; ++set)
        s.push_back(Addr(set) * 64 + rng.range(64));
    while (s.size() < n)
        s.push_back(Addr(rng.range(kViewBlocks)) * 64 + rng.range(64));
    return s;
}

Cache
saltedCache()
{
    Cache c(viewParams(), nullptr, 90);
    c.setAddrSalt(kViewSalt);
    return c;
}

/** Residency of every block of the universe, via contains(). */
std::vector<bool>
residency(const Cache &c)
{
    std::vector<bool> r;
    for (unsigned b = 0; b < kViewBlocks; ++b)
        r.push_back(c.contains(Addr(b) * 64));
    return r;
}

} // namespace

TEST(SliceL2View, SingleViewMatchesDirectAccessAtAnyEpochLength)
{
    // One shard's view is exact: committing and rebasing every k
    // accesses must reproduce direct access hit for hit. k = 1 resets
    // a slot after every access; k = 4096 reuses the line pool across
    // epochs that touch every set.
    const std::vector<Addr> stream = viewStream(7, 12000);
    for (unsigned k : {1u, 7u, 4096u}) {
        SCOPED_TRACE(k);
        Cache direct = saltedCache();
        Cache base = saltedCache();
        SliceL2View view(base);
        for (std::size_t i = 0; i < stream.size(); ++i) {
            bool write = i % 3 == 0;
            ASSERT_EQ(view.access(stream[i], write),
                      direct.access(stream[i], write))
                << "access " << i;
            if ((i + 1) % k == 0 || i + 1 == stream.size()) {
                view.commit();
                view.beginEpoch();
                ASSERT_EQ(base.hits(), direct.hits());
                ASSERT_EQ(base.misses(), direct.misses());
                ASSERT_EQ(residency(base), residency(direct))
                    << "after access " << i;
            }
        }
    }
}

TEST(SliceL2View, TwoViewsCommitLikeSequentialReplay)
{
    // Two shards' views over one base: each slice sees only the
    // snapshot of the last barrier, and committing in shard order
    // equals replaying both logs sequentially into the base.
    const std::vector<Addr> sa = viewStream(11, 9000);
    const std::vector<Addr> sb = viewStream(12, 9000);
    for (unsigned k : {1u, 7u, 4096u}) {
        SCOPED_TRACE(k);
        Cache base = saltedCache();
        SliceL2View va(base), vb(base);
        Cache replay = saltedCache();
        std::uint64_t hits = 0, misses = 0;
        for (std::size_t e = 0; e < sa.size(); e += k) {
            std::size_t end = std::min(sa.size(), e + k);
            Cache snapA = replay, snapB = replay;
            for (std::size_t i = e; i < end; ++i) {
                // Interleave the shards access by access: the views
                // must not observe each other within a slice.
                ASSERT_EQ(va.access(sa[i], false),
                          snapA.access(sa[i], false));
                ASSERT_EQ(vb.access(sb[i], true),
                          snapB.access(sb[i], true));
            }
            va.commit();
            vb.commit();
            va.beginEpoch();
            vb.beginEpoch();
            for (std::size_t i = e; i < end; ++i)
                replay.touch(sa[i]);
            for (std::size_t i = e; i < end; ++i)
                replay.touch(sb[i]);
            hits += snapA.hits() + snapB.hits();
            misses += snapA.misses() + snapB.misses();
            ASSERT_EQ(base.hits(), hits);
            ASSERT_EQ(base.misses(), misses);
            ASSERT_EQ(residency(base), residency(replay))
                << "after epoch at " << e;
        }
    }
}

TEST(Shadow, DefaultValue)
{
    ShadowMemory s(0x2a);
    EXPECT_EQ(s.read(mdBase + 12345), 0x2a);
}

TEST(Shadow, ReadBackWrite)
{
    ShadowMemory s(0);
    s.write(mdBase + 100, 7);
    EXPECT_EQ(s.read(mdBase + 100), 7);
    EXPECT_EQ(s.read(mdBase + 101), 0);
}

TEST(Shadow, AppWordMapping)
{
    ShadowMemory s(0);
    s.writeApp(0x1000, 3);
    EXPECT_EQ(s.readApp(0x1000), 3);
    EXPECT_EQ(s.readApp(0x1001), 3) << "same word";
    EXPECT_EQ(s.readApp(0x1003), 3) << "same word";
    EXPECT_EQ(s.readApp(0x1004), 0) << "next word";
    EXPECT_EQ(s.read(mdAddrOf(0x1000)), 3);
}

TEST(Shadow, FillAppRange)
{
    ShadowMemory s(0);
    s.fillApp(0x2000, 64, 1); // 16 words
    for (Addr a = 0x2000; a < 0x2040; a += 4)
        ASSERT_EQ(s.readApp(a), 1);
    EXPECT_EQ(s.readApp(0x2040), 0);
    EXPECT_EQ(s.readApp(0x1FFC), 0);
}

TEST(Shadow, FillUnalignedRangeCoversTouchedWords)
{
    ShadowMemory s(0);
    s.fillApp(0x1002, 4, 1); // touches words at 0x1000 and 0x1004
    EXPECT_EQ(s.readApp(0x1000), 1);
    EXPECT_EQ(s.readApp(0x1004), 1);
    EXPECT_EQ(s.readApp(0x1008), 0);
}

TEST(Shadow, CrossPageFill)
{
    ShadowMemory s(0);
    Addr start = 4 * (pageSize - 2); // md range spans a page boundary
    s.fillApp(start, 16, 5);
    for (Addr a = start; a < start + 16; a += 4)
        ASSERT_EQ(s.readApp(a), 5);
    EXPECT_GE(s.mappedPages(), 2u);
}

TEST(MdCacheTest, TlbMissThenHit)
{
    Cache l2(l2Params(), nullptr, 90);
    MdCache mdc(MdCacheParams{}, &l2);
    MdAccessResult r1 = mdc.accessApp(0x5000, false);
    EXPECT_TRUE(r1.tlbMiss);
    EXPECT_GE(r1.latency, MdCacheParams{}.tlbMissPenalty);
    MdAccessResult r2 = mdc.accessApp(0x5004, false);
    EXPECT_FALSE(r2.tlbMiss) << "same page translation cached";
}

TEST(MdCacheTest, OneCycleHit)
{
    Cache l2(l2Params(), nullptr, 90);
    MdCache mdc(MdCacheParams{}, &l2);
    mdc.accessApp(0x5000, false);
    MdAccessResult r = mdc.accessApp(0x5000, false);
    EXPECT_EQ(r.latency, 1u);
    EXPECT_FALSE(r.cacheMiss);
}

TEST(MdCacheTest, TlbLruEviction)
{
    MdCacheParams p;
    p.tlbEntries = 2;
    Cache l2(l2Params(), nullptr, 90);
    MdCache mdc(p, &l2);
    mdc.accessApp(0 * pageSize, false);
    mdc.accessApp(1 * pageSize, false);
    mdc.accessApp(0 * pageSize, false); // page 1 becomes LRU
    mdc.accessApp(2 * pageSize, false); // evicts page 1
    EXPECT_EQ(mdc.tlbMisses(), 3u);
    MdAccessResult r = mdc.accessApp(1 * pageSize, false);
    EXPECT_TRUE(r.tlbMiss);
}

TEST(MdCacheTest, MetadataCompression)
{
    // Metadata is 1 byte per 4-byte word: one MD block covers 256
    // application bytes, so consecutive app blocks share MD blocks.
    Cache l2(l2Params(), nullptr, 90);
    MdCache mdc(MdCacheParams{}, &l2);
    mdc.accessApp(0x8000, false);
    std::uint64_t misses = mdc.cache().misses();
    mdc.accessApp(0x8040, false);
    mdc.accessApp(0x8080, false);
    mdc.accessApp(0x80FC, false);
    EXPECT_EQ(mdc.cache().misses(), misses)
        << "accesses within 256 app bytes share one metadata block";
}

namespace
{

DirectoryParams
dirParams(unsigned clusters)
{
    DirectoryParams p;
    p.clusters = clusters;
    return p;
}

/** First address in stride order whose home is @p cluster. */
Addr
addrHomedAt(const HomeDirectory &d, unsigned cluster)
{
    for (Addr a = 0;; a += d.params().slice.blockBytes)
        if (d.home(a) == cluster)
            return a;
}

/** MemPort stub recording every access (slice-view stand-in). */
struct RecordingPort : MemPort
{
    unsigned
    access(Addr addr, bool write) override
    {
        accesses.push_back(addr);
        (void)write;
        return 5;
    }

    std::vector<Addr> accesses;
};

} // namespace

TEST(HomeDirectoryTest, SingleClusterDegenerates)
{
    HomeDirectory d(dirParams(1));
    EXPECT_EQ(d.numSlices(), 1u);
    for (Addr a : {Addr(0), Addr(0x1000), Addr(0x12345678),
                   ~Addr(0) - 63})
        EXPECT_EQ(d.home(a), 0u);

    // Flat-case port: every access local, no penalty ever added.
    DirectoryPort port(d, 0);
    unsigned cold = port.access(0x4000, false);
    unsigned warm = port.access(0x4000, false);
    EXPECT_EQ(cold, d.slice(0).params().latency + d.params().memLatency);
    EXPECT_EQ(warm, d.slice(0).params().latency);
    EXPECT_EQ(port.stats().localAccesses, 2u);
    EXPECT_EQ(port.stats().remoteAccesses, 0u);
}

TEST(HomeDirectoryTest, HomeIsBlockGranularAndPure)
{
    HomeDirectory d(dirParams(4));
    const Addr block = d.params().slice.blockBytes;
    for (Addr base : {Addr(0), Addr(0x40000000), Addr(0xE0000000)}) {
        unsigned h = d.home(base);
        EXPECT_EQ(d.home(base + 1), h);
        EXPECT_EQ(d.home(base + block - 1), h);
        EXPECT_EQ(d.home(base), h) << "home() must be pure";
    }
}

/** home(addr) spreads strided block sequences evenly (the Fibonacci
 *  mix exists so strides do not pile onto one slice). */
class HomeDistribution : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(HomeDistribution, BalancedAcrossSlices)
{
    const unsigned clusters = GetParam();
    HomeDirectory d(dirParams(clusters));
    const Addr block = d.params().slice.blockBytes;
    const unsigned n = 4096;
    std::vector<unsigned> count(clusters, 0);
    for (unsigned i = 0; i < n; ++i)
        ++count[d.home(Addr(0x40000000) + Addr(i) * block)];
    const unsigned ideal = n / clusters;
    for (unsigned c = 0; c < clusters; ++c) {
        EXPECT_GT(count[c], ideal * 7 / 10) << "slice " << c;
        EXPECT_LT(count[c], ideal * 13 / 10) << "slice " << c;
    }
}

INSTANTIATE_TEST_SUITE_P(Clusters, HomeDistribution,
                         ::testing::Values(2, 4));

TEST(DirectoryPortTest, RoutesByHomeAndCountsLocalRemote)
{
    HomeDirectory d(dirParams(2));
    DirectoryPort port(d, 0);
    const Addr local = addrHomedAt(d, 0);
    const Addr remote = addrHomedAt(d, 1);
    const unsigned sliceLat = d.slice(0).params().latency;
    const unsigned mem = d.params().memLatency;

    EXPECT_EQ(port.access(local, false), sliceLat + mem);
    EXPECT_EQ(port.access(local, false), sliceLat);
    EXPECT_EQ(port.access(remote, false),
              sliceLat + mem + d.remoteLatency());
    EXPECT_EQ(port.access(remote, false), sliceLat + d.remoteLatency());

    EXPECT_EQ(port.stats().localAccesses, 2u);
    EXPECT_EQ(port.stats().remoteAccesses, 2u);
    EXPECT_TRUE(d.slice(0).contains(local));
    EXPECT_FALSE(d.slice(0).contains(remote));
    EXPECT_TRUE(d.slice(1).contains(remote));

    // A port homed on cluster 1 sees the mirror-image counts and pays
    // the penalty on the other address.
    DirectoryPort other(d, 1);
    EXPECT_EQ(other.access(remote, false), sliceLat);
    EXPECT_EQ(other.access(local, false),
              sliceLat + d.remoteLatency());
    EXPECT_EQ(other.stats().localAccesses, 1u);
    EXPECT_EQ(other.stats().remoteAccesses, 1u);

    port.resetStats();
    EXPECT_EQ(port.stats().localAccesses, 0u);
    EXPECT_EQ(port.stats().remoteAccesses, 0u);
}

TEST(DirectoryPortTest, SliceRedirectAndRouteToBase)
{
    // Scheduler slices detach a port from the real slice caches onto
    // per-shard views and drain back at the barrier; model the view
    // with a recording stub.
    HomeDirectory d(dirParams(2));
    DirectoryPort port(d, 0);
    RecordingPort view;
    const Addr local = addrHomedAt(d, 0);
    const Addr remote = addrHomedAt(d, 1);

    port.setSlicePort(1, &view);
    EXPECT_EQ(port.access(remote, false), 5u + d.remoteLatency())
        << "redirected slice supplies the latency; penalty stays";
    ASSERT_EQ(view.accesses.size(), 1u);
    EXPECT_EQ(view.accesses[0], remote);
    EXPECT_FALSE(d.slice(1).contains(remote))
        << "real slice must not see detached traffic";

    port.access(local, false);
    EXPECT_EQ(view.accesses.size(), 1u)
        << "local slice still routes to the real cache";
    EXPECT_TRUE(d.slice(0).contains(local));

    // Null restores the real slice, as does routeToBase().
    port.setSlicePort(1, nullptr);
    port.access(remote, false);
    EXPECT_TRUE(d.slice(1).contains(remote));

    port.setSlicePort(0, &view);
    port.routeToBase();
    port.access(local, false);
    EXPECT_EQ(view.accesses.size(), 1u);

    EXPECT_EQ(port.stats().localAccesses, 2u);
    EXPECT_EQ(port.stats().remoteAccesses, 2u);
}

TEST(HomeDirectoryTest, ResetStatsClearsEverySlice)
{
    HomeDirectory d(dirParams(2));
    DirectoryPort port(d, 0);
    port.access(addrHomedAt(d, 0), false);
    port.access(addrHomedAt(d, 1), false);
    EXPECT_GT(d.slice(0).misses() + d.slice(1).misses(), 0u);
    d.resetStats();
    EXPECT_EQ(d.slice(0).misses(), 0u);
    EXPECT_EQ(d.slice(1).misses(), 0u);
    EXPECT_EQ(d.slice(0).hits(), 0u);
    EXPECT_EQ(d.slice(1).hits(), 0u);
}

TEST(MdCacheTest, WarmDoesNotCountStats)
{
    Cache l2(l2Params(), nullptr, 90);
    MdCache mdc(MdCacheParams{}, &l2);
    mdc.warm(0x9000);
    EXPECT_EQ(mdc.tlbMisses(), 0u);
    MdAccessResult r = mdc.accessApp(0x9000, false);
    EXPECT_EQ(r.latency, 1u);
    EXPECT_FALSE(r.tlbMiss);
}

} // namespace fade
