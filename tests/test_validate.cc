/**
 * @file
 * One config validator (validateConfig, system/multicore.hh) wherever
 * the knob matrix enters:
 *
 *  - ValidateConfig.*: each construction rule reports the message the
 *    MultiCoreSystem constructor fatals with, word for word, and
 *    replayConfig() checks the one rule the validator cannot see (a
 *    trace's stream count).
 *
 *  - ValidateProperty.*: a seeded walk over the daemon's knob space
 *    (profiles x monitor x shards x clusters x filter units x policy x
 *    engine x slice, -mt process workloads included). No sample ends
 *    the process; every rejected sample gets a typed SessionReject;
 *    every accepted one runs to completion and its fingerprints repeat
 *    exactly, across reruns and across scheduler policies; and a
 *    sample of the validator's rejections are re-checked as death tests
 *    against the constructor.
 */

#include <gtest/gtest.h>

#include <optional>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "daemon/session.hh"
#include "monitor/factory.hh"
#include "system/multicore.hh"
#include "testutil.hh"
#include "trace/profile.hh"
#include "trace/tracefile.hh"

using namespace fade;
using namespace fade::daemon;
using fade::test::rewriteTrace;
using fade::test::TempDir;

namespace
{

/** @p text as a death-test regex that matches it literally. */
std::string
literal(const std::string &text)
{
    std::string re;
    for (char c : text) {
        if (std::string(".[]{}()*+?^$|\\").find(c) != std::string::npos)
            re += '\\';
        re += c;
    }
    return re;
}

MultiCoreConfig
baseConfig()
{
    MultiCoreConfig cfg;
    cfg.workloads = {specProfile("bzip")};
    return cfg;
}

/** Pick from @p valid most of the time and from @p all otherwise, so a
 *  useful share of samples is accepted while every value is drawn. */
template <typename T>
T
lean(std::mt19937_64 &rng, const std::vector<T> &valid,
     const std::vector<T> &all)
{
    if (rng() % 3 != 0)
        return valid[rng() % valid.size()];
    return all[rng() % all.size()];
}

/** The seeded knob-space sample every property test walks. */
std::vector<WireSessionConfig>
knobSamples()
{
    const std::vector<std::string> spec = {"bzip", "mcf", "astar",
                                           "hmmer"};
    const std::vector<std::string> parallel = {"ocean", "water"};
    const std::vector<std::string> process = {"ocean-mt",
                                              "streamcluster-mt"};
    std::vector<std::string> names = {"nosuchbench", "nosuch-mt"};
    for (const auto *v : {&spec, &parallel, &process})
        names.insert(names.end(), v->begin(), v->end());
    std::vector<std::string> monitors = monitorNames();
    monitors.push_back("");
    std::vector<std::string> allMonitors = monitors;
    allMonitors.push_back("Bogus");

    std::mt19937_64 rng(0x5eed);
    std::vector<WireSessionConfig> out;
    for (unsigned k = 0; k < 240; ++k) {
        WireSessionConfig wc;
        wc.monitor = lean(rng, monitors, allMonitors);
        const std::vector<std::string> &fits =
            wc.monitor == "AtomCheck" ? parallel
            : wc.monitor == "RaceCheck" || wc.monitor == "SharedTaint"
                ? process
                : spec;
        const unsigned entries = 1 + rng() % 4 / 3 + rng() % 4 / 3;
        for (unsigned e = 0; e < entries; ++e)
            wc.profiles.push_back(lean(rng, fits, names));
        wc.shards = lean<std::uint32_t>(rng, {1, 2, 4},
                                        {0, 1, 2, 3, 4, 5, 6, 7, 8, 9});
        wc.clusters = lean<std::uint32_t>(rng, {1, 2}, {0, 1, 2, 3, 4});
        wc.fadesPerShard = lean<std::uint32_t>(
            rng, {1, 2, 3}, {0, 1, 2, 3, 4, 5, 6, 7, 8, 9});
        wc.policy = std::uint8_t(rng() % 2);
        wc.engine = lean<std::uint8_t>(rng, {0, 2}, {0, 1, 2, 7});
        wc.sliceTicks =
            lean<std::uint64_t>(rng, {0, 16, 4096}, {0, 8, 16, 4096});
        wc.warmup = 100;
        wc.measure = 400;
        out.push_back(wc);
    }
    return out;
}

/** The system config a live wire config maps to, or nothing when a
 *  profile name is unknown (mirrors sessionPlan's mapping). */
std::optional<MultiCoreConfig>
systemConfig(const WireSessionConfig &wc)
{
    MultiCoreConfig cfg;
    cfg.monitor = wc.monitor;
    for (const std::string &name : wc.profiles) {
        std::optional<BenchProfile> p = findProfile(wc.monitor, name);
        if (!p)
            return std::nullopt;
        cfg.workloads.push_back(*p);
    }
    cfg.numShards = wc.shards;
    cfg.topology.clusters = wc.clusters;
    cfg.topology.fadesPerShard = wc.fadesPerShard;
    if (wc.sliceTicks != 0)
        cfg.scheduler.sliceTicks = wc.sliceTicks;
    return cfg;
}

/** A sample the daemon rejected with exactly the validator's message,
 *  with the system config that message came from. */
struct ValidatorReject
{
    MultiCoreConfig cfg;
    std::string message;
};

std::optional<ValidatorReject>
validatorReject(const WireSessionConfig &wc, const SessionReject &r)
{
    std::optional<MultiCoreConfig> cfg = systemConfig(wc);
    if (!cfg)
        return std::nullopt;
    std::optional<std::string> err = validateConfig(*cfg);
    if (!err || *err != r.what())
        return std::nullopt;
    return ValidatorReject{*cfg, *err};
}

} // namespace

// ================================================== validator rules

TEST(ValidateConfig, EachRuleKeepsItsFatalMessage)
{
    struct Case
    {
        void (*edit)(MultiCoreConfig &);
        const char *message;
    };
    const Case cases[] = {
        {[](MultiCoreConfig &c) { c.workloads.clear(); },
         "multi-core system needs >= 1 workload"},
        {[](MultiCoreConfig &c) { c.monitor = "Bogus"; },
         "unknown monitor: Bogus"},
        {[](MultiCoreConfig &c) { c.topology.clusters = 0; },
         "topology: clusters must be >= 1"},
        {[](MultiCoreConfig &c) { c.topology.fadesPerShard = 9; },
         "topology: fadesPerShard must be in [1, 8]"},
        {[](MultiCoreConfig &c) { c.numShards = 0; },
         "topology: numShards must be >= 1"},
        {[](MultiCoreConfig &c) {
             c.numShards = 3;
             c.topology.clusters = 2;
         },
         "topology: numShards (3) must divide evenly across 2 clusters"},
        {[](MultiCoreConfig &c) { c.topology.shardsPerCluster = 257; },
         "shard tag is 8 bits (max 256 shards)"},
        {[](MultiCoreConfig &c) { c.scheduler.sliceTicks = 0; },
         "sliceTicks must be >= 1"},
        {[](MultiCoreConfig &c) { c.shard.core.width = 0; },
         "core width must be positive"},
        {[](MultiCoreConfig &c) { c.shard.core.robSize = 0; },
         "ROB size must be positive"},
        {[](MultiCoreConfig &c) {
             c.workloads.push_back(threadedProfile("ocean"));
         },
         "a multi-threaded process profile cannot mix with other "
         "workloads"},
        {[](MultiCoreConfig &c) {
             c.workloads = {threadedProfile("ocean")};
             c.numShards = 8;
         },
         "more shards (8) than process threads (4)"},
        {[](MultiCoreConfig &c) {
             c.workloads = {threadedProfile("ocean", 8)};
         },
         "process has 8 threads but the MD register file supports 4"},
        {[](MultiCoreConfig &c) {
             c.workloads = {threadedProfile("ocean")};
             c.numShards = 3;
         },
         "process threads (4) must divide evenly across shards (3)"},
    };
    EXPECT_FALSE(validateConfig(baseConfig()).has_value());
    for (const Case &c : cases) {
        MultiCoreConfig cfg = baseConfig();
        c.edit(cfg);
        EXPECT_EQ(validateConfig(cfg), std::optional<std::string>(
                                           c.message));
    }
}

TEST(ValidateConfig, ReplayConfigChecksStreamCount)
{
    TempDir dir;
    const std::string trace = dir.file("capture.ftrace");
    {
        MultiCoreConfig cap = baseConfig();
        cap.numShards = 2;
        cap.traceOut = trace;
        MultiCoreSystem sys(cap);
        sys.warmup(100);
        sys.run(400);
        sys.closeTrace();
    }
    const TraceManifest captured = TraceReader(trace).manifest();
    MultiCoreConfig rep = replayConfig(trace);
    EXPECT_FALSE(validateConfig(rep).has_value());

    const std::string crafted = dir.file("crafted.ftrace");
    TraceManifest m = captured;
    m.shardsPerCluster = 4;
    rewriteTrace(trace, crafted, m);
    EXPECT_THROW(replayConfig(crafted), TraceError);

    m = captured;
    m.shardsPerCluster = 0;
    m.numShards = 1;
    rewriteTrace(trace, crafted, m);
    EXPECT_THROW(replayConfig(crafted), TraceError);

    // A resolved count that matches through another split is a
    // shape the validator judges (here: fine, 2 x 1).
    m = captured;
    m.clusters = 2;
    m.shardsPerCluster = 1;
    rewriteTrace(trace, crafted, m);
    EXPECT_FALSE(validateConfig(replayConfig(crafted)).has_value());
}

// ================================================== knob-space walk

TEST(ValidateProperty, KnobSpaceRejectsTypedOrRunsDeterministically)
{
    unsigned accepted = 0;
    unsigned rejected = 0;
    std::set<std::string> validatorMessages;
    for (const WireSessionConfig &wc : knobSamples()) {
        SessionPlan plan;
        try {
            plan = sessionPlan(wc);
        } catch (const SessionReject &r) {
            ++rejected;
            EXPECT_EQ(r.reason, Reason::BadConfig) << r.what();
            EXPECT_STRNE(r.what(), "");
            if (auto v = validatorReject(wc, r))
                validatorMessages.insert(v->message);
            continue;
        }
        ++accepted;
        std::optional<MultiCoreConfig> cfg = systemConfig(wc);
        ASSERT_TRUE(cfg.has_value());
        EXPECT_FALSE(validateConfig(*cfg).has_value());

        ResultInfo first = standaloneRun(wc);
        EXPECT_GE(first.instructions, wc.measure);
        ResultInfo again = standaloneRun(wc);
        WireSessionConfig other = wc;
        other.policy = wc.policy == 0 ? 1 : 0;
        ResultInfo flipped = standaloneRun(other);
        EXPECT_EQ(first.resultFp, again.resultFp);
        EXPECT_EQ(first.functionalFp, again.functionalFp);
        EXPECT_EQ(first.resultFp, flipped.resultFp);
        EXPECT_EQ(first.functionalFp, flipped.functionalFp);
    }
    // The walk must exercise both sides and many validator rules.
    EXPECT_GE(accepted + rejected, 200u);
    EXPECT_GE(accepted, 40u);
    EXPECT_GE(rejected, 40u);
    EXPECT_GE(validatorMessages.size(), 6u);
}

TEST(ValidateProperty, ValidatorRejectionsMatchConstructorFatal)
{
    // Distinct validator messages from the walk, each re-checked as a
    // death test: the constructor fatals with the same message.
    std::set<std::string> seen;
    for (const WireSessionConfig &wc : knobSamples()) {
        std::optional<ValidatorReject> v;
        try {
            sessionPlan(wc);
        } catch (const SessionReject &r) {
            v = validatorReject(wc, r);
        }
        if (!v || !seen.insert(v->message).second)
            continue;
        EXPECT_EXIT(MultiCoreSystem{v->cfg}, testing::ExitedWithCode(1),
                    literal("fatal: " + v->message + " ("));
    }
    EXPECT_GE(seen.size(), 6u);
}

TEST(ValidateProperty, DuplicateProcessEntriesRunAsOneProcess)
{
    // Identical copies of one -mt profile are one process: shardWorkload
    // returns process profiles verbatim, so the list runs exactly like
    // its single entry (the daemon rejected such lists before the rules
    // were unified; now it accepts them).
    WireSessionConfig one;
    one.monitor = "RaceCheck";
    one.profiles = {"ocean-mt"};
    one.shards = 2;
    one.warmup = 100;
    one.measure = 400;
    WireSessionConfig two = one;
    two.profiles = {"ocean-mt", "ocean-mt"};
    ResultInfo a = standaloneRun(one);
    ResultInfo b = standaloneRun(two);
    EXPECT_EQ(a.resultFp, b.resultFp);
    EXPECT_EQ(a.functionalFp, b.functionalFp);
    EXPECT_EQ(a.bugReports, b.bugReports);

    two.profiles = {"ocean-mt", "streamcluster-mt"};
    EXPECT_THROW(sessionPlan(two), SessionReject);
}
