/**
 * @file
 * Tests for the deterministic chaos switchboard (util/chaos.h) and its
 * integration with the suite runner: decisions are pure functions of
 * (seed, section, identity, reach count), so the same seed produces
 * the same faults — and the same suite report — regardless of thread
 * count or where the corpus lives; disabled chaos never fires; the
 * `only` filter targets sections; and the synthetic retry fault
 * (budget +1) leaves suite results untouched.
 */

#include <cstdint>
#include <filesystem>
#include <gtest/gtest.h>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "sim/suite_runner.h"
#include "store/artifact_store.h"
#include "trace/trace_io.h"
#include "util/chaos.h"
#include "util/rng.h"

namespace {

namespace fs = std::filesystem;
using namespace vlp;

/** Guarantees the process-wide switchboard is off after every test. */
class ChaosTest : public ::testing::Test
{
  protected:
    void TearDown() override { util::chaos::disable(); }

    static util::chaos::Config always(std::uint64_t seed)
    {
        util::chaos::Config config;
        config.enabled = true;
        config.seed = seed;
        config.activateProbability = 1.0;
        config.fireProbability = 1.0;
        return config;
    }
};

TEST_F(ChaosTest, DisabledNeverFiresAndKeepsNoCounters)
{
    util::chaos::disable();
    EXPECT_FALSE(util::chaos::enabled());
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(CHAOS_SECTION("test.section"));
        EXPECT_FALSE(util::chaos::fire("test.other", "identity"));
    }
    EXPECT_TRUE(util::chaos::counters().empty());
}

TEST_F(ChaosTest, SameSeedReplaysDecisionsAndCounters)
{
    const auto draw = [](std::uint64_t seed) {
        util::chaos::Config config;
        config.enabled = true;
        config.seed = seed;
        config.activateProbability = 1.0;
        config.fireProbability = 0.3;
        util::chaos::configure(config);
        std::vector<bool> decisions;
        for (int i = 0; i < 64; ++i) {
            decisions.push_back(util::chaos::fire("test.a", "x"));
            decisions.push_back(util::chaos::fire("test.a", "y"));
            decisions.push_back(util::chaos::fire("test.b"));
        }
        return std::make_pair(decisions, util::chaos::counters());
    };

    const auto first = draw(42);
    const auto replay = draw(42);
    EXPECT_EQ(first.first, replay.first);
    EXPECT_EQ(first.second, replay.second);

    // A different seed is a different campaign.
    const auto other = draw(43);
    EXPECT_NE(first.first, other.first);
}

TEST_F(ChaosTest, ActivationProbabilityZeroMeansNoFaults)
{
    util::chaos::Config config;
    config.enabled = true;
    config.seed = 7;
    config.activateProbability = 0.0;
    config.fireProbability = 1.0;
    util::chaos::configure(config);

    for (int i = 0; i < 50; ++i)
        EXPECT_FALSE(CHAOS_SECTION("test.section", "id"));

    const auto counters = util::chaos::counters();
    ASSERT_EQ(counters.count("test.section"), 1u);
    const auto &stats = counters.at("test.section");
    EXPECT_FALSE(stats.activated);
    EXPECT_EQ(stats.reached, 50u);
    EXPECT_EQ(stats.fired, 0u);
    EXPECT_EQ(stats.skipped, 50u);
}

TEST_F(ChaosTest, CertaintyFiresEveryReach)
{
    util::chaos::configure(always(7));
    for (int i = 0; i < 50; ++i)
        EXPECT_TRUE(CHAOS_SECTION("test.section", "id"));
    const auto counters = util::chaos::counters();
    const auto &stats = counters.at("test.section");
    EXPECT_TRUE(stats.activated);
    EXPECT_EQ(stats.fired, 50u);
    EXPECT_EQ(stats.skipped, 0u);
}

TEST_F(ChaosTest, OnlyFilterTargetsSections)
{
    auto config = always(3);
    config.only = {"test.wanted"};
    util::chaos::configure(config);

    EXPECT_TRUE(CHAOS_SECTION("test.wanted"));
    EXPECT_FALSE(CHAOS_SECTION("test.unwanted"));

    const auto counters = util::chaos::counters();
    EXPECT_TRUE(counters.at("test.wanted").activated);
    EXPECT_FALSE(counters.at("test.unwanted").activated);
    // Filtered sections are still accounted as reached.
    EXPECT_EQ(counters.at("test.unwanted").reached, 1u);
}

TEST_F(ChaosTest, IdentityStreamsAreIndependent)
{
    // The per-identity decision stream must not depend on how reaches
    // of *other* identities interleave with it — that independence is
    // what makes suite faults identical across --jobs values.
    const auto sequenceFor = [](const std::string &identity,
                                bool interleave) {
        util::chaos::Config config;
        config.enabled = true;
        config.seed = 99;
        config.activateProbability = 1.0;
        config.fireProbability = 0.4;
        util::chaos::configure(config);
        std::vector<bool> decisions;
        for (int i = 0; i < 32; ++i) {
            if (interleave) {
                util::chaos::fire("test.stream", "noise-a");
                util::chaos::fire("test.stream", "noise-b");
            }
            decisions.push_back(
                util::chaos::fire("test.stream", identity));
        }
        return decisions;
    };

    EXPECT_EQ(sequenceFor("victim", false),
              sequenceFor("victim", true));
}

TEST_F(ChaosTest, PathKeyStripsDirectories)
{
    EXPECT_EQ(util::chaos::pathKey("/tmp/corpus/gcc.profile.vbt"),
              "gcc.profile.vbt");
    EXPECT_EQ(util::chaos::pathKey("relative/dir/t.vbt"), "t.vbt");
    EXPECT_EQ(util::chaos::pathKey("bare.vbt"), "bare.vbt");
    EXPECT_EQ(util::chaos::pathKey(""), "");
}

TEST_F(ChaosTest, KnownSectionsRegistryIsSortedAndStable)
{
    const auto &sections = util::chaos::knownSections();
    EXPECT_GE(sections.size(), 16u);
    for (std::size_t i = 1; i < sections.size(); ++i)
        EXPECT_LT(sections[i - 1], sections[i]);
}

// --- suite integration ------------------------------------------------

/**
 * A deterministic mixed trace: path-correlated conditionals plus
 * enough indirect jumps to clear the suite's noise threshold.
 */
trace::VectorTraceSource
makeTrace(std::uint64_t seed, std::size_t records)
{
    util::Rng rng(seed);
    trace::VectorTraceSource source;
    for (std::size_t i = 0; i < records; ++i) {
        trace::BranchRecord record;
        if (rng.nextBool(0.6)) {
            record.kind = trace::BranchKind::Conditional;
            record.pc = 0x1000 + 16 * rng.nextBelow(32);
            record.taken = ((record.pc >> 4) + i / 7) % 3 != 0;
            record.nextPc =
                record.taken ? record.pc + 64 : record.pc + 4;
        } else {
            record.kind = trace::BranchKind::IndirectJump;
            record.pc = 0x8000 + 16 * rng.nextBelow(8);
            record.taken = true;
            record.nextPc = 0x9000 + 64 * ((record.pc >> 4) % 4);
        }
        source.append(record);
    }
    return source;
}

/** A paired corpus in a fresh scratch directory, removed on teardown. */
class ChaosSuiteTest : public ChaosTest
{
  protected:
    void SetUp() override
    {
        directory_ = testing::TempDir() + "/vlpsim_chaos_"
            + ::testing::UnitTest::GetInstance()
                  ->current_test_info()
                  ->name();
        fs::remove_all(directory_);
        corpus_ = directory_ + "/corpus";
        fs::create_directories(corpus_);
        trace::saveTrace(makeTrace(1, 2500),
                         corpus_ + "/alpha.profile.vbt");
        trace::saveTrace(makeTrace(2, 2500),
                         corpus_ + "/alpha.test.vbt");
        trace::saveTrace(makeTrace(3, 2500),
                         corpus_ + "/beta.profile.vbt");
        trace::saveTrace(makeTrace(4, 2500),
                         corpus_ + "/beta.test.vbt");
        trace::saveTrace(makeTrace(5, 2500), corpus_ + "/gamma.vbt");
    }

    void TearDown() override
    {
        ChaosTest::TearDown();
        fs::remove_all(directory_);
    }

    sim::TraceSuiteOptions baseOptions(unsigned jobs) const
    {
        sim::TraceSuiteOptions options;
        options.directory = corpus_;
        options.bytes = 1024;
        options.jobs = jobs;
        options.retry.backoffBaseMs = 0;
        options.retry.sleeper = [](unsigned) {};
        return options;
    }

    static std::string render(const sim::SuiteReport &report)
    {
        std::ostringstream out;
        report.print(out);
        return out.str();
    }

    /** Configure chaos, run the suite, snapshot (render, counters). */
    std::pair<std::string,
              std::map<std::string, util::chaos::SectionStats>>
    chaosRun(const util::chaos::Config &config, unsigned jobs)
    {
        util::chaos::configure(config);
        sim::TraceSuiteRunner runner(baseOptions(jobs));
        const sim::SuiteReport report = runner.run();
        auto counters = util::chaos::counters();
        util::chaos::disable();
        return {render(report), std::move(counters)};
    }

    std::string directory_;
    std::string corpus_;
};

TEST_F(ChaosSuiteTest, SuiteFaultsAreIdenticalAcrossJobsAndRuns)
{
    util::chaos::Config config;
    config.enabled = true;
    config.seed = 5;
    config.activateProbability = 0.75;
    config.fireProbability = 0.25;

    const auto serial = chaosRun(config, 1);
    const auto parallel = chaosRun(config, 4);
    const auto again = chaosRun(config, 1);

    // Same seed => identical faults => byte-identical reports and
    // identical section counters, across thread counts and runs.
    EXPECT_EQ(serial.first, parallel.first);
    EXPECT_EQ(serial.first, again.first);
    EXPECT_EQ(serial.second, again.second);
    // Across *different* jobs values the per-identity fault decisions
    // still replay (hence the identical reports above), but the
    // producer-death section's reach count is shaped by the producer
    // pool itself — each fire kills a producer, and the pool size is
    // the jobs value — so it alone is excluded from the cross-jobs
    // counter comparison.
    auto scoped_serial = serial.second;
    auto scoped_parallel = parallel.second;
    scoped_serial.erase("trace.prefetch.producer-death");
    scoped_parallel.erase("trace.prefetch.producer-death");
    EXPECT_EQ(scoped_serial, scoped_parallel);

    // The campaign probabilities really did reach hazard points.
    std::uint64_t reached = 0;
    for (const auto &entry : serial.second)
        reached += entry.second.reached;
    EXPECT_GT(reached, 0u);
}

TEST_F(ChaosSuiteTest, SeedSweepCoversTraceAndRetrySections)
{
    // Across a handful of seeds at full activation the suite's own
    // hazard points all fire somewhere — the campaign driver's
    // coverage check in miniature.
    std::set<std::string> fired;
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        util::chaos::Config config;
        config.enabled = true;
        config.seed = seed;
        config.activateProbability = 1.0;
        config.fireProbability = 0.2;
        const auto result = chaosRun(config, 2);
        for (const auto &entry : result.second)
            if (entry.second.fired > 0)
                fired.insert(entry.first);
    }

    for (const char *section :
         {"retry.transient", "trace.open.transient",
          "trace.read.short", "trace.read.transient"}) {
        EXPECT_EQ(fired.count(section), 1u)
            << section << " never fired across the sweep";
    }
}

TEST_F(ChaosSuiteTest, SyntheticRetryFaultPreservesResults)
{
    // The synthetic retry fault fires on first attempts only and
    // extends the budget by one, so even at certainty it must change
    // nothing about the suite's results.
    const auto clean = [this] {
        sim::TraceSuiteRunner runner(baseOptions(1));
        return render(runner.run());
    }();

    auto config = always(11);
    config.only = {"retry.transient"};
    const auto chaotic = chaosRun(config, 1);

    EXPECT_EQ(chaotic.first, clean);
    ASSERT_EQ(chaotic.second.count("retry.transient"), 1u);
    EXPECT_GT(chaotic.second.at("retry.transient").fired, 0u);
}

TEST_F(ChaosSuiteTest, StoreFaultsSurfaceAsRecoverableMisses)
{
    // With an artifact store attached, store hazard points are
    // reached, and the run still completes with the same report as a
    // chaos-off run over the same fresh store (store faults are
    // recoverable: a torn insert or checksum mismatch is a miss).
    const auto storeRun = [this](bool chaos, const std::string &dir) {
        if (chaos) {
            auto config = always(13);
            config.only = {"store.insert.torn-rename",
                           "store.fetch.checksum-mismatch"};
            config.fireProbability = 0.5;
            util::chaos::configure(config);
        }
        auto options = baseOptions(1);
        store::StoreOptions store_options;
        store_options.directory = directory_ + "/" + dir;
        options.store =
            std::make_shared<store::ArtifactStore>(store_options);
        sim::TraceSuiteRunner runner(std::move(options));
        const std::string text = render(runner.run());
        auto counters = util::chaos::counters();
        util::chaos::disable();
        return std::make_pair(text, std::move(counters));
    };

    const auto chaotic = storeRun(true, "store-chaos");
    const auto clean = storeRun(false, "store-clean");
    EXPECT_EQ(chaotic.first, clean.first);

    std::uint64_t reached = 0;
    for (const char *section :
         {"store.insert.torn-rename", "store.fetch.checksum-mismatch"})
        if (chaotic.second.count(section))
            reached += chaotic.second.at(section).reached;
    EXPECT_GT(reached, 0u);
}

} // anonymous namespace
