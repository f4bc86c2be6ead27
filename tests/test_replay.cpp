/**
 * @file
 * The replay oracle. Step 2 (Profiler::runStep2() and its passes) and
 * the comparison replay (sim::replayComparison()) run span-fed,
 * monomorphic loops over dense per-branch slots; these tests hold them
 * equal to the reference they replaced — the virtual-predictor step-2
 * loop, kept here, and sim::Simulator over the virtual predictors — for
 * both branch classes, the history ablations and every feed (an
 * in-memory trace, a resident CompactTrace, a streamed source). The
 * traces hold pcs that own several edges: an indirect branch with many
 * targets and conditional branches taken both ways.
 */

#include <algorithm>
#include <filesystem>
#include <gtest/gtest.h>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/path_predictor.h"
#include "core/profiler.h"
#include "core/replay_feed.h"
#include "predictors/budget.h"
#include "predictors/gshare.h"
#include "predictors/target_cache.h"
#include "sim/experiment.h"
#include "sim/replay.h"
#include "sim/simulator.h"
#include "trace/compact_trace.h"
#include "trace/prefetch.h"
#include "trace/trace_io.h"
#include "util/rng.h"
#include "workload/benchmarks.h"

namespace {

namespace fs = std::filesystem;
using namespace vlp;
using core::HashAssignment;
using core::PathHistoryOptions;
using core::ProfileOptions;
using trace::BranchKind;
using trace::BranchRecord;

using MissMap = std::unordered_map<std::uint64_t, std::uint64_t>;

/**
 * A mixed trace whose pcs own several edges: conditional branches
 * taken both ways, indirect jumps with up to 24 targets (a third of
 * them in another 4 GiB half, where a 32-bit target register never
 * hits), indirect and direct calls with matching returns, and
 * unconditional jumps.
 */
std::vector<BranchRecord>
makeMultiEdgeTrace(std::uint64_t seed, std::size_t count)
{
    util::Rng rng(seed);
    std::vector<BranchRecord> records;
    std::vector<std::uint64_t> returns;
    for (std::size_t i = 0; i < count; ++i) {
        BranchRecord record;
        const double roll = rng.nextDouble();
        if (roll < 0.55) {
            record.kind = BranchKind::Conditional;
            record.pc = 0x1000 + 16 * rng.nextBelow(48);
            record.taken = (((record.pc >> 4) + i / 5) % 3 != 0)
                        != rng.nextBool(0.1);
            record.nextPc = record.taken ? record.pc + 256 : record.pc + 4;
        } else if (roll < 0.70) {
            record.kind = BranchKind::IndirectJump;
            record.pc = 0x8000 + 16 * rng.nextBelow(4);
            record.nextPc = 0x20000 + 64 * rng.nextBelow(24);
            if ((record.pc >> 4) % 3 == 0)
                record.nextPc += std::uint64_t{1} << 32;
        } else if (roll < 0.84 && returns.size() < 64) {
            const bool indirect = roll < 0.78;
            record.kind = indirect ? BranchKind::IndirectCall
                                   : BranchKind::DirectCall;
            record.pc = (indirect ? 0xa000 : 0xc000) + 16 * rng.nextBelow(6);
            record.nextPc = indirect ? 0x30000 + 128 * rng.nextBelow(6)
                                     : 0x40000 + (record.pc & 0xff0) * 16;
            returns.push_back(record.pc + trace::instructionBytes);
        } else if (roll < 0.94 && !returns.empty()) {
            record.kind = BranchKind::Return;
            record.pc = 0xe000 + 16 * rng.nextBelow(4);
            record.nextPc = returns.back();
            returns.pop_back();
        } else {
            record.kind = BranchKind::Unconditional;
            record.pc = 0xf000 + 16 * rng.nextBelow(8);
            record.nextPc = record.pc + 512;
        }
        records.push_back(record);
    }
    return records;
}

/** perl's generated profile input: both classes in quantity. */
std::vector<BranchRecord>
perlTrace()
{
    return workload::generateTrace(workload::findBenchmark("perl"),
                                   workload::InputKind::Profile, 0.01)
        .records();
}

/** The history ablations, each against the paper's default. */
std::vector<std::pair<std::string, PathHistoryOptions>>
historyVariants()
{
    PathHistoryOptions rotate_off;
    rotate_off.rotateTargets = false;
    PathHistoryOptions returns;
    returns.includeReturns = true;
    PathHistoryOptions stack;
    stack.historyStack = true;
    stack.historyStackDepth = 8;
    return {{"default", {}},
            {"rotate off", rotate_off},
            {"includeReturns", returns},
            {"historyStack", stack}};
}

/** The three feeds over one record vector. */
struct Feeds
{
    explicit Feeds(const std::vector<BranchRecord> &records)
        : vector(records), budget(std::uint64_t{1} << 30),
          streaming(records)
    {
        trace::CompactTrace::Builder builder(records.size(), budget);
        for (const BranchRecord &record : records)
            builder.add(record);
        compact = std::make_unique<trace::CompactTraceCursor>(
            builder.finish());
    }

    /** A source that is neither a vector nor a resident trace, so the
     *  loops stream it through next(). */
    class Streaming : public trace::TraceSource
    {
      public:
        explicit Streaming(const std::vector<BranchRecord> &records)
            : records_(records)
        {
        }

        bool
        next(BranchRecord &record) override
        {
            if (position_ == records_.size())
                return false;
            record = records_[position_++];
            return true;
        }

        void reset() override { position_ = 0; }

      private:
        const std::vector<BranchRecord> &records_;
        std::size_t position_ = 0;
    };

    /** (name, source) for each feed. */
    std::vector<std::pair<std::string, trace::TraceSource *>>
    all()
    {
        return {{"vector", &vector},
                {"compact", compact.get()},
                {"streaming", &streaming}};
    }

    trace::VectorTraceSource vector;
    trace::ResidentBudget budget;
    std::unique_ptr<trace::CompactTraceCursor> compact;
    Streaming streaming;
};

/** The largest number of edges any one pc of @p Class owns in
 *  @p compact. */
template <typename Class>
std::size_t
maxEdgesPerPc(const trace::CompactTrace &compact)
{
    std::map<std::uint64_t, std::size_t> edges;
    std::size_t most = 0;
    for (const BranchRecord &edge : compact.edges()) {
        if (Class::profiled(edge))
            most = std::max(most, ++edges[edge.pc]);
    }
    return most;
}

/**
 * The step-2 pass the replay replaced: one virtual path predictor per
 * iteration, misses counted in a pc map.
 */
MissMap
referencePass(const std::vector<BranchRecord> &records,
              const ProfileOptions &options, bool indirect,
              const HashAssignment &tested)
{
    PathHistoryOptions history = options.history;
    history.depth = options.maxLength;
    MissMap misses;
    const auto replay = [&](auto &predictor, auto profiled, auto missed) {
        for (const BranchRecord &record : records) {
            if (profiled(record)) {
                if (missed(predictor.predict(record), record))
                    ++misses[record.pc];
                predictor.update(record);
            }
            predictor.observe(record);
        }
    };
    if (indirect) {
        core::PathIndirectPredictor predictor(options.indexBits, tested,
                                              history);
        replay(predictor,
               [](const BranchRecord &record) { return record.isIndirect(); },
               [](std::uint64_t predicted, const BranchRecord &record) {
                   return predicted != record.nextPc;
               });
    } else {
        core::PathConditionalPredictor predictor(options.indexBits, tested,
                                                 history);
        replay(predictor,
               [](const BranchRecord &record) {
                   return record.isConditional();
               },
               [](bool predicted, const BranchRecord &record) {
                   return predicted != record.taken;
               });
    }
    return misses;
}

/** The row sim::Simulator produces with the virtual predictors. */
sim::ComparisonRow
referenceRow(const std::string &name,
             const std::vector<BranchRecord> &records, bool indirect,
             unsigned index_bits, unsigned global_length,
             unsigned tuned_length, const HashAssignment &assignment,
             bool include_tuned, const PathHistoryOptions &history)
{
    sim::Simulator simulator;
    pred::GsharePredictor gshare(index_bits);
    pred::PathTargetCache chp_path(index_bits);
    pred::PatternTargetCache chp_pattern(index_bits);
    std::size_t tuned_column = 0;
    const auto run = [&](auto &flp, auto &flp_tuned, auto &vlp,
                         const auto &add) {
        add(&flp);
        tuned_column = indirect ? 3 : 2;
        if (include_tuned)
            add(&flp_tuned);
        add(&vlp);
        trace::VectorTraceSource source(records);
        simulator.run(source);
    };
    std::vector<sim::PredictorResult> results;
    if (indirect) {
        simulator.addIndirect(&chp_path);
        simulator.addIndirect(&chp_pattern);
        core::PathIndirectPredictor flp(index_bits, global_length, history);
        core::PathIndirectPredictor flp_tuned(index_bits, tuned_length,
                                              history);
        core::PathIndirectPredictor vlp(index_bits, assignment, history);
        run(flp, flp_tuned, vlp, [&](pred::IndirectPredictor *predictor) {
            simulator.addIndirect(predictor);
        });
        results = simulator.indirectResults();
    } else {
        simulator.addConditional(&gshare);
        core::PathConditionalPredictor flp(index_bits, global_length,
                                           history);
        core::PathConditionalPredictor flp_tuned(index_bits, tuned_length,
                                                 history);
        core::PathConditionalPredictor vlp(index_bits, assignment, history);
        run(flp, flp_tuned, vlp,
            [&](pred::ConditionalPredictor *predictor) {
                simulator.addConditional(predictor);
            });
        results = simulator.conditionalResults();
    }

    sim::ComparisonRow row;
    row.benchmark = name;
    for (const sim::PredictorResult &result : results) {
        sim::RateEntry entry;
        entry.predictor = result.name;
        entry.branches = result.branches;
        entry.mispredictions = result.mispredictions;
        entry.rate = result.rate();
        row.entries.push_back(entry);
    }
    if (include_tuned)
        row.entries[tuned_column].predictor = sim::names::flpTuned;
    return row;
}

void
expectRowsEqual(const sim::ComparisonRow &got,
                const sim::ComparisonRow &expected)
{
    EXPECT_EQ(got.benchmark, expected.benchmark);
    ASSERT_EQ(got.entries.size(), expected.entries.size());
    for (std::size_t i = 0; i < got.entries.size(); ++i) {
        SCOPED_TRACE(expected.entries[i].predictor);
        EXPECT_EQ(got.entries[i].predictor, expected.entries[i].predictor);
        EXPECT_EQ(got.entries[i].branches, expected.entries[i].branches);
        EXPECT_EQ(got.entries[i].mispredictions,
                  expected.entries[i].mispredictions);
        EXPECT_EQ(got.entries[i].rate, expected.entries[i].rate);
    }
}

/** The traces each loop oracle covers, with an index width each. */
std::vector<std::pair<std::string, std::vector<BranchRecord>>>
oracleTraces()
{
    return {{"multi-edge", makeMultiEdgeTrace(17, 20000)},
            {"perl", perlTrace()}};
}

/**
 * Step 2 against the reference: every iteration's per-branch misses
 * from Step2Replay::pass() equal the old loop's for the same tested
 * lengths, and Profiler::runStep2()'s final assignment equals the one
 * the reference iterations select.
 */
void
expectStep2MatchesReference(bool indirect)
{
    for (const auto &[trace_name, records] : oracleTraces()) {
        Feeds feeds(records);
        // The traces must exercise the per-edge fold.
        const std::size_t edges = indirect
            ? maxEdgesPerPc<core::detail::IndirectClass>(
                  feeds.compact->trace())
            : maxEdgesPerPc<core::detail::ConditionalClass>(
                  feeds.compact->trace());
        EXPECT_GE(edges, indirect ? 8u : 2u) << trace_name;

        for (const auto &[history_name, history] : historyVariants()) {
            for (const auto &[feed_name, source] : feeds.all()) {
                SCOPED_TRACE(trace_name + ", " + history_name + ", "
                             + feed_name);
                ProfileOptions options;
                options.indexBits = trace_name == "perl" ? 12 : 6;
                options.history = history;
                core::Profiler profiler(options, indirect);
                profiler.runStep1(*source);

                core::CandidateSelector selector(
                    profiler.branchProfiles(), profiler.step1Sweep(),
                    options.candidates, options.maxLength);
                const std::vector<std::uint64_t> &branches =
                    selector.branches();
                core::detail::Step2Replay replay(*source, options, indirect,
                                                 branches);
                for (unsigned i = 0; i < options.iterations; ++i) {
                    // The tested lengths as the reference's assignment,
                    // and its per-pc misses in the selector's order.
                    const std::vector<std::uint8_t> lengths =
                        selector.nextLengths();
                    HashAssignment tested(lengths.back());
                    for (std::size_t b = 0; b < branches.size(); ++b)
                        tested.assign(branches[b], lengths[b]);
                    const MissMap missed =
                        referencePass(records, options, indirect, tested);
                    std::vector<std::uint64_t> expected(branches.size(), 0);
                    for (std::size_t b = 0; b < branches.size(); ++b) {
                        const auto found = missed.find(branches[b]);
                        if (found != missed.end())
                            expected[b] = found->second;
                    }
                    EXPECT_EQ(replay.pass(lengths), expected)
                        << "iteration " << i;
                    selector.recordResults(expected);
                }
                const HashAssignment expected = selector.finalAssignment();
                const HashAssignment got = profiler.runStep2(*source);
                EXPECT_EQ(got.defaultLength(), expected.defaultLength());
                EXPECT_EQ(got.table(), expected.table());
            }
        }
    }
}

/**
 * Comparison rows against sim::Simulator, with and without the tuned
 * column, under every history variant, over an assignment profiled on
 * the trace plus branches the trace never executes.
 */
void
expectComparisonMatchesSimulator(bool indirect)
{
    for (const auto &[trace_name, records] : oracleTraces()) {
        Feeds feeds(records);
        const unsigned k = trace_name == "perl" ? 12 : 6;
        for (const auto &[history_name, history] : historyVariants()) {
            ProfileOptions options;
            options.indexBits = k;
            options.history = history;
            core::Profiler profiler(options, indirect);
            HashAssignment assignment = profiler.profile(feeds.vector);
            assignment.assign(0xdead0000, 31);
            const unsigned tuned = profiler.step1Sweep().bestLength();
            for (const bool include_tuned : {false, true}) {
                const sim::ComparisonRow expected = referenceRow(
                    trace_name, records, indirect, k, 9, tuned, assignment,
                    include_tuned, history);
                for (const auto &[feed_name, source] : feeds.all()) {
                    SCOPED_TRACE(trace_name + ", " + history_name + ", "
                                 + feed_name
                                 + (include_tuned ? ", tuned" : ""));
                    expectRowsEqual(
                        sim::replayComparison(trace_name, *source, indirect,
                                              k, 9, tuned, assignment,
                                              include_tuned, history),
                        expected);
                }
            }
        }
    }
}

TEST(ReplayOracle, Step2ConditionalMatchesReference)
{
    expectStep2MatchesReference(false);
}

TEST(ReplayOracle, Step2IndirectMatchesReference)
{
    expectStep2MatchesReference(true);
}

TEST(ReplayOracle, ComparisonConditionalMatchesSimulator)
{
    expectComparisonMatchesSimulator(false);
}

TEST(ReplayOracle, ComparisonIndirectMatchesSimulator)
{
    expectComparisonMatchesSimulator(true);
}

/**
 * An external profile/test pair through the suite runner's path —
 * verified by TracePrefetcher::openTrace(), then profiled and compared
 * by compareExternal() — resident and streamed at a zero resident
 * budget equals a Profiler plus Simulator reference over the same
 * records in memory.
 */
TEST(ReplayOracle, ExternalPairMatchesReferenceResidentAndStreamed)
{
    const std::string directory =
        testing::TempDir() + "/vlpsim_replay_oracle";
    fs::remove_all(directory);
    fs::create_directories(directory);
    const std::vector<BranchRecord> profile_records =
        makeMultiEdgeTrace(5, 12000);
    const std::vector<BranchRecord> test_records =
        makeMultiEdgeTrace(6, 9000);
    const std::string profile_path = directory + "/pair.profile.vbt";
    const std::string test_path = directory + "/pair.test.vbt";
    trace::saveTrace(trace::VectorTraceSource(profile_records),
                     profile_path);
    trace::saveTrace(trace::VectorTraceSource(test_records), test_path);

    for (const bool indirect : {false, true}) {
        const std::size_t bytes = indirect ? 512 : 256;
        const unsigned k = indirect ? pred::indirectIndexBits(bytes)
                                    : pred::conditionalIndexBits(bytes);
        ProfileOptions options;
        options.indexBits = k;
        core::Profiler profiler(options, indirect);
        trace::VectorTraceSource profile_source(profile_records);
        const HashAssignment assignment = profiler.profile(profile_source);
        const sim::ComparisonRow expected = referenceRow(
            "pair.test", test_records, indirect, k, 7,
            profiler.step1Sweep().bestLength(), assignment, true, {});

        for (const bool resident : {true, false}) {
            SCOPED_TRACE(std::string(indirect ? "indirect" : "conditional")
                         + (resident ? ", resident" : ", streamed"));
            std::optional<trace::ScopedResidentCapacity> zero;
            if (!resident)
                zero.emplace(0);
            const auto open = [&](const std::string &name,
                                  const std::string &path) {
                trace::PrefetchedTrace opened =
                    trace::TracePrefetcher::openTrace(path, {});
                EXPECT_FALSE(opened.error);
                EXPECT_EQ(opened.resident != nullptr, resident);
                sim::ExternalTrace external;
                external.name = name;
                external.path = path;
                external.contentHash = opened.contentHash;
                external.resident = opened.resident;
                external.session = opened.session;
                return external;
            };
            const sim::ExternalTrace profile =
                open("pair.profile", profile_path);
            const sim::ExternalTrace test = open("pair.test", test_path);
            sim::ExperimentContext context;
            expectRowsEqual(sim::compareExternal(context, profile, test,
                                                 bytes, 7, indirect),
                            expected);
            EXPECT_EQ(context.externalAssignment(profile, k, indirect)
                          .table(),
                      assignment.table());
        }
    }
    fs::remove_all(directory);
}

} // anonymous namespace
