/**
 * @file
 * Tests for the two-step profiling heuristic (Section 3.5): step-1
 * sweeps, candidate selection, step-2 iteration, and end-to-end
 * assignment quality on crafted traces.
 */

#include <algorithm>
#include <cmath>
#include <gtest/gtest.h>
#include <map>
#include <utility>

#include "core/path_predictor.h"
#include "core/profiler.h"
#include "core/step1_kernel.h"
#include "trace/compact_trace.h"
#include "util/rng.h"
#include "workload/benchmarks.h"

namespace {

using namespace vlp;
using namespace vlp::core;
using trace::BranchKind;
using trace::BranchRecord;

BranchRecord
cond(std::uint64_t pc, std::uint64_t next, bool taken)
{
    BranchRecord record;
    record.pc = pc;
    record.nextPc = next;
    record.taken = taken;
    record.kind = BranchKind::Conditional;
    return record;
}

BranchRecord
indirect(std::uint64_t pc, std::uint64_t target)
{
    BranchRecord record;
    record.pc = pc;
    record.nextPc = target;
    record.taken = true;
    record.kind = BranchKind::IndirectJump;
    return record;
}

/**
 * A trace with two path-correlated branches of different required
 * lengths: branch X (0x402000) needs distance @p dx, branch Y
 * (0x403000) needs distance @p dy; filler branches in between.
 */
trace::VectorTraceSource
twoDistanceTrace(unsigned dx, unsigned dy, unsigned rounds,
                 std::uint64_t seed)
{
    trace::VectorTraceSource trace;
    util::Rng rng(seed);
    for (unsigned round = 0; round < rounds; ++round) {
        const bool context = rng.nextBool(0.5);
        trace.append(cond(0x400000, context ? 0x400800 : 0x400004,
                          context));
        const unsigned max_distance = std::max(dx, dy);
        for (unsigned i = 0; i + 1 < max_distance; ++i) {
            trace.append(cond(0x401000 + 16 * i, 0x401008 + 16 * i,
                              true));
            // X fires when exactly dx history entries cover the
            // context branch.
            if (i + 2 == dx) {
                trace.append(cond(0x402000,
                                  context ? 0x402040 : 0x402004,
                                  context));
            }
            if (i + 2 == dy) {
                trace.append(cond(0x403000,
                                  context ? 0x403040 : 0x403004,
                                  context));
            }
        }
    }
    return trace;
}

TEST(FixedLengthSweep, RateAndBestLength)
{
    FixedLengthSweep sweep;
    sweep.mispredictions = {30, 10, 20};
    sweep.branches = 200;
    EXPECT_DOUBLE_EQ(sweep.rate(1), 15.0);
    EXPECT_DOUBLE_EQ(sweep.rate(2), 5.0);
    EXPECT_EQ(sweep.bestLength(), 2u);
}

TEST(FixedLengthSweep, ZeroBranchesRateIsZeroNotNan)
{
    // A benchmark with no branches of the profiled class must report
    // 0 %, not 0/0 = NaN, so suite averages stay finite.
    FixedLengthSweep sweep;
    sweep.mispredictions = {0, 0, 0};
    sweep.branches = 0;
    for (unsigned length = 1; length <= 3; ++length) {
        EXPECT_FALSE(std::isnan(sweep.rate(length)));
        EXPECT_DOUBLE_EQ(sweep.rate(length), 0.0);
    }
}

TEST(FixedLengthSweep, TiesPreferShorterLength)
{
    FixedLengthSweep sweep;
    sweep.mispredictions = {10, 5, 5, 7};
    sweep.branches = 100;
    EXPECT_EQ(sweep.bestLength(), 2u);
}

TEST(ProfileOptions, Validation)
{
    ProfileOptions bad;
    bad.maxLength = 0;
    EXPECT_THROW((Profiler{bad, false}), std::runtime_error);
    bad = ProfileOptions{};
    bad.maxLength = 40;
    EXPECT_THROW((Profiler{bad, false}), std::runtime_error);
    bad = ProfileOptions{};
    bad.candidates = 0;
    EXPECT_THROW((Profiler{bad, true}), std::runtime_error);
    bad = ProfileOptions{};
    bad.iterations = 0;
    EXPECT_THROW((Profiler{bad, true}), std::runtime_error);
}

TEST(ProfileOptions, RejectsZeroOrDescendingLengthRange)
{
    // A zero minimum would sweep "length 0" predictors that cannot
    // exist; a descending range would silently produce an empty sweep.
    // Both must fail at construction, for both profiler classes.
    ProfileOptions bad;
    bad.minLength = 0;
    EXPECT_THROW((Profiler{bad, false}), std::runtime_error);
    EXPECT_THROW((Profiler{bad, true}), std::runtime_error);

    bad = ProfileOptions{};
    bad.minLength = 9;
    bad.maxLength = 4;
    try {
        Profiler profiler(bad, false);
        FAIL() << "expected a descending range to be rejected";
    } catch (const std::runtime_error &error) {
        EXPECT_NE(std::string(error.what()).find("descending"),
                  std::string::npos)
            << error.what();
    }
    EXPECT_THROW((Profiler{bad, true}), std::runtime_error);
}

TEST(ProfileOptions, RejectsBadIndexBits)
{
    ProfileOptions bad;
    bad.indexBits = 0;
    EXPECT_THROW((Profiler{bad, false}), std::runtime_error);
    bad = ProfileOptions{};
    bad.indexBits = 31; // a per-length table would need 2^31 entries
    EXPECT_THROW((Profiler{bad, true}), std::runtime_error);
}

TEST(ConditionalProfiler, RestrictedLengthRangeSweeps)
{
    auto trace = twoDistanceTrace(4, 4, 1500, 42);
    ProfileOptions options;
    options.indexBits = 12;
    options.minLength = 3;
    options.maxLength = 8;
    Profiler profiler(options, false);
    const FixedLengthSweep &sweep = profiler.runStep1(trace);
    EXPECT_EQ(sweep.minLength, 3u);
    // Lengths below the range were never simulated...
    EXPECT_EQ(sweep.mispredictions[0], 0u);
    EXPECT_EQ(sweep.mispredictions[1], 0u);
    // ...and the best length comes from the swept range only.
    const unsigned best = sweep.bestLength();
    EXPECT_GE(best, 3u);
    EXPECT_LE(best, 8u);

    // The restricted profile still yields a usable assignment whose
    // lengths all fall inside the range.
    trace.reset();
    const auto assignment = profiler.runStep2(trace);
    EXPECT_GE(assignment.defaultLength(), 3u);
    EXPECT_LE(assignment.defaultLength(), 8u);
}

TEST(ConditionalProfiler, Step2RequiresStep1)
{
    ProfileOptions options;
    options.indexBits = 10;
    Profiler profiler(options, false);
    trace::VectorTraceSource empty;
    EXPECT_THROW(profiler.runStep2(empty), std::runtime_error);
}

TEST(ConditionalProfiler, SweepIdentifiesUsefulLengths)
{
    auto trace = twoDistanceTrace(4, 4, 1500, 42);
    ProfileOptions options;
    options.indexBits = 12;
    options.maxLength = 8;
    Profiler profiler(options, false);
    const FixedLengthSweep &sweep = profiler.runStep1(trace);
    // Lengths >= 4 cover the context; lengths < 4 do not. The filler
    // branches are perfectly predictable either way, so the sweep
    // must show a clear drop at length 4.
    EXPECT_LT(sweep.rate(4) + 2.0, sweep.rate(2));
    EXPECT_GE(sweep.bestLength(), 4u);
}

TEST(ConditionalProfiler, AssignsCoveringLengths)
{
    auto trace = twoDistanceTrace(3, 7, 2000, 43);
    ProfileOptions options;
    options.indexBits = 12;
    options.maxLength = 10;
    Profiler profiler(options, false);
    const HashAssignment assignment = profiler.profile(trace);

    // Branch X needs distance 3. Branch Y correlates with the context
    // branch at distance 8 — but X's own destination also encodes the
    // context and sits at distance 5 from Y, so any length >= 5
    // suffices (the profiler legitimately exploits the transitive
    // correlation).
    EXPECT_GE(assignment.lookup(0x402000), 3u);
    EXPECT_GE(assignment.lookup(0x403000), 5u);
    // Every profiled branch got an explicit assignment.
    EXPECT_TRUE(assignment.contains(0x400000));
    EXPECT_TRUE(assignment.contains(0x402000));
    EXPECT_TRUE(assignment.contains(0x403000));
    // Unprofiled branches fall back to the default.
    EXPECT_FALSE(assignment.contains(0x999999));
}

TEST(ConditionalProfiler, AssignmentBeatsWrongFixedLength)
{
    auto profile_trace = twoDistanceTrace(3, 7, 2000, 44);
    auto test_trace = twoDistanceTrace(3, 7, 2000, 45);

    ProfileOptions options;
    options.indexBits = 12;
    options.maxLength = 10;
    Profiler profiler(options, false);
    const HashAssignment assignment = profiler.profile(profile_trace);

    PathConditionalPredictor vlp(12, assignment);
    PathConditionalPredictor flp(12, 2); // covers neither distance

    // Count misses only on the two correlated branches: the context
    // branch itself is a coin flip no predictor can learn, and would
    // otherwise dominate both counts equally.
    auto evaluate = [&test_trace](PathConditionalPredictor &predictor) {
        test_trace.reset();
        BranchRecord record;
        std::uint64_t misses = 0;
        while (test_trace.next(record)) {
            if (record.isConditional()) {
                const bool predicted = predictor.predict(record);
                if ((record.pc == 0x402000 || record.pc == 0x403000)
                    && predicted != record.taken) {
                    ++misses;
                }
                predictor.update(record);
            }
            predictor.observe(record);
        }
        return misses;
    };

    const std::uint64_t vlp_misses = evaluate(vlp);
    const std::uint64_t flp_misses = evaluate(flp);
    EXPECT_LT(vlp_misses * 3, flp_misses);
}

TEST(IndirectProfiler, AssignsCoveringLength)
{
    // Indirect branch whose target depends on a context branch 4
    // history entries back.
    trace::VectorTraceSource trace;
    util::Rng rng(46);
    for (unsigned round = 0; round < 2000; ++round) {
        const bool context = rng.nextBool(0.5);
        trace.append(cond(0x400000, context ? 0x400800 : 0x400004,
                          context));
        for (unsigned i = 0; i < 3; ++i)
            trace.append(cond(0x401000 + 16 * i, 0x401008 + 16 * i,
                              true));
        trace.append(indirect(0x405000,
                              context ? 0x500000 : 0x600000));
    }

    ProfileOptions options;
    options.indexBits = 9;
    options.maxLength = 8;
    Profiler profiler(options, true);
    const HashAssignment assignment = profiler.profile(trace);
    EXPECT_GE(assignment.lookup(0x405000), 4u);

    // The assignment predicts the test-side stream nearly perfectly.
    PathIndirectPredictor vlp(9, assignment);
    trace.reset();
    BranchRecord record;
    std::uint64_t misses = 0, total = 0;
    while (trace.next(record)) {
        if (record.isIndirect()) {
            ++total;
            if (vlp.predict(record) != record.nextPc)
                ++misses;
            vlp.update(record);
        }
        vlp.observe(record);
    }
    EXPECT_LT(misses * 100, total * 2);
}

TEST(IndirectProfiler, Step2RequiresStep1)
{
    ProfileOptions options;
    options.indexBits = 9;
    Profiler profiler(options, true);
    trace::VectorTraceSource empty;
    EXPECT_THROW(profiler.runStep2(empty), std::runtime_error);
}

// --- CandidateSelector (white box) -------------------------------------

std::unordered_map<std::uint64_t, BranchProfile>
singleBranchProfile(std::uint64_t pc,
                    std::initializer_list<std::uint32_t> corrects)
{
    std::unordered_map<std::uint64_t, BranchProfile> profiles;
    BranchProfile profile;
    unsigned index = 0;
    for (std::uint32_t correct : corrects)
        profile.correct[index++] = correct;
    profile.executions = 100;
    profiles[pc] = profile;
    return profiles;
}

FixedLengthSweep
flatSweep(unsigned lengths, unsigned best)
{
    FixedLengthSweep sweep;
    sweep.mispredictions.assign(lengths, 100);
    sweep.mispredictions[best - 1] = 1;
    sweep.branches = 1000;
    return sweep;
}

/** Per-branch results for the selector's one branch. */
std::vector<std::uint64_t>
misses(std::uint64_t count)
{
    return {count};
}

TEST(CandidateSelector, RanksCandidatesByStep1Accuracy)
{
    const auto profiles =
        singleBranchProfile(0x400000, {10, 90, 50, 80});
    CandidateSelector selector(profiles, flatSweep(4, 1), 3, 4);
    EXPECT_EQ(selector.branches(), std::vector<std::uint64_t>{0x400000});
    // Best candidate first: length 2 (90 correct); then the default
    // for every other pc.
    EXPECT_EQ(selector.nextLengths(), (std::vector<std::uint8_t>{2, 1}));
    EXPECT_EQ(selector.defaultLength(), 1u);
}

TEST(BranchProfile, CountersSaturateAtCeiling)
{
    BranchProfile profile;
    profile.executions = BranchProfile::saturated - 1;
    profile.addExecution();
    EXPECT_EQ(profile.executions, BranchProfile::saturated);
    profile.addExecution();
    EXPECT_EQ(profile.executions, BranchProfile::saturated);

    profile.correct[4] = BranchProfile::saturated - 1;
    profile.addCorrect(5);
    profile.addCorrect(5);
    EXPECT_EQ(profile.correct[4], BranchProfile::saturated);
}

TEST(CandidateSelector, SaturatedCountsStillRankSanely)
{
    // A branch profiled past the 32-bit ceiling: counts stick at the
    // ceiling instead of wrapping to near zero, so the most accurate
    // length still outranks lengths that stayed below the ceiling
    // and ties at the ceiling break toward the shorter length.
    const auto profiles = singleBranchProfile(
        0x400000, {BranchProfile::saturated - 7, 1000,
                   BranchProfile::saturated, BranchProfile::saturated});
    CandidateSelector selector(profiles, flatSweep(4, 2), 3, 4);
    EXPECT_EQ(selector.nextLengths()[0], 3u);
}

TEST(CandidateSelector, UntestedCandidatesTriedFirst)
{
    const auto profiles =
        singleBranchProfile(0x400000, {10, 90, 50, 80});
    CandidateSelector selector(profiles, flatSweep(4, 1), 3, 4);

    // Iteration 1 tests length 2 (rank 1); pretend it did terribly.
    EXPECT_EQ(selector.nextLengths()[0], 2u);
    selector.recordResults(misses(500));

    // Iteration 2 must try the next untested candidate (length 4,
    // rank 2) even though 500 mispredictions are on record elsewhere.
    EXPECT_EQ(selector.nextLengths()[0], 4u);
    selector.recordResults(misses(50));

    // Iteration 3: last untested candidate (length 3).
    EXPECT_EQ(selector.nextLengths()[0], 3u);
    selector.recordResults(misses(200));

    // All tested: the final choice is the minimum (length 4).
    const HashAssignment final_assignment = selector.finalAssignment();
    EXPECT_EQ(final_assignment.lookup(0x400000), 4u);
    EXPECT_EQ(final_assignment.defaultLength(), 1u);
    // And the next iteration would also pick it.
    EXPECT_EQ(selector.nextLengths()[0], 4u);
}

TEST(CandidateSelector, MissingMispredictionCountsAsZero)
{
    const auto profiles = singleBranchProfile(0x400000, {10, 90, 50});
    CandidateSelector selector(profiles, flatSweep(3, 2), 3, 3);
    const unsigned tested = selector.nextLengths()[0];
    // A branch that never mispredicted: recorded as 0 misses, so no
    // later candidate can beat it.
    selector.recordResults(misses(0));
    for (int i = 0; i < 2; ++i) {
        selector.nextLengths();
        selector.recordResults(misses(1));
    }
    EXPECT_EQ(selector.finalAssignment().lookup(0x400000), tested);
    // Results must cover every branch, no more and no fewer.
    EXPECT_THROW(selector.recordResults({}), std::runtime_error);
    EXPECT_THROW(selector.recordResults(std::vector<std::uint64_t>(2, 0)),
                 std::runtime_error);
}

TEST(CandidateSelector, FewerIterationsThanCandidates)
{
    const auto profiles =
        singleBranchProfile(0x400000, {10, 90, 50, 80});
    CandidateSelector selector(profiles, flatSweep(4, 1), 3, 4);
    const unsigned tested = selector.nextLengths()[0];
    selector.recordResults(misses(7));
    // Only one candidate tested: it wins over untested ones.
    EXPECT_EQ(selector.finalAssignment().lookup(0x400000), tested);
}

// --- Step-1 oracle ----------------------------------------------------
//
// Step 1 must report, for every swept length L, exactly what a
// standalone fixed length path predictor of length L reports over the
// same trace — whatever the kernel or the source.

/** One standalone predictor's mispredictions and per-branch hits. */
struct StandaloneResult
{
    std::uint64_t mispredictions = 0;
    std::unordered_map<std::uint64_t, std::uint32_t> hits;
};

StandaloneResult
replayStandalone(const std::vector<BranchRecord> &records, bool indirect,
                 unsigned index_bits, unsigned length)
{
    StandaloneResult result;
    const auto replay = [&](auto &predictor, auto profiled, auto hit) {
        for (const BranchRecord &record : records) {
            if (profiled(record)) {
                if (hit(predictor.predict(record), record))
                    ++result.hits[record.pc];
                else
                    ++result.mispredictions;
                predictor.update(record);
            }
            predictor.observe(record);
        }
    };
    if (indirect) {
        PathIndirectPredictor predictor(index_bits, length);
        replay(predictor,
               [](const BranchRecord &record) { return record.isIndirect(); },
               [](std::uint64_t predicted, const BranchRecord &record) {
                   return predicted == record.nextPc;
               });
    } else {
        PathConditionalPredictor predictor(index_bits, length);
        replay(predictor,
               [](const BranchRecord &record) {
                   return record.isConditional();
               },
               [](bool predicted, const BranchRecord &record) {
                   return predicted == record.taken;
               });
    }
    return result;
}

/** A source that is not a VectorTraceSource, so step 1 streams it. */
class StreamingSource : public trace::TraceSource
{
  public:
    explicit StreamingSource(const std::vector<BranchRecord> &records)
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

void
expectStep1MatchesStandalone(detail::Step1Kernel kernel, bool indirect)
{
    // perl has both classes in quantity; > 4096 records so a streamed
    // source spans several buffers. A third of its indirect branches
    // jump into another 4 GiB half, where a 32-bit target register
    // never hits (pred::widenTarget).
    std::vector<BranchRecord> generated =
        workload::generateTrace(workload::findBenchmark("perl"),
                                workload::InputKind::Profile, 0.01)
            .records();
    for (BranchRecord &record : generated) {
        if (record.isIndirect() && (record.pc >> 2) % 3 == 0)
            record.nextPc += std::uint64_t{1} << 32;
    }
    trace::VectorTraceSource vector_source(std::move(generated));
    const std::vector<BranchRecord> &records = vector_source.records();
    ASSERT_GT(records.size(), 3 * 4096u);
    StreamingSource streaming_source(records);
    trace::CompactTraceCursor resident_source(
        trace::CompactTrace::intern(vector_source));
    const std::pair<const char *, trace::TraceSource *> feeds[] = {
        {"vector", &vector_source},
        {"streaming", &streaming_source},
        {"resident", &resident_source}};
    const std::uint64_t profiled = static_cast<std::uint64_t>(
        std::count_if(records.begin(), records.end(),
                      [&](const BranchRecord &record) {
                          return indirect ? record.isIndirect()
                                          : record.isConditional();
                      }));

    // k = 3 packs several lengths' counters into one table word.
    for (const unsigned k : {3u, 12u, 20u}) {
        std::map<unsigned, StandaloneResult> standalone;
        for (const auto [lo, hi] : {std::pair{3u, 29u}, std::pair{1u, 1u},
                                    std::pair{32u, 32u}}) {
            for (const auto &[feed_name, source] : feeds) {
                SCOPED_TRACE("k=" + std::to_string(k) + " lengths "
                             + std::to_string(lo) + ".."
                             + std::to_string(hi) + " " + feed_name);
                ProfileOptions options;
                options.indexBits = k;
                options.minLength = lo;
                options.maxLength = hi;
                FixedLengthSweep sweep;
                std::unordered_map<std::uint64_t, BranchProfile> profiles;
                detail::runStep1(kernel, indirect, *source, options, sweep,
                                 profiles);
                EXPECT_EQ(sweep.branches, profiled);
                std::uint64_t executions = 0;
                for (const auto &[pc, profile] : profiles)
                    executions += profile.executions;
                EXPECT_EQ(executions, profiled);
                ASSERT_EQ(sweep.mispredictions.size(), hi);
                for (unsigned length = 1; length < lo; ++length)
                    EXPECT_EQ(sweep.mispredictions[length - 1], 0u);
                for (unsigned length = lo; length <= hi; ++length) {
                    auto found = standalone.find(length);
                    if (found == standalone.end())
                        found = standalone
                                    .emplace(length,
                                             replayStandalone(records,
                                                              indirect, k,
                                                              length))
                                    .first;
                    const StandaloneResult &expected = found->second;
                    EXPECT_EQ(sweep.mispredictions[length - 1],
                              expected.mispredictions)
                        << "length " << length;
                    unsigned wrong = 0;
                    for (const auto &[pc, profile] : profiles) {
                        const auto hits = expected.hits.find(pc);
                        wrong += profile.correct[length - 1]
                              != (hits == expected.hits.end()
                                      ? 0u
                                      : hits->second);
                    }
                    EXPECT_EQ(wrong, 0u)
                        << "branches with wrong hits at length " << length;
                }
            }
        }
    }
}

TEST(Step1Oracle, ConditionalPortableKernel)
{
    expectStep1MatchesStandalone(detail::Step1Kernel::portable, false);
}

TEST(Step1Oracle, IndirectPortableKernel)
{
    expectStep1MatchesStandalone(detail::Step1Kernel::portable, true);
}

TEST(Step1Oracle, ConditionalAvx512Kernel)
{
    if (detail::nativeStep1Kernel() != detail::Step1Kernel::avx512)
        GTEST_SKIP() << "this CPU has no AVX-512";
    expectStep1MatchesStandalone(detail::Step1Kernel::avx512, false);
}

TEST(Step1Oracle, IndirectAvx512Kernel)
{
    if (detail::nativeStep1Kernel() != detail::Step1Kernel::avx512)
        GTEST_SKIP() << "this CPU has no AVX-512";
    expectStep1MatchesStandalone(detail::Step1Kernel::avx512, true);
}

} // anonymous namespace
