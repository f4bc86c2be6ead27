/**
 * @file
 * End-to-end integration tests: the paper's headline orderings must
 * hold on the synthetic benchmarks — the variable length path
 * predictor beats gshare on conditional branches and beats the
 * Chang-Hao-Patt target caches on indirect branches, with the fixed
 * length path predictor in between.
 */

#include <cstdlib>
#include <gtest/gtest.h>

#include "predictors/budget.h"
#include "sim/experiment.h"
#include "workload/benchmarks.h"

namespace {

using namespace vlp;
using namespace vlp::sim;

class HeadlineOrdering : public ::testing::Test
{
  protected:
    // A fifth of the default trace length keeps this test fast while
    // leaving enough dynamic branches for training plus measurement.
    void SetUp() override { setenv("VLPSIM_SCALE", "0.2", 1); }
    void TearDown() override { unsetenv("VLPSIM_SCALE"); }
};

TEST_F(HeadlineOrdering, VlpBeatsGshareOnGcc)
{
    ExperimentContext context;
    const auto &spec = workload::findBenchmark("gcc");
    const auto row = compare(context, spec, 4096, 5, false, true);

    const double gshare = row.entry(names::gshare).rate;
    const double vlp = row.entry(names::vlp).rate;
    const double tuned = row.entry(names::flpTuned).rate;

    // The headline: VLP clearly ahead of gshare (the paper reports a
    // ~2x gap at this size).
    EXPECT_LT(vlp * 1.3, gshare);
    // Profiling the length per branch beats one tuned global length.
    EXPECT_LE(vlp, tuned * 1.05);
}

TEST_F(HeadlineOrdering, VlpBeatsTargetCachesOnIndirect)
{
    ExperimentContext context;
    for (const char *name : {"perl", "li"}) {
        const auto &spec = workload::findBenchmark(name);
        const auto row = compare(context, spec, 2048, 2, true, true);
        const double path = row.entry(names::chpPath).rate;
        const double pattern = row.entry(names::chpPattern).rate;
        const double vlp = row.entry(names::vlp).rate;
        EXPECT_LT(vlp * 1.2, path) << name;
        EXPECT_LT(vlp * 1.2, pattern) << name;
    }
}

TEST_F(HeadlineOrdering, TunedFixedLengthBeatsUntuned)
{
    // On a benchmark whose best length differs from the global one,
    // tuning must not hurt (it was chosen on the profile input).
    ExperimentContext context;
    const auto &spec = workload::findBenchmark("m88ksim");
    const auto row = compare(context, spec, 2048, 2, true, true);
    EXPECT_LE(row.entry(names::flpTuned).rate,
              row.entry(names::flp).rate * 1.1);
}

TEST_F(HeadlineOrdering, ProfilingGeneralizesAcrossInputs)
{
    // The VLP result above is measured on the *test* input with an
    // assignment profiled on the *profile* input; additionally check
    // the assignment is non-trivial (uses multiple lengths).
    ExperimentContext context;
    const auto &spec = workload::findBenchmark("li");
    const auto &assignment = context.assignment(
        spec, pred::conditionalIndexBits(4096), false);
    const auto histogram = assignment.lengthHistogram();
    unsigned distinct = 0;
    for (unsigned length = 1; length <= core::maxPathLength; ++length)
        distinct += histogram.bucket(length) > 0 ? 1 : 0;
    EXPECT_GE(distinct, 4u);
}

TEST_F(HeadlineOrdering, BiggerTablesDoNotHurtVlp)
{
    ExperimentContext context;
    const auto &spec = workload::findBenchmark("compress");
    const auto small = compare(context, spec, 1024, 4, false);
    const auto large = compare(context, spec, 16384, 4, false);
    EXPECT_LE(large.entry(names::vlp).rate,
              small.entry(names::vlp).rate * 1.15);
}

} // anonymous namespace
