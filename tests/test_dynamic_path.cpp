/**
 * @file
 * Tests for the hardware-selected (Section 3.4) variable length path
 * predictors.
 */

#include <gtest/gtest.h>

#include "core/dynamic_path.h"
#include "util/rng.h"

namespace {

using namespace vlp;
using namespace vlp::core;
using trace::BranchKind;
using trace::BranchRecord;

BranchRecord
record(BranchKind kind, std::uint64_t pc, std::uint64_t next,
       bool taken = true)
{
    BranchRecord result;
    result.pc = pc;
    result.nextPc = next;
    result.taken = taken;
    result.kind = kind;
    return result;
}

template <typename Predictor>
void
feed(Predictor &predictor, const BranchRecord &branch, bool *correct)
{
    const auto predicted = predictor.predict(branch);
    if (correct != nullptr) {
        if constexpr (std::is_same_v<std::decay_t<decltype(predicted)>,
                                     bool>) {
            *correct = predicted == branch.taken;
        } else {
            *correct = predicted == branch.nextPc;
        }
    }
    predictor.update(branch);
    predictor.observe(branch);
}

template <typename Class>
class DynamicPathClass : public ::testing::Test
{
};
using BranchClasses = ::testing::Types<ConditionalClass, IndirectClass>;
TYPED_TEST_SUITE(DynamicPathClass, BranchClasses);

TYPED_TEST(DynamicPathClass, RejectsBadCandidates)
{
    using Predictor = DynamicPathPredictor<TypeParam>;
    EXPECT_THROW(Predictor(10, {}), std::runtime_error);
    EXPECT_THROW(Predictor(10, {0}), std::runtime_error);
    EXPECT_THROW(Predictor(10, {40}), std::runtime_error);
    EXPECT_NO_THROW(Predictor(10, {1, maxPathLength}));
}

TEST(DynamicPath, LearnsDistanceFourWithoutProfiling)
{
    // Branch B's outcome equals a context branch 4 history entries
    // back; the hardware selector must discover that length 4 (or
    // longer) is the right candidate — no profiling pass involved.
    DynamicPathConditionalPredictor predictor(12, {1, 2, 4, 8});
    util::Rng rng(5);
    unsigned misses = 0;
    for (int i = 0; i < 6000; ++i) {
        const bool context = rng.nextBool(0.5);
        feed(predictor,
             record(BranchKind::Conditional, 0x400000,
                    context ? 0x400800 : 0x400004, context),
             nullptr);
        for (unsigned j = 0; j < 3; ++j) {
            feed(predictor,
                 record(BranchKind::Conditional, 0x401000 + 16 * j,
                        0x401008 + 16 * j, true),
                 nullptr);
        }
        bool correct = false;
        feed(predictor,
             record(BranchKind::Conditional, 0x402000,
                    context ? 0x402040 : 0x402004, context),
             &correct);
        if (i >= 3000 && !correct)
            ++misses;
    }
    EXPECT_LT(misses, 300u); // far better than the 1500 of a coin flip
    // The selected candidate for B covers the distance.
    const std::size_t chosen = predictor.selectedCandidate(0x402000);
    EXPECT_GE(predictor.candidates()[chosen], 4u);
}

TEST(DynamicPath, ShortBranchSelectsShortLength)
{
    // An always-taken branch amid noise: short lengths train faster
    // and alias less, so the selector should not pick 32.
    DynamicPathConditionalPredictor predictor(10, {1, 32});
    util::Rng rng(7);
    for (int i = 0; i < 4000; ++i) {
        feed(predictor,
             record(BranchKind::Conditional, 0x400100,
                    rng.nextBool(0.5) ? 0x400800 : 0x400104,
                    rng.nextBool(0.5)),
             nullptr);
        feed(predictor,
             record(BranchKind::Conditional, 0x402000, 0x402040,
                    true),
             nullptr);
    }
    EXPECT_EQ(predictor.candidates()[predictor.selectedCandidate(
                  0x402000)],
              1u);
}

TEST(DynamicPath, IndirectLearnsPathDependentTargets)
{
    DynamicPathIndirectPredictor predictor(9, {1, 2, 4});
    util::Rng rng(11);
    unsigned misses = 0;
    for (int i = 0; i < 6000; ++i) {
        const bool direction = rng.nextBool(0.5);
        // The conditional only feeds the history (as in Simulator:
        // indirect predictors never predict conditional records).
        predictor.observe(record(BranchKind::Conditional, 0x400000,
                                 direction ? 0x400800 : 0x400004,
                                 direction));
        bool correct = false;
        feed(predictor,
             record(BranchKind::IndirectJump, 0x402000,
                    direction ? 0x500000 : 0x600000),
             &correct);
        if (i >= 3000 && !correct)
            ++misses;
    }
    EXPECT_LT(misses, 150u);
}

TEST(DynamicPath, SizeIncludesScoreTables)
{
    DynamicPathConditionalPredictor predictor(12, {1, 2, 4, 8});
    // 4K counters/4 + 1024 slots * 4 candidates * 4 bits / 8.
    EXPECT_EQ(predictor.sizeBytes(), 1024u + 2048u);
    // 512 targets * 4 + 256 slots * 2 candidates * 4 bits / 8.
    DynamicPathIndirectPredictor indirect(9, {1, 2});
    EXPECT_EQ(indirect.sizeBytes(), 2048u + 256u);
}

TEST(DynamicPath, Names)
{
    DynamicPathConditionalPredictor cond(10);
    DynamicPathIndirectPredictor ind(9);
    EXPECT_EQ(cond.name(), "dynamic variable length path");
    EXPECT_EQ(ind.name(), "dynamic variable length path");
}

} // anonymous namespace
