/**
 * @file
 * Unit tests for the paper's core machinery: the THB / incremental
 * index bank, hash assignments, the FLP/VLP predictors, and the HFNT.
 */

#include <cstdio>
#include <fstream>
#include <gtest/gtest.h>
#include <iterator>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>

#include "core/hash_assignment.h"
#include "core/hfnt.h"
#include "core/path_history.h"
#include "core/path_predictor.h"
#include "util/bits.h"
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

// --- PathIndexBank ----------------------------------------------------

TEST(PathIndexBank, CompressDropsAlignmentAndHighBits)
{
    PathIndexBank bank(8);
    // (0x400010 >> 2) & 0xff == 0x04.
    EXPECT_EQ(bank.compress(0x400010), 0x04u);
    EXPECT_EQ(bank.compress(0x3fc), 0xffu);
}

TEST(PathIndexBank, IndexOneIsLastTarget)
{
    PathIndexBank bank(10);
    bank.insert(0x400040);
    EXPECT_EQ(bank.index(1), bank.compress(0x400040));
    bank.insert(0x400080);
    EXPECT_EQ(bank.index(1), bank.compress(0x400080));
    EXPECT_EQ(bank.target(2), bank.compress(0x400040));
}

TEST(PathIndexBank, ObserveFollowsThbPolicy)
{
    PathIndexBank bank(10);
    bank.observe(record(BranchKind::Unconditional, 0x400000, 0x400100));
    bank.observe(record(BranchKind::DirectCall, 0x400000, 0x400200));
    bank.observe(record(BranchKind::Return, 0x400000, 0x400300));
    EXPECT_EQ(bank.occupancy(), 0u);

    bank.observe(record(BranchKind::Conditional, 0x400000, 0x400400));
    bank.observe(record(BranchKind::IndirectJump, 0x400000, 0x400500));
    bank.observe(record(BranchKind::IndirectCall, 0x400000, 0x400600));
    EXPECT_EQ(bank.occupancy(), 3u);
}

TEST(PathIndexBank, ReturnInsertionAblation)
{
    PathHistoryOptions options;
    options.includeReturns = true;
    PathIndexBank bank(10, options);
    bank.observe(record(BranchKind::Return, 0x400000, 0x400300));
    EXPECT_EQ(bank.occupancy(), 1u);
}

TEST(PathIndexBank, NotTakenDestinationIsRecorded)
{
    // A not-taken conditional branch inserts its fall-through address.
    PathIndexBank bank(10);
    bank.observe(record(BranchKind::Conditional, 0x400000, 0x400004,
                        false));
    EXPECT_EQ(bank.index(1), bank.compress(0x400004));
}

TEST(PathIndexBank, ClearResetsEverything)
{
    PathIndexBank bank(10);
    bank.insert(0x400040);
    bank.insert(0x400080);
    bank.clear();
    EXPECT_EQ(bank.occupancy(), 0u);
    EXPECT_EQ(bank.index(1), 0u);
    EXPECT_EQ(bank.index(5), 0u);
}

TEST(PathIndexBank, RotationEncodesOrder)
{
    // With rotation, inserting A then B differs from B then A; without
    // rotation the XOR is symmetric and the two orders collide.
    PathIndexBank with_rotation(10);
    with_rotation.insert(0x400040);
    with_rotation.insert(0x400080);
    PathIndexBank with_rotation_swapped(10);
    with_rotation_swapped.insert(0x400080);
    with_rotation_swapped.insert(0x400040);
    EXPECT_NE(with_rotation.index(2), with_rotation_swapped.index(2));

    PathHistoryOptions no_rotate;
    no_rotate.rotateTargets = false;
    PathIndexBank plain(10, no_rotate);
    plain.insert(0x400040);
    plain.insert(0x400080);
    PathIndexBank plain_swapped(10, no_rotate);
    plain_swapped.insert(0x400080);
    plain_swapped.insert(0x400040);
    EXPECT_EQ(plain.index(2), plain_swapped.index(2));
}

TEST(PathIndexBank, MatchesPaperHashDefinition)
{
    // HF_3 = T1 ^ rotl(T2, 1) ^ rotl(T3, 2) as k-bit numbers.
    const unsigned k = 12;
    PathIndexBank bank(k);
    const std::uint64_t t3 = 0x400100, t2 = 0x400204, t1 = 0x400308;
    bank.insert(t3);
    bank.insert(t2);
    bank.insert(t1);
    const std::uint64_t expected = bank.compress(t1)
        ^ util::rotl(bank.compress(t2), 1, k)
        ^ util::rotl(bank.compress(t3), 2, k);
    EXPECT_EQ(bank.index(3), expected);
}

TEST(PathIndexBank, HistoryBytes)
{
    // 32 targets + 32 partial sums of 14 bits = 2 * 32 * 14 / 8 bytes.
    EXPECT_EQ(PathIndexBank(14).historyBytes(), 112u);
}

TEST(PathIndexBank, HistoryStackRestoresAcrossCalls)
{
    PathHistoryOptions options;
    options.historyStack = true;
    PathIndexBank bank(12, options);

    // Build caller history.
    bank.observe(record(BranchKind::Conditional, 0x400000, 0x400040));
    bank.observe(record(BranchKind::Conditional, 0x400040, 0x400080));
    const std::uint64_t caller_index = bank.index(2);

    // Call, then callee pollutes the history...
    bank.observe(record(BranchKind::DirectCall, 0x400080, 0x500000));
    bank.observe(record(BranchKind::Conditional, 0x500000, 0x500040));
    bank.observe(record(BranchKind::IndirectJump, 0x500040, 0x500400));
    EXPECT_NE(bank.index(2), caller_index);

    // ...and the return restores the caller's view exactly.
    bank.observe(record(BranchKind::Return, 0x500400, 0x400084));
    EXPECT_EQ(bank.index(2), caller_index);
    for (unsigned length = 1; length <= bank.depth(); ++length)
        EXPECT_EQ(bank.index(length), bank.directIndex(length));
}

TEST(PathIndexBank, HistoryStackHandlesUnderflowAndOverflow)
{
    PathHistoryOptions options;
    options.historyStack = true;
    options.historyStackDepth = 2;
    PathIndexBank bank(12, options);

    // Return with no saved snapshot: ignored, no crash.
    bank.observe(record(BranchKind::Return, 0x400000, 0x400004));

    // Deep call chain overflows the snapshot stack (oldest dropped).
    for (int i = 0; i < 5; ++i) {
        bank.observe(record(BranchKind::DirectCall, 0x400000 + 4 * i,
                            0x500000 + 0x100 * i));
        bank.observe(record(BranchKind::Conditional, 0x500000, 0x500040));
    }
    for (int i = 0; i < 5; ++i)
        bank.observe(record(BranchKind::Return, 0x500000, 0x400004));
    // Still functional after the unbalanced sequence.
    bank.insert(0x400040);
    EXPECT_EQ(bank.index(1), bank.compress(0x400040));
}

/**
 * The sum ring is mirrored (sums[i] == sums[i + capacity]) in every
 * raw view, and the fast index agrees with the reference at every
 * length.
 */
void
expectMirroredAndExact(const PathIndexBank &bank)
{
    const PathIndexBank::RawView view = bank.rawView();
    const unsigned capacity = view.mask + 1;
    for (unsigned i = 0; i < capacity; ++i)
        ASSERT_EQ(view.sums[i], view.sums[i + capacity]) << "slot " << i;
    for (unsigned length = 1; length <= bank.depth(); ++length)
        ASSERT_EQ(bank.index(length), bank.directIndex(length))
            << "length " << length;
}

TEST(PathIndexBank, MirroredRingSurvivesEveryMutation)
{
    const BranchKind kinds[] = {BranchKind::Conditional,
                                BranchKind::IndirectJump,
                                BranchKind::DirectCall,
                                BranchKind::IndirectCall,
                                BranchKind::Return};
    for (const unsigned depth : {1u, 5u, 8u, 32u}) {
        for (const unsigned k : {3u, 12u}) {
            SCOPED_TRACE("depth " + std::to_string(depth) + " k "
                         + std::to_string(k));
            PathHistoryOptions options;
            options.depth = depth;
            options.historyStack = true;
            options.historyStackDepth = 4;
            PathIndexBank bank(k, options);
            util::Rng rng(depth * 100 + k);
            expectMirroredAndExact(bank);
            for (int step = 0; step < 400; ++step) {
                if (step % 3 == 0) {
                    bank.insert(rng.next());
                } else {
                    // Calls snapshot and returns restore the history.
                    bank.observe(record(kinds[rng.nextBelow(5)],
                                        0x400000, rng.next()));
                }
                if (step == 300)
                    bank.clear();
                expectMirroredAndExact(bank);
            }
        }
    }
}

TEST(PathIndexBank, HistoryStackOffByDefault)
{
    PathIndexBank bank(12);
    bank.observe(record(BranchKind::Conditional, 0x400000, 0x400040));
    const std::uint64_t before = bank.index(1);
    bank.observe(record(BranchKind::DirectCall, 0x400040, 0x500000));
    bank.observe(record(BranchKind::Return, 0x500000, 0x400044));
    // Without the extension, calls and returns leave history alone.
    EXPECT_EQ(bank.index(1), before);
}

TEST(PathIndexBank, RejectsBadConfiguration)
{
    EXPECT_THROW(PathIndexBank(0), std::runtime_error);
    EXPECT_THROW(PathIndexBank(33), std::runtime_error);
    PathHistoryOptions bad_depth;
    bad_depth.depth = 0;
    EXPECT_THROW(PathIndexBank(10, bad_depth), std::runtime_error);
    bad_depth.depth = 33;
    EXPECT_THROW(PathIndexBank(10, bad_depth), std::runtime_error);
}

/**
 * The paper's central hardware trick (Section 4.1): the incrementally
 * maintained partial-sum registers must equal direct rotate-and-XOR
 * recomputation after every insertion, for every length, width, and
 * rotation mode.
 */
class IncrementalHashProperty
    : public ::testing::TestWithParam<std::tuple<unsigned, bool>>
{
};

TEST_P(IncrementalHashProperty, IncrementalEqualsDirect)
{
    const auto [index_bits, rotate] = GetParam();
    PathHistoryOptions options;
    options.rotateTargets = rotate;
    PathIndexBank bank(index_bits, options);
    util::Rng rng(index_bits * 31 + (rotate ? 1 : 0));

    for (int step = 0; step < 500; ++step) {
        bank.insert(rng.next() & 0xffffffff);
        for (unsigned length = 1; length <= bank.depth(); ++length) {
            ASSERT_EQ(bank.index(length), bank.directIndex(length))
                << "step " << step << " length " << length;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    WidthsAndRotation, IncrementalHashProperty,
    ::testing::Combine(::testing::Values(1u, 5u, 7u, 9u, 12u, 14u, 16u,
                                         20u, 24u, 32u),
                       ::testing::Bool()));

// --- HashAssignment ---------------------------------------------------

TEST(HashAssignment, DefaultForUnknownBranches)
{
    HashAssignment assignment(4);
    EXPECT_EQ(assignment.lookup(0x400000), 4u);
    EXPECT_FALSE(assignment.contains(0x400000));
    assignment.assign(0x400000, 9);
    EXPECT_EQ(assignment.lookup(0x400000), 9u);
    EXPECT_TRUE(assignment.contains(0x400000));
    EXPECT_EQ(assignment.size(), 1u);
}

TEST(HashAssignment, RejectsOutOfRangeLengths)
{
    HashAssignment assignment(1);
    EXPECT_THROW(assignment.assign(0x400000, 0), std::runtime_error);
    EXPECT_THROW(assignment.assign(0x400000, 33), std::runtime_error);
    EXPECT_THROW(assignment.setDefaultLength(0), std::runtime_error);
    EXPECT_THROW(HashAssignment(40), std::runtime_error);
}

TEST(HashAssignment, LengthHistogram)
{
    HashAssignment assignment(1);
    assignment.assign(0x400000, 3);
    assignment.assign(0x400004, 3);
    assignment.assign(0x400008, 7);
    const auto histogram = assignment.lengthHistogram();
    EXPECT_EQ(histogram.bucket(3), 2u);
    EXPECT_EQ(histogram.bucket(7), 1u);
    EXPECT_EQ(histogram.total(), 3u);
}

/** The whole of the text file at @p path. */
std::string
readFile(const std::string &path)
{
    std::ifstream file(path);
    return std::string(std::istreambuf_iterator<char>(file), {});
}

/** Write @p text to @p path. */
void
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream(path) << text;
}

TEST(HashAssignment, SaveLoadRoundTrip)
{
    const std::string path = testing::TempDir() + "/assignment.txt";
    HashAssignment assignment(5);
    assignment.assign(0x400000, 3);
    assignment.assign(0x400abc, 17);
    assignment.save(path);

    const HashAssignment loaded = HashAssignment::load(path);
    EXPECT_EQ(loaded.defaultLength(), 5u);
    EXPECT_EQ(loaded.size(), 2u);
    EXPECT_EQ(loaded.lookup(0x400000), 3u);
    EXPECT_EQ(loaded.lookup(0x400abc), 17u);
    EXPECT_EQ(loaded.lookup(0x999999), 5u);

    // The same entries inserted in two orders give the same file, its
    // pcs in ascending order.
    const std::uint64_t pcs[] = {0x400010, 0x7fff0000, 0x400000, 0x10,
                                 0x400abc, 0xffffffffffull, 0x400004,
                                 0x8000};
    HashAssignment forward(7);
    HashAssignment backward(7);
    for (std::size_t i = 0; i < 8; ++i) {
        forward.assign(pcs[i], static_cast<unsigned>(i + 1));
        backward.assign(pcs[7 - i], static_cast<unsigned>(8 - i));
    }
    forward.save(path);
    const std::string forward_text = readFile(path);
    backward.save(path);
    EXPECT_EQ(readFile(path), forward_text);
    EXPECT_EQ(forward_text,
              "default 7\n10 4\n8000 8\n400000 3\n400004 7\n"
              "400010 1\n400abc 5\n7fff0000 2\nffffffffff 6\n");
    const HashAssignment reloaded = HashAssignment::load(path);
    EXPECT_EQ(reloaded.table(), forward.table());
    EXPECT_EQ(reloaded.defaultLength(), 7u);

    // A file that cannot be written is an error.
    EXPECT_THROW(forward.save("/no/such/dir/assignment.txt"),
                 std::runtime_error);
    if (std::FILE *full = std::fopen("/dev/full", "w")) {
        std::fclose(full);
        EXPECT_THROW(forward.save("/dev/full"), std::runtime_error);
    }
    std::remove(path.c_str());
}

TEST(HashAssignment, LoadRejectsMalformedFiles)
{
    const std::string path = testing::TempDir() + "/bad_assignment.txt";
    EXPECT_THROW(HashAssignment::load("/no/such/file"),
                 std::runtime_error);

    // Each file is rejected with the number of its first bad line.
    const std::pair<const char *, const char *> cases[] = {
        {"not an assignment file\n", "line 1:"},
        {"", "line 1:"},
        {"default 0\n", "line 1:"},
        {"default 33\n", "line 1:"},
        {"default 5 extra\n", "line 1:"},
        {"default 5\n400000 7\nzzz\n400010 3\n", "line 3:"},
        {"default 5\n400000 7\n400010 3\n400000 4\n", "line 4:"},
        {"default 5\n400000 7\n400000 7\n", "line 3:"},
        {"default 5\n400000\n", "line 2:"},
        {"default 5\n400000 7 9\n", "line 2:"},
        {"default 5\n400000 0\n", "line 2:"},
        {"default 5\n400000 33\n", "line 2:"},
        {"default 5\n400000 -1\n", "line 2:"},
        {"default 5\n-400000 7\n", "line 2:"},
        {"default 5\n400000 7x\n", "line 2:"},
        {"default 5\n10000000000000000 7\n", "line 2:"},
        {"default 5\n400000 7\n\n", "line 3:"},
    };
    for (const auto &[text, line] : cases) {
        SCOPED_TRACE(text);
        writeFile(path, text);
        try {
            HashAssignment::load(path);
            ADD_FAILURE() << "loaded a malformed file";
        } catch (const std::runtime_error &error) {
            const std::string message = error.what();
            EXPECT_NE(message.find(std::string("malformed assignment file: ")
                                   + line),
                      std::string::npos)
                << message;
        }
    }

    // Tabs, a 0x prefix, CRLF line ends and a missing final newline
    // still parse.
    writeFile(path, "default 5\r\n0x400000\t7\r\n400010 3");
    const HashAssignment loaded = HashAssignment::load(path);
    EXPECT_EQ(loaded.size(), 2u);
    EXPECT_EQ(loaded.lookup(0x400000), 7u);
    EXPECT_EQ(loaded.lookup(0x400010), 3u);
    std::remove(path.c_str());
}

// --- FLP / VLP predictors ---------------------------------------------

/**
 * Build a synthetic record stream in which branch B's outcome equals
 * the direction taken at a "context" branch exactly @p distance
 * history-eligible branches earlier (with filler conditional branches
 * of constant destination in between).
 */
class PathDistanceTrace
{
  public:
    PathDistanceTrace(unsigned distance, std::uint64_t seed)
        : distance_(distance), rng_(seed)
    {
    }

    /** Feed one round through @p predictor; returns true if the
     *  prediction for B was correct. */
    template <typename Predictor>
    bool
    round(Predictor &predictor)
    {
        const bool context_taken = rng_.nextBool(0.5);
        // Context branch: destination depends on its direction.
        feed(predictor,
             record(BranchKind::Conditional, 0x400000,
                    context_taken ? 0x400800 : 0x400004, context_taken),
             nullptr);
        // distance-1 filler branches with constant destinations.
        for (unsigned i = 0; i + 1 < distance_; ++i) {
            feed(predictor,
                 record(BranchKind::Conditional, 0x401000 + 16 * i,
                        0x401008 + 16 * i, true),
                 nullptr);
        }
        // The correlated branch B.
        bool correct = false;
        feed(predictor,
             record(BranchKind::Conditional, 0x402000,
                    context_taken ? 0x402040 : 0x402004, context_taken),
             &correct);
        return correct;
    }

  private:
    template <typename Predictor>
    void
    feed(Predictor &predictor, const BranchRecord &branch,
         bool *correct)
    {
        const bool predicted = predictor.predict(branch);
        if (correct != nullptr)
            *correct = predicted == branch.taken;
        predictor.update(branch);
        predictor.observe(branch);
    }

    unsigned distance_;
    util::Rng rng_;
};

TEST(PathConditionalPredictor, LearnsBranchAtCoveredDistance)
{
    // B correlates with the path entry at distance 6; a fixed length
    // of 6 covers it.
    PathConditionalPredictor predictor(12, 6);
    PathDistanceTrace trace(6, 77);
    unsigned misses = 0;
    for (int i = 0; i < 2000; ++i) {
        const bool correct = trace.round(predictor);
        if (i >= 1000 && !correct)
            ++misses;
    }
    EXPECT_LT(misses, 10u);
}

TEST(PathConditionalPredictor, FailsBeyondItsLength)
{
    // A fixed length of 3 cannot see the distance-6 context.
    PathConditionalPredictor predictor(12, 3);
    PathDistanceTrace trace(6, 78);
    unsigned misses = 0;
    for (int i = 0; i < 2000; ++i) {
        const bool correct = trace.round(predictor);
        if (i >= 1000 && !correct)
            ++misses;
    }
    EXPECT_GT(misses, 300u); // essentially a coin flip
}

TEST(PathConditionalPredictor, VariableAssignmentSelectsPerBranch)
{
    // With the profiled assignment pointing B at length 6, the VLP
    // predictor learns it even though the default is 1.
    HashAssignment assignment(1);
    assignment.assign(0x402000, 6);
    PathConditionalPredictor predictor(12, assignment);
    EXPECT_EQ(predictor.name(), "variable length path");
    PathDistanceTrace trace(6, 79);
    unsigned misses = 0;
    for (int i = 0; i < 2000; ++i) {
        const bool correct = trace.round(predictor);
        if (i >= 1000 && !correct)
            ++misses;
    }
    EXPECT_LT(misses, 10u);
}

// --- Both classes -----------------------------------------------------

template <typename Class>
class PathPredictorClass : public ::testing::Test
{
  protected:
    /** A branch of the class at @p pc. */
    static BranchRecord
    branch(std::uint64_t pc)
    {
        return record(std::is_same_v<Class, IndirectClass>
                          ? BranchKind::IndirectJump
                          : BranchKind::Conditional,
                      pc, pc + 0x40);
    }
};
using BranchClasses = ::testing::Types<ConditionalClass, IndirectClass>;
TYPED_TEST_SUITE(PathPredictorClass, BranchClasses);

TYPED_TEST(PathPredictorClass, NamesAndSizes)
{
    PathPredictor<TypeParam> flp(14, 4);
    EXPECT_EQ(flp.name(), "fixed length path");
    // 16K 2-bit counters or 16K 32-bit target registers.
    constexpr bool indirect = std::is_same_v<TypeParam, IndirectClass>;
    EXPECT_EQ(flp.sizeBytes(), indirect ? 65536u : 4096u);
    EXPECT_EQ(flp.assignment().defaultLength(), 4u);
    EXPECT_GT(flp.historyBytes(), 0u);

    PathPredictor<TypeParam> vlp(14, HashAssignment(4));
    EXPECT_EQ(vlp.name(), "variable length path");
    EXPECT_EQ(vlp.sizeBytes(), flp.sizeBytes());
}

TYPED_TEST(PathPredictorClass, AssignmentLengthsClampToDepth)
{
    // An assignment built for a 32-deep THB must still work on a
    // predictor configured with a shallower history.
    PathHistoryOptions options;
    options.depth = 8;
    HashAssignment assignment(1);
    assignment.assign(0x400000, 32);
    PathPredictor<TypeParam> predictor(10, assignment, options);
    // Must not crash; uses length 8 instead, as a fixed length 8 does
    // (with one bank per entry, bankOf() is the whole table index).
    PathPredictor<TypeParam> eight(10, 8, options);
    predictor.setBanks(1024);
    eight.setBanks(1024);
    util::Rng rng(3);
    for (int i = 0; i < 40; ++i) {
        const BranchRecord branch = this->branch(0x400000);
        predictor.predict(branch);
        predictor.update(branch);
        ASSERT_EQ(predictor.bankOf(branch), eight.bankOf(branch));
        const BranchRecord noise = record(
            BranchKind::Conditional, 0x401000 + 4 * rng.nextBelow(64),
            0x402000 + 4 * rng.nextBelow(64));
        predictor.observe(noise);
        eight.observe(noise);
    }
}

TYPED_TEST(PathPredictorClass, SetBanksValidatesAndBankOfIsIndexLowBits)
{
    PathPredictor<TypeParam> predictor(4, 3); // 16 entries
    // Not a power of two, or more banks than entries.
    EXPECT_THROW(predictor.setBanks(3), std::runtime_error);
    EXPECT_THROW(predictor.setBanks(32), std::runtime_error);
    EXPECT_EQ(predictor.bankCount(), 0u);

    util::Rng rng(5);
    for (const unsigned banks : {0u, 1u, 4u, 16u}) {
        predictor.setBanks(banks);
        EXPECT_EQ(predictor.bankCount(), banks);
        for (int i = 0; i < 20; ++i) {
            const BranchRecord branch =
                this->branch(0x400000 + 4 * rng.nextBelow(16));
            const unsigned index =
                static_cast<unsigned>(predictor.bank().index(3));
            ASSERT_EQ(predictor.bankOf(branch),
                      banks == 0 ? 0u : index & (banks - 1));
            predictor.observe(branch);
        }
    }
}

TEST(PathIndirectPredictor, LearnsPathDependentTargets)
{
    // Target of the indirect jump depends on the previous conditional
    // branch's direction (path length 1).
    PathIndirectPredictor predictor(9, 1);
    util::Rng rng(13);
    unsigned misses = 0;
    for (int i = 0; i < 2000; ++i) {
        const bool direction = rng.nextBool(0.5);
        const BranchRecord guard =
            record(BranchKind::Conditional, 0x400000,
                   direction ? 0x400800 : 0x400004, direction);
        predictor.observe(guard);
        const BranchRecord jump =
            record(BranchKind::IndirectJump, 0x402000,
                   direction ? 0x500000 : 0x600000);
        if (i >= 1000 && predictor.predict(jump) != jump.nextPc)
            ++misses;
        predictor.update(jump);
        predictor.observe(jump);
    }
    EXPECT_LT(misses, 10u);
}

TEST(PathIndirectPredictor, StoresLow32BitsOnly)
{
    PathIndirectPredictor predictor(9, 1);
    const BranchRecord jump = record(BranchKind::IndirectJump,
                                     0xaaaa000000402000ULL,
                                     0xaaaa000000500000ULL);
    predictor.predict(jump);
    predictor.update(jump);
    // The table keeps the low 32 bits; the upper bits come from the
    // fetch address (paper footnote in Section 5.2.2).
    EXPECT_EQ(predictor.predict(jump), 0xaaaa000000500000ULL);
    EXPECT_EQ(predictor.name(), "fixed length path");
    EXPECT_EQ(predictor.sizeBytes(), 2048u);
}

TEST(PathIndirectPredictor, VariableName)
{
    PathIndirectPredictor predictor(9, HashAssignment(3));
    EXPECT_EQ(predictor.name(), "variable length path");
}

// --- HFNT -------------------------------------------------------------

TEST(Hfnt, ColdPredictsShortestPath)
{
    HashFunctionNumberTable hfnt(8);
    EXPECT_EQ(hfnt.predictNumber(0x400000), 1u);
}

TEST(Hfnt, LearnsAndCountsMismatches)
{
    HashFunctionNumberTable hfnt(8);
    EXPECT_EQ(hfnt.predictNumber(0x400000), 1u);
    hfnt.update(0x400000, 7); // mismatch: entry held 1
    EXPECT_EQ(hfnt.mismatches(), 1u);
    EXPECT_EQ(hfnt.predictNumber(0x400000), 7u);
    hfnt.update(0x400000, 7); // now matches
    EXPECT_EQ(hfnt.mismatches(), 1u);
    EXPECT_EQ(hfnt.lookups(), 2u);
    EXPECT_DOUBLE_EQ(hfnt.mismatchRate(), 50.0);
}

TEST(Hfnt, AliasedBranchesConflict)
{
    HashFunctionNumberTable hfnt(2); // 4 entries: heavy aliasing
    hfnt.update(0x400000, 9);
    // 0x400040 >> 2 has the same low 2 bits as 0x400000 >> 2.
    EXPECT_EQ(hfnt.predictNumber(0x400040), 9u);
}

TEST(Hfnt, SizeBytes)
{
    EXPECT_EQ(HashFunctionNumberTable(8).sizeBytes(), 160u); // 256*5/8
}

} // anonymous namespace
