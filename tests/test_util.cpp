/**
 * @file
 * Unit tests for counters, history registers, RNG, statistics, tables,
 * the retry policy (exponential schedule and seeded full jitter),
 * logging helpers and the XXH64 entry checksum.
 */

#include <algorithm>
#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <gtest/gtest.h>
#include <initializer_list>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "store/cache_key.h"
#include "util/args.h"
#include "util/checksum.h"
#include "util/history_register.h"
#include "util/json.h"
#include "util/logging.h"
#include "util/packed_counter_table.h"
#include "util/retry.h"
#include "util/rng.h"
#include "util/saturating_counter.h"
#include "util/stats.h"
#include "util/table.h"

namespace {

using namespace vlp::util;

TEST(SaturatingCounter, DefaultIsWeaklyNotTaken)
{
    SaturatingCounter counter(2);
    EXPECT_EQ(counter.value(), 1u);
    EXPECT_FALSE(counter.predictTaken());
}

TEST(SaturatingCounter, TakenThresholdAtMidpoint)
{
    SaturatingCounter counter(2, 2);
    EXPECT_TRUE(counter.predictTaken());
    counter.decrement();
    EXPECT_FALSE(counter.predictTaken());
}

TEST(SaturatingCounter, SaturatesHigh)
{
    SaturatingCounter counter(2, 3);
    counter.increment();
    EXPECT_EQ(counter.value(), 3u);
}

TEST(SaturatingCounter, SaturatesLow)
{
    SaturatingCounter counter(2, 0);
    counter.decrement();
    EXPECT_EQ(counter.value(), 0u);
}

TEST(SaturatingCounter, UpdateDirection)
{
    SaturatingCounter counter(2);
    counter.update(true);
    counter.update(true);
    EXPECT_TRUE(counter.predictTaken());
    counter.update(false);
    counter.update(false);
    counter.update(false);
    EXPECT_FALSE(counter.predictTaken());
    EXPECT_EQ(counter.value(), 0u);
}

TEST(SaturatingCounter, Confidence)
{
    SaturatingCounter counter(2, 3);
    EXPECT_EQ(counter.confidence(), 1u); // strongly taken
    counter.update(false);
    EXPECT_EQ(counter.confidence(), 0u); // weakly taken
    counter.update(false);
    EXPECT_EQ(counter.confidence(), 0u); // weakly not-taken
    counter.update(false);
    EXPECT_EQ(counter.confidence(), 1u); // strongly not-taken
}

class CounterWidths : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(CounterWidths, HysteresisAcrossWidths)
{
    const unsigned bits = GetParam();
    SaturatingCounter counter(bits);
    EXPECT_EQ(counter.maxValue(), (1u << bits) - 1);
    // Drive to saturation taken.
    for (unsigned i = 0; i < (1u << bits) + 2; ++i)
        counter.update(true);
    EXPECT_EQ(counter.value(), counter.maxValue());
    EXPECT_TRUE(counter.predictTaken());
    // It takes half the range of not-taken updates to flip.
    for (unsigned i = 0; i < (1u << (bits - 1)); ++i)
        counter.update(false);
    EXPECT_FALSE(counter.predictTaken());
}

INSTANTIATE_TEST_SUITE_P(Widths, CounterWidths,
                         ::testing::Values(1u, 2u, 3u, 4u, 6u, 8u));

TEST(BitHistoryRegister, ShiftsAndTruncates)
{
    BitHistoryRegister history(4);
    history.push(true);
    history.push(false);
    history.push(true);
    EXPECT_EQ(history.value(), 0b101u);
    history.push(true);
    history.push(true);
    EXPECT_EQ(history.value(), 0b0111u); // oldest bit dropped
}

TEST(BitHistoryRegister, SetAndClear)
{
    BitHistoryRegister history(8);
    for (int i = 0; i < 12; ++i)
        history.push(true);
    EXPECT_EQ(history.value(), 0xffu);
    history.clear();
    EXPECT_EQ(history.value(), 0u);
}

TEST(ChunkHistoryRegister, ShiftsChunks)
{
    ChunkHistoryRegister history(8, 2);
    EXPECT_EQ(history.depth(), 4u);
    history.push(0b01);
    history.push(0b10);
    EXPECT_EQ(history.value(), 0b0110u);
    history.push(0xff); // only low 2 bits recorded
    EXPECT_EQ(history.value(), 0b011011u);
}

TEST(Rng, DeterministicPerSeed)
{
    Rng a(123), b(123), c(124);
    bool all_equal = true;
    bool any_diff = false;
    for (int i = 0; i < 100; ++i) {
        const auto va = a.next();
        all_equal = all_equal && (va == b.next());
        any_diff = any_diff || (va != c.next());
    }
    EXPECT_TRUE(all_equal);
    EXPECT_TRUE(any_diff);
}

TEST(Rng, NextBelowInRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.nextBelow(17), 17u);
    // Bound 1 always yields 0.
    EXPECT_EQ(rng.nextBelow(1), 0u);
}

TEST(Rng, NextInRangeInclusive)
{
    Rng rng(9);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        const auto value = rng.nextInRange(-3, 3);
        EXPECT_GE(value, -3);
        EXPECT_LE(value, 3);
        saw_lo = saw_lo || value == -3;
        saw_hi = saw_hi || value == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng rng(11);
    for (int i = 0; i < 1000; ++i) {
        const double value = rng.nextDouble();
        EXPECT_GE(value, 0.0);
        EXPECT_LT(value, 1.0);
    }
}

TEST(Rng, BoolExtremes)
{
    Rng rng(13);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.nextBool(0.0));
        EXPECT_TRUE(rng.nextBool(1.0));
    }
}

TEST(Rng, BoolFrequency)
{
    Rng rng(15);
    int taken = 0;
    for (int i = 0; i < 100000; ++i)
        taken += rng.nextBool(0.3) ? 1 : 0;
    EXPECT_NEAR(taken / 100000.0, 0.3, 0.02);
}

TEST(Rng, GeometricRespectsCap)
{
    Rng rng(17);
    for (int i = 0; i < 1000; ++i) {
        const unsigned value = rng.nextGeometric(0.9, 5);
        EXPECT_GE(value, 1u);
        EXPECT_LE(value, 5u);
    }
}

TEST(Rng, WeightedSkipsZeroWeights)
{
    Rng rng(19);
    const std::vector<double> weights = {0.0, 1.0, 0.0};
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(rng.nextWeighted(weights), 1u);
}

TEST(Rng, WeightedProportions)
{
    Rng rng(21);
    const std::vector<double> weights = {1.0, 3.0};
    int hits = 0;
    for (int i = 0; i < 40000; ++i)
        hits += rng.nextWeighted(weights) == 1 ? 1 : 0;
    EXPECT_NEAR(hits / 40000.0, 0.75, 0.02);
}

TEST(Rng, ZipfSkewsTowardSmallIndices)
{
    Rng rng(23);
    std::uint64_t zero = 0, last = 0;
    for (int i = 0; i < 20000; ++i) {
        const std::size_t value = rng.nextZipf(16, 1.2);
        EXPECT_LT(value, 16u);
        zero += value == 0 ? 1 : 0;
        last += value == 15 ? 1 : 0;
    }
    EXPECT_GT(zero, last * 4);
}

TEST(Rng, SplitIndependence)
{
    Rng parent(31);
    Rng child = parent.split();
    // Parent and child streams diverge.
    bool differ = false;
    for (int i = 0; i < 10; ++i)
        differ = differ || (parent.next() != child.next());
    EXPECT_TRUE(differ);
}

TEST(Stats, Percent)
{
    EXPECT_DOUBLE_EQ(percent(1, 4), 25.0);
    EXPECT_DOUBLE_EQ(percent(0, 0), 0.0);
    EXPECT_DOUBLE_EQ(percent(5, 0), 0.0);
}

TEST(Stats, Formatting)
{
    EXPECT_EQ(formatDouble(3.14159, 2), "3.14");
    EXPECT_EQ(formatCount(1234567), "1,234,567");
    EXPECT_EQ(formatCount(12), "12");
    EXPECT_EQ(formatScaled(17600000), "17.6 M");
    EXPECT_EQ(formatScaled(999), "999");
    EXPECT_EQ(formatScaled(91400), "91.4 K");
}

// --- number formatting against the printf family ------------------

/** Reference JSON number: the lowest %g precision whose text strtod
 *  reads back exactly (a printf search over precisions 1-17). */
std::string
shortestPercentG(double number)
{
    char buffer[64];
    for (int precision = 1; precision <= 17; ++precision) {
        std::snprintf(buffer, sizeof(buffer), "%.*g", precision,
                      number);
        if (std::strtod(buffer, nullptr) == number)
            break;
    }
    return buffer;
}

/** snprintf with a `%.*` @p format and a buffer no double outgrows. */
std::string
printfFormat(const char *format, double number, int precision)
{
    char buffer[512];
    std::snprintf(buffer, sizeof(buffer), format, precision, number);
    return buffer;
}

/** One double through a fresh compact JsonWriter. */
std::string
jsonNumber(double number)
{
    JsonWriter writer(JsonWriter::Style::Compact);
    writer.value(number);
    return writer.str();
}

/** Doubles that stress a formatter: ±0, subnormals, DBL_MAX, every
 *  power of two in both signs, percent-style ratios, integers,
 *  hundredths, printf halfway cases, then @p random_bits seeded
 *  random bit patterns (NaNs and infinities among them). */
std::vector<double>
formatterInputs(std::size_t random_bits)
{
    std::vector<double> values = {0.0, -0.0, DBL_MIN, DBL_TRUE_MIN,
                                  -DBL_TRUE_MIN, DBL_MAX, -DBL_MAX,
                                  DBL_EPSILON, 0.125, 2.675, 1.005,
                                  0.5, 1.5, 2.5, 1e15, 1e16, 1e17,
                                  1e21, 1e-5, 123456789012345678.0};
    for (int exponent = -1074; exponent <= 1023; ++exponent) {
        values.push_back(std::ldexp(1.0, exponent));
        values.push_back(-std::ldexp(1.0, exponent));
    }
    for (std::uint64_t denom = 1; denom <= 300; ++denom)
        for (std::uint64_t numer = 0; numer <= denom; numer += 7)
            values.push_back(100.0 * static_cast<double>(numer)
                             / static_cast<double>(denom));
    for (int i = -2000; i <= 2000; ++i) {
        values.push_back(static_cast<double>(i));
        values.push_back(i / 100.0);
    }
    Rng rng(20180618);
    for (std::size_t i = 0; i < random_bits; ++i)
        values.push_back(std::bit_cast<double>(rng.next()));
    return values;
}

TEST(JsonWriter, DoubleMatchesShortestPercentGSearch)
{
    const std::vector<double> values = formatterInputs(1000000);
    // The printf search costs microseconds a value (glibc's %g goes
    // multi-precision at extreme exponents): split it over threads.
    constexpr std::size_t shards = 4;
    std::vector<std::vector<double>> mismatches(shards);
    std::vector<std::thread> workers;
    for (std::size_t shard = 0; shard < shards; ++shard) {
        workers.emplace_back([&values, &mismatches, shard] {
            for (std::size_t i = shard; i < values.size(); i += shards) {
                const double number = values[i];
                const std::string expected = std::isfinite(number)
                    ? shortestPercentG(number)
                    : "null";
                if (jsonNumber(number) != expected)
                    mismatches[shard].push_back(number);
            }
        });
    }
    for (std::thread &worker : workers)
        worker.join();
    for (const std::vector<double> &shard : mismatches) {
        if (shard.empty())
            continue;
        ADD_FAILURE() << shard.size() << " mismatches; first bits "
                      << std::bit_cast<std::uint64_t>(shard.front())
                      << ": writer " << jsonNumber(shard.front())
                      << ", printf search "
                      << shortestPercentG(shard.front());
    }
    EXPECT_EQ(jsonNumber(NAN), "null");
    EXPECT_EQ(jsonNumber(INFINITY), "null");
    EXPECT_EQ(jsonNumber(-INFINITY), "null");
    EXPECT_EQ(jsonNumber(22.288636363636364), "22.288636363636364");
    EXPECT_EQ(jsonNumber(-0.0), "-0");
    EXPECT_EQ(jsonNumber(1e21), "1e+21");
}

TEST(FormatDouble, MatchesPrintfFixed)
{
    std::vector<double> values = formatterInputs(100000);
    values.push_back(NAN);
    values.push_back(-NAN);
    values.push_back(INFINITY);
    values.push_back(-INFINITY);
    for (const double number : values)
        for (int decimals = 0; decimals <= 6; ++decimals)
            ASSERT_EQ(formatDouble(number, decimals),
                      printfFormat("%.*f", number, decimals))
                << std::bit_cast<std::uint64_t>(number) << " at "
                << decimals;
}

TEST(KeyBuilder, DoubleFieldMatchesPercent17g)
{
    std::vector<double> values = formatterInputs(200000);
    values.push_back(NAN);
    values.push_back(INFINITY);
    values.push_back(-INFINITY);
    for (const double number : values) {
        const std::string text =
            vlp::store::KeyBuilder("k").field("x", number).build().text();
        ASSERT_EQ(text, "kind=k;version="
                            + std::to_string(
                                vlp::store::artifactFormatVersion)
                            + ";x=" + printfFormat("%.*g", number, 17)
                            + ";")
            << std::bit_cast<std::uint64_t>(number);
    }
}

TEST(Stats, RunningStat)
{
    RunningStat stat;
    EXPECT_EQ(stat.count(), 0u);
    EXPECT_DOUBLE_EQ(stat.mean(), 0.0);
    stat.add(2.0);
    stat.add(4.0);
    stat.add(9.0);
    EXPECT_EQ(stat.count(), 3u);
    EXPECT_DOUBLE_EQ(stat.mean(), 5.0);
    EXPECT_DOUBLE_EQ(stat.min(), 2.0);
    EXPECT_DOUBLE_EQ(stat.max(), 9.0);
    EXPECT_DOUBLE_EQ(stat.sum(), 15.0);
}

TEST(Stats, HistogramBasics)
{
    Histogram histogram(8);
    histogram.add(1);
    histogram.add(1);
    histogram.add(3, 5);
    histogram.add(100); // clamped into the last bucket
    EXPECT_EQ(histogram.bucket(1), 2u);
    EXPECT_EQ(histogram.bucket(3), 5u);
    EXPECT_EQ(histogram.bucket(7), 1u);
    EXPECT_EQ(histogram.total(), 8u);
    EXPECT_EQ(histogram.argMax(), 3u);
    EXPECT_EQ(histogram.toString(), "1:2 3:5 7:1");
}

TEST(Table, AlignmentAndCsv)
{
    TablePrinter table({"name", "rate"});
    table.addRow({"gcc", "4.3"});
    table.addRow({"a,b", "8.8"});
    EXPECT_EQ(table.rowCount(), 2u);
    EXPECT_EQ(table.cell(0, 1), "4.3");

    std::ostringstream text;
    table.print(text);
    EXPECT_NE(text.str().find("name"), std::string::npos);
    EXPECT_NE(text.str().find("gcc"), std::string::npos);

    std::ostringstream csv;
    table.printCsv(csv);
    EXPECT_NE(csv.str().find("\"a,b\",8.8"), std::string::npos);
}

TEST(Table, CsvEscape)
{
    EXPECT_EQ(csvEscape("plain"), "plain");
    EXPECT_EQ(csvEscape("a,b"), "\"a,b\"");
    EXPECT_EQ(csvEscape("q\"q"), "\"q\"\"q\"");
}

TEST(PackedCounterTable, DefaultIsWeaklyNotTaken)
{
    PackedCounterTable table(16, 2);
    for (std::size_t i = 0; i < table.size(); ++i) {
        EXPECT_EQ(table.value(i), 1u);
        EXPECT_FALSE(table.predictTaken(i));
    }
}

TEST(PackedCounterTable, ArchitecturalSizeIsPackedBits)
{
    // A 14-bit table of 2-bit counters is the paper's 4 KiB budget.
    EXPECT_EQ(PackedCounterTable(std::size_t{1} << 14, 2).sizeBytes(),
              4096u);
    // Odd widths round the total up to whole bytes, with no
    // slot-padding leaking into the architectural number.
    EXPECT_EQ(PackedCounterTable(10, 3).sizeBytes(), 4u);
    EXPECT_EQ(PackedCounterTable(7, 1).sizeBytes(), 1u);
}

TEST(PackedCounterTable, UpdatesOnlyTheAddressedSlot)
{
    PackedCounterTable table(64, 2);
    table.set(10, 3);
    table.update(11, true);
    table.update(9, false);
    EXPECT_EQ(table.value(10), 3u);
    EXPECT_EQ(table.value(11), 2u);
    EXPECT_EQ(table.value(9), 0u);
    EXPECT_EQ(table.value(8), 1u);
    EXPECT_EQ(table.value(12), 1u);
}

/**
 * Property test: a PackedCounterTable must be indistinguishable from
 * an array of util::SaturatingCounter at every supported width under
 * a long random mixed workload of updates, forced sets, and reads.
 */
TEST(PackedCounterTable, MatchesSaturatingCounterAtEveryWidth)
{
    Rng rng(0xc0117e5);
    for (unsigned bits = 1; bits <= 8; ++bits) {
        const std::size_t size = 61; // not a power of two on purpose
        PackedCounterTable packed(size, bits);
        std::vector<SaturatingCounter> reference(
            size, SaturatingCounter(bits));
        for (int step = 0; step < 20000; ++step) {
            const std::size_t index = rng.nextBelow(size);
            const unsigned action =
                static_cast<unsigned>(rng.nextBelow(8));
            if (action == 0) {
                const unsigned forced = static_cast<unsigned>(
                    rng.nextBelow(packed.maxValue() + 1));
                packed.set(index, forced);
                reference[index] = SaturatingCounter(
                    bits, static_cast<int>(forced));
            } else if (action == 1) {
                const bool taken = rng.nextBool(0.5);
                EXPECT_EQ(packed.predictThenUpdate(index, taken),
                          reference[index].predictTaken());
                reference[index].update(taken);
            } else {
                const bool taken = rng.nextBool(0.5);
                packed.update(index, taken);
                reference[index].update(taken);
            }
            ASSERT_EQ(packed.value(index), reference[index].value())
                << "width " << bits << " step " << step;
            ASSERT_EQ(packed.predictTaken(index),
                      reference[index].predictTaken());
            ASSERT_EQ(packed.confidence(index),
                      reference[index].confidence());
        }
    }
}

TEST(Xxh64, MatchesPublishedVectors)
{
    const auto hash = [](const std::string &text, std::uint64_t seed) {
        return xxh64(text.data(), text.size(), seed);
    };
    EXPECT_EQ(hash("", 0), 0xef46db3751d8e999ull);
    EXPECT_EQ(hash("a", 0), 0xd24ec4f1a98c6e5bull);
    EXPECT_EQ(hash("abc", 0), 0x44bc2cf5ad770999ull);
    EXPECT_EQ(hash("xxhash", 0), 0x32dd38952c4bc720ull);
    EXPECT_EQ(hash("xxhash", 20141025), 0xb559b98d844e0635ull);
    // 39 bytes: one four-lane stripe, then a word, a half word and
    // three single bytes.
    EXPECT_EQ(hash("Nobody inspects the spammish repetition", 0),
              0xfbcea83c8a378bf1ull);
}

TEST(Xxh64, EveryByteOfEveryShortLengthMatters)
{
    // Lengths 0-100 take every tail branch (words, half word, single
    // bytes) with and without the >= 32-byte lane loop in front.
    std::vector<unsigned char> bytes(100);
    for (std::size_t i = 0; i < bytes.size(); ++i)
        bytes[i] = static_cast<unsigned char>(i * 37 + 11);
    std::vector<std::uint64_t> seen;
    for (std::size_t size = 0; size <= bytes.size(); ++size) {
        const std::uint64_t hash = xxh64(bytes.data(), size);
        EXPECT_EQ(std::count(seen.begin(), seen.end(), hash), 0)
            << "size " << size;
        seen.push_back(hash);
        EXPECT_NE(xxh64(bytes.data(), size, 1), hash) << "size " << size;
        for (std::size_t at = 0; at < size; ++at) {
            std::vector<unsigned char> changed(bytes.begin(),
                                               bytes.begin() + size);
            changed[at] ^= 0x80;
            EXPECT_NE(xxh64(changed.data(), size), hash)
                << "size " << size << " byte " << at;
        }
    }
}

TEST(Logging, FatalThrows)
{
    EXPECT_THROW(fatal("boom"), std::runtime_error);
}

TEST(Logging, WorkloadScaleParsing)
{
    setenv("VLPSIM_SCALE", "2.5", 1);
    EXPECT_DOUBLE_EQ(workloadScale(), 2.5);
    setenv("VLPSIM_SCALE", "garbage", 1);
    EXPECT_DOUBLE_EQ(workloadScale(), 1.0);
    setenv("VLPSIM_SCALE", "1e9", 1);
    EXPECT_DOUBLE_EQ(workloadScale(), 1000.0); // clamped
    unsetenv("VLPSIM_SCALE");
    EXPECT_DOUBLE_EQ(workloadScale(), 1.0);
}

/** Build an argv array from literals for ArgParser tests. */
std::vector<char *>
makeArgv(std::initializer_list<const char *> args)
{
    static std::vector<std::string> storage;
    storage.assign(args.begin(), args.end());
    std::vector<char *> argv;
    for (std::string &arg : storage)
        argv.push_back(arg.data());
    argv.push_back(nullptr);
    return argv;
}

TEST(ArgParser, ParsesFlagsInBothFormsAndPositionals)
{
    ArgParser parser("prog", "test program");
    std::uint64_t jobs = 0;
    std::string directory;
    bool off = false;
    parser.addUint("--jobs", "N", "workers", &jobs, 4096);
    parser.addString("--cache-dir", "DIR", "cache", &directory);
    parser.addSwitch("--no-cache", "disable", &off);
    parser.addPositional("class", "branch class");
    parser.addPositional("bytes", "budget");

    auto argv = makeArgv({"prog", "--jobs", "4", "cond",
                          "--cache-dir=/tmp/c", "8192", "--no-cache"});
    const auto positionals =
        parser.parse(static_cast<int>(argv.size()) - 1, argv.data());
    EXPECT_EQ(jobs, 4u);
    EXPECT_EQ(directory, "/tmp/c");
    EXPECT_TRUE(off);
    ASSERT_EQ(positionals.size(), 2u);
    EXPECT_EQ(positionals[0], "cond");
    EXPECT_EQ(positionals[1], "8192");
}

TEST(ArgParser, AllowExtraCollectsUnknownFlags)
{
    ArgParser parser("prog", "test program");
    std::uint64_t jobs = 0;
    parser.addUint("--jobs", "N", "workers", &jobs);
    parser.allowExtra();
    auto argv = makeArgv(
        {"prog", "--benchmark_filter=foo", "--jobs", "2"});
    parser.parse(static_cast<int>(argv.size()) - 1, argv.data());
    EXPECT_EQ(jobs, 2u);
    ASSERT_EQ(parser.extra().size(), 1u);
    EXPECT_EQ(parser.extra()[0], "--benchmark_filter=foo");
}

TEST(ArgParserDeathTest, HelpExitsZeroAndListsFlags)
{
    auto run = [] {
        ArgParser parser("prog", "test program");
        std::uint64_t jobs = 0;
        parser.addUint("--jobs", "N", "workers", &jobs);
        auto argv = makeArgv({"prog", "--help"});
        parser.parse(static_cast<int>(argv.size()) - 1, argv.data());
    };
    EXPECT_EXIT(run(), ::testing::ExitedWithCode(0), "");
}

TEST(ArgParserDeathTest, UnknownFlagExitsTwoWithUsageHint)
{
    auto run = [] {
        ArgParser parser("prog", "test program");
        auto argv = makeArgv({"prog", "--bogus"});
        parser.parse(static_cast<int>(argv.size()) - 1, argv.data());
    };
    EXPECT_EXIT(run(), ::testing::ExitedWithCode(2),
                "run 'prog --help' for usage");
}

TEST(ArgParserDeathTest, MalformedValueExitsTwo)
{
    auto run = [] {
        ArgParser parser("prog", "test program");
        std::uint64_t jobs = 0;
        parser.addUint("--jobs", "N", "workers", &jobs, 4096);
        auto argv = makeArgv({"prog", "--jobs", "banana"});
        parser.parse(static_cast<int>(argv.size()) - 1, argv.data());
    };
    EXPECT_EXIT(run(), ::testing::ExitedWithCode(2), "--jobs");
}

// --- retry policy ----------------------------------------------------

/** Run retryTransient with @p failures leading TransientErrors and
 *  capture the backoff schedule the sleeper observes. */
std::vector<unsigned>
backoffSchedule(RetryPolicy policy, unsigned failures)
{
    std::vector<unsigned> delays;
    policy.sleeper = [&delays](unsigned ms) { delays.push_back(ms); };
    unsigned remaining = failures;
    retryTransient(policy, [&remaining] {
        if (remaining > 0) {
            --remaining;
            throw vlp::util::TransientError("induced");
        }
        return 0;
    });
    return delays;
}

TEST(RetryPolicy, UnjitteredScheduleIsExactExponential)
{
    RetryPolicy policy;
    policy.maxAttempts = 4;
    policy.backoffBaseMs = 10;
    EXPECT_EQ(backoffSchedule(policy, 3),
              (std::vector<unsigned>{10, 20, 40}));
}

TEST(RetryPolicy, ScheduleClampsAtBackoffMax)
{
    RetryPolicy policy;
    policy.maxAttempts = 6;
    policy.backoffBaseMs = 10;
    policy.backoffMaxMs = 25;
    EXPECT_EQ(backoffSchedule(policy, 5),
              (std::vector<unsigned>{10, 20, 25, 25, 25}));
}

TEST(RetryPolicy, JitterSeedGivesRepeatableBoundedSchedule)
{
    RetryPolicy policy;
    policy.maxAttempts = 8;
    policy.backoffBaseMs = 10;
    policy.backoffMaxMs = 200;
    policy.jitterSeed = 0xfeedULL;

    const auto first = backoffSchedule(policy, 7);
    ASSERT_EQ(first.size(), 7u);
    for (std::size_t r = 0; r < first.size(); ++r) {
        const unsigned ceiling = std::min<unsigned>(
            policy.backoffMaxMs, 10u << std::min<std::size_t>(r, 31));
        EXPECT_LE(first[r], ceiling) << "retry " << r;
    }

    // The draw depends only on (seed, attempt): exact replay.
    EXPECT_EQ(backoffSchedule(policy, 7), first);

    // A different seed decorrelates the shards.
    policy.jitterSeed = 0xbeefULL;
    EXPECT_NE(backoffSchedule(policy, 7), first);

    // And jitter never changes *whether* retries happen: the budget
    // still runs out on a persistent fault.
    unsigned attempts = 0;
    policy.sleeper = [](unsigned) {};
    EXPECT_THROW(retryTransient(policy,
                                [&attempts]() -> int {
                                    ++attempts;
                                    throw vlp::util::TransientError(
                                        "persistent");
                                }),
                 vlp::util::TransientError);
    EXPECT_EQ(attempts, policy.maxAttempts);
}

TEST(ArgParserDeathTest, MissingRequiredPositionalExitsTwo)
{
    auto run = [] {
        ArgParser parser("prog", "test program");
        parser.addPositional("input", "input file");
        auto argv = makeArgv({"prog"});
        parser.parse(static_cast<int>(argv.size()) - 1, argv.data());
    };
    EXPECT_EXIT(run(), ::testing::ExitedWithCode(2), "input");
}

} // anonymous namespace
