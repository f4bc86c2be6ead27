/**
 * @file
 * Tests for the artifact store: key derivation, artifact codecs, the
 * on-disk store itself (hits, corruption recovery, garbage
 * collection), and the end-to-end caching contract — a warm rerun
 * must reproduce a cold run bit for bit, serial or parallel.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <gtest/gtest.h>
#include <iterator>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "core/profiler.h"
#include "predictors/budget.h"
#include "sim/experiment.h"
#include "sim/parallel.h"
#include "sim/service.h"
#include "sim/shared_memo.h"
#include "store/artifact_store.h"
#include "store/cache_key.h"
#include "store/serialize.h"
#include "trace/prefetch.h"
#include "trace/streaming.h"
#include "trace/trace_io.h"
#include "util/checksum.h"
#include "workload/benchmarks.h"

namespace {

namespace fs = std::filesystem;
using namespace vlp;
using namespace vlp::store;

/** A fresh cache directory per test, removed on teardown. */
class StoreHarness : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        directory_ = testing::TempDir() + "/vlpsim_store_"
            + ::testing::UnitTest::GetInstance()
                  ->current_test_info()
                  ->name();
        fs::remove_all(directory_);
    }

    void TearDown() override { fs::remove_all(directory_); }

    ArtifactStore open(std::uint64_t max_bytes = 0)
    {
        StoreOptions options;
        options.directory = directory_;
        options.maxBytes = max_bytes;
        return ArtifactStore(options);
    }

    std::vector<fs::path> entryFiles() const
    {
        std::vector<fs::path> files;
        const fs::path objects = fs::path(directory_) / "objects";
        if (!fs::exists(objects))
            return files;
        for (const auto &entry :
             fs::recursive_directory_iterator(objects)) {
            if (entry.is_regular_file()
                && entry.path().extension() == ".vlpa") {
                files.push_back(entry.path());
            }
        }
        return files;
    }

    std::string directory_;
};

CacheKey
sampleKey(const std::string &workload = "gcc")
{
    KeyBuilder builder("profile");
    builder.field("workload", workload)
        .field("indexBits", std::uint64_t{14})
        .field("scale", 0.05);
    return builder.build();
}

std::vector<std::uint8_t>
samplePayload(std::size_t size = 64, std::uint8_t seed = 7)
{
    std::vector<std::uint8_t> payload(size);
    for (std::size_t i = 0; i < size; ++i)
        payload[i] = static_cast<std::uint8_t>(seed + i * 13);
    return payload;
}

TEST(CacheKeyTest, TextIsCanonicalAndVersioned)
{
    const CacheKey key = sampleKey();
    // The artifact kind and format version lead every key, so a
    // version bump re-addresses every artifact at once.
    EXPECT_EQ(key.text().rfind("kind=profile;", 0), 0u) << key.text();
    EXPECT_NE(key.text().find(
                  "version=" + std::to_string(artifactFormatVersion)),
              std::string::npos)
        << key.text();
    EXPECT_NE(key.text().find("workload=gcc;"), std::string::npos);
}

TEST(CacheKeyTest, HashIsStableAndFieldSensitive)
{
    EXPECT_EQ(sampleKey().hashHex(), sampleKey().hashHex());
    EXPECT_EQ(sampleKey().hashHex().size(), 32u);
    EXPECT_NE(sampleKey("gcc").hashHex(), sampleKey("perl").hashHex());

    // Field order and naming matter: a value moving between fields
    // must not alias.
    KeyBuilder a("profile");
    a.field("x", std::uint64_t{1}).field("y", std::uint64_t{2});
    KeyBuilder b("profile");
    b.field("x", std::uint64_t{2}).field("y", std::uint64_t{1});
    EXPECT_NE(a.build().hashHex(), b.build().hashHex());
}

TEST(CacheKeyTest, RelativePathUsesHashFanout)
{
    const CacheKey key = sampleKey();
    const std::string hex = key.hashHex();
    EXPECT_EQ(key.relativePath(),
              "objects/" + hex.substr(0, 2) + "/" + hex + ".vlpa");
}

TEST(CacheKeyTest, RejectsReservedCharacters)
{
    KeyBuilder builder("profile");
    EXPECT_THROW(builder.field("work=load", std::string("x")),
                 std::runtime_error);
    EXPECT_THROW(builder.field("workload", std::string("a;b")),
                 std::runtime_error);
}

TEST(SerializeTest, Step1ProfileRoundTrip)
{
    core::FixedLengthSweep sweep;
    sweep.minLength = 2;
    sweep.mispredictions = {0, 40, 30, 20};
    sweep.branches = 500;
    std::unordered_map<std::uint64_t, core::BranchProfile> profiles;
    for (std::uint64_t pc : {0x400000ull, 0x400040ull, 0x123ull}) {
        core::BranchProfile profile;
        profile.executions = static_cast<std::uint32_t>(pc & 0xffff);
        for (unsigned i = 0; i < core::maxPathLength; ++i)
            profile.correct[i] = static_cast<std::uint32_t>(pc + i);
        profiles.emplace(pc, profile);
    }

    const auto payload = encodeStep1Profile(sweep, profiles);
    core::FixedLengthSweep decoded_sweep;
    std::unordered_map<std::uint64_t, core::BranchProfile> decoded;
    decodeStep1Profile(payload, decoded_sweep, decoded);

    EXPECT_EQ(decoded_sweep.minLength, sweep.minLength);
    EXPECT_EQ(decoded_sweep.mispredictions, sweep.mispredictions);
    EXPECT_EQ(decoded_sweep.branches, sweep.branches);
    ASSERT_EQ(decoded.size(), profiles.size());
    for (const auto &[pc, profile] : profiles) {
        ASSERT_TRUE(decoded.count(pc));
        EXPECT_EQ(decoded.at(pc).executions, profile.executions);
        EXPECT_EQ(decoded.at(pc).correct, profile.correct);
    }

    // Deterministic bytes regardless of hash-map iteration order.
    EXPECT_EQ(encodeStep1Profile(decoded_sweep, decoded), payload);
}

TEST(SerializeTest, AssignmentRoundTrip)
{
    core::HashAssignment assignment(5);
    assignment.assign(0x400000, 3);
    assignment.assign(0x400040, 17);

    const auto payload = encodeAssignment(assignment);
    const core::HashAssignment decoded = decodeAssignment(payload);
    EXPECT_EQ(decoded.defaultLength(), 5u);
    EXPECT_EQ(decoded.size(), 2u);
    EXPECT_EQ(decoded.lookup(0x400000), 3u);
    EXPECT_EQ(decoded.lookup(0x400040), 17u);
    EXPECT_EQ(decoded.lookup(0x999999), 5u); // default
}

TEST(SerializeTest, ComparisonRowRoundTrip)
{
    sim::ComparisonRow row;
    row.benchmark = "gcc";
    sim::RateEntry entry;
    entry.predictor = "gshare";
    entry.branches = 123456;
    entry.mispredictions = 789;
    entry.rate = 0.639094; // arbitrary bit pattern, must round-trip
    row.entries.push_back(entry);
    entry.predictor = "variable length path";
    entry.mispredictions = 456;
    entry.rate = 0.369327;
    row.entries.push_back(entry);

    const sim::ComparisonRow decoded =
        decodeComparisonRow(encodeComparisonRow(row));
    EXPECT_EQ(decoded.benchmark, "gcc");
    ASSERT_EQ(decoded.entries.size(), 2u);
    for (std::size_t i = 0; i < row.entries.size(); ++i) {
        EXPECT_EQ(decoded.entries[i].predictor,
                  row.entries[i].predictor);
        EXPECT_EQ(decoded.entries[i].branches,
                  row.entries[i].branches);
        EXPECT_EQ(decoded.entries[i].mispredictions,
                  row.entries[i].mispredictions);
        // Exact, not approximate: warm reruns must be bit-identical.
        EXPECT_EQ(decoded.entries[i].rate, row.entries[i].rate);
    }
}

TEST(SerializeTest, DecodersRejectDamage)
{
    core::HashAssignment assignment(5);
    assignment.assign(0x400000, 3);
    auto payload = encodeAssignment(assignment);

    auto truncated = payload;
    truncated.resize(truncated.size() - 3);
    EXPECT_THROW(decodeAssignment(truncated), std::runtime_error);

    auto extended = payload;
    extended.push_back(0);
    EXPECT_THROW(decodeAssignment(extended), std::runtime_error);

    // An absurd element count must fail fast instead of reserving
    // gigabytes.
    std::vector<std::uint8_t> hostile(12, 0xff);
    EXPECT_THROW(decodeAssignment(hostile), std::runtime_error);

    core::FixedLengthSweep sweep;
    std::unordered_map<std::uint64_t, core::BranchProfile> profiles;
    EXPECT_THROW(decodeStep1Profile(hostile, sweep, profiles),
                 std::runtime_error);
    // A row's benchmark name (empty here), then 0xffffffff entries.
    const std::vector<std::uint8_t> hostile_row = {0,    0,    0,    0,
                                                   0xff, 0xff, 0xff, 0xff};
    EXPECT_THROW(decodeComparisonRow(hostile_row), std::runtime_error);

    // The encoders write pcs in strictly ascending order; a repeated
    // or descending pc is damage, not a second entry to merge or drop.
    // Copies the first pc over the second, or swaps them: @p first
    // and @p stride locate the pcs in @p payload.
    const auto patched = [](std::vector<std::uint8_t> payload,
                            std::size_t first, std::size_t stride,
                            bool swap) {
        const auto a = payload.begin() + static_cast<std::ptrdiff_t>(first);
        const auto b = a + static_cast<std::ptrdiff_t>(stride);
        if (swap)
            std::swap_ranges(a, a + 8, b);
        else
            std::copy(a, a + 8, b);
        return payload;
    };
    assignment.assign(0x400010, 4);
    payload = encodeAssignment(assignment);
    EXPECT_EQ(decodeAssignment(payload).table(), assignment.table());
    for (const bool swap : {false, true}) {
        // default (4 bytes), count (8), then (pc 8, length 4) pairs.
        EXPECT_THROW(decodeAssignment(patched(payload, 12, 12, swap)),
                     std::runtime_error);
    }

    sweep.minLength = 1;
    sweep.mispredictions.assign(core::maxPathLength, 3);
    sweep.branches = 100;
    profiles = {{0x400000, core::BranchProfile{}},
                {0x400010, core::BranchProfile{}}};
    profiles[0x400010].executions = 9;
    const auto profile_payload = encodeStep1Profile(sweep, profiles);
    // Each profile is its pc (8 bytes), executions (4) and 32 counts
    // (4 each), at the end of the payload.
    constexpr std::size_t profileBytes = 8 + 4 + core::maxPathLength * 4;
    const std::size_t first = profile_payload.size() - 2 * profileBytes;
    core::FixedLengthSweep decoded_sweep;
    std::unordered_map<std::uint64_t, core::BranchProfile> decoded;
    decodeStep1Profile(profile_payload, decoded_sweep, decoded);
    ASSERT_EQ(decoded.size(), 2u);
    EXPECT_EQ(decoded.at(0x400010).executions, 9u);
    for (const bool swap : {false, true}) {
        EXPECT_THROW(decodeStep1Profile(patched(profile_payload, first,
                                                profileBytes, swap),
                                        decoded_sweep, decoded),
                     std::runtime_error);
    }
}

/**
 * decodeStep1Sweep() is decodeStep1Profile() without the per-branch
 * map: on every damaged payload both throw, and on every intact one
 * both return the same sweep.
 */
TEST(SerializeTest, Step1SweepDecodeRejectsWhatTheFullDecodeRejects)
{
    core::FixedLengthSweep sweep;
    sweep.minLength = 1;
    for (unsigned length = 1; length <= core::maxPathLength; ++length)
        sweep.mispredictions.push_back(1000 - 7 * length);
    sweep.branches = 4321;
    std::unordered_map<std::uint64_t, core::BranchProfile> profiles;
    for (const std::uint64_t pc : {0x400000ull, 0x400010ull, 0x400020ull}) {
        core::BranchProfile &profile = profiles[pc];
        profile.executions = static_cast<std::uint32_t>(pc >> 4);
        for (unsigned i = 0; i < core::maxPathLength; ++i)
            profile.correct[i] = static_cast<std::uint32_t>(pc + 3 * i);
    }
    const auto payload = encodeStep1Profile(sweep, profiles);
    const auto empty_payload = encodeStep1Profile(sweep, {});

    const auto full = [](const std::vector<std::uint8_t> &bytes) {
        core::FixedLengthSweep decoded;
        std::unordered_map<std::uint64_t, core::BranchProfile> records;
        decodeStep1Profile(bytes, decoded, records);
        return decoded;
    };
    const auto expectSame = [&](const std::vector<std::uint8_t> &bytes) {
        const core::FixedLengthSweep a = full(bytes);
        const core::FixedLengthSweep b = decodeStep1Sweep(bytes);
        EXPECT_EQ(a.minLength, b.minLength);
        EXPECT_EQ(a.mispredictions, b.mispredictions);
        EXPECT_EQ(a.branches, b.branches);
    };
    const auto expectBothReject =
        [&](const std::vector<std::uint8_t> &bytes, const char *what) {
            EXPECT_THROW(full(bytes), std::runtime_error) << what;
            EXPECT_THROW(decodeStep1Sweep(bytes), std::runtime_error)
                << what;
        };

    expectSame(payload);
    expectSame(empty_payload);
    EXPECT_EQ(decodeStep1Sweep(payload).mispredictions,
              sweep.mispredictions);

    // Every truncation, and one trailing byte.
    for (std::size_t size = 0; size < payload.size(); ++size) {
        expectBothReject(
            std::vector<std::uint8_t>(payload.begin(),
                                      payload.begin()
                                          + static_cast<std::ptrdiff_t>(
                                              size)),
            "truncated");
    }
    auto trailing = payload;
    trailing.push_back(0);
    expectBothReject(trailing, "trailing byte");

    // A record count the payload cannot hold: the count is the last
    // field of a payload with no records.
    auto hostile = empty_payload;
    std::fill(hostile.end() - 8, hostile.end(), 0xff);
    expectBothReject(hostile, "hostile count");

    // A repeated pc and two swapped pcs. Each record is its pc (8
    // bytes), executions (4) and 32 counts (4 each), at the end.
    constexpr std::size_t recordBytes = 8 + 4 + core::maxPathLength * 4;
    const auto first = static_cast<std::ptrdiff_t>(
        payload.size() - profiles.size() * recordBytes);
    constexpr auto stride = static_cast<std::ptrdiff_t>(recordBytes);
    auto repeated = payload;
    std::copy(repeated.begin() + first, repeated.begin() + first + 8,
              repeated.begin() + first + stride);
    expectBothReject(repeated, "repeated pc");
    auto swapped = payload;
    std::swap_ranges(swapped.begin() + first, swapped.begin() + first + 8,
                     swapped.begin() + first + stride);
    expectBothReject(swapped, "swapped pcs");

    // More swept lengths than there are path lengths: the u32 after
    // minLength.
    auto too_long = payload;
    too_long[4] = static_cast<std::uint8_t>(core::maxPathLength + 1);
    expectBothReject(too_long, "too many lengths");
}

TEST_F(StoreHarness, MissThenInsertThenHit)
{
    ArtifactStore store = open();
    const CacheKey key = sampleKey();
    EXPECT_FALSE(store.fetch(key).has_value());

    const auto payload = samplePayload();
    store.insert(key, payload);
    const auto fetched = store.fetch(key);
    ASSERT_TRUE(fetched.has_value());
    EXPECT_EQ(*fetched, payload);

    const StoreCounters counters = store.counters();
    EXPECT_EQ(counters.misses, 1u);
    EXPECT_EQ(counters.inserts, 1u);
    EXPECT_EQ(counters.hits, 1u);
    EXPECT_EQ(counters.corrupt, 0u);
}

/**
 * probe() is fetch() for an entry the caller can rebuild from another:
 * a hit counts, a damaged entry is evicted and counted corrupt, but
 * finding nothing is not a miss.
 */
TEST_F(StoreHarness, ProbeCountsNoMissForAnAbsentEntry)
{
    ArtifactStore store = open();
    const CacheKey key = sampleKey();
    EXPECT_FALSE(store.probe(key).has_value());
    EXPECT_EQ(store.counters().misses, 0u);

    const auto payload = samplePayload();
    store.insert(key, payload);
    const auto probed = store.probe(key);
    ASSERT_TRUE(probed.has_value());
    EXPECT_EQ(*probed, payload);
    EXPECT_EQ(store.counters().hits, 1u);

    const auto files = entryFiles();
    ASSERT_EQ(files.size(), 1u);
    fs::resize_file(files.front(), fs::file_size(files.front()) - 1);
    EXPECT_FALSE(store.probe(key).has_value());
    const StoreCounters counters = store.counters();
    EXPECT_EQ(counters.corrupt, 1u);
    EXPECT_EQ(counters.misses, 0u);
    EXPECT_TRUE(entryFiles().empty());
}

TEST_F(StoreHarness, DistinctKeysDoNotAlias)
{
    ArtifactStore store = open();
    store.insert(sampleKey("gcc"), samplePayload(32, 1));
    store.insert(sampleKey("perl"), samplePayload(32, 2));
    EXPECT_EQ(*store.fetch(sampleKey("gcc")), samplePayload(32, 1));
    EXPECT_EQ(*store.fetch(sampleKey("perl")), samplePayload(32, 2));
}

TEST_F(StoreHarness, InsertOverwritesAtomically)
{
    ArtifactStore store = open();
    const CacheKey key = sampleKey();
    store.insert(key, samplePayload(32, 1));
    store.insert(key, samplePayload(48, 2));
    EXPECT_EQ(*store.fetch(key), samplePayload(48, 2));
    // No temp files may be left behind.
    for (const auto &entry :
         fs::recursive_directory_iterator(directory_)) {
        EXPECT_EQ(entry.path().string().find(".tmp."),
                  std::string::npos)
            << entry.path();
    }
}

TEST_F(StoreHarness, CorruptEntryIsEvictedAndRecomputed)
{
    ArtifactStore store = open();
    const CacheKey key = sampleKey();
    store.insert(key, samplePayload());

    // Flip one payload byte on disk; fetch must detect the damage,
    // remove the entry, and report a miss.
    const auto files = entryFiles();
    ASSERT_EQ(files.size(), 1u);
    {
        std::fstream file(files.front(),
                          std::ios::in | std::ios::out
                              | std::ios::binary);
        file.seekg(0, std::ios::end);
        const auto size = file.tellg();
        file.seekp(static_cast<long>(size) - 5);
        file.put(static_cast<char>(0xa5));
    }

    EXPECT_FALSE(store.fetch(key).has_value());
    EXPECT_EQ(store.counters().corrupt, 1u);
    EXPECT_TRUE(entryFiles().empty());

    // The slot is usable again.
    store.insert(key, samplePayload());
    EXPECT_TRUE(store.fetch(key).has_value());
}

TEST_F(StoreHarness, FormatVersionSkewInvalidates)
{
    ArtifactStore store = open();
    const CacheKey key = sampleKey();
    store.insert(key, samplePayload());

    // Patch the entry's stored format version (the u32 right after
    // the 8-byte magic): a reader from a different format generation
    // must treat the entry as corrupt, never misread it.
    const auto files = entryFiles();
    ASSERT_EQ(files.size(), 1u);
    {
        std::fstream file(files.front(),
                          std::ios::in | std::ios::out
                              | std::ios::binary);
        file.seekp(8);
        file.put(static_cast<char>(artifactFormatVersion + 1));
    }
    EXPECT_FALSE(store.fetch(key).has_value());
    EXPECT_EQ(store.counters().corrupt, 1u);
}

TEST_F(StoreHarness, GarbageCollectorEvictsLeastRecentlyUsed)
{
    // Budget for roughly two of the three ~1 KiB entries.
    const auto payload = samplePayload(1024);
    const std::uint64_t per_entry = 1024 + 256; // payload + header
    ArtifactStore store = open(2 * per_entry);

    const CacheKey a = sampleKey("aaa");
    const CacheKey b = sampleKey("bbb");
    const CacheKey c = sampleKey("ccc");
    store.insert(a, payload);
    store.insert(b, payload);

    // Make 'b' the least recently used by explicit timestamps (not
    // sleeps), marking 'a' as freshly touched.
    const auto now = fs::last_write_time(entryFiles().front());
    for (const auto &file : entryFiles()) {
        const bool is_a = file.string().find(a.hashHex())
            != std::string::npos;
        fs::last_write_time(
            file, is_a ? now : now - std::chrono::seconds(100));
    }

    store.insert(c, payload); // over budget: must evict 'b'
    EXPECT_TRUE(store.fetch(a).has_value());
    EXPECT_FALSE(store.fetch(b).has_value());
    EXPECT_TRUE(store.fetch(c).has_value());
    EXPECT_GE(store.counters().evicted, 1u);
}

TEST_F(StoreHarness, HitRefreshesOnlyAStaleLruClock)
{
    ArtifactStore store = open();
    const CacheKey stale = sampleKey("stale");
    const CacheKey fresh = sampleKey("fresh");
    store.insert(stale, samplePayload());
    store.insert(fresh, samplePayload());
    const fs::path stale_file = fs::path(directory_)
        / stale.relativePath();
    const fs::path fresh_file = fs::path(directory_)
        / fresh.relativePath();

    // An entry last used 100 s ago moves to now on a hit.
    fs::last_write_time(stale_file, fs::file_time_type::clock::now()
                                        - std::chrono::seconds(100));
    ASSERT_TRUE(store.fetch(stale).has_value());
    const auto age =
        fs::file_time_type::clock::now() - fs::last_write_time(stale_file);
    EXPECT_LT(age, std::chrono::seconds(5));
    EXPECT_GT(age, -std::chrono::seconds(5));

    // A just-written entry's clock is recent enough: no write.
    const auto written = fs::last_write_time(fresh_file);
    ASSERT_TRUE(store.fetch(fresh).has_value());
    EXPECT_EQ(fs::last_write_time(fresh_file), written);
}

/** Every single-bit flip and every truncation of an entry file is an
 *  evict-and-miss: magic, version, key length, key text, payload
 *  length, checksum and payload are each checked. */
TEST_F(StoreHarness, EveryBitFlipAndTruncationIsCorrupt)
{
    ArtifactStore store = open();
    const CacheKey key = sampleKey();
    store.insert(key, samplePayload(48));
    const fs::path file = fs::path(directory_) / key.relativePath();
    std::vector<char> original;
    {
        std::ifstream in(file, std::ios::binary);
        original.assign(std::istreambuf_iterator<char>(in), {});
    }
    ASSERT_GT(original.size(), 48u);
    const auto expectCorrupt = [&](const std::vector<char> &bytes,
                                   const std::string &what) {
        {
            std::ofstream out(file, std::ios::binary | std::ios::trunc);
            out.write(bytes.data(),
                      static_cast<std::streamsize>(bytes.size()));
        }
        const std::uint64_t corrupt = store.counters().corrupt;
        EXPECT_FALSE(store.fetch(key).has_value()) << what;
        EXPECT_EQ(store.counters().corrupt, corrupt + 1) << what;
        EXPECT_FALSE(fs::exists(file)) << what;
    };

    for (std::size_t bit = 0; bit < 8 * original.size(); ++bit) {
        std::vector<char> flipped = original;
        flipped[bit / 8] = static_cast<char>(flipped[bit / 8]
                                             ^ (1 << (bit % 8)));
        expectCorrupt(flipped, "bit " + std::to_string(bit));
    }
    for (std::size_t size = 0; size < original.size(); ++size) {
        expectCorrupt(std::vector<char>(original.begin(),
                                        original.begin()
                                            + static_cast<std::ptrdiff_t>(
                                                size)),
                      "truncated to " + std::to_string(size));
    }
    EXPECT_EQ(store.counters().hits, 0u);
}

/** A VLPSTOR1 entry (FNV-1a payload checksum) is not read: it is
 *  evicted and counted corrupt, and the next insert rewrites it. */
TEST_F(StoreHarness, PreviousContainerIsEvictedAndRewritten)
{
    const CacheKey key = sampleKey();
    const auto payload = samplePayload();
    std::vector<std::uint8_t> entry = {'V', 'L', 'P', 'S',
                                       'T', 'O', 'R', '1'};
    const auto put = [&](std::uint64_t value, int bytes) {
        for (int i = 0; i < bytes; ++i)
            entry.push_back(static_cast<std::uint8_t>(value >> (8 * i)));
    };
    put(artifactFormatVersion, 4);
    put(key.text().size(), 4);
    entry.insert(entry.end(), key.text().begin(), key.text().end());
    put(payload.size(), 8);
    put(util::fnv1a(payload.data(), payload.size()), 8);
    entry.insert(entry.end(), payload.begin(), payload.end());

    ArtifactStore store = open();
    const fs::path file = fs::path(directory_) / key.relativePath();
    fs::create_directories(file.parent_path());
    {
        std::ofstream out(file, std::ios::binary);
        out.write(reinterpret_cast<const char *>(entry.data()),
                  static_cast<std::streamsize>(entry.size()));
    }
    EXPECT_FALSE(store.fetch(key).has_value());
    EXPECT_EQ(store.counters().corrupt, 1u);
    EXPECT_EQ(store.counters().misses, 1u);
    EXPECT_FALSE(fs::exists(file));

    store.insert(key, payload);
    const auto fetched = store.fetch(key);
    ASSERT_TRUE(fetched.has_value());
    EXPECT_EQ(*fetched, payload);
    EXPECT_EQ(store.counters().corrupt, 1u);
    std::ifstream in(file, std::ios::binary);
    char magic[8] = {};
    in.read(magic, sizeof(magic));
    EXPECT_EQ(std::string(magic, sizeof(magic)), "VLPSTOR2");
}

TEST_F(StoreHarness, SummarizeVerifyAndClear)
{
    {
        ArtifactStore store = open();
        store.insert(sampleKey("one"), samplePayload(100));
        store.insert(sampleKey("two"), samplePayload(200));
        store.fetch(sampleKey("one"));
        store.fetch(sampleKey("missing"));
    } // destructor flushes counters to stats.log

    const auto summary = ArtifactStore::summarize(directory_);
    EXPECT_EQ(summary.entries, 2u);
    EXPECT_GT(summary.bytes, 300u);
    EXPECT_EQ(summary.lifetime.hits, 1u);
    EXPECT_EQ(summary.lifetime.misses, 1u);
    EXPECT_EQ(summary.lifetime.inserts, 2u);

    auto verified = ArtifactStore::verify(directory_);
    EXPECT_EQ(verified.ok, 2u);
    EXPECT_EQ(verified.corrupt, 0u);

    // Damage one entry; verify must find and remove exactly it.
    {
        std::fstream file(entryFiles().front(),
                          std::ios::in | std::ios::out
                              | std::ios::binary);
        file.seekp(-1, std::ios::end);
        file.put('\x5a');
    }
    verified = ArtifactStore::verify(directory_);
    EXPECT_EQ(verified.ok, 1u);
    EXPECT_EQ(verified.corrupt, 1u);
    EXPECT_EQ(entryFiles().size(), 1u);

    EXPECT_EQ(ArtifactStore::clear(directory_), 1u);
    EXPECT_EQ(ArtifactStore::summarize(directory_).entries, 0u);
}

/** A pid no process holds: a child that has exited and been reaped. */
pid_t
deadPid()
{
    const pid_t child = ::fork();
    if (child == 0)
        ::_exit(0);
    ::waitpid(child, nullptr, 0);
    return child;
}

/**
 * A killed insert leaves `<key>.vlpa.tmp.<pid>.<n>` behind. The GC
 * (under a byte bound) and `cache verify` remove it once its writer's
 * pid is gone, leave a live writer's file alone, and `cache stats`
 * counts temp bytes as disk the store uses.
 */
TEST_F(StoreHarness, DeadWritersTempFilesAreReclaimed)
{
    const auto payload = samplePayload(1024);
    ArtifactStore store = open(64 * 1024);
    const CacheKey key = sampleKey("kept");
    store.insert(key, payload);
    const fs::path entry = entryFiles().front();
    constexpr std::size_t temp_bytes = 4096;
    const auto temp = [&](pid_t pid) {
        fs::path path = entry;
        path += ".tmp." + std::to_string(pid) + ".1";
        std::ofstream(path, std::ios::binary)
            << std::string(temp_bytes, 'x');
        return path;
    };
    const fs::path dead = temp(deadPid());
    const fs::path live = temp(::getpid());

    const auto summary = ArtifactStore::summarize(directory_);
    EXPECT_EQ(summary.entries, 1u);
    EXPECT_EQ(summary.bytes, fs::file_size(entry) + 2 * temp_bytes);

    store.insert(sampleKey("next"), payload); // runs the GC
    EXPECT_FALSE(fs::exists(dead));
    EXPECT_TRUE(fs::exists(live));
    EXPECT_TRUE(store.fetch(key).has_value());
    EXPECT_EQ(store.counters().evicted, 0u);

    const fs::path dead_again = temp(deadPid());
    const auto verified = ArtifactStore::verify(directory_);
    EXPECT_EQ(verified.ok, 2u);
    EXPECT_EQ(verified.corrupt, 0u);
    EXPECT_FALSE(fs::exists(dead_again));
    EXPECT_TRUE(fs::exists(live));
}

/**
 * End-to-end cache contract on real (scaled-down) workloads. Mirrors
 * the ParallelHarness scale so the suite stays fast.
 */
class CachedExperimentHarness : public StoreHarness
{
  protected:
    void SetUp() override
    {
        StoreHarness::SetUp();
        setenv("VLPSIM_SCALE", "0.05", 1);
    }

    void TearDown() override
    {
        unsetenv("VLPSIM_SCALE");
        StoreHarness::TearDown();
    }

    std::shared_ptr<ArtifactStore> openShared()
    {
        StoreOptions options;
        options.directory = directory_;
        return std::make_shared<ArtifactStore>(options);
    }

    static std::vector<workload::BenchmarkSpec> specs()
    {
        return {workload::findBenchmark("compress"),
                workload::findBenchmark("li"),
                workload::findBenchmark("go"),
                workload::findBenchmark("ijpeg")};
    }

    /** Every entry file's bytes, by path. */
    std::map<fs::path, std::vector<std::uint8_t>> entryBytes() const
    {
        std::map<fs::path, std::vector<std::uint8_t>> entries;
        for (const fs::path &file : entryFiles()) {
            std::ifstream in(file, std::ios::binary);
            entries[file] =
                std::vector<std::uint8_t>(
                    std::istreambuf_iterator<char>(in), {});
        }
        return entries;
    }

    // An entry file is its magic (8 bytes), format version (4), key
    // length (4), key text, payload size (8), payload checksum (8) and
    // payload.
    static constexpr std::size_t keyOffset = 16;

    static std::size_t keySize(const std::vector<std::uint8_t> &entry)
    {
        std::size_t size = 0;
        for (int i = 0; i < 4; ++i)
            size |= std::size_t{entry[12 + i]} << (8 * i);
        return size;
    }

    /** The kind field that opens an entry's key text. */
    static std::string keyKind(const std::vector<std::uint8_t> &entry)
    {
        const std::string key(entry.begin() + keyOffset,
                              entry.begin() + keyOffset
                                  + static_cast<std::ptrdiff_t>(
                                      keySize(entry)));
        const std::string prefix = "kind=";
        return key.substr(prefix.size(),
                          key.find(';') - prefix.size());
    }

    static std::vector<std::uint8_t>
    payloadOf(const std::vector<std::uint8_t> &entry)
    {
        return std::vector<std::uint8_t>(
            entry.begin()
                + static_cast<std::ptrdiff_t>(keyOffset + keySize(entry)
                                              + 16),
            entry.end());
    }

    /** @p entry with @p payload in place of its own, under a matching
     *  size and checksum: an entry every store check accepts. */
    static std::vector<std::uint8_t>
    withPayload(const std::vector<std::uint8_t> &entry,
                const std::vector<std::uint8_t> &payload)
    {
        std::vector<std::uint8_t> patched(
            entry.begin(),
            entry.begin()
                + static_cast<std::ptrdiff_t>(keyOffset + keySize(entry)));
        const auto put = [&](std::uint64_t value) {
            for (int i = 0; i < 8; ++i)
                patched.push_back(
                    static_cast<std::uint8_t>(value >> (8 * i)));
        };
        put(payload.size());
        put(util::xxh64(payload.data(), payload.size()));
        patched.insert(patched.end(), payload.begin(), payload.end());
        return patched;
    }

    static void writeFile(const fs::path &file,
                          const std::vector<std::uint8_t> &bytes)
    {
        std::ofstream out(file, std::ios::binary | std::ios::trunc);
        out.write(reinterpret_cast<const char *>(bytes.data()),
                  static_cast<std::streamsize>(bytes.size()));
    }
};

void
expectIdenticalRows(const std::vector<sim::ComparisonRow> &cold,
                    const std::vector<sim::ComparisonRow> &warm)
{
    ASSERT_EQ(cold.size(), warm.size());
    for (std::size_t i = 0; i < cold.size(); ++i) {
        EXPECT_EQ(cold[i].benchmark, warm[i].benchmark);
        ASSERT_EQ(cold[i].entries.size(), warm[i].entries.size());
        for (std::size_t j = 0; j < cold[i].entries.size(); ++j) {
            const auto &a = cold[i].entries[j];
            const auto &b = warm[i].entries[j];
            EXPECT_EQ(a.predictor, b.predictor);
            EXPECT_EQ(a.branches, b.branches);
            EXPECT_EQ(a.mispredictions, b.mispredictions);
            // Bit-identical: cached artifacts carry the exact
            // integer counters, not rounded rates.
            EXPECT_EQ(a.rate, b.rate);
        }
    }
}

/** Same sections, captions and cells, cell by cell. */
void
expectSameReport(const sim::Report &cold, const sim::Report &warm)
{
    ASSERT_EQ(warm.sections.size(), cold.sections.size());
    for (std::size_t i = 0; i < cold.sections.size(); ++i) {
        const sim::Section &a = cold.sections[i];
        const sim::Section &b = warm.sections[i];
        EXPECT_EQ(a.caption, b.caption);
        ASSERT_EQ(a.rows.size(), b.rows.size());
        for (std::size_t r = 0; r < a.rows.size(); ++r) {
            ASSERT_EQ(a.rows[r].cells.size(), b.rows[r].cells.size());
            for (std::size_t c = 0; c < a.rows[r].cells.size(); ++c)
                EXPECT_EQ(a.rows[r].cells[c].ascii(),
                          b.rows[r].cells[c].ascii());
        }
    }
}

TEST_F(CachedExperimentHarness, WarmRunMatchesColdRunSerially)
{
    const auto suite = specs();
    std::vector<sim::ComparisonRow> cold;
    {
        sim::ParallelRunner runner(1);
        runner.setStore(openShared());
        cold = runner.compareSuite(suite, 4096, 5, false);
        EXPECT_EQ(runner.context().store()->counters().hits, 0u);
    }
    {
        sim::ParallelRunner runner(1);
        const auto store = openShared();
        runner.setStore(store);
        const auto warm =
            runner.compareSuite(suite, 4096, 5, false);
        expectIdenticalRows(cold, warm);
        // Every row came from the cache: no misses, no new inserts.
        const StoreCounters counters = store->counters();
        EXPECT_EQ(counters.hits, suite.size());
        EXPECT_EQ(counters.misses, 0u);
        EXPECT_EQ(counters.inserts, 0u);
    }
}

TEST_F(CachedExperimentHarness, WarmRunMatchesColdRunInParallel)
{
    const auto suite = specs();
    std::vector<sim::ComparisonRow> cold;
    {
        // Cold population runs with four workers sharing the store.
        sim::ParallelRunner runner(4);
        runner.setStore(openShared());
        cold = runner.compareSuite(suite, 512, 3, true);
    }
    {
        sim::ParallelRunner warm_parallel(4);
        warm_parallel.setStore(openShared());
        expectIdenticalRows(
            cold, warm_parallel.compareSuite(suite, 512, 3, true));
    }
    {
        // A serial consumer of the parallel-written cache agrees too.
        sim::ParallelRunner warm_serial(1);
        warm_serial.setStore(openShared());
        expectIdenticalRows(
            cold, warm_serial.compareSuite(suite, 512, 3, true));
    }
}

TEST_F(CachedExperimentHarness, WarmRunSimulatesNothing)
{
    // The run summary's throughput counts simulated work: a cold run
    // simulates step 1 and the comparison replays, a warm run on the
    // same store simulates nothing, and both report the same
    // predictions() (the report's metadata) at any jobs value.
    const auto suite = specs();
    for (const unsigned jobs : {1u, 4u}) {
        SCOPED_TRACE("jobs=" + std::to_string(jobs));
        StoreOptions options;
        options.directory = directory_ + "/jobs" + std::to_string(jobs);
        const auto run = [&] {
            sim::SharedMemo memo;
            sim::ParallelRunner runner(jobs, memo);
            runner.setStore(std::make_shared<ArtifactStore>(options));
            const unsigned length = runner.globalLength(4096, false);
            runner.compareSuite(suite, 4096, length, false);
            return std::make_pair(runner.predictions(),
                                  runner.simulatedPredictions());
        };
        const auto [cold_predictions, cold_simulated] = run();
        const auto [warm_predictions, warm_simulated] = run();
        EXPECT_GT(cold_simulated, 0u);
        EXPECT_EQ(warm_simulated, 0u);
        EXPECT_EQ(warm_predictions, cold_predictions);
    }
}

TEST_F(CachedExperimentHarness, CachedRunMatchesUncachedRun)
{
    const auto suite = specs();
    sim::ParallelRunner uncached(1);
    const auto expected =
        uncached.compareSuite(suite, 4096, 5, false);

    sim::ParallelRunner cached(1);
    cached.setStore(openShared());
    expectIdenticalRows(
        expected, cached.compareSuite(suite, 4096, 5, false));
}

TEST_F(CachedExperimentHarness, PoisonedEntryIsEvictedAndRecomputed)
{
    const auto suite = specs();
    std::vector<sim::ComparisonRow> cold;
    {
        sim::ParallelRunner runner(1);
        runner.setStore(openShared());
        cold = runner.compareSuite(suite, 4096, 5, false);
    }

    // Flip one byte in every cached entry's payload region.
    for (const auto &file : entryFiles()) {
        std::fstream stream(file, std::ios::in | std::ios::out
                                      | std::ios::binary);
        stream.seekp(-3, std::ios::end);
        char byte = 0;
        stream.seekg(-3, std::ios::end);
        stream.get(byte);
        stream.seekp(-3, std::ios::end);
        stream.put(static_cast<char>(byte ^ 0x40));
    }

    sim::ParallelRunner runner(1);
    const auto store = openShared();
    runner.setStore(store);
    const auto recovered =
        runner.compareSuite(suite, 4096, 5, false);
    expectIdenticalRows(cold, recovered);

    // Each poisoned row was detected, evicted, and recomputed.
    const StoreCounters counters = store->counters();
    EXPECT_GE(counters.corrupt, suite.size());
    EXPECT_GE(counters.inserts, suite.size());
    EXPECT_EQ(counters.hits, 0u);

    // The freshly rewritten cache serves hits again.
    sim::ParallelRunner rewarm(1);
    const auto rewarm_store = openShared();
    rewarm.setStore(rewarm_store);
    expectIdenticalRows(
        cold, rewarm.compareSuite(suite, 4096, 5, false));
    EXPECT_EQ(rewarm_store->counters().corrupt, 0u);
    EXPECT_EQ(rewarm_store->counters().hits, suite.size());
}

TEST_F(CachedExperimentHarness, WarmRunSkipsStepOneSweeps)
{
    const auto &spec = workload::findBenchmark("compress");
    {
        sim::ExperimentContext context;
        context.setStore(openShared());
        context.sweep(spec, 12, false);
        context.assignment(spec, 12, false);
    }
    sim::ExperimentContext warm;
    const auto store = openShared();
    warm.setStore(store);
    // The assignment fetch must satisfy the request outright — step 1
    // is never consulted, so a warm rerun skips the sweeps entirely.
    warm.assignment(spec, 12, false);
    EXPECT_EQ(store->counters().hits, 1u);
    EXPECT_EQ(store->counters().misses, 0u);
}

/**
 * A profile hit keeps only its sweep, but it still runs every check a
 * full restore runs: a payload that passes the store's checksum yet
 * has the wrong length range or a malformed per-branch section is
 * discarded and step 1's result is stored again, exactly as before.
 */
TEST_F(CachedExperimentHarness, UnusableCachedProfileIsDiscardedOnHit)
{
    const auto &spec = workload::findBenchmark("compress");
    core::FixedLengthSweep cold;
    {
        sim::ExperimentContext context;
        context.setStore(openShared());
        cold = context.sweep(spec, 12, false);
    }
    ASSERT_EQ(entryFiles().size(), 1u);
    const auto [file, original] = *entryBytes().begin();
    ASSERT_EQ(keyKind(original), "profile");
    const std::vector<std::uint8_t> payload = payloadOf(original);

    core::FixedLengthSweep sweep;
    std::unordered_map<std::uint64_t, core::BranchProfile> profiles;
    decodeStep1Profile(payload, sweep, profiles);
    ASSERT_GE(profiles.size(), 2u);
    std::vector<std::pair<std::string, std::vector<std::uint8_t>>> damaged;
    {
        core::FixedLengthSweep shifted = sweep;
        shifted.minLength = 2;
        damaged.emplace_back("minLength 2",
                             encodeStep1Profile(shifted, profiles));
        core::FixedLengthSweep shorter = sweep;
        shorter.mispredictions.pop_back();
        damaged.emplace_back("31 lengths",
                             encodeStep1Profile(shorter, profiles));
    }
    {
        auto trailing = payload;
        trailing.push_back(0);
        damaged.emplace_back("trailing byte", std::move(trailing));
        // The last record's pc copied over by the one before it.
        constexpr std::size_t recordBytes =
            8 + 4 + core::maxPathLength * 4;
        auto repeated = payload;
        const auto last = repeated.end()
            - static_cast<std::ptrdiff_t>(recordBytes);
        std::copy(last - static_cast<std::ptrdiff_t>(recordBytes),
                  last - static_cast<std::ptrdiff_t>(recordBytes) + 8,
                  last);
        damaged.emplace_back("repeated pc", std::move(repeated));
    }

    for (const auto &[what, bad] : damaged) {
        SCOPED_TRACE(what);
        writeFile(file, withPayload(original, bad));
        sim::ExperimentContext warm;
        const auto store = openShared();
        warm.setStore(store);
        const core::FixedLengthSweep &again = warm.sweep(spec, 12, false);
        EXPECT_EQ(again.minLength, cold.minLength);
        EXPECT_EQ(again.mispredictions, cold.mispredictions);
        EXPECT_EQ(again.branches, cold.branches);
        const StoreCounters counters = store->counters();
        EXPECT_EQ(counters.hits, 1u);
        EXPECT_EQ(counters.misses, 0u);
        EXPECT_EQ(counters.inserts, 1u);
        EXPECT_EQ(entryBytes().begin()->second, original);
    }
}

/**
 * A profile hit keeps only its sweep (and writes the sweep entry);
 * when the assignment then misses, step 2 fetches the profile entry a
 * second time, restores the per-branch records from it, and stores
 * the same assignment and row as a cold run.
 */
TEST_F(CachedExperimentHarness, AssignmentMissRestoresTheHeldProfile)
{
    const auto suite = specs();
    for (const unsigned jobs : {1u, 4u}) {
        SCOPED_TRACE(jobs);
        fs::remove_all(directory_);
        std::vector<sim::ComparisonRow> cold;
        {
            sim::ParallelRunner runner(jobs);
            runner.setStore(openShared());
            cold = runner.compareSuite(suite, 4096, 5, false);
        }
        const auto filled = entryBytes();
        ASSERT_EQ(filled.size(), 3 * suite.size());
        // Delete the assignments, and the rows, which would otherwise
        // answer without them.
        for (const auto &[file, bytes] : filled) {
            const std::string kind = keyKind(bytes);
            if (kind == "assignment" || kind == "comparison")
                fs::remove(file);
        }
        ASSERT_EQ(entryBytes().size(), suite.size());

        sim::ParallelRunner runner(jobs);
        const auto store = openShared();
        runner.setStore(store);
        expectIdenticalRows(cold,
                            runner.compareSuite(suite, 4096, 5, false));
        // Per benchmark: a row miss, an assignment miss, two profile
        // hits (step 1, then the restore) and three inserts (the
        // sweep, the assignment and the row).
        const StoreCounters counters = store->counters();
        EXPECT_EQ(counters.hits, 2 * suite.size());
        EXPECT_EQ(counters.misses, 2 * suite.size());
        EXPECT_EQ(counters.inserts, 3 * suite.size());
        EXPECT_EQ(counters.corrupt, 0u);
        // The re-inserted assignments and rows are the cold bytes,
        // next to one new sweep entry per benchmark.
        auto entries = entryBytes();
        EXPECT_EQ(std::erase_if(entries,
                                [](const auto &entry) {
                                    return keyKind(entry.second)
                                        == "sweep";
                                }),
                  suite.size());
        EXPECT_EQ(entries, filled);
    }
}

/**
 * The fetches of a sweep request, cold and warm. Per budget the global
 * length reads all 16 step-1 sweeps and the comparison reads all 16
 * rows; a cold run also misses the 16 assignments, and its sweep
 * lookups find nothing without counting a miss. The first warm run
 * reads the 16 profile entries and writes their sweep entries; later
 * warm runs read those. A change that adds or drops a fetch fails
 * here.
 */
TEST_F(CachedExperimentHarness, SweepRequestFetchesArePinned)
{
    sim::SweepSpec spec;
    spec.budgets = {1024, 4096};
    spec.jobs = 2;
    const std::uint64_t perBudget = workload::benchmarkSuite().size();
    ASSERT_EQ(perBudget, 16u);
    const auto cold_store = openShared();
    const sim::ServiceResult cold = sim::runSweep(spec, cold_store);
    EXPECT_EQ(cold_store->counters().hits, 0u);
    EXPECT_EQ(cold_store->counters().misses, 2 * 3 * perBudget);
    EXPECT_EQ(cold_store->counters().inserts, 2 * 3 * perBudget);

    bool converted = false;
    for (const unsigned jobs : {1u, 4u, 1u}) {
        SCOPED_TRACE(jobs);
        spec.jobs = jobs;
        const auto store = openShared();
        expectSameReport(cold.report, sim::runSweep(spec, store).report);
        const StoreCounters counters = store->counters();
        EXPECT_EQ(counters.hits, 2 * 2 * perBudget);
        EXPECT_EQ(counters.misses, 0u);
        EXPECT_EQ(counters.inserts, converted ? 0u : 2 * perBudget);
        converted = true;
    }
}

/**
 * Once the sweep entries are written, a warm request needs no profile
 * entry: with every one deleted, sweep and suite requests give the
 * cold reports with no miss and no insert, at jobs 1 and 4.
 */
TEST_F(CachedExperimentHarness, ConvertedStoreAnswersWithoutProfiles)
{
    sim::SweepSpec sweep;
    sweep.budgets = {1024, 4096};
    sim::SuiteCompareSpec suite;
    suite.indirect = true;
    suite.bytes = 2048;
    const auto cold_store = openShared();
    const sim::Report cold_sweep = sim::runSweep(sweep, cold_store).report;
    const sim::Report cold_suite =
        sim::runSuiteCompare(suite, cold_store).report;
    sim::runSweep(sweep, openShared());
    sim::runSuiteCompare(suite, openShared());

    std::size_t profiles = 0;
    std::size_t sweeps = 0;
    for (const auto &[file, bytes] : entryBytes()) {
        if (keyKind(bytes) == "profile") {
            fs::remove(file);
            ++profiles;
        } else if (keyKind(bytes) == "sweep") {
            ++sweeps;
        }
    }
    EXPECT_EQ(profiles, 3 * workload::benchmarkSuite().size());
    EXPECT_EQ(sweeps, profiles);

    for (const unsigned jobs : {1u, 4u}) {
        SCOPED_TRACE(jobs);
        sweep.jobs = jobs;
        suite.jobs = jobs;
        const auto store = openShared();
        expectSameReport(cold_sweep, sim::runSweep(sweep, store).report);
        expectSameReport(cold_suite,
                         sim::runSuiteCompare(suite, store).report);
        const StoreCounters counters = store->counters();
        EXPECT_GT(counters.hits, 0u);
        EXPECT_EQ(counters.misses, 0u);
        EXPECT_EQ(counters.inserts, 0u);
        EXPECT_EQ(counters.corrupt, 0u);
    }
}

/**
 * A sweep entry the store rejects (a flipped byte, a lost tail) is
 * evicted, and one whose checksummed payload fails the sweep checks is
 * discarded; either way the run falls back to the profile entry and
 * writes the sweep entry again.
 */
TEST_F(CachedExperimentHarness, DamagedSweepEntryFallsBackToTheProfile)
{
    const auto &spec = workload::findBenchmark("compress");
    core::FixedLengthSweep cold;
    for (int run = 0; run < 2; ++run) {
        sim::ExperimentContext context;
        context.setStore(openShared());
        cold = context.sweep(spec, 12, false);
    }
    fs::path file;
    std::vector<std::uint8_t> original;
    for (const auto &[path, bytes] : entryBytes()) {
        if (keyKind(bytes) == "sweep") {
            file = path;
            original = bytes;
        }
    }
    ASSERT_FALSE(original.empty());
    EXPECT_EQ(entryFiles().size(), 2u);
    EXPECT_EQ(payloadOf(original), encodeStep1Profile(cold, {}));

    struct Damage
    {
        std::string what;
        std::vector<std::uint8_t> bytes;
        bool rejectedByStore;
    };
    std::vector<Damage> damaged;
    {
        auto flipped = original;
        flipped.back() ^= 0x40;
        damaged.push_back({"flipped byte", std::move(flipped), true});
        auto truncated = original;
        truncated.resize(truncated.size() / 2);
        damaged.push_back({"truncated", std::move(truncated), true});
        core::FixedLengthSweep shifted = cold;
        shifted.minLength = 2;
        damaged.push_back(
            {"minLength 2",
             withPayload(original, encodeStep1Profile(shifted, {})),
             false});
    }
    for (const Damage &damage : damaged) {
        SCOPED_TRACE(damage.what);
        writeFile(file, damage.bytes);
        sim::ExperimentContext warm;
        const auto store = openShared();
        warm.setStore(store);
        const core::FixedLengthSweep &again = warm.sweep(spec, 12, false);
        EXPECT_EQ(again.minLength, cold.minLength);
        EXPECT_EQ(again.mispredictions, cold.mispredictions);
        EXPECT_EQ(again.branches, cold.branches);
        const StoreCounters counters = store->counters();
        EXPECT_EQ(counters.corrupt, damage.rejectedByStore ? 1u : 0u);
        EXPECT_EQ(counters.hits, damage.rejectedByStore ? 1u : 2u);
        EXPECT_EQ(counters.misses, 0u);
        EXPECT_EQ(counters.inserts, 1u);
        const auto entries = entryBytes();
        ASSERT_EQ(entries.count(file), 1u);
        EXPECT_EQ(entries.at(file), original);
    }
}

/**
 * A sweep hit keeps no per-branch records, so step 2 fetches the
 * profile entry; when that entry is gone (a bounded store evicted it),
 * step 1 runs again and re-stores it. Either way the assignment and
 * rows are the cold run's.
 */
TEST_F(CachedExperimentHarness, StepTwoAfterASweepHitFetchesTheProfile)
{
    const auto suite = specs();
    std::vector<sim::ComparisonRow> cold;
    {
        sim::ParallelRunner runner(1);
        runner.setStore(openShared());
        cold = runner.compareSuite(suite, 4096, 5, false);
    }
    {
        sim::ExperimentContext context;
        context.setStore(openShared());
        for (const auto &spec : suite)
            context.sweep(spec, pred::conditionalIndexBits(4096), false);
    }
    const auto converted = entryBytes();
    ASSERT_EQ(converted.size(), 4 * suite.size());

    for (const bool keep_profiles : {true, false}) {
        SCOPED_TRACE(keep_profiles);
        for (const auto &[file, bytes] : converted) {
            const std::string kind = keyKind(bytes);
            if (kind == "assignment" || kind == "comparison"
                || (kind == "profile" && !keep_profiles))
                fs::remove(file);
        }
        sim::SharedMemo memo;
        sim::ParallelRunner runner(1, memo);
        const auto store = openShared();
        runner.setStore(store);
        expectIdenticalRows(cold,
                            runner.compareSuite(suite, 4096, 5, false));
        // Per benchmark: row and assignment misses and a sweep hit,
        // then a profile hit, or a profile miss and step 1 again.
        const StoreCounters counters = store->counters();
        const std::size_t n = suite.size();
        EXPECT_EQ(counters.hits, keep_profiles ? 2 * n : n);
        EXPECT_EQ(counters.misses, keep_profiles ? 2 * n : 3 * n);
        EXPECT_EQ(counters.inserts, keep_profiles ? 2 * n : 3 * n);
        EXPECT_EQ(memo.step1Passes(), keep_profiles ? 0u : n);
        EXPECT_EQ(entryBytes(), converted);
    }
}

/**
 * The store-key pin: every artifact kind the experiment layer writes —
 * step-1 profiles and the sweep entries a warm hit adds, step-2
 * assignments and comparison rows (with and without the tuned column)
 * for one synthetic benchmark, and the same for one external
 * profile/test pair — in both branch classes, lands under exactly
 * these object names. Each name is the hash of the
 * canonical key text, so a store filled by an earlier build still hits
 * only while this list holds; a refactor that changes any key text
 * fails here.
 */
TEST_F(CachedExperimentHarness, StoreKeysArePinned)
{
    const auto &spec = workload::findBenchmark("compress");
    fs::create_directories(directory_ + "/traces");
    const auto external = [&](workload::InputKind kind,
                              const std::string &name) {
        sim::ExternalTrace trace;
        trace.name = name;
        trace.path = directory_ + "/traces/" + name + ".vbt";
        trace::saveTrace(workload::generateTrace(spec, kind), trace.path);
        trace::PrefetchedTrace opened =
            trace::TracePrefetcher::openTrace(trace.path, {});
        EXPECT_FALSE(opened.error);
        trace.contentHash = opened.contentHash;
        trace.resident = std::move(opened.resident);
        trace.session = std::move(opened.session);
        return trace;
    };
    const sim::ExternalTrace profile =
        external(workload::InputKind::Profile, "compress.profile");
    const sim::ExternalTrace test =
        external(workload::InputKind::Test, "compress.test");

    {
        sim::ExperimentContext context;
        context.setStore(openShared());
        context.sweep(spec, 12, false);
        context.assignment(spec, 12, false);
        context.sweep(spec, 8, true);
        context.assignment(spec, 8, true);
        for (const bool tuned : {false, true}) {
            sim::compare(context, spec, 4096, 5, false, tuned);
            sim::compare(context, spec, 512, 3, true, tuned);
        }
        sim::compareExternal(context, profile, test, 4096, 5, false);
        sim::compareExternal(context, profile, test, 512, 3, true);
    }
    {
        // A warm pass over every step-1 key writes its sweep entry.
        sim::ExperimentContext context;
        context.setStore(openShared());
        for (const auto &[bits, indirect] :
             {std::pair{12u, false}, std::pair{8u, true},
              std::pair{pred::conditionalIndexBits(4096), false},
              std::pair{pred::indirectIndexBits(512), true}})
            context.sweep(spec, bits, indirect);
        context.externalSweep(profile, pred::conditionalIndexBits(4096),
                              false);
        context.externalSweep(profile, pred::indirectIndexBits(512), true);
    }

    // Each entry's name (its key), an FNV-1a digest of its whole file
    // (container and payload) and an FNV-1a digest of its payload
    // alone. The payload digests were taken before the entry container
    // last changed (VLPSTOR1 to VLPSTOR2), so they show that no stored
    // profile, assignment or row moved with it; a change to step 1 or
    // step 2 that alters one fails here. The six sweep entries
    // (22f3…, 3c52…, 7a28…, ce16…, f3c9…, f41c…) came later; the
    // external profile's sweeps equal the synthetic ones, since its
    // trace is compress's profile input.
    struct Pinned
    {
        std::string name;
        std::uint64_t file;
        std::uint64_t payload;
        bool operator<(const Pinned &other) const
        {
            return name < other.name;
        }
    };
    std::vector<Pinned> entries;
    for (const auto &[file, bytes] : entryBytes()) {
        const auto payload = payloadOf(bytes);
        entries.push_back({file.stem().string(),
                           util::fnv1a(bytes.data(), bytes.size()),
                           util::fnv1a(payload.data(), payload.size())});
    }
    std::sort(entries.begin(), entries.end());
    const std::vector<Pinned> expected = {
        {"04546b9e069105b92b98f75afceb3053",
         0xc6baa25c54b2caf0ull, 0xad3d006d86519be7ull},
        {"08c282dc882d8cb6b68b11ae3135e228",
         0x3e5aa2cc1ee59edcull, 0x293aa5da7014251ull},
        {"1dc3f08489939c25872b1845230e0bc7",
         0xb266ecfc3539318dull, 0xe9239d1b7194c1daull},
        {"22f3baa41bb4dc9c947d5e59d2130dca",
         0xc3be6eebfe68dd45ull, 0x102d9f53340e2611ull},
        {"26891e99a10963233a40205fa2cf5d79",
         0xf8c0f3ecdcdf5316ull, 0xe33fa51434dd357aull},
        {"383a266c12686745d88708cd228a276b",
         0xbd7cd1f23300e82dull, 0x4d24d31a848ecc1aull},
        {"3c524605f0790d844f143bca7c9cb6b2",
         0x6d8f947778f28467ull, 0x2b3f521450d84580ull},
        {"43daac20626eae2ad1bed851b76b3be0",
         0x405b693f61dba2edull, 0xd2e1c226cd6e49a8ull},
        {"47c569e8cd3aaddd80b0f185b2340773",
         0xc26f408f839adb61ull, 0x6737990e90ef2520ull},
        {"48bb6afdb1b3db873526515f23ee0b11",
         0xd8f18e4c6061ae5eull, 0x58ab576e87d3ca04ull},
        {"54168ca6a35b7a42f02d0da50f145590",
         0x1a2e04f660954807ull, 0x7502e6c9dec7a4caull},
        {"70fcfff09a4400194ca1cb92a3993e83",
         0xa9a1d15526b7a1ebull, 0xea577c2fe1fc7150ull},
        {"7a28d0dccb68e716d61225055453e988",
         0x2b8483879cf68b7bull, 0x86484b6bf326b12aull},
        {"7fc6b4506d3353ecce1f85e16e4d3726",
         0xdc6abf926bd973c7ull, 0x7e73c4830f640dedull},
        {"88af9ee32da12ad57e23214957302f77",
         0x8c5f36edadefc73bull, 0x6737990e90ef2520ull},
        {"967ab10ad4ee60e626f4179662c31dcc",
         0x21800bdd5bfa09ceull, 0x293aa5da7014251ull},
        {"a2fe9167c48d70c9e885b609609cd337",
         0xcc77100e695778d1ull, 0xea577c2fe1fc7150ull},
        {"a7ddcc3030adf583fa3ad35db3455f71",
         0xff5bf6add1c034caull, 0x37c90a0006b76c50ull},
        {"b772830d6d0e530a0d65e702c52e7454",
         0xf664f76f05abc99dull, 0x7502e6c9dec7a4caull},
        {"ce16df1b91bb51c8242eee87726160e2",
         0xe2302a7e09b86f53ull, 0x102d9f53340e2611ull},
        {"d5f04193ca80466f24ddc7c998ed1175",
         0x7b42c6e5f891e528ull, 0x114248851ce12428ull},
        {"f3c91771a1995b7b419c23791ed148cd",
         0x55ba3432cff3c213ull, 0x2bbb56931fb3f3c7ull},
        {"f41c4a1cb74d174f8517b696d4ab7765",
         0xa38dc2a1ff8876d1ull, 0x2bbb56931fb3f3c7ull},
        {"fd235e20b93724c9613d8f4bdb7c3bf3",
         0xe6c0ccc48d0d1193ull, 0x8bb533829c366e9bull},
    };
    ASSERT_EQ(entries.size(), expected.size());
    for (std::size_t i = 0; i < entries.size(); ++i) {
        EXPECT_EQ(entries[i].name, expected[i].name);
        EXPECT_EQ(entries[i].file, expected[i].file)
            << entries[i].name << " file: 0x" << std::hex
            << entries[i].file << "ull";
        EXPECT_EQ(entries[i].payload, expected[i].payload)
            << entries[i].name << " payload: 0x" << std::hex
            << entries[i].payload << "ull";
    }
}

} // anonymous namespace
