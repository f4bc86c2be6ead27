/**
 * @file
 * Tests for the artifact store: key derivation, artifact codecs, the
 * on-disk store itself (hits, corruption recovery, garbage
 * collection), and the end-to-end caching contract — a warm rerun
 * must reproduce a cold run bit for bit, serial or parallel.
 */

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <gtest/gtest.h>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "core/profiler.h"
#include "sim/experiment.h"
#include "sim/parallel.h"
#include "store/artifact_store.h"
#include "store/cache_key.h"
#include "store/serialize.h"
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

TEST(SerializeTest, HfntRoundTrip)
{
    core::HashFunctionNumberTable table(4);
    for (std::uint64_t pc = 0; pc < 40; pc += 4) {
        table.predictNumber(pc);
        table.update(pc, static_cast<unsigned>(pc % 31 + 1));
    }
    const core::HashFunctionNumberTable decoded =
        decodeHfnt(encodeHfnt(table));
    EXPECT_EQ(decoded.indexBits(), table.indexBits());
    EXPECT_EQ(decoded.lookups(), table.lookups());
    EXPECT_EQ(decoded.mismatches(), table.mismatches());
    EXPECT_EQ(decoded.rawTable(), table.rawTable());
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
 * The store-key pin: every artifact kind the experiment layer writes —
 * step-1 sweeps, step-2 assignments and comparison rows (with and
 * without the tuned column) for one synthetic benchmark, and the same
 * for one external profile/test pair — in both branch classes, lands
 * under exactly these object names. Each name is the hash of the
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
        trace.contentHash = trace::hashTraceFile(trace.path);
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

    // Each entry's name (its key) and an FNV-1a digest of its file
    // (the key and the payload): a change to step 1 or step 2 that
    // alters a stored profile, assignment or row fails here.
    std::vector<std::pair<std::string, std::uint64_t>> entries;
    for (const fs::path &file : entryFiles()) {
        std::ifstream in(file, std::ios::binary);
        const std::string bytes(std::istreambuf_iterator<char>(in), {});
        entries.emplace_back(file.stem().string(),
                             util::fnv1a(bytes.data(), bytes.size()));
    }
    std::sort(entries.begin(), entries.end());
    const std::vector<std::pair<std::string, std::uint64_t>> expected = {
        {"04546b9e069105b92b98f75afceb3053", 0x25b97ff44ce4ae19ull},
        {"08c282dc882d8cb6b68b11ae3135e228", 0xa10200ec9eba1536ull},
        {"1dc3f08489939c25872b1845230e0bc7", 0x2c3eae2e5699046bull},
        {"26891e99a10963233a40205fa2cf5d79", 0xb3ded5a4f641b4e0ull},
        {"383a266c12686745d88708cd228a276b", 0xc69778ae4ea30ad0ull},
        {"43daac20626eae2ad1bed851b76b3be0", 0x72ae378617085a3full},
        {"47c569e8cd3aaddd80b0f185b2340773", 0xcaf5b4f7f5f17413ull},
        {"48bb6afdb1b3db873526515f23ee0b11", 0x9ae615b16eb16ae3ull},
        {"54168ca6a35b7a42f02d0da50f145590", 0xe1320849aebde5a7ull},
        {"70fcfff09a4400194ca1cb92a3993e83", 0x74b60effcbbec4bbull},
        {"7fc6b4506d3353ecce1f85e16e4d3726", 0xb3182a36beee4798ull},
        {"88af9ee32da12ad57e23214957302f77", 0x3d5e2b8a8773c255ull},
        {"967ab10ad4ee60e626f4179662c31dcc", 0x9fe754fbfd3ce3dcull},
        {"a2fe9167c48d70c9e885b609609cd337", 0x6d4501fbb91d7229ull},
        {"a7ddcc3030adf583fa3ad35db3455f71", 0xdb1502d749af3ecbull},
        {"b772830d6d0e530a0d65e702c52e7454", 0x3a62a826610ae0dull},
        {"d5f04193ca80466f24ddc7c998ed1175", 0x50e11e74c84e253full},
        {"fd235e20b93724c9613d8f4bdb7c3bf3", 0xd78935f7d80c5284ull},
    };
    ASSERT_EQ(entries.size(), expected.size());
    for (std::size_t i = 0; i < entries.size(); ++i) {
        EXPECT_EQ(entries[i].first, expected[i].first);
        EXPECT_EQ(entries[i].second, expected[i].second)
            << entries[i].first << ": 0x" << std::hex
            << entries[i].second << "ull";
    }
}

} // anonymous namespace
