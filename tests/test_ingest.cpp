/**
 * @file
 * Tests for the hardened external-trace ingestion pipeline: the
 * bounded-memory streaming reader, content hashing, the deterministic
 * fault-injection harnesses (and that every fault class actually
 * fires), the lenient text converter, and the suite runner's
 * retry/quarantine/resume behavior — including that a run resumed
 * from the artifact store a killed run left behind reports byte for
 * byte what an uninterrupted one does, and
 * that profile/test pairing (manifest and name convention) yields
 * honest train-vs-test numbers instead of self-evaluation.
 */

#include <fcntl.h>
#include <pthread.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <gtest/gtest.h>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/profiler.h"
#include "sim/experiment.h"
#include "sim/shared_memo.h"
#include "sim/suite_runner.h"
#include "store/artifact_store.h"
#include "trace/byte_file.h"
#include "trace/compact_trace.h"
#include "trace/content_hash.h"
#include "trace/fault_injection.h"
#include "trace/mmap_file.h"
#include "trace/prefetch.h"
#include "trace/streaming.h"
#include "trace/text_io.h"
#include "trace/trace_io.h"
#include "util/cancel.h"
#include "util/checksum.h"
#include "util/logging.h"
#include "util/rng.h"
#include "workload/benchmarks.h"

namespace {

namespace fs = std::filesystem;
using namespace vlp;

/** A fresh scratch directory per test, removed on teardown. */
class IngestHarness : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        directory_ = testing::TempDir() + "/vlpsim_ingest_"
            + ::testing::UnitTest::GetInstance()
                  ->current_test_info()
                  ->name();
        fs::remove_all(directory_);
        fs::create_directories(directory_);
    }

    void TearDown() override { fs::remove_all(directory_); }

    std::string path(const std::string &name) const
    {
        return directory_ + "/" + name;
    }

    std::string directory_;
};

/**
 * A deterministic mixed trace: a conditional working set with
 * path-correlated outcomes plus enough indirect jumps to clear the
 * suite runner's noise threshold.
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

/** Flip one bit at @p offset of the file at @p path. */
void
flipBit(const std::string &path, std::uint64_t offset)
{
    std::fstream file(path,
                      std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(file.is_open());
    file.seekg(static_cast<std::streamoff>(offset));
    char byte = 0;
    file.read(&byte, 1);
    file.seekp(static_cast<std::streamoff>(offset));
    byte = static_cast<char>(byte ^ 0x10);
    file.write(&byte, 1);
}

// --- streaming reader -------------------------------------------------

TEST_F(IngestHarness, StreamingMatchesMaterializedReader)
{
    const auto trace = makeTrace(7, 1000);
    trace::saveTrace(trace, path("t.vbt"));

    // A deliberately tiny chunk so refill() runs many times.
    trace::StreamingTraceReader reader(path("t.vbt"), 7);
    EXPECT_EQ(reader.count(), 1000u);
    EXPECT_EQ(reader.formatVersion(), 2u);

    trace::BranchRecord record;
    std::vector<trace::BranchRecord> streamed;
    while (reader.next(record))
        streamed.push_back(record);
    EXPECT_EQ(streamed, trace.records());

    // reset() replays identically.
    reader.reset();
    std::size_t replayed = 0;
    while (reader.next(record)) {
        EXPECT_EQ(record, trace.records()[replayed]);
        ++replayed;
    }
    EXPECT_EQ(replayed, trace.records().size());
}

TEST_F(IngestHarness, StreamingHoldsPeakBufferUnderCap)
{
    trace::saveTrace(makeTrace(11, 20000), path("big.vbt"));

    constexpr std::size_t chunk = 64;
    trace::StreamingTraceReader reader(path("big.vbt"), chunk);
    trace::BranchRecord record;
    std::uint64_t read = 0;
    while (reader.next(record))
        ++read;
    EXPECT_EQ(read, 20000u);
    // 18 bytes per encoded record; the cap is independent of the
    // 20000-record file size.
    EXPECT_LE(reader.peakBufferBytes(), chunk * 18);
    EXPECT_GT(reader.peakBufferBytes(), 0u);
}

/** Hand-write @p trace as VBT1: magic + count, no checksum field,
 *  then 18-byte records. */
void
writeVbt1(const std::string &path, const trace::VectorTraceSource &trace)
{
    std::ofstream out(path, std::ios::binary);
    out.write("VBT1", 4);
    const std::uint64_t count = trace.size();
    out.write(reinterpret_cast<const char *>(&count), 8);
    for (const trace::BranchRecord &record : trace.records()) {
        const std::uint8_t kind = static_cast<std::uint8_t>(record.kind);
        const std::uint8_t taken = record.taken ? 1 : 0;
        out.write(reinterpret_cast<const char *>(&kind), 1);
        out.write(reinterpret_cast<const char *>(&taken), 1);
        out.write(reinterpret_cast<const char *>(&record.pc), 8);
        out.write(reinterpret_cast<const char *>(&record.nextPc), 8);
    }
}

TEST_F(IngestHarness, StreamingReadsHandcraftedVbt1)
{
    const auto trace = makeTrace(3, 5);
    writeVbt1(path("old.vbt"), trace);

    trace::StreamingTraceReader streaming(path("old.vbt"), 2);
    EXPECT_EQ(streaming.formatVersion(), 1u);
    trace::BranchRecord record;
    std::vector<trace::BranchRecord> streamed;
    while (streaming.next(record))
        streamed.push_back(record);
    EXPECT_EQ(streamed, trace.records());
}

TEST_F(IngestHarness, StreamingRejectsTruncationAtOpen)
{
    trace::saveTrace(makeTrace(5, 100), path("cut.vbt"));
    fs::resize_file(path("cut.vbt"), fs::file_size(path("cut.vbt")) - 9);
    EXPECT_THROW(trace::StreamingTraceReader reader(path("cut.vbt")),
                 std::runtime_error);
}

TEST_F(IngestHarness, StreamingDetectsBitFlipViaChecksum)
{
    trace::saveTrace(makeTrace(5, 200), path("flip.vbt"));
    // Somewhere inside a pc field: record validation cannot see it,
    // only the stream checksum can.
    flipBit(path("flip.vbt"), 20 + 18 * 100 + 5);

    trace::StreamingTraceReader reader(path("flip.vbt"), 16);
    trace::BranchRecord record;
    EXPECT_THROW(
        {
            while (reader.next(record)) {
            }
        },
        std::runtime_error);
}

// --- content hashing --------------------------------------------------

TEST_F(IngestHarness, ContentHashIsStableAndSensitive)
{
    trace::saveTrace(makeTrace(9, 500), path("a.vbt"));
    const std::string first = trace::hashTraceFile(path("a.vbt"));
    EXPECT_EQ(first.size(), 32u);
    EXPECT_EQ(first.find_first_not_of("0123456789abcdef"),
              std::string::npos);
    EXPECT_EQ(trace::hashTraceFile(path("a.vbt")), first);

    // A renamed copy hashes identically; a one-bit change does not.
    fs::copy_file(path("a.vbt"), path("b.vbt"));
    EXPECT_EQ(trace::hashTraceFile(path("b.vbt")), first);
    flipBit(path("b.vbt"), 100);
    EXPECT_NE(trace::hashTraceFile(path("b.vbt")), first);
}

// --- trace fault injection -------------------------------------------

TEST_F(IngestHarness, EveryTraceFaultClassFiresUnderFixedSeed)
{
    trace::saveTrace(makeTrace(13, 4000), path("victim.vbt"));
    const std::uint64_t full_size = fs::file_size(path("victim.vbt"));

    trace::FaultPlan plan;
    plan.seed = 42;
    plan.transientOpens = 2;
    plan.transientReads = 2;
    plan.shortReadProbability = 0.5;
    plan.bitFlipProbability = 0.5;
    plan.truncateAt = full_size - 1000;
    trace::FaultInjector injector(plan);
    const trace::FileOpener opener = injector.opener();

    // Drain the file through the injector with dumb retries, small
    // reads so the probabilistic faults get many draws.
    std::unique_ptr<trace::ByteFile> file;
    for (;;) {
        try {
            file = opener(path("victim.vbt"));
            break;
        } catch (const util::TransientError &) {
        }
    }
    std::uint8_t buffer[64];
    std::uint64_t drained = 0;
    for (;;) {
        std::size_t got = 0;
        try {
            got = file->read(buffer, sizeof(buffer));
        } catch (const util::TransientError &) {
            continue;
        }
        if (got == 0)
            break;
        drained += got;
    }
    EXPECT_EQ(drained, plan.truncateAt);

    const trace::FaultCounters counters = injector.counters();
    EXPECT_EQ(counters.transientOpens, plan.transientOpens);
    EXPECT_EQ(counters.transientReads, plan.transientReads);
    EXPECT_GT(counters.shortReads, 0u);
    EXPECT_GT(counters.bitFlips, 0u);
    EXPECT_EQ(counters.truncations, 1u);
}

TEST_F(IngestHarness, FaultStreamIsPerPathDeterministic)
{
    trace::saveTrace(makeTrace(17, 1000), path("d.vbt"));

    const auto drain = [&](trace::FaultInjector &injector) {
        const auto opener = injector.opener();
        auto file = opener(path("d.vbt"));
        std::vector<std::uint8_t> bytes;
        std::uint8_t buffer[256];
        for (;;) {
            const std::size_t got = file->read(buffer, sizeof(buffer));
            if (got == 0)
                break;
            bytes.insert(bytes.end(), buffer, buffer + got);
        }
        return bytes;
    };

    trace::FaultPlan plan;
    plan.seed = 7;
    plan.shortReadProbability = 0.3;
    plan.bitFlipProbability = 0.3;
    trace::FaultInjector first(plan);
    trace::FaultInjector second(plan);
    // Same seed, same path, same read sizes -> bitwise-identical
    // corrupted stream, independent of injector instance.
    EXPECT_EQ(drain(first), drain(second));
}

TEST_F(IngestHarness, InjectedTruncationIsCaughtByHeaderCheck)
{
    trace::saveTrace(makeTrace(19, 300), path("t.vbt"));
    trace::FaultPlan plan;
    plan.truncateAt = fs::file_size(path("t.vbt")) / 2;
    trace::FaultInjector injector(plan);
    EXPECT_THROW(trace::StreamingTraceReader reader(
                     injector.opener()(path("t.vbt"))),
                 std::runtime_error);
}

TEST_F(IngestHarness, ServedViewBitFlipIsCaughtByChecksum)
{
    trace::saveTrace(makeTrace(23, 2000), path("v.vbt"));

    // With views served and every served view carrying a flipped bit,
    // the zero-copy decode path must fail the stream checksum — the
    // same guarantee the read() path already proves.
    trace::FaultPlan plan;
    plan.seed = 5;
    plan.serveViews = true;
    plan.viewBitFlipProbability = 1.0;
    trace::FaultInjector injector(plan);

    trace::StreamingTraceReader reader(
        injector.opener()(path("v.vbt")), 64);
    trace::BranchRecord record;
    EXPECT_THROW(
        {
            while (reader.next(record)) {
            }
        },
        std::runtime_error);
    EXPECT_GT(injector.counters().viewBitFlips, 0u);

    // The flip lived in the injector's buffer, never in the file:
    // a clean open replays the trace intact.
    trace::StreamingTraceReader clean(path("v.vbt"), 64);
    std::size_t records = 0;
    while (clean.next(record))
        ++records;
    EXPECT_EQ(records, 2000u);
}

TEST_F(IngestHarness, RefusedViewsFallBackToBufferedReads)
{
    trace::saveTrace(makeTrace(29, 1500), path("r.vbt"));

    // Every view refused mid-stream: the reader must silently fall
    // back to read() and still decode the identical record sequence.
    trace::FaultPlan plan;
    plan.seed = 6;
    plan.serveViews = true;
    plan.shortViewProbability = 1.0;
    trace::FaultInjector injector(plan);

    trace::StreamingTraceReader faulty(
        injector.opener()(path("r.vbt")), 64);
    trace::StreamingTraceReader clean(path("r.vbt"), 64);
    trace::BranchRecord got, want;
    for (;;) {
        const bool more = faulty.next(got);
        ASSERT_EQ(more, clean.next(want));
        if (!more)
            break;
        ASSERT_EQ(got, want);
    }
    EXPECT_GT(injector.counters().shortViews, 0u);
}

// --- lenient text conversion -----------------------------------------

TEST_F(IngestHarness, LenientConvertReportsLineNumbers)
{
    std::istringstream in(
        "# comment\n"
        "cond 1000 1040 T\n"
        "cond 1000 xyz T\n"          // bad hex
        "1004 1044 1\n"              // ChampSim-style reduced form
        "bogus 1000 1040 T\n"        // unknown kind
        "\n"
        "ijump 2000 3000 T\n"
        "cond 1008\n"                // too few fields
        "ret 4000 1008 N\n");        // non-conditional not-taken

    trace::ConvertReport report;
    const auto trace = trace::readTextTraceLenient(in, report);
    EXPECT_EQ(report.imported, 3u);
    EXPECT_EQ(trace.size(), 3u);
    EXPECT_EQ(report.skipped, 4u);
    ASSERT_EQ(report.diagnostics.size(), 4u);
    EXPECT_NE(report.diagnostics[0].find("line 3"), std::string::npos);
    EXPECT_NE(report.diagnostics[1].find("line 5"), std::string::npos);
    EXPECT_NE(report.diagnostics[2].find("line 8"), std::string::npos);
    EXPECT_NE(report.diagnostics[3].find("line 9"), std::string::npos);

    EXPECT_EQ(trace.records()[1].kind, trace::BranchKind::Conditional);
    EXPECT_EQ(trace.records()[1].pc, 0x1004u);
    EXPECT_TRUE(trace.records()[1].taken);
}

TEST_F(IngestHarness, LenientConvertCapsDiagnostics)
{
    std::ostringstream text;
    for (int i = 0; i < 50; ++i)
        text << "garbage line\n";
    std::istringstream in(text.str());
    trace::ConvertReport report;
    trace::readTextTraceLenient(in, report);
    EXPECT_EQ(report.skipped, 50u);
    EXPECT_EQ(report.diagnostics.size(),
              trace::ConvertReport::maxDiagnostics);
}

// --- suite runner ----------------------------------------------------

/** A corpus with good, corrupt, and empty members. */
class SuiteHarness : public IngestHarness
{
  protected:
    void SetUp() override
    {
        IngestHarness::SetUp();
        corpus_ = path("corpus");
        fs::create_directories(corpus_);
        trace::saveTrace(makeTrace(1, 3000), corpus_ + "/alpha.vbt");
        trace::saveTrace(makeTrace(2, 3000), corpus_ + "/beta.vbt");
        trace::saveTrace(makeTrace(3, 3000), corpus_ + "/gamma.vbt");
        // Delta carries a bit flip inside a record: readable header,
        // checksum failure once the stream is consumed -> quarantined.
        trace::saveTrace(makeTrace(4, 3000), corpus_ + "/delta.vbt");
        flipBit(corpus_ + "/delta.vbt", 20 + 18 * 1000 + 3);
        // Epsilon is valid but empty -> skipped (no usable branches).
        trace::saveTrace(trace::VectorTraceSource{},
                         corpus_ + "/epsilon.vbt");
    }

    sim::TraceSuiteOptions baseOptions() const
    {
        sim::TraceSuiteOptions options;
        options.directory = corpus_;
        options.bytes = 1024;
        options.jobs = 1;
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

    /** A run's rendered report and the traffic of its store. */
    struct StoreRun
    {
        std::string report;
        store::StoreCounters counters;
    };

    /** Run @p options against the store in @p cache, as left by
     *  earlier runs. */
    static StoreRun runWithStore(sim::TraceSuiteOptions options,
                                 const std::string &cache)
    {
        store::StoreOptions store_options;
        store_options.directory = cache;
        const auto store =
            std::make_shared<store::ArtifactStore>(store_options);
        options.store = store;
        StoreRun run;
        run.report = render(sim::TraceSuiteRunner(std::move(options)).run());
        run.counters = store->counters();
        return run;
    }

    /** Run @p options against an empty store in @p cache. */
    static StoreRun runWithFreshStore(sim::TraceSuiteOptions options,
                                      const std::string &cache)
    {
        fs::remove_all(cache);
        return runWithStore(std::move(options), cache);
    }

    /** Every entry file of the store in @p cache, by relative path,
     *  with its bytes. */
    static std::map<std::string, std::string>
    storeEntries(const std::string &cache)
    {
        std::map<std::string, std::string> entries;
        for (const auto &file :
             fs::recursive_directory_iterator(cache + "/objects")) {
            if (!file.is_regular_file())
                continue;
            std::ifstream in(file.path(), std::ios::binary);
            std::ostringstream bytes;
            bytes << in.rdbuf();
            entries[fs::relative(file.path(), cache).string()] =
                bytes.str();
        }
        return entries;
    }

    /**
     * Leave @p cache as a killed run could have: entries are published
     * by rename, so each is whole or absent. Removes every comparison
     * row (so every surviving assignment is needed again) and every
     * other remaining entry in path order, then truncates the first
     * survivor — a damaged entry the rerun must detect and replace.
     * @return the entries removed
     */
    static std::size_t simulateKill(const std::string &cache)
    {
        std::vector<std::string> survivors;
        std::size_t removed = 0;
        std::size_t others = 0;
        for (const auto &[name, bytes] : storeEntries(cache)) {
            const bool row =
                bytes.find("kind=comparison;") != std::string::npos;
            if (row || others++ % 2 == 1) {
                fs::remove(cache + "/" + name);
                ++removed;
            } else {
                survivors.push_back(name);
            }
        }
        EXPECT_FALSE(survivors.empty());
        if (!survivors.empty()) {
            const std::string victim = cache + "/" + survivors.front();
            fs::resize_file(victim, fs::file_size(victim) / 2);
        }
        return removed;
    }

    /**
     * Kill-and-resume through the store: fill it with a full run of
     * @p options, then at jobs 1 and 4 leave what a kill could leave
     * and rerun. The rerun must print @p reference, replace exactly
     * the removed and damaged entries, and put back the same bytes.
     */
    void expectStoreResume(sim::TraceSuiteOptions options,
                           const std::string &reference)
    {
        const std::string cache = path("cache");
        EXPECT_EQ(runWithFreshStore(options, cache).report, reference);
        const auto cold = storeEntries(cache);
        for (const unsigned jobs : {1u, 4u}) {
            const std::size_t removed = simulateKill(cache);
            EXPECT_GT(removed, 0u) << "jobs=" << jobs;
            options.jobs = jobs;
            const StoreRun resumed = runWithStore(options, cache);
            EXPECT_EQ(resumed.report, reference) << "jobs=" << jobs;
            EXPECT_GT(resumed.counters.hits, 0u) << "jobs=" << jobs;
            EXPECT_EQ(resumed.counters.corrupt, 1u) << "jobs=" << jobs;
            EXPECT_EQ(resumed.counters.inserts, removed + 1)
                << "jobs=" << jobs;
            EXPECT_EQ(storeEntries(cache), cold) << "jobs=" << jobs;
        }
    }

    /** Expect @p run to match @p reference in report and traffic. */
    static void expectSameRun(const StoreRun &reference,
                              const StoreRun &run, unsigned jobs)
    {
        EXPECT_EQ(run.report, reference.report) << "jobs=" << jobs;
        EXPECT_EQ(run.counters.hits, reference.counters.hits)
            << "jobs=" << jobs;
        EXPECT_EQ(run.counters.misses, reference.counters.misses)
            << "jobs=" << jobs;
        EXPECT_EQ(run.counters.inserts, reference.counters.inserts)
            << "jobs=" << jobs;
    }

    std::string corpus_;
};

TEST_F(SuiteHarness, QuarantinesBadTracesAndContinues)
{
    sim::TraceSuiteRunner runner(baseOptions());
    const sim::SuiteReport report = runner.run();

    ASSERT_EQ(report.traces.size(), 5u);
    EXPECT_EQ(report.okCount(), 3u);
    EXPECT_EQ(report.quarantinedCount(), 1u);
    EXPECT_EQ(report.skippedCount(), 1u);
    EXPECT_FALSE(report.allFailed());

    // Sorted-name order, statuses attached to the right traces.
    EXPECT_EQ(report.traces[0].name, "alpha.vbt");
    EXPECT_EQ(report.traces[0].status, sim::TraceStatus::Ok);
    ASSERT_TRUE(report.traces[0].conditional.has_value());
    ASSERT_TRUE(report.traces[0].indirect.has_value());
    EXPECT_EQ(report.traces[1].name, "beta.vbt");
    EXPECT_EQ(report.traces[2].name, "delta.vbt");
    EXPECT_EQ(report.traces[2].status, sim::TraceStatus::Quarantined);
    EXPECT_FALSE(report.traces[2].cause.empty());
    EXPECT_EQ(report.traces[3].name, "epsilon.vbt");
    EXPECT_EQ(report.traces[3].status, sim::TraceStatus::Skipped);
    EXPECT_EQ(report.traces[4].name, "gamma.vbt");

    EXPECT_GT(report.globalConditionalLength, 0u);
    EXPECT_GT(report.globalIndirectLength, 0u);
}

TEST_F(SuiteHarness, ReportIsIdenticalAcrossJobCounts)
{
    sim::TraceSuiteRunner serial(baseOptions());
    auto parallel_options = baseOptions();
    parallel_options.jobs = 4;
    sim::TraceSuiteRunner parallel(std::move(parallel_options));
    EXPECT_EQ(render(serial.run()), render(parallel.run()));
}

TEST_F(SuiteHarness, TransientFaultsAreRetriedToSuccess)
{
    // One failed open plus one failed read per path: three attempts
    // suffice, within the default budget of four.
    trace::FaultPlan plan;
    plan.transientOpens = 1;
    plan.transientReads = 1;
    trace::FaultInjector injector(plan);

    auto options = baseOptions();
    options.opener = injector.opener();
    std::uint64_t naps = 0;
    options.retry.sleeper = [&naps](unsigned) { ++naps; };
    sim::TraceSuiteRunner faulty(std::move(options));
    const std::string faulty_report = render(faulty.run());

    EXPECT_GT(naps, 0u);
    EXPECT_GT(injector.counters().transientOpens, 0u);

    // Transient faults change nothing about the final report.
    sim::TraceSuiteRunner clean(baseOptions());
    EXPECT_EQ(faulty_report, render(clean.run()));
}

TEST_F(SuiteHarness, PersistentTransientFaultsQuarantine)
{
    trace::FaultPlan plan;
    plan.transientOpens = 1000; // never succeeds within the budget
    trace::FaultInjector injector(plan);

    auto options = baseOptions();
    options.opener = injector.opener();
    options.retry.maxAttempts = 3;
    sim::TraceSuiteRunner runner(std::move(options));
    const sim::SuiteReport report = runner.run();

    EXPECT_EQ(report.okCount(), 0u);
    EXPECT_TRUE(report.allFailed());
    for (const auto &outcome : report.traces) {
        EXPECT_EQ(outcome.status, sim::TraceStatus::Quarantined);
        EXPECT_NE(outcome.cause.find("transient"), std::string::npos);
        EXPECT_NE(outcome.cause.find("3 attempts"), std::string::npos);
    }
}

TEST_F(SuiteHarness, CheckpointResumeReproducesReportByteForByte)
{
    // A corpus with ok, quarantined and skipped traces, resumed from
    // the store a killed run left: the report matches an uninterrupted
    // run without a store byte for byte.
    const std::string reference =
        render(sim::TraceSuiteRunner(baseOptions()).run());
    expectStoreResume(baseOptions(), reference);
}

TEST_F(IngestHarness, SuiteWithNoUsableTracesFails)
{
    fs::create_directories(path("empty_corpus"));
    trace::saveTrace(makeTrace(1, 50), path("empty_corpus/only.vbt"));
    fs::resize_file(path("empty_corpus/only.vbt"), 30);

    sim::TraceSuiteOptions options;
    options.directory = path("empty_corpus");
    options.bytes = 1024;
    options.retry.sleeper = [](unsigned) {};
    sim::TraceSuiteRunner runner(std::move(options));
    const sim::SuiteReport report = runner.run();
    EXPECT_TRUE(report.allFailed());
    EXPECT_FALSE(report.empty());
    ASSERT_EQ(report.traces.size(), 1u);
    EXPECT_EQ(report.traces[0].status, sim::TraceStatus::Quarantined);
}

TEST_F(IngestHarness, EmptyCorpusIsDistinctFromAllFailed)
{
    fs::create_directories(path("no_traces"));
    sim::TraceSuiteOptions options;
    options.directory = path("no_traces");
    options.bytes = 1024;
    options.retry.sleeper = [](unsigned) {};
    sim::TraceSuiteRunner runner(std::move(options));
    const sim::SuiteReport report = runner.run();
    // "no .vbt traces found" must not read as "every trace failed":
    // the CLI maps empty() to its own diagnostic and exit status.
    EXPECT_TRUE(report.empty());
    EXPECT_FALSE(report.allFailed());
    EXPECT_TRUE(report.traces.empty());
}

// --- profile/test pairing --------------------------------------------

/**
 * A conditional-only trace whose outcomes are either strongly
 * path-correlated (learnable bias) or adversarially random (the
 * opposite). Built on one seed, two traces share the exact branch
 * sequence and differ only in outcome structure — the profile input
 * teaches a bias the test input then contradicts.
 */
trace::VectorTraceSource
makeBiasedTrace(std::uint64_t seed, std::size_t records, bool contrary)
{
    util::Rng rng(seed);
    trace::VectorTraceSource source;
    for (std::size_t i = 0; i < records; ++i) {
        trace::BranchRecord record;
        record.kind = trace::BranchKind::Conditional;
        record.pc = 0x1000 + 16 * rng.nextBelow(16);
        const bool biased = (((record.pc >> 4) ^ (i >> 2)) & 1) != 0;
        record.taken = contrary ? rng.nextBool(0.5) : biased;
        record.nextPc = record.taken ? record.pc + 64 : record.pc + 4;
        source.append(record);
    }
    return source;
}

TEST_F(IngestHarness, PairTracesFollowsNameConvention)
{
    const std::vector<std::pair<std::string, std::string>> discovered =
        {{"gcc.profile.vbt", "/c/gcc.profile.vbt"},
         {"gcc.test.vbt", "/c/gcc.test.vbt"},
         {"lone.test.vbt", "/c/lone.test.vbt"},
         {"plain.vbt", "/c/plain.vbt"}};
    const sim::TracePairing pairing =
        sim::TraceSuiteRunner::pairTraces(discovered, "");

    ASSERT_EQ(pairing.pairs.size(), 2u);
    EXPECT_EQ(pairing.pairs[0].name, "gcc");
    EXPECT_EQ(pairing.pairs[0].profileName, "gcc.profile.vbt");
    EXPECT_EQ(pairing.pairs[0].testName, "gcc.test.vbt");
    EXPECT_FALSE(pairing.pairs[0].selfEval);
    // Unmarked traces fall back to labeled self-evaluation...
    EXPECT_EQ(pairing.pairs[1].name, "plain.vbt");
    EXPECT_TRUE(pairing.pairs[1].selfEval);
    // ...but a convention-marked trace with no mate is never silently
    // self-evaluated.
    ASSERT_EQ(pairing.orphans.size(), 1u);
    EXPECT_EQ(pairing.orphans[0].name, "lone.test.vbt");
    EXPECT_NE(pairing.orphans[0].cause.find("lone.profile.vbt"),
              std::string::npos);
}

TEST_F(IngestHarness, PairTracesFollowsManifestAndReportsOrphans)
{
    const std::string manifest = path("pairs.txt");
    {
        std::ofstream out(manifest);
        out << "# comment line\n"
            << "\n"
            << "zeta b.vbt c.vbt\n"
            << "alpha a.vbt b.vbt\n"
            << "selfy c.vbt c.vbt\n";
    }
    const std::vector<std::pair<std::string, std::string>> discovered =
        {{"a.vbt", "/c/a.vbt"},
         {"b.vbt", "/c/b.vbt"},
         {"c.vbt", "/c/c.vbt"},
         {"unused.vbt", "/c/unused.vbt"}};
    const sim::TracePairing pairing =
        sim::TraceSuiteRunner::pairTraces(discovered, manifest);

    ASSERT_EQ(pairing.pairs.size(), 3u);
    // Sorted by pair name, not manifest order.
    EXPECT_EQ(pairing.pairs[0].name, "alpha");
    EXPECT_EQ(pairing.pairs[0].profileName, "a.vbt");
    EXPECT_EQ(pairing.pairs[0].testName, "b.vbt");
    EXPECT_FALSE(pairing.pairs[0].selfEval);
    EXPECT_EQ(pairing.pairs[1].name, "selfy");
    EXPECT_TRUE(pairing.pairs[1].selfEval);
    EXPECT_EQ(pairing.pairs[2].name, "zeta");
    ASSERT_EQ(pairing.orphans.size(), 1u);
    EXPECT_EQ(pairing.orphans[0].name, "unused.vbt");
    EXPECT_NE(pairing.orphans[0].cause.find("not referenced"),
              std::string::npos);
}

TEST_F(IngestHarness, PairTracesRejectsMalformedManifests)
{
    const std::vector<std::pair<std::string, std::string>> discovered =
        {{"a.vbt", "/c/a.vbt"}};

    {
        std::ofstream out(path("short.txt"));
        out << "pair a.vbt\n"; // missing the test trace field
    }
    EXPECT_THROW(
        sim::TraceSuiteRunner::pairTraces(discovered, path("short.txt")),
        std::runtime_error);

    {
        std::ofstream out(path("dup.txt"));
        out << "pair a.vbt a.vbt\n"
            << "pair a.vbt a.vbt\n";
    }
    EXPECT_THROW(
        sim::TraceSuiteRunner::pairTraces(discovered, path("dup.txt")),
        std::runtime_error);

    EXPECT_THROW(sim::TraceSuiteRunner::pairTraces(
                     discovered, path("does_not_exist.txt")),
                 std::runtime_error);
}

TEST_F(IngestHarness, ManifestNamingMissingTraceQuarantinesThatPair)
{
    fs::create_directories(path("corpus"));
    trace::saveTrace(makeTrace(1, 3000), path("corpus/a.vbt"));
    trace::saveTrace(makeTrace(2, 3000), path("corpus/b.vbt"));
    {
        std::ofstream out(path("corpus/pairs.txt"));
        out << "good a.vbt b.vbt\n"
            << "bad a.vbt ghost.vbt\n";
    }

    sim::TraceSuiteOptions options;
    options.directory = path("corpus");
    options.bytes = 1024;
    options.retry.sleeper = [](unsigned) {};
    sim::TraceSuiteRunner runner(std::move(options));
    const sim::SuiteReport report = runner.run();

    ASSERT_EQ(report.traces.size(), 2u);
    EXPECT_EQ(report.traces[0].name, "bad");
    EXPECT_EQ(report.traces[0].status, sim::TraceStatus::Quarantined);
    EXPECT_NE(report.traces[0].cause.find("ghost.vbt"),
              std::string::npos);
    EXPECT_EQ(report.traces[1].name, "good");
    EXPECT_EQ(report.traces[1].status, sim::TraceStatus::Ok);
    EXPECT_FALSE(report.allFailed());
}

TEST_F(IngestHarness, PairedRunReportsTrainAndTestFromDistinctTraces)
{
    fs::create_directories(path("corpus"));
    // Same branch sequence; the profile input carries a learnable
    // path-correlated bias, the test input contradicts it.
    trace::saveTrace(makeBiasedTrace(21, 6000, false),
                     path("corpus/gcc.profile.vbt"));
    trace::saveTrace(makeBiasedTrace(21, 6000, true),
                     path("corpus/gcc.test.vbt"));

    sim::TraceSuiteOptions options;
    options.directory = path("corpus");
    options.bytes = 1024;
    options.retry.sleeper = [](unsigned) {};
    sim::TraceSuiteRunner runner(std::move(options));
    const sim::SuiteReport report = runner.run();

    ASSERT_EQ(report.traces.size(), 1u);
    const sim::TraceOutcome &pair = report.traces[0];
    EXPECT_EQ(pair.name, "gcc");
    EXPECT_EQ(pair.status, sim::TraceStatus::Ok);
    EXPECT_FALSE(pair.selfEval);
    ASSERT_TRUE(pair.conditionalTrain.has_value());
    ASSERT_TRUE(pair.conditional.has_value());

    // The two sides really came from different traces: branch counts
    // match (same sequence) but the test-side accuracy visibly drops.
    const sim::RateEntry &train =
        pair.conditionalTrain->entry(sim::names::vlp);
    const sim::RateEntry &test = pair.conditional->entry(sim::names::vlp);
    EXPECT_GT(train.branches, 0u);
    EXPECT_GT(test.rate, train.rate);
    ASSERT_TRUE(pair.conditionalDelta().has_value());
    EXPECT_GT(*pair.conditionalDelta(), 1.0);

    // Rendered output labels the pair cross-eval with a delta line.
    std::ostringstream rendered;
    report.print(rendered);
    const std::string text = rendered.str();
    EXPECT_NE(text.find("ok cross-eval"), std::string::npos);
    EXPECT_NE(text.find("| test "), std::string::npos);
    EXPECT_NE(text.find("generalization delta"), std::string::npos);
}

TEST_F(IngestHarness, PairedArtifactsAreCachedUnderProfileHash)
{
    fs::create_directories(path("corpus"));
    trace::saveTrace(makeBiasedTrace(23, 4000, false),
                     path("corpus/app.profile.vbt"));
    trace::saveTrace(makeBiasedTrace(23, 4000, true),
                     path("corpus/app.test.vbt"));

    store::StoreOptions store_options;
    store_options.directory = path("cache");
    const auto store =
        std::make_shared<store::ArtifactStore>(store_options);

    const auto runOnce = [&] {
        sim::TraceSuiteOptions options;
        options.directory = path("corpus");
        options.bytes = 1024;
        options.store = store;
        options.retry.sleeper = [](unsigned) {};
        sim::TraceSuiteRunner runner(std::move(options));
        std::ostringstream out;
        runner.run().print(out);
        return out.str();
    };

    const std::string cold = runOnce();
    const store::StoreCounters after_cold = store->counters();
    EXPECT_GT(after_cold.inserts, 0u);

    // Warm rerun: byte-identical report, everything served from the
    // store (no new inserts), step-1/assignment artifacts keyed by the
    // profile trace's content hash.
    const std::string warm = runOnce();
    EXPECT_EQ(warm, cold);
    const store::StoreCounters after_warm = store->counters();
    EXPECT_EQ(after_warm.inserts, after_cold.inserts);
    EXPECT_GT(after_warm.hits, after_cold.hits);
}

TEST_F(SuiteHarness, PairedReportIsIdenticalAcrossJobCounts)
{
    // A corpus mixing cross-eval pairs, a self-eval fallback, and an
    // orphan, processed at jobs 1 and jobs 4.
    fs::create_directories(path("paired"));
    trace::saveTrace(makeTrace(31, 3000),
                     path("paired/one.profile.vbt"));
    trace::saveTrace(makeTrace(32, 3000), path("paired/one.test.vbt"));
    trace::saveTrace(makeTrace(33, 3000),
                     path("paired/two.profile.vbt"));
    trace::saveTrace(makeTrace(34, 3000), path("paired/two.test.vbt"));
    trace::saveTrace(makeTrace(35, 3000), path("paired/solo.vbt"));
    trace::saveTrace(makeTrace(36, 3000),
                     path("paired/widow.profile.vbt"));

    auto serial_options = baseOptions();
    serial_options.directory = path("paired");
    sim::TraceSuiteRunner serial(std::move(serial_options));
    auto parallel_options = baseOptions();
    parallel_options.directory = path("paired");
    parallel_options.jobs = 4;
    sim::TraceSuiteRunner parallel(std::move(parallel_options));

    const sim::SuiteReport serial_report = serial.run();
    EXPECT_EQ(serial_report.okCount(), 3u);
    EXPECT_EQ(serial_report.crossEvaluatedCount(), 2u);
    EXPECT_EQ(serial_report.orphanedCount(), 1u);
    EXPECT_EQ(render(serial_report), render(parallel.run()));
}

TEST_F(SuiteHarness, PairedCheckpointResumeReproducesReport)
{
    fs::create_directories(path("paired"));
    trace::saveTrace(makeTrace(41, 3000),
                     path("paired/app.profile.vbt"));
    trace::saveTrace(makeTrace(42, 3000), path("paired/app.test.vbt"));
    trace::saveTrace(makeTrace(43, 3000), path("paired/solo.vbt"));

    auto options = baseOptions();
    options.directory = path("paired");
    const std::string reference =
        render(sim::TraceSuiteRunner(options).run());
    expectStoreResume(options, reference);
}

TEST_F(SuiteHarness, ManifestEditBetweenKillAndResumeRecomputes)
{
    fs::create_directories(path("paired"));
    trace::saveTrace(makeTrace(51, 3000), path("paired/a.vbt"));
    trace::saveTrace(makeTrace(52, 3000), path("paired/b.vbt"));
    trace::saveTrace(makeTrace(53, 3000), path("paired/c.vbt"));
    const auto writeManifest = [&](const std::string &test_trace) {
        std::ofstream out(path("manifest.txt"));
        out << "app a.vbt " << test_trace << "\n";
    };
    auto options = baseOptions();
    options.directory = path("paired");
    options.manifest = path("manifest.txt");

    // Fill the store against b.vbt: every b.vbt row stays in it.
    writeManifest("b.vbt");
    const std::string against_b =
        runWithFreshStore(options, path("cache")).report;

    // Edit the manifest to evaluate against c.vbt and rerun on the
    // same store: row keys carry both content hashes, so the b.vbt
    // rows cannot be replayed as c.vbt results, while everything
    // profiled on a.vbt is reused.
    writeManifest("c.vbt");
    const StoreRun resumed = runWithStore(options, path("cache"));
    const std::string against_c =
        render(sim::TraceSuiteRunner(options).run());
    EXPECT_EQ(resumed.report, against_c);
    EXPECT_GT(resumed.counters.hits, 0u);
    // And its test-side rates are not the b.vbt ones.
    const auto test_rates = [](const std::string &report) {
        std::istringstream in(report);
        std::string rates;
        for (std::string line; std::getline(in, line);) {
            if (line.find("| test ") != std::string::npos)
                rates += line + "\n";
        }
        return rates;
    };
    EXPECT_FALSE(test_rates(against_c).empty());
    EXPECT_NE(test_rates(resumed.report), test_rates(against_b));
}

TEST_F(IngestHarness, BackoffDelayIsClampedForHugeAttemptBudgets)
{
    fs::create_directories(path("corpus"));
    trace::saveTrace(makeTrace(61, 200), path("corpus/t.vbt"));

    // Every open fails transiently, exhausting a 40-attempt budget:
    // before the clamp, attempt 33 shifted a 32-bit base by 32 —
    // undefined behavior that UBSan flags in sanitizer builds.
    trace::FaultPlan plan;
    plan.transientOpens = 1000;
    trace::FaultInjector injector(plan);

    sim::TraceSuiteOptions options;
    options.directory = path("corpus");
    options.bytes = 1024;
    options.opener = injector.opener();
    options.retry.maxAttempts = 40;
    options.retry.backoffBaseMs = 3;
    options.retry.backoffMaxMs = 24;
    std::vector<unsigned> delays;
    options.retry.sleeper = [&delays](unsigned ms) { delays.push_back(ms); };
    sim::TraceSuiteRunner runner(std::move(options));
    const sim::SuiteReport report = runner.run();

    ASSERT_EQ(report.traces.size(), 1u);
    EXPECT_EQ(report.traces[0].status, sim::TraceStatus::Quarantined);
    ASSERT_GE(delays.size(), 39u);
    EXPECT_EQ(delays[0], 3u);
    EXPECT_EQ(delays[1], 6u);
    EXPECT_EQ(delays[2], 12u);
    for (const unsigned delay : delays)
        EXPECT_LE(delay, 24u);
    EXPECT_EQ(delays[38], 24u);
}

TEST_F(IngestHarness, GoldenPairedAsciiReport)
{
    // A hand-built report with fixed counters: locks the exact paired
    // ASCII rendering without depending on simulation numerics.
    sim::SuiteReport suite;
    suite.bytes = 2048;
    suite.globalConditionalLength = 6;
    suite.globalIndirectLength = 0;

    sim::TraceOutcome pair;
    pair.name = "gcc";
    pair.profileName = "gcc.profile.vbt";
    pair.testName = "gcc.test.vbt";
    pair.profileFormatVersion = 2;
    pair.formatVersion = 2;
    pair.profileRecords = 100;
    pair.records = 120;
    pair.conditionalBranches = 69000;
    sim::ComparisonRow train;
    train.benchmark = "gcc.profile.vbt";
    train.entries = {{sim::names::gshare, 69000, 9436, 13.6754},
                     {sim::names::vlp, 69000, 2898, 4.2}};
    sim::ComparisonRow test;
    test.benchmark = "gcc.test.vbt";
    test.entries = {{sim::names::gshare, 69000, 10350, 15.0},
                    {sim::names::vlp, 69000, 4485, 6.5}};
    pair.conditionalTrain = train;
    pair.conditional = test;
    suite.traces.push_back(pair);

    sim::TraceOutcome orphan;
    orphan.name = "lone.test.vbt";
    orphan.status = sim::TraceStatus::Orphaned;
    orphan.cause = "test trace without a matching lone.profile.vbt";
    suite.traces.push_back(orphan);

    std::ostringstream out;
    suite.print(out);
    EXPECT_EQ(
        out.str(),
        "external trace suite\n"
        "table budget: 2048 bytes\n"
        "global conditional path length: 6\n"
        "global indirect path length: n/a\n"
        "pairs: 1 ok (1 cross-eval, 0 self-eval), 0 quarantined, "
        "0 skipped, 1 orphaned\n"
        "\n"
        "gcc: ok cross-eval (profile gcc.profile.vbt: VBT2, 100 "
        "records; test gcc.test.vbt: VBT2, 120 records)\n"
        "  conditional (69000 profiled branches; train vs test)\n"
        "    gshare: train 13.6754% (9436/69000) | test 15.0000% "
        "(10350/69000)\n"
        "    variable length path: train 4.2000% (2898/69000) | test "
        "6.5000% (4485/69000)\n"
        "    generalization delta (variable length path): +2.3000%\n"
        "\n"
        "lone.test.vbt: orphaned (test trace without a matching "
        "lone.profile.vbt)\n");
}

// --- zero-copy fast path ----------------------------------------------

/** All file bytes via read() on @p file. */
std::vector<std::uint8_t>
slurp(trace::ByteFile &file)
{
    std::vector<std::uint8_t> bytes;
    std::uint8_t buffer[4096];
    file.seek(0);
    for (;;) {
        const std::size_t got = file.read(buffer, sizeof(buffer));
        if (got == 0)
            break;
        bytes.insert(bytes.end(), buffer, buffer + got);
    }
    return bytes;
}

/** Drain @p reader into a vector for record-level comparison. */
std::vector<trace::BranchRecord>
drainRecords(trace::TraceSource &reader)
{
    std::vector<trace::BranchRecord> records;
    trace::BranchRecord record;
    while (reader.next(record))
        records.push_back(record);
    return records;
}

/**
 * The content-hash contract, locked as a known answer: the fused
 * ContentHasher kernel, the fused-triple updateWith() kernel, and
 * hashTraceFile() must all reproduce what two *sequential* FNV-1a
 * streams (the pre-fusion implementation) produce.
 */
TEST_F(IngestHarness, FusedHashMatchesSequentialTwoStreamReference)
{
    trace::saveTrace(makeTrace(29, 700), path("h.vbt"));
    std::ifstream in(path("h.vbt"), std::ios::binary);
    std::vector<char> bytes{std::istreambuf_iterator<char>(in),
                            std::istreambuf_iterator<char>()};
    ASSERT_GT(bytes.size(), 100u);

    // Reference: two independent sequential chains, split across
    // deliberately ragged update sizes.
    util::Fnv1a low;
    util::Fnv1a high(util::Fnv1a::offsetBasis
                     ^ trace::ContentHasher::highSeedXor);
    trace::ContentHasher fused;
    trace::ContentHasher fused_triple;
    util::Fnv1a companion;
    util::Fnv1a companion_reference;
    std::size_t offset = 0;
    std::size_t step = 1;
    while (offset < bytes.size()) {
        const std::size_t take =
            std::min(step, bytes.size() - offset);
        low.update(bytes.data() + offset, take);
        high.update(bytes.data() + offset, take);
        fused.update(bytes.data() + offset, take);
        fused_triple.updateWith(bytes.data() + offset, take,
                                companion);
        companion_reference.update(bytes.data() + offset, take);
        offset += take;
        step = step * 3 + 1; // 1, 4, 13, ... exercises odd sizes
    }
    char reference[33];
    std::snprintf(reference, sizeof(reference), "%016llx%016llx",
                  static_cast<unsigned long long>(high.digest()),
                  static_cast<unsigned long long>(low.digest()));

    EXPECT_EQ(fused.digest(), reference);
    EXPECT_EQ(fused_triple.digest(), reference);
    // The companion chain fused into the triple kernel sees exactly
    // the bytes a standalone chain would.
    EXPECT_EQ(companion.digest(), companion_reference.digest());
    // And the public entry points agree, over both backends.
    EXPECT_EQ(trace::hashTraceFile(path("h.vbt")), reference);
    const auto mapped =
        trace::openByteFileFast(path("h.vbt"), trace::ReadMode::Mmap);
    EXPECT_EQ(trace::hashTraceFile(*mapped), reference);
}

TEST_F(IngestHarness, HashingByteFileFrontierNeverDoubleHashes)
{
    trace::saveTrace(makeTrace(31, 400), path("f.vbt"));
    const std::string expected = trace::hashTraceFile(path("f.vbt"));

    trace::HashingByteFile hashing(trace::openByteFile(path("f.vbt")));
    std::uint8_t buffer[1000];
    // Partial sequential read advances the frontier...
    ASSERT_EQ(hashing.read(buffer, 1000), 1000u);
    EXPECT_EQ(hashing.hashedBytes(), 1000u);
    // ...a replay behind the frontier must not re-hash...
    hashing.seek(0);
    ASSERT_EQ(hashing.read(buffer, 500), 500u);
    EXPECT_EQ(hashing.hashedBytes(), 1000u);
    // ...and finish() hashes the tail without disturbing the cursor.
    EXPECT_EQ(hashing.finish(), expected);
    EXPECT_TRUE(hashing.complete());
    ASSERT_EQ(hashing.read(buffer, 500), 500u);
    EXPECT_EQ(hashing.finish(), expected); // idempotent once complete

    // Same digest when the frontier advances through views (mmap).
    trace::HashingByteFile mapped(
        trace::openByteFileFast(path("f.vbt"), trace::ReadMode::Mmap));
    util::Fnv1a companion;
    ASSERT_NE(mapped.viewHashing(0, 64, companion), nullptr);
    EXPECT_EQ(mapped.hashedBytes(), 64u);
    ASSERT_NE(mapped.viewHashing(0, 64, companion), nullptr);
    EXPECT_EQ(mapped.hashedBytes(), 64u); // replayed view, no advance
    EXPECT_EQ(mapped.finish(), expected);
}

TEST_F(IngestHarness, MmapAndStdioBackendsServeIdenticalBytes)
{
    trace::saveTrace(makeTrace(37, 2000), path("b.vbt"));
    const auto stdio_file = trace::openByteFile(path("b.vbt"));
    const auto mapped =
        trace::openByteFileFast(path("b.vbt"), trace::ReadMode::Mmap);
    ASSERT_NE(mapped->view(0, 16), nullptr) << "expected a mapping";
    EXPECT_EQ(slurp(*stdio_file), slurp(*mapped));
    EXPECT_EQ(stdio_file->size(), mapped->size());
}

TEST_F(IngestHarness, MmapWindowRemapsAcrossLargeFiles)
{
    trace::saveTrace(makeTrace(41, 3000), path("w.vbt")); // ~54 KB
    trace::MmapByteFile small_window(path("w.vbt"), 4096);
    const auto stdio_file = trace::openByteFile(path("w.vbt"));
    EXPECT_EQ(slurp(*stdio_file), slurp(small_window));
    EXPECT_GT(small_window.remaps(), 1u);

    // A view wider than the window still succeeds (window grows).
    trace::MmapByteFile wide(path("w.vbt"), 4096);
    EXPECT_NE(wide.view(0, 20000), nullptr);
}

TEST_F(IngestHarness, FifoFallsBackToStdioUnderAutoMode)
{
    const std::string fifo = path("pipe.fifo");
    ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);
    const std::string payload = "fifo bytes reach the reader";
    std::thread writer([&] {
        std::ofstream out(fifo, std::ios::binary);
        out << payload;
    });
    auto file = trace::openByteFileFast(fifo, trace::ReadMode::Auto);
    std::string got(payload.size(), '\0');
    std::size_t filled = 0;
    while (filled < got.size()) {
        const std::size_t n =
            file->read(got.data() + filled, got.size() - filled);
        if (n == 0)
            break;
        filled += n;
    }
    writer.join();
    EXPECT_EQ(got, payload);
    // And asking for mmap explicitly must throw, not fall back
    // silently to a broken mapping.
    EXPECT_THROW(trace::MmapByteFile{fifo}, trace::MmapUnsupported);
}

/**
 * A thread waiting in a blocking open() of @p fifo for writing, which
 * then writes @p payload and closes. A write after the reader is gone
 * fails with EPIPE instead of raising SIGPIPE.
 */
std::thread
fifoWriter(const std::string &fifo, const std::string &payload,
           std::atomic<bool> &opened)
{
    return std::thread([&fifo, &payload, &opened] {
        sigset_t pipe_signal;
        sigemptyset(&pipe_signal);
        sigaddset(&pipe_signal, SIGPIPE);
        pthread_sigmask(SIG_BLOCK, &pipe_signal, nullptr);
        const int fd = ::open(fifo.c_str(), O_WRONLY);
        opened = true;
        if (fd >= 0) {
            [[maybe_unused]] const ssize_t written =
                ::write(fd, payload.data(), payload.size());
            ::close(fd);
        }
    });
}

/** Release a fifoWriter() still waiting in open(), then join it. */
void
joinFifoWriter(const std::string &fifo, std::thread &writer)
{
    const int release = ::open(fifo.c_str(), O_RDONLY | O_NONBLOCK);
    writer.join();
    if (release >= 0)
        ::close(release);
}

TEST_F(IngestHarness, FifoWriterWaitingInOpenIsReadWholeUnderAutoMode)
{
    // Classifying a FIFO by opening it, even O_NONBLOCK, pairs it with
    // a writer already waiting in open(). That writer then writes and
    // closes, its bytes die with the pipe once the classifying
    // descriptor closes, and the stdio fallback's reopen waits for a
    // writer that is gone. So refusing the path must leave the writer
    // waiting.
    const std::string payload = "fifo bytes reach the reader";
    const std::string refused = path("refused.fifo");
    ASSERT_EQ(::mkfifo(refused.c_str(), 0600), 0);
    std::atomic<bool> released{false};
    std::thread waiting = fifoWriter(refused, payload, released);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_THROW(trace::MmapByteFile{refused}, trace::MmapUnsupported);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_FALSE(released) << "classifying the FIFO opened it";
    joinFifoWriter(refused, waiting);

    // And the whole Auto-mode open reads every byte. Should the reopen
    // wait for a lost writer, a watchdog stands in for it after a
    // deadline, so the failure is missing bytes, not a hung suite.
    const std::string fifo = path("waiting.fifo");
    ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);
    std::atomic<bool> writer_opened{false};
    std::thread writer = fifoWriter(fifo, payload, writer_opened);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    std::mutex mutex;
    std::condition_variable opened_cv;
    bool opened = false;
    std::thread watchdog([&] {
        std::unique_lock<std::mutex> lock(mutex);
        if (opened_cv.wait_for(lock, std::chrono::seconds(5),
                               [&] { return opened; }))
            return;
        const int fd = ::open(fifo.c_str(), O_WRONLY | O_NONBLOCK);
        if (fd >= 0)
            ::close(fd);
    });
    std::unique_ptr<trace::ByteFile> file;
    try {
        file = trace::openByteFileFast(fifo, trace::ReadMode::Auto);
    } catch (const std::exception &error) {
        ADD_FAILURE() << error.what();
    }
    {
        std::lock_guard<std::mutex> lock(mutex);
        opened = true;
    }
    opened_cv.notify_all();
    watchdog.join();
    std::string got;
    char buffer[64];
    while (file) {
        const std::size_t n = file->read(buffer, sizeof(buffer));
        if (n == 0)
            break;
        got.append(buffer, n);
    }
    joinFifoWriter(fifo, writer);
    EXPECT_EQ(got, payload);
}

TEST_F(IngestHarness, StreamBufServesIdenticalTextOverBothBackends)
{
    std::string text;
    for (int i = 0; i < 4000; ++i)
        text += "line " + std::to_string(i) + "\n";
    std::ofstream(path("t.txt"), std::ios::binary) << text;

    for (const trace::ReadMode mode :
         {trace::ReadMode::Stdio, trace::ReadMode::Mmap}) {
        auto file = trace::openByteFileFast(path("t.txt"), mode);
        trace::ByteFileStreamBuf buffer(*file);
        std::istream in(&buffer);
        std::string got{std::istreambuf_iterator<char>(in),
                        std::istreambuf_iterator<char>()};
        EXPECT_EQ(got, text) << trace::readModeName(mode);
    }
}

/** Chunk-refill edges, exercised over both backends. */
TEST_F(IngestHarness, RefillEdgesDecodeIdenticallyOnBothBackends)
{
    // 1000 % 7 != 0: the last chunk is ragged. 994 = 7 * 142: the
    // final record lands exactly on a chunk edge. And zero records.
    const struct
    {
        const char *name;
        std::size_t records;
        std::size_t chunk;
    } cases[] = {{"ragged.vbt", 1000, 7},
                 {"edge.vbt", 994, 7},
                 {"empty.vbt", 0, 7}};
    for (const auto &c : cases) {
        const auto trace = makeTrace(43, c.records);
        trace::saveTrace(trace, path(c.name));
        const auto expected = [&] {
            trace::VectorTraceSource replay = trace;
            return drainRecords(replay);
        }();
        for (const trace::ReadMode mode :
             {trace::ReadMode::Stdio, trace::ReadMode::Mmap}) {
            trace::StreamingTraceReader reader(
                trace::openByteFileFast(path(c.name), mode), c.chunk);
            const auto got = drainRecords(reader);
            ASSERT_EQ(got.size(), c.records)
                << c.name << " via " << trace::readModeName(mode);
            for (std::size_t i = 0; i < got.size(); ++i) {
                ASSERT_EQ(got[i].pc, expected[i].pc) << c.name;
                ASSERT_EQ(got[i].taken, expected[i].taken) << c.name;
                ASSERT_EQ(got[i].nextPc, expected[i].nextPc) << c.name;
            }
            // reset() replays cleanly across the same edges.
            trace::BranchRecord record;
            reader.reset();
            std::size_t replayed = 0;
            while (reader.next(record))
                ++replayed;
            EXPECT_EQ(replayed, c.records);
        }
    }
}

TEST_F(IngestHarness, ChecksumFailureDetectedOnBothBackends)
{
    trace::saveTrace(makeTrace(47, 200), path("c.vbt"));
    flipBit(path("c.vbt"), 20 + 18 * 100 + 5);
    for (const trace::ReadMode mode :
         {trace::ReadMode::Stdio, trace::ReadMode::Mmap}) {
        trace::StreamingTraceReader reader(
            trace::openByteFileFast(path("c.vbt"), mode));
        trace::BranchRecord record;
        EXPECT_THROW(
            {
                while (reader.next(record)) {
                }
            },
            std::runtime_error)
            << trace::readModeName(mode);
    }
}

// --- prefetcher -------------------------------------------------------

TEST_F(IngestHarness, PrefetcherDeliversFailuresInBandAndInOrder)
{
    trace::saveTrace(makeTrace(53, 300), path("ok1.vbt"));
    std::ofstream(path("junk.vbt"), std::ios::binary) << "not a trace";
    trace::saveTrace(makeTrace(54, 300), path("ok2.vbt"));

    trace::TracePrefetcher::Options options;
    options.window = 2;
    options.threads = 2;
    options.retry.sleeper = [](unsigned) {};
    trace::TracePrefetcher prefetch(
        {path("ok1.vbt"), path("junk.vbt"), path("ok2.vbt")}, options);

    auto first = prefetch.take(0);
    ASSERT_FALSE(first.error);
    EXPECT_EQ(first.contentHash, trace::hashTraceFile(path("ok1.vbt")));
    EXPECT_EQ(first.records, 300u);
    ASSERT_TRUE(first.resident);
    EXPECT_FALSE(first.session);
    trace::CompactTraceCursor replay(first.resident);
    EXPECT_EQ(drainRecords(replay).size(), 300u);

    auto second = prefetch.take(1);
    ASSERT_TRUE(second.error);
    EXPECT_FALSE(second.resident);
    EXPECT_FALSE(second.session);
    EXPECT_THROW(std::rethrow_exception(second.error),
                 std::runtime_error);

    auto third = prefetch.take(2);
    ASSERT_FALSE(third.error);
    EXPECT_EQ(third.records, 300u);
}

TEST_F(IngestHarness, PrefetcherTakeUnblocksOnCancellation)
{
    trace::saveTrace(makeTrace(59, 100), path("one.vbt"));
    auto cancel = std::make_shared<util::CancelToken>();
    trace::TracePrefetcher::Options options;
    options.window = 1;
    options.cancel = cancel;
    trace::TracePrefetcher prefetch({path("one.vbt")}, options);
    cancel->cancel();
    // The poll loop notices the token within its interval; take()
    // either surfaces the already-finished open or throws.
    try {
        auto item = prefetch.take(0);
        EXPECT_TRUE(item.resident || item.session || item.error);
    } catch (const util::CancelledError &) {
        // Equally acceptable: cancellation won the race.
    }
}

// --- suite runner over the fast path ----------------------------------

/**
 * A FileOpener decorator counting opens and the bytes served (read()
 * and view() alike) per trace file name. Optionally it fails the first
 * record access of each path's first open with a transient error —
 * inside the verifying pass, after the header has been read.
 */
class CountingOpener
{
  public:
    explicit CountingOpener(trace::FileOpener inner,
                            bool fail_first_records = false)
        : inner_(std::move(inner)), failFirstRecords_(fail_first_records)
    {
    }

    trace::FileOpener opener()
    {
        return [this](const std::string &path) {
            bool fail = false;
            {
                const std::lock_guard<std::mutex> hold(mutex_);
                fail = opens_[fs::path(path).filename().string()]++ == 0
                    && failFirstRecords_;
            }
            return std::make_unique<File>(inner_(path), *this, fail);
        };
    }

    std::map<std::string, std::uint64_t> opens() const
    {
        const std::lock_guard<std::mutex> hold(mutex_);
        return opens_;
    }

    std::map<std::string, std::uint64_t> served() const
    {
        const std::lock_guard<std::mutex> hold(mutex_);
        return served_;
    }

    std::uint64_t faults() const { return faults_.load(); }

  private:
    /** Past the longest (VBT2) header: record bytes. */
    static constexpr std::uint64_t recordsStart = 20;

    class File : public trace::ByteFile
    {
      public:
        File(std::unique_ptr<trace::ByteFile> inner,
             CountingOpener &counting, bool fail)
            : inner_(std::move(inner)), counting_(counting), fail_(fail),
              name_(fs::path(inner_->name()).filename().string())
        {
        }

        std::size_t read(void *buffer, std::size_t size) override
        {
            faultAt(position_);
            const std::size_t got = inner_->read(buffer, size);
            position_ += got;
            counting_.serve(name_, got);
            return got;
        }

        void seek(std::uint64_t offset) override
        {
            inner_->seek(offset);
            position_ = offset;
        }

        std::uint64_t size() override { return inner_->size(); }

        const std::string &name() const override { return inner_->name(); }

        const std::uint8_t *view(std::uint64_t offset,
                                 std::size_t size) override
        {
            faultAt(offset);
            const std::uint8_t *window = inner_->view(offset, size);
            if (window != nullptr)
                counting_.serve(name_, size);
            return window;
        }

      private:
        void faultAt(std::uint64_t offset)
        {
            if (fail_ && offset >= recordsStart) {
                fail_ = false;
                ++counting_.faults_;
                throw util::TransientError("injected record-read fault: "
                                           + name_);
            }
        }

        std::unique_ptr<trace::ByteFile> inner_;
        CountingOpener &counting_;
        bool fail_;
        std::string name_;
        std::uint64_t position_ = 0;
    };

    void serve(const std::string &name, std::uint64_t bytes)
    {
        const std::lock_guard<std::mutex> hold(mutex_);
        served_[name] += bytes;
    }

    trace::FileOpener inner_;
    const bool failFirstRecords_;
    mutable std::mutex mutex_;
    std::map<std::string, std::uint64_t> opens_;
    std::map<std::string, std::uint64_t> served_;
    std::atomic<std::uint64_t> faults_{0};
};

TEST_F(SuiteHarness, EveryTraceIsOpenedExactlyOncePerAttempt)
{
    // The single-pass contract: validation, hashing, and replay all
    // ride one open. A second open of any path would mean the old
    // hash-then-reopen double read is back. And the one open reads
    // (so hashes and checksums) each byte once: every sweep and
    // comparison replays the resident copy, where streaming each
    // replay from the file read a trace 19 times.
    for (const trace::ReadMode mode :
         {trace::ReadMode::Stdio, trace::ReadMode::Mmap}) {
        SCOPED_TRACE(trace::readModeName(mode));
        CountingOpener counting(trace::fastOpener(mode));
        auto options = baseOptions();
        options.opener = counting.opener();
        sim::TraceSuiteRunner runner(std::move(options));
        const sim::SuiteReport report = runner.run();
        EXPECT_EQ(report.okCount(), 3u);

        const auto opens = counting.opens();
        ASSERT_EQ(opens.size(), 5u);
        for (const auto &[name, count] : opens)
            EXPECT_EQ(count, 1u) << name << " opened " << count
                                 << " times; single-pass open regressed";
        const auto served = counting.served();
        ASSERT_EQ(served.size(), 5u);
        for (const auto &[name, bytes] : served)
            EXPECT_EQ(bytes, fs::file_size(corpus_ + "/" + name)) << name;
    }
}

TEST_F(SuiteHarness, ReportIsByteIdenticalAcrossBackendsAndJobs)
{
    const std::string reference =
        render(sim::TraceSuiteRunner(baseOptions()).run());
    for (const trace::ReadMode mode :
         {trace::ReadMode::Stdio, trace::ReadMode::Mmap}) {
        for (const unsigned jobs : {1u, 4u}) {
            auto options = baseOptions();
            options.readMode = mode;
            options.jobs = jobs;
            sim::TraceSuiteRunner runner(std::move(options));
            EXPECT_EQ(render(runner.run()), reference)
                << trace::readModeName(mode) << " jobs=" << jobs;
        }
    }
}

TEST_F(SuiteHarness, ReportIsIdenticalAcrossPrefetchWindows)
{
    const std::string reference =
        render(sim::TraceSuiteRunner(baseOptions()).run());
    for (const std::size_t window : {std::size_t{1}, std::size_t{8}}) {
        auto options = baseOptions();
        options.prefetchWindow = window;
        sim::TraceSuiteRunner runner(std::move(options));
        EXPECT_EQ(render(runner.run()), reference)
            << "window=" << window;
    }
}

TEST_F(SuiteHarness, TransientFaultsAreRetriedToSuccessUnderMmap)
{
    trace::FaultPlan plan;
    plan.transientOpens = 1;
    plan.transientReads = 1;
    trace::FaultInjector injector(plan);

    auto options = baseOptions();
    // Faults injected *over the mmap fast path*: FaultyFile exposes no
    // view(), so the reader must degrade to buffered reads and still
    // produce the clean report.
    options.opener =
        injector.opener(trace::fastOpener(trace::ReadMode::Mmap));
    sim::TraceSuiteRunner faulty(std::move(options));
    const std::string faulty_report = render(faulty.run());

    EXPECT_GT(injector.counters().transientOpens, 0u);
    sim::TraceSuiteRunner clean(baseOptions());
    EXPECT_EQ(faulty_report, render(clean.run()));
}

TEST_F(SuiteHarness, SharedProfileTraceWorkIsIdenticalAcrossJobs)
{
    // chessA and chessB profile on the same trace, and their train
    // rows are the same row: the run profiles that trace once and
    // fetches or computes that row once, at any jobs value.
    fs::create_directories(path("shared"));
    for (const auto &[name, seed] :
         std::vector<std::pair<std::string, std::uint64_t>>{
             {"chess", 61}, {"gcc", 63}, {"li", 65}}) {
        trace::saveTrace(makeTrace(seed, 3000),
                         path("shared/" + name + ".profile.vbt"));
        trace::saveTrace(makeTrace(seed + 1, 3000),
                         path("shared/" + name + ".test.vbt"));
    }
    {
        std::ofstream out(path("shared_pairs.txt"));
        out << "chessA chess.profile.vbt chess.test.vbt\n"
               "chessB chess.profile.vbt gcc.test.vbt\n"
               "gcc gcc.profile.vbt gcc.test.vbt\n"
               "li li.profile.vbt li.test.vbt\n";
    }
    const auto options = [&](unsigned jobs) {
        auto options = baseOptions();
        options.directory = path("shared");
        options.manifest = path("shared_pairs.txt");
        options.jobs = jobs;
        return options;
    };

    const StoreRun serial = runWithFreshStore(options(1), path("cache"));
    EXPECT_NE(serial.report.find("4 ok (4 cross-eval"), std::string::npos)
        << serial.report;
    EXPECT_GT(serial.counters.inserts, 0u);
    EXPECT_EQ(serial.counters.hits, 0u);
    for (const unsigned jobs : {2u, 4u})
        expectSameRun(serial, runWithFreshStore(options(jobs), path("cache")),
                      jobs);
}

TEST_F(SuiteHarness, ImbalancedCorpusReportAndTrafficMatchAcrossJobs)
{
    // One pair carries 12x the records of the others, sorted first, in
    // the middle, and last. Phase C claims it first wherever it sorts;
    // the report and the store traffic must not notice.
    constexpr std::size_t pairs = 5;
    for (const std::size_t big : {std::size_t{0}, pairs / 2, pairs - 1}) {
        const std::string corpus = path("imbalanced" + std::to_string(big));
        fs::create_directories(corpus);
        for (std::size_t i = 0; i < pairs; ++i) {
            const std::size_t records = i == big ? 18000 : 1500;
            const std::string stem = corpus + "/p" + std::to_string(i);
            trace::saveTrace(makeTrace(70 + 2 * i, records),
                             stem + ".profile.vbt");
            trace::saveTrace(makeTrace(71 + 2 * i, records),
                             stem + ".test.vbt");
        }
        const auto options = [&](unsigned jobs) {
            auto options = baseOptions();
            options.directory = corpus;
            options.jobs = jobs;
            return options;
        };
        SCOPED_TRACE("large pair at index " + std::to_string(big));
        const StoreRun serial =
            runWithFreshStore(options(1), path("cache"));
        EXPECT_EQ(serial.counters.hits, 0u);
        for (const unsigned jobs : {3u, 4u}) {
            expectSameRun(serial,
                          runWithFreshStore(options(jobs), path("cache")),
                          jobs);
        }
    }
}

TEST_F(SuiteHarness, CancelMidRunUnwindsWithoutQuarantine)
{
    // Ten cross-eval pairs, twenty opens: the token fires on the
    // seventh, with workers and read-ahead producers mid-flight.
    fs::create_directories(path("cancel"));
    for (std::size_t i = 0; i < 10; ++i) {
        const std::string stem = path("cancel/c") + std::to_string(i);
        trace::saveTrace(makeTrace(90 + 2 * i, 3000),
                         stem + ".profile.vbt");
        trace::saveTrace(makeTrace(91 + 2 * i, 3000), stem + ".test.vbt");
    }
    auto plain = baseOptions();
    plain.directory = path("cancel");
    const std::string reference =
        render(sim::TraceSuiteRunner(std::move(plain)).run());

    store::StoreOptions store_options;
    store_options.directory = path("cache");
    const auto store = std::make_shared<store::ArtifactStore>(store_options);

    const auto token = std::make_shared<util::CancelToken>();
    std::atomic<unsigned> opens{0};
    const trace::FileOpener inner = trace::fastOpener(trace::ReadMode::Auto);
    std::mutex log_mutex;
    std::vector<std::string> log;
    util::setLogSink([&](const std::string &line) {
        const std::lock_guard<std::mutex> hold(log_mutex);
        log.push_back(line);
    });
    auto cancelled = baseOptions();
    cancelled.directory = path("cancel");
    cancelled.jobs = 4;
    cancelled.store = store;
    cancelled.cancel = token;
    cancelled.opener = [&](const std::string &file) {
        if (opens.fetch_add(1) + 1 == 7)
            token->cancel();
        return inner(file);
    };
    EXPECT_THROW(sim::TraceSuiteRunner(std::move(cancelled)).run(),
                 util::CancelledError);
    util::setLogSink({});
    EXPECT_TRUE(token->cancelled());
    EXPECT_LT(opens.load(), 20u);
    for (const std::string &line : log)
        EXPECT_EQ(line.find("quarantined"), std::string::npos) << line;

    // The cancelled run left nothing half built: a rerun on the same
    // store reproduces the uncancelled report.
    auto rerun = baseOptions();
    rerun.directory = path("cancel");
    rerun.jobs = 4;
    rerun.store = store;
    EXPECT_EQ(render(sim::TraceSuiteRunner(std::move(rerun)).run()),
              reference);
}

// --- empty-trace checksum ---------------------------------------------

TEST_F(IngestHarness, EmptyTraceChecksumIsVerifiedByBothReaders)
{
    // An empty VBT2 has no final record to trigger the checksum check;
    // a flipped header checksum byte must still be caught at the end
    // of the stream.
    trace::saveTrace(trace::VectorTraceSource{}, path("empty.vbt"));
    {
        trace::StreamingTraceReader clean(path("empty.vbt"));
        trace::BranchRecord record;
        EXPECT_FALSE(clean.next(record));
    }
    flipBit(path("empty.vbt"), 15);
    for (const trace::ReadMode mode :
         {trace::ReadMode::Stdio, trace::ReadMode::Mmap}) {
        trace::StreamingTraceReader reader(
            trace::openByteFileFast(path("empty.vbt"), mode));
        trace::BranchRecord record;
        try {
            reader.next(record);
            ADD_FAILURE() << "no checksum mismatch via "
                          << trace::readModeName(mode);
        } catch (const std::runtime_error &error) {
            EXPECT_NE(std::string(error.what()).find("checksum mismatch"),
                      std::string::npos)
                << error.what();
        }
    }
}

// --- resident traces ---------------------------------------------------

/**
 * A trace over every branch kind whose indirect targets (and some
 * return addresses) sit just above and below a 4 GiB boundary, so a
 * truncated 32-bit target could not replay as the original.
 */
trace::VectorTraceSource
makeWideTrace(std::uint64_t seed, std::size_t records)
{
    constexpr std::uint64_t boundary = std::uint64_t{1} << 32;
    util::Rng rng(seed);
    trace::VectorTraceSource source;
    for (std::size_t i = 0; i < records; ++i) {
        trace::BranchRecord record;
        record.kind = static_cast<trace::BranchKind>(
            rng.nextBelow(trace::numBranchKinds));
        record.pc = boundary - 0x800 + 16 * rng.nextBelow(128);
        record.taken = !record.isConditional() || rng.nextBool(0.5);
        record.nextPc = record.taken
            ? boundary - 0x100 + 64 * rng.nextBelow(8)
            : record.pc + 4;
        source.append(record);
    }
    return source;
}

/** Intern @p path the way the ingestion pass does. */
std::shared_ptr<const trace::CompactTrace>
internFile(const std::string &path, trace::ResidentBudget &budget)
{
    trace::StreamingTraceReader reader(path);
    trace::CompactTrace::Builder builder(reader.count(), budget);
    trace::BranchRecord record;
    while (reader.next(record))
        builder.add(record);
    return builder.ok() ? builder.finish() : nullptr;
}

using CompactTraceHarness = IngestHarness;

TEST_F(CompactTraceHarness, ReplayMatchesStreamingReaderRecordForRecord)
{
    const struct
    {
        const char *name;
        std::size_t records;
        bool vbt1;
    } cases[] = {
        {"empty2.vbt", 0, false},   {"empty1.vbt", 0, true},
        {"small2.vbt", 37, false},  {"small1.vbt", 37, true},
        {"chunks2.vbt", 9000, false}, {"chunks1.vbt", 9000, true},
    };
    for (const auto &c : cases) {
        SCOPED_TRACE(c.name);
        const auto trace = makeWideTrace(71, c.records);
        if (c.vbt1)
            writeVbt1(path(c.name), trace);
        else
            trace::saveTrace(trace, path(c.name));
        trace::StreamingTraceReader streaming(path(c.name));
        const auto streamed = drainRecords(streaming);
        ASSERT_EQ(streamed, trace.records());

        trace::ResidentBudget budget(trace::residentTraceBudgetBytes);
        const auto resident = internFile(path(c.name), budget);
        ASSERT_TRUE(resident);
        EXPECT_EQ(resident->size(), c.records);
        EXPECT_LE(resident->edges().size(), c.records);
        EXPECT_EQ(budget.used(), resident->residentBytes());

        trace::CompactTraceCursor cursor(resident);
        EXPECT_EQ(drainRecords(cursor), streamed);
        // reset() replays the same records again, and two cursors
        // over one trace keep independent positions.
        cursor.reset();
        trace::CompactTraceCursor other(resident);
        trace::BranchRecord first;
        EXPECT_EQ(other.next(first), c.records > 0);
        EXPECT_EQ(drainRecords(cursor), streamed);
        if (c.records > 0) {
            EXPECT_EQ(first, streamed.front());
        }
    }
}

TEST_F(CompactTraceHarness, ResidentCopyIsAboutFourBytesPerRecord)
{
    // makeTrace revisits a few hundred edges, like a real branch
    // stream: the id array dominates the copy.
    trace::saveTrace(makeTrace(5, 50000), path("t.vbt"));
    trace::ResidentBudget budget(trace::residentTraceBudgetBytes);
    const auto resident = internFile(path("t.vbt"), budget);
    ASSERT_TRUE(resident);
    EXPECT_LT(resident->edges().size(), 1000u);
    EXPECT_GE(resident->residentBytes(), 50000u * 4);
    EXPECT_LT(resident->residentBytes(), 50000u * 5);
    EXPECT_EQ(budget.used(), resident->residentBytes());
}

TEST_F(CompactTraceHarness, RefusedBudgetReturnsEveryByte)
{
    const auto trace = makeWideTrace(73, 6000);
    trace::saveTrace(trace, path("t.vbt"));

    // Refused from the header: the id array alone does not fit.
    trace::ResidentBudget tiny(6000 * 4 - 1);
    EXPECT_FALSE(internFile(path("t.vbt"), tiny));
    EXPECT_EQ(tiny.used(), 0u);

    // Refused mid-build: the ids fit, the growing edge table does not.
    trace::ResidentBudget tight(6000 * 4 + 16 * 1024);
    EXPECT_FALSE(internFile(path("t.vbt"), tight));
    EXPECT_EQ(tight.used(), 0u);

    // A trace dropped by its last holder returns its charge.
    trace::ResidentBudget roomy(trace::residentTraceBudgetBytes);
    auto resident = internFile(path("t.vbt"), roomy);
    ASSERT_TRUE(resident);
    EXPECT_GT(roomy.used(), 0u);
    resident.reset();
    EXPECT_EQ(roomy.used(), 0u);
}

TEST_F(CompactTraceHarness, ConcurrentBuildsNeverOverdrawTheBudget)
{
    // Room for about two of the eight traces at once: builders race
    // for the same counter, and whatever they keep stays within it.
    for (int i = 0; i < 8; ++i)
        trace::saveTrace(makeTrace(80 + i, 4000),
                         path("t" + std::to_string(i) + ".vbt"));
    trace::ResidentBudget budget(2 * 4000 * 5);
    std::vector<std::shared_ptr<const trace::CompactTrace>> kept(8);
    std::vector<std::thread> threads;
    for (int i = 0; i < 8; ++i) {
        threads.emplace_back([&, i] {
            kept[i] = internFile(path("t" + std::to_string(i) + ".vbt"),
                                 budget);
        });
    }
    for (auto &thread : threads)
        thread.join();
    std::uint64_t held = 0;
    std::size_t resident = 0;
    for (const auto &trace : kept) {
        if (trace) {
            held += trace->residentBytes();
            ++resident;
        }
    }
    EXPECT_GE(resident, 1u);
    EXPECT_LE(held, budget.capacity());
    EXPECT_EQ(budget.used(), held);
    kept.clear();
    EXPECT_EQ(budget.used(), 0u);
}

TEST_F(CompactTraceHarness, Step1OverResidentTraceMatchesStream)
{
    // Step 1 expands resident chunks straight from the id array; it
    // must see the stream's records.
    trace::saveTrace(makeTrace(91, 10000), path("t.vbt"));
    trace::ResidentBudget budget(trace::residentTraceBudgetBytes);
    const auto resident = internFile(path("t.vbt"), budget);
    ASSERT_TRUE(resident);
    for (const bool indirect : {false, true}) {
        SCOPED_TRACE(indirect ? "indirect" : "conditional");
        core::ProfileOptions options;
        options.indexBits = 10;
        core::Profiler streamed(options, indirect);
        trace::StreamingTraceReader reader(path("t.vbt"));
        const core::HashAssignment expected = streamed.profile(reader);

        core::Profiler replayed(options, indirect);
        trace::CompactTraceCursor cursor(resident);
        const core::HashAssignment got = replayed.profile(cursor);
        EXPECT_EQ(replayed.step1Sweep().branches,
                  streamed.step1Sweep().branches);
        EXPECT_EQ(replayed.step1Sweep().mispredictions,
                  streamed.step1Sweep().mispredictions);
        EXPECT_EQ(got.table(), expected.table());
    }
}

// --- verify-once ingestion ---------------------------------------------

TEST_F(SuiteHarness, ZeroResidentBudgetMatchesResidentRun)
{
    const auto options = [&](unsigned jobs) {
        auto options = baseOptions();
        options.jobs = jobs;
        return options;
    };
    const StoreRun resident = runWithFreshStore(options(1), path("cache"));
    EXPECT_GT(resident.counters.inserts, 0u);

    // With no budget every trace takes the streaming path: a parked
    // session re-reads (and re-checksums) the file on every replay.
    const trace::ScopedResidentCapacity none(0);
    for (const unsigned jobs : {1u, 4u}) {
        CountingOpener counting(trace::fastOpener(trace::ReadMode::Auto));
        auto streamed = options(jobs);
        streamed.opener = counting.opener();
        expectSameRun(resident,
                      runWithFreshStore(std::move(streamed), path("cache")),
                      jobs);
        const std::string alpha = corpus_ + "/alpha.vbt";
        EXPECT_GT(counting.served().at("alpha.vbt"), fs::file_size(alpha))
            << "jobs=" << jobs << ": the zero budget kept a trace resident";
    }
    EXPECT_EQ(trace::ResidentBudget::process().used(), 0u);
}

TEST_F(SuiteHarness, SyntheticRunLeavesTheResidentBudgetToTraces)
{
    // The process memo keeps generated traces and step-1 results under
    // a cap of its own. After a synthetic sweep has filled it, the
    // resident budget is as it was, and a trace suite run with no more
    // budget than the memo holds still keeps every trace resident: it
    // reads each file exactly as often as it does with nothing before.
    const auto counted_run = [&](CountingOpener &counting) {
        auto options = baseOptions();
        options.opener = counting.opener();
        return runWithFreshStore(std::move(options), path("cache"));
    };
    CountingOpener before(trace::fastOpener(trace::ReadMode::Auto));
    const StoreRun alone = counted_run(before);

    const std::uint64_t used = trace::ResidentBudget::process().used();
    setenv("VLPSIM_SCALE", "0.05", 1);
    {
        sim::ExperimentContext context;
        context.sweep(workload::findBenchmark("gcc"), 12, false);
    }
    unsetenv("VLPSIM_SCALE");
    const std::uint64_t held = sim::SharedMemo::process().heldBytes();
    ASSERT_GT(held, 0u);
    EXPECT_EQ(trace::ResidentBudget::process().used(), used);

    const trace::ScopedResidentCapacity as_much_as_the_memo(held);
    CountingOpener after(trace::fastOpener(trace::ReadMode::Auto));
    expectSameRun(alone, counted_run(after), 1);
    EXPECT_EQ(after.served(), before.served());
    EXPECT_EQ(after.opens(), before.opens());
}

TEST_F(SuiteHarness, CorruptTracesKeepTheirQuarantineCauses)
{
    fs::create_directories(path("bad"));
    fs::copy_file(corpus_ + "/alpha.vbt", path("bad/alpha.vbt"));
    fs::copy_file(corpus_ + "/delta.vbt", path("bad/delta.vbt"));
    trace::saveTrace(makeTrace(6, 3000), path("bad/zeta.vbt"));
    fs::resize_file(path("bad/zeta.vbt"),
                    fs::file_size(path("bad/zeta.vbt")) - 9);
    const std::string delta_cause = "corrupt trace file: checksum mismatch: "
        + path("bad/delta.vbt");
    const std::string zeta_cause = "truncated or corrupt trace file: "
        + path("bad/zeta.vbt") + " (header promises "
        + std::to_string(20 + 18 * 3000) + " bytes, file has "
        + std::to_string(20 + 18 * 3000 - 9) + ")";

    for (const std::uint64_t capacity :
         {trace::residentTraceBudgetBytes, std::uint64_t{0}}) {
        SCOPED_TRACE("budget " + std::to_string(capacity));
        const trace::ScopedResidentCapacity budget(capacity);
        auto options = baseOptions();
        options.directory = path("bad");
        const sim::SuiteReport report =
            sim::TraceSuiteRunner(std::move(options)).run();
        ASSERT_EQ(report.traces.size(), 3u);
        EXPECT_EQ(report.traces[0].status, sim::TraceStatus::Ok);
        EXPECT_EQ(report.traces[1].status, sim::TraceStatus::Quarantined);
        EXPECT_EQ(report.traces[1].cause, delta_cause);
        EXPECT_EQ(report.traces[2].status, sim::TraceStatus::Quarantined);
        EXPECT_EQ(report.traces[2].cause, zeta_cause);
    }
}

TEST_F(SuiteHarness, EmptyTraceWithBadChecksumIsQuarantined)
{
    // epsilon.vbt is empty and valid (skipped); with one header
    // checksum bit flipped it fails like any corrupt trace.
    flipBit(corpus_ + "/epsilon.vbt", 15);
    const sim::SuiteReport report =
        sim::TraceSuiteRunner(baseOptions()).run();
    ASSERT_EQ(report.traces.size(), 5u);
    EXPECT_EQ(report.traces[3].name, "epsilon.vbt");
    EXPECT_EQ(report.traces[3].status, sim::TraceStatus::Quarantined);
    EXPECT_EQ(report.traces[3].cause,
              "corrupt trace file: checksum mismatch: " + corpus_
                  + "/epsilon.vbt");
    EXPECT_EQ(report.skippedCount(), 0u);
}

TEST_F(SuiteHarness, TransientFaultInVerifyingPassIsRetried)
{
    const std::string reference =
        render(sim::TraceSuiteRunner(baseOptions()).run());
    for (const unsigned jobs : {1u, 4u}) {
        CountingOpener counting(trace::fastOpener(trace::ReadMode::Auto), true);
        auto options = baseOptions();
        options.jobs = jobs;
        options.opener = counting.opener();
        EXPECT_EQ(render(sim::TraceSuiteRunner(std::move(options)).run()),
                  reference)
            << "jobs=" << jobs;
        // One fault per non-empty trace (epsilon.vbt has no record
        // bytes), each inside its first verifying pass.
        EXPECT_EQ(counting.faults(), 4u);
    }
}

} // anonymous namespace
