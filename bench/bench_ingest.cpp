/**
 * @file
 * google-benchmark throughput benchmarks for trace ingestion: raw
 * byte delivery (stdio read loop vs zero-copy mmap windows), content
 * hashing (the historical two-sequential-pass FNV kernel vs the fused
 * multi-stream kernel on both backends), and end-to-end ingestion of
 * a .vbt corpus — the legacy recipe (separate hash, validate, and
 * replay opens over stdio) against the pipelined single-pass mmap
 * path the suite runner now uses. Every benchmark reports
 * bytes_per_second over the corpus bytes ingested, so the ratio
 * between the legacy and fast end-to-end lines is the ingestion
 * speedup (CI commits the JSON as BENCH_ingest.json).
 *
 * Digest honesty: before timing anything, the fused kernels' output
 * is checked byte-for-byte against the two-pass replica — a
 * throughput win with a different hash would silently invalidate
 * every cache key.
 */

#include <benchmark/benchmark.h>

#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "sim/run_options.h"
#include "trace/byte_file.h"
#include "trace/content_hash.h"
#include "trace/mmap_file.h"
#include "trace/prefetch.h"
#include "trace/streaming.h"
#include "trace/trace_io.h"
#include "util/args.h"
#include "util/checksum.h"
#include "util/logging.h"
#include "util/rng.h"

namespace {

namespace fs = std::filesystem;
using namespace vlp;

/** Records per generated trace (~27 MB each at 18 bytes/record —
 *  large enough that per-open overheads vanish into the stream). */
constexpr std::size_t traceRecords = 1'500'000;

/** Traces in the benchmark corpus. */
constexpr std::size_t corpusTraces = 4;

/** Read/hash block size for the stdio paths (matches the streaming
 *  reader's order of magnitude). */
constexpr std::size_t blockBytes = 64 * 1024;

/** A deterministic mixed conditional/indirect trace. */
trace::VectorTraceSource
makeTrace(std::uint64_t seed, std::size_t records)
{
    util::Rng rng(seed);
    trace::VectorTraceSource source;
    for (std::size_t i = 0; i < records; ++i) {
        trace::BranchRecord record;
        if (rng.nextBool(0.7)) {
            record.kind = trace::BranchKind::Conditional;
            record.pc = 0x1000 + 16 * rng.nextBelow(64);
            record.taken = ((record.pc >> 4) + i / 7) % 3 != 0;
            record.nextPc =
                record.taken ? record.pc + 64 : record.pc + 4;
        } else {
            record.kind = trace::BranchKind::IndirectJump;
            record.pc = 0x8000 + 32 * rng.nextBelow(8);
            record.taken = true;
            record.nextPc = 0x20000 + 256 * rng.nextBelow(6);
        }
        source.append(record);
    }
    return source;
}

/** The on-disk benchmark corpus, generated once per process. */
struct Corpus
{
    std::string directory;
    std::vector<std::string> paths;
    std::uint64_t totalBytes = 0;
};

const Corpus &
corpus()
{
    static const Corpus made = [] {
        Corpus c;
        c.directory = (fs::temp_directory_path()
                       / ("vlpsim_bench_ingest_"
                          + std::to_string(::getpid())))
                          .string();
        fs::remove_all(c.directory);
        fs::create_directories(c.directory);
        for (std::size_t i = 0; i < corpusTraces; ++i) {
            const std::string path =
                c.directory + "/trace" + std::to_string(i) + ".vbt";
            trace::saveTrace(makeTrace(41 + i, traceRecords), path);
            c.paths.push_back(path);
            c.totalBytes += fs::file_size(path);
        }
        return c;
    }();
    return made;
}

/**
 * The historical content hash, exactly as shipped before the fused
 * kernel: two *sequential* FNV-1a streams over stdio blocks — each
 * block is walked twice, and each walk is one serial multiply chain.
 */
std::string
legacySequentialHash(trace::ByteFile &file)
{
    util::Fnv1a low;
    util::Fnv1a high(util::Fnv1a::offsetBasis
                     ^ trace::ContentHasher::highSeedXor);
    file.seek(0);
    std::array<std::uint8_t, blockBytes> buffer;
    for (;;) {
        const std::size_t got = file.read(buffer.data(), buffer.size());
        if (got == 0)
            break;
        low.update(buffer.data(), got);
        high.update(buffer.data(), got);
    }
    char text[33];
    std::snprintf(text, sizeof(text), "%016llx%016llx",
                  static_cast<unsigned long long>(high.digest()),
                  static_cast<unsigned long long>(low.digest()));
    return text;
}

/** Drain a reader, returning the record count (keeps decode honest). */
std::uint64_t
drain(trace::TraceSource &reader)
{
    trace::BranchRecord record;
    std::uint64_t count = 0;
    while (reader.next(record))
        ++count;
    return count;
}

/** The stdio backend, pinned (trace::openByteFile would map). */
std::unique_ptr<trace::ByteFile>
openStdio(const std::string &path)
{
    return std::make_unique<trace::StdioByteFile>(path);
}

/** The mapped backend, pinned. */
std::unique_ptr<trace::ByteFile>
openMmap(const std::string &path)
{
    return std::make_unique<trace::MmapByteFile>(path);
}

/**
 * The legacy per-trace ingestion recipe the suite runner used to run:
 * one stdio open to hash (two sequential FNV passes), one to validate
 * the header, one to replay every record with the stream checksum.
 */
std::uint64_t
ingestLegacyStdio(const std::string &path)
{
    const std::string digest = [&] {
        const auto file = openStdio(path);
        return legacySequentialHash(*file);
    }();
    benchmark::DoNotOptimize(digest.data());
    {
        trace::StreamingTraceReader validate(openStdio(path));
        benchmark::DoNotOptimize(validate.count());
    }
    trace::StreamingTraceReader replay(openStdio(path));
    return drain(replay);
}

/**
 * The single-pass recipe: one open through the hashing decorator
 * (validate + content hash share it; zero-copy when the file maps),
 * then the replay pass the suite's sweeps make over the same session.
 */
std::uint64_t
ingestFast(std::unique_ptr<trace::ByteFile> file)
{
    auto hashing =
        std::make_unique<trace::HashingByteFile>(std::move(file));
    trace::HashingByteFile &hasher = *hashing;
    trace::StreamingTraceReader reader(std::move(hashing));
    const std::string digest = hasher.finish();
    benchmark::DoNotOptimize(digest.data());
    reader.reset();
    return drain(reader);
}

/** Abort unless the fused kernels reproduce the legacy digests. */
void
verifyDigests()
{
    const std::string &path = corpus().paths.front();
    const std::string legacy = legacySequentialHash(*openStdio(path));
    if (trace::hashTraceFile(*openStdio(path)) != legacy)
        util::fatal("fused stdio hash diverged from legacy digest");
    if (trace::hashTraceFile(*openMmap(path)) != legacy)
        util::fatal("fused mmap hash diverged from legacy digest");
}

// --- raw byte delivery ----------------------------------------------

void
readAllTouching(trace::ByteFile &file)
{
    std::uint64_t sum = 0;
    const std::uint64_t total = file.size();
    std::uint64_t offset = 0;
    file.seek(0);
    std::array<std::uint8_t, blockBytes> buffer;
    for (;;) {
        const std::size_t want = static_cast<std::size_t>(
            std::min<std::uint64_t>(buffer.size(), total - offset));
        if (want == 0)
            break;
        const std::uint8_t *window = file.view(offset, want);
        std::size_t got = want;
        if (window == nullptr) {
            got = file.read(buffer.data(), buffer.size());
            if (got == 0)
                break;
            window = buffer.data();
        }
        // One XOR per 64 bytes: touch every cache line without the
        // benchmark becoming compute-bound.
        for (std::size_t i = 0; i < got; i += 64)
            sum ^= window[i];
        offset += got;
    }
    benchmark::DoNotOptimize(sum);
}

void
BM_ReadStdio(benchmark::State &state)
{
    for (auto _ : state) {
        for (const std::string &path : corpus().paths) {
            const auto file = openStdio(path);
            readAllTouching(*file);
        }
    }
    state.SetBytesProcessed(
        state.iterations()
        * static_cast<std::int64_t>(corpus().totalBytes));
}
BENCHMARK(BM_ReadStdio)->Unit(benchmark::kMillisecond);

void
BM_ReadMmap(benchmark::State &state)
{
    for (auto _ : state) {
        for (const std::string &path : corpus().paths) {
            const auto file = openMmap(path);
            readAllTouching(*file);
        }
    }
    state.SetBytesProcessed(
        state.iterations()
        * static_cast<std::int64_t>(corpus().totalBytes));
}
BENCHMARK(BM_ReadMmap)->Unit(benchmark::kMillisecond);

// --- content hashing ------------------------------------------------

void
BM_HashLegacyTwoPass(benchmark::State &state)
{
    for (auto _ : state) {
        for (const std::string &path : corpus().paths) {
            const auto file = openStdio(path);
            const std::string digest = legacySequentialHash(*file);
            benchmark::DoNotOptimize(digest.data());
        }
    }
    state.SetBytesProcessed(
        state.iterations()
        * static_cast<std::int64_t>(corpus().totalBytes));
}
BENCHMARK(BM_HashLegacyTwoPass)->Unit(benchmark::kMillisecond);

void
BM_HashFusedStdio(benchmark::State &state)
{
    for (auto _ : state) {
        for (const std::string &path : corpus().paths) {
            const auto file = openStdio(path);
            const std::string digest = trace::hashTraceFile(*file);
            benchmark::DoNotOptimize(digest.data());
        }
    }
    state.SetBytesProcessed(
        state.iterations()
        * static_cast<std::int64_t>(corpus().totalBytes));
}
BENCHMARK(BM_HashFusedStdio)->Unit(benchmark::kMillisecond);

void
BM_HashFusedMmap(benchmark::State &state)
{
    for (auto _ : state) {
        for (const std::string &path : corpus().paths) {
            const auto file = openMmap(path);
            const std::string digest = trace::hashTraceFile(*file);
            benchmark::DoNotOptimize(digest.data());
        }
    }
    state.SetBytesProcessed(
        state.iterations()
        * static_cast<std::int64_t>(corpus().totalBytes));
}
BENCHMARK(BM_HashFusedMmap)->Unit(benchmark::kMillisecond);

// --- end-to-end corpus ingestion ------------------------------------

void
BM_IngestLegacyStdio(benchmark::State &state)
{
    std::uint64_t records = 0;
    for (auto _ : state) {
        for (const std::string &path : corpus().paths)
            records += ingestLegacyStdio(path);
    }
    benchmark::DoNotOptimize(records);
    state.SetBytesProcessed(
        state.iterations()
        * static_cast<std::int64_t>(corpus().totalBytes));
}
BENCHMARK(BM_IngestLegacyStdio)->Unit(benchmark::kMillisecond);

void
BM_IngestFastStdio(benchmark::State &state)
{
    std::uint64_t records = 0;
    for (auto _ : state) {
        for (const std::string &path : corpus().paths)
            records += ingestFast(openStdio(path));
    }
    benchmark::DoNotOptimize(records);
    state.SetBytesProcessed(
        state.iterations()
        * static_cast<std::int64_t>(corpus().totalBytes));
}
BENCHMARK(BM_IngestFastStdio)->Unit(benchmark::kMillisecond);

void
BM_IngestFastMmap(benchmark::State &state)
{
    std::uint64_t records = 0;
    for (auto _ : state) {
        for (const std::string &path : corpus().paths)
            records += ingestFast(openMmap(path));
    }
    benchmark::DoNotOptimize(records);
    state.SetBytesProcessed(
        state.iterations()
        * static_cast<std::int64_t>(corpus().totalBytes));
}
BENCHMARK(BM_IngestFastMmap)->Unit(benchmark::kMillisecond);

/**
 * The suite frontend as actually wired: a TracePrefetcher opening and
 * verifying the corpus in one fused pass per trace (bounded window,
 * mmap backend), the consumer replaying each resident copy — the
 * pipelined counterpart of BM_IngestLegacyStdio.
 */
void
BM_SuiteIngestPipelinedMmap(benchmark::State &state)
{
    std::uint64_t records = 0;
    for (auto _ : state) {
        trace::TracePrefetcher::Options options;
        options.opener = openMmap;
        options.window = 4;
        options.threads = 2;
        trace::TracePrefetcher prefetch(corpus().paths, options);
        for (std::size_t i = 0; i < corpus().paths.size(); ++i) {
            trace::PrefetchedTrace open = prefetch.take(i);
            if (open.error)
                std::rethrow_exception(open.error);
            benchmark::DoNotOptimize(open.contentHash.data());
            if (open.resident) {
                trace::CompactTraceCursor replay(open.resident);
                records += drain(replay);
            } else {
                records += drain(*open.session); // over the budget
            }
        }
    }
    benchmark::DoNotOptimize(records);
    state.SetBytesProcessed(
        state.iterations()
        * static_cast<std::int64_t>(corpus().totalBytes));
}
// Wall time: the producers do the work on background threads while
// the timed thread mostly waits, so its CPU time would overstate the
// rate.
BENCHMARK(BM_SuiteIngestPipelinedMmap)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

} // anonymous namespace

/**
 * Like bench_throughput's main: vlpsim flags are consumed before
 * google-benchmark sees the command line; unrecognized
 * `--benchmark_*=value` flags pass through via extra().
 */
int
main(int argc, char **argv)
{
    util::ArgParser parser(
        "bench_ingest",
        "trace-ingestion throughput: stdio vs zero-copy mmap, legacy "
        "two-pass vs fused single-pass hashing, and the pipelined "
        "suite frontend (unknown --flag=value arguments are "
        "forwarded to google-benchmark)");
    parser.allowExtra();
    parser.parse(argc, argv);

    std::vector<std::string> forwarded = parser.extra();
    std::vector<char *> filtered;
    filtered.push_back(argv[0]);
    for (std::string &argument : forwarded)
        filtered.push_back(argument.data());
    int filtered_argc = static_cast<int>(filtered.size());
    filtered.push_back(nullptr);

    corpus();        // generate before any timing
    verifyDigests(); // a fast-but-wrong hash must abort the run

    benchmark::Initialize(&filtered_argc, filtered.data());
    if (benchmark::ReportUnrecognizedArguments(filtered_argc,
                                               filtered.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    fs::remove_all(corpus().directory);
    return 0;
}
