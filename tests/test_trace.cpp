/**
 * @file
 * Unit tests for the trace substrate: records, sources, file I/O, and
 * trace statistics.
 */

#include <cstdio>
#include <cstring>
#include <gtest/gtest.h>
#include <sstream>
#include <string>
#include <unistd.h>

#include "trace/branch_record.h"
#include "trace/streaming.h"
#include "trace/text_io.h"
#include "trace/trace_filter.h"
#include "trace/trace_io.h"
#include "trace/trace_source.h"
#include "trace/trace_stats.h"

namespace {

using namespace vlp::trace;

BranchRecord
make(std::uint64_t pc, std::uint64_t next, bool taken, BranchKind kind)
{
    BranchRecord record;
    record.pc = pc;
    record.nextPc = next;
    record.taken = taken;
    record.kind = kind;
    return record;
}

std::string
tempPath(const std::string &name)
{
    return testing::TempDir() + "/" + name;
}

TEST(BranchRecord, KindPredicates)
{
    EXPECT_TRUE(make(0, 0, true, BranchKind::Conditional)
                    .isConditional());
    EXPECT_FALSE(make(0, 0, true, BranchKind::Conditional).isIndirect());
    EXPECT_TRUE(make(0, 0, true, BranchKind::IndirectJump).isIndirect());
    EXPECT_TRUE(make(0, 0, true, BranchKind::IndirectCall).isIndirect());
    EXPECT_FALSE(make(0, 0, true, BranchKind::Return).isIndirect());
    EXPECT_TRUE(make(0, 0, true, BranchKind::Return).isReturn());
    EXPECT_TRUE(make(0, 0, true, BranchKind::DirectCall).isCall());
    EXPECT_TRUE(make(0, 0, true, BranchKind::IndirectCall).isCall());
    EXPECT_FALSE(make(0, 0, true, BranchKind::Unconditional).isCall());
}

TEST(BranchRecord, PathHistoryPolicy)
{
    // Conditional and indirect branches enter the THB.
    EXPECT_TRUE(make(0, 0, false, BranchKind::Conditional)
                    .entersPathHistory());
    EXPECT_TRUE(make(0, 0, true, BranchKind::IndirectJump)
                    .entersPathHistory());
    EXPECT_TRUE(make(0, 0, true, BranchKind::IndirectCall)
                    .entersPathHistory());
    // Unconditional branches and calls never do.
    EXPECT_FALSE(make(0, 0, true, BranchKind::Unconditional)
                     .entersPathHistory());
    EXPECT_FALSE(make(0, 0, true, BranchKind::DirectCall)
                     .entersPathHistory());
    // Returns only when the ablation flag asks for them.
    EXPECT_FALSE(make(0, 0, true, BranchKind::Return)
                     .entersPathHistory());
    EXPECT_TRUE(make(0, 0, true, BranchKind::Return)
                    .entersPathHistory(true));
}

TEST(BranchRecord, Names)
{
    EXPECT_STREQ(branchKindName(BranchKind::Conditional), "cond");
    EXPECT_STREQ(branchKindName(BranchKind::Unconditional), "jump");
    EXPECT_STREQ(branchKindName(BranchKind::DirectCall), "call");
    EXPECT_STREQ(branchKindName(BranchKind::IndirectJump), "ijump");
    EXPECT_STREQ(branchKindName(BranchKind::IndirectCall), "icall");
    EXPECT_STREQ(branchKindName(BranchKind::Return), "ret");
}

TEST(BranchRecord, ToStringMentionsFields)
{
    const auto text =
        toString(make(0x400000, 0x400010, true, BranchKind::Conditional));
    EXPECT_NE(text.find("400000"), std::string::npos);
    EXPECT_NE(text.find("400010"), std::string::npos);
    EXPECT_NE(text.find("cond"), std::string::npos);
    EXPECT_NE(text.find("taken"), std::string::npos);
}

TEST(VectorTraceSource, NextAndReset)
{
    VectorTraceSource source;
    source.append(make(4, 8, true, BranchKind::Conditional));
    source.append(make(8, 4, false, BranchKind::Conditional));
    EXPECT_EQ(source.size(), 2u);

    BranchRecord record;
    EXPECT_TRUE(source.next(record));
    EXPECT_EQ(record.pc, 4u);
    EXPECT_TRUE(source.next(record));
    EXPECT_EQ(record.pc, 8u);
    EXPECT_FALSE(source.next(record));

    source.reset();
    EXPECT_TRUE(source.next(record));
    EXPECT_EQ(record.pc, 4u);
}

TEST(TraceIo, RoundTripAllKinds)
{
    const std::string path = tempPath("roundtrip.vbt");
    VectorTraceSource original;
    original.append(make(0x400000, 0x400010, true,
                         BranchKind::Conditional));
    original.append(make(0x400010, 0x400014, false,
                         BranchKind::Conditional));
    original.append(make(0x400014, 0x400100, true,
                         BranchKind::Unconditional));
    original.append(make(0x400100, 0x400200, true,
                         BranchKind::DirectCall));
    original.append(make(0x400200, 0x400300, true,
                         BranchKind::IndirectJump));
    original.append(make(0x400300, 0x400400, true,
                         BranchKind::IndirectCall));
    original.append(make(0x400400, 0x400104, true, BranchKind::Return));
    saveTrace(original, path);

    VectorTraceSource loaded = loadTrace(path);
    ASSERT_EQ(loaded.size(), original.size());
    EXPECT_EQ(loaded.records(), original.records());
    std::remove(path.c_str());
}

TEST(TraceIo, ReaderStreamsAndResets)
{
    const std::string path = tempPath("stream.vbt");
    {
        TraceWriter writer(path);
        for (int i = 0; i < 10; ++i) {
            writer.write(make(4 * i, 4 * i + 4, true,
                              BranchKind::Conditional));
        }
        EXPECT_EQ(writer.count(), 10u);
    }
    StreamingTraceReader reader(path);
    EXPECT_EQ(reader.count(), 10u);
    BranchRecord record;
    int seen = 0;
    while (reader.next(record))
        ++seen;
    EXPECT_EQ(seen, 10);
    reader.reset();
    EXPECT_TRUE(reader.next(record));
    EXPECT_EQ(record.pc, 0u);
    std::remove(path.c_str());
}

TEST(TraceIo, MissingFileFails)
{
    EXPECT_THROW(StreamingTraceReader("/nonexistent/trace.vbt"),
                 std::runtime_error);
}

TEST(TraceIo, BadMagicFails)
{
    const std::string path = tempPath("badmagic.vbt");
    std::FILE *file = std::fopen(path.c_str(), "wb");
    std::fputs("NOTATRACE-HEADER", file);
    std::fclose(file);
    EXPECT_THROW(StreamingTraceReader reader(path), std::runtime_error);
    std::remove(path.c_str());
}

TEST(TraceIo, CorruptKindFails)
{
    const std::string path = tempPath("badkind.vbt");
    {
        TraceWriter writer(path);
        writer.write(make(4, 8, true, BranchKind::Conditional));
    }
    // Overwrite the record's kind byte (first byte after the 20-byte
    // VBT2 header) with garbage.
    std::FILE *file = std::fopen(path.c_str(), "rb+");
    std::fseek(file, 20, SEEK_SET);
    std::fputc(0x7f, file);
    std::fclose(file);

    StreamingTraceReader reader(path);
    BranchRecord record;
    EXPECT_THROW(reader.next(record), std::runtime_error);
    std::remove(path.c_str());
}

TEST(TraceIo, TruncatedFileFailsAtOpen)
{
    const std::string path = tempPath("truncated.vbt");
    {
        TraceWriter writer(path);
        for (int i = 0; i < 8; ++i) {
            writer.write(make(4 * i, 4 * i + 4, true,
                              BranchKind::Conditional));
        }
    }
    // Chop the last record in half, as a torn copy or full disk would.
    std::FILE *file = std::fopen(path.c_str(), "rb+");
    std::fseek(file, 0, SEEK_END);
    const long size = std::ftell(file);
    std::fclose(file);
    ASSERT_EQ(truncate(path.c_str(), size - 9), 0);

    try {
        StreamingTraceReader reader(path);
        FAIL() << "expected the reader to reject a truncated file";
    } catch (const std::runtime_error &error) {
        // The error must name the file and the size discrepancy.
        const std::string what = error.what();
        EXPECT_NE(what.find("truncated or corrupt"), std::string::npos)
            << what;
        EXPECT_NE(what.find(path), std::string::npos) << what;
    }
    std::remove(path.c_str());
}

TEST(TraceIo, ShortHeaderFailsAtOpen)
{
    const std::string path = tempPath("shortheader.vbt");
    std::FILE *file = std::fopen(path.c_str(), "wb");
    std::fputs("VBT2", file); // magic only, no count/checksum
    std::fclose(file);
    EXPECT_THROW(StreamingTraceReader reader(path), std::runtime_error);
    std::remove(path.c_str());
}

TEST(TraceIo, BitFlipFailsChecksum)
{
    const std::string path = tempPath("bitflip.vbt");
    {
        TraceWriter writer(path);
        for (int i = 0; i < 8; ++i) {
            writer.write(make(4 * i, 4 * i + 4, i % 2 == 0,
                              BranchKind::Conditional));
        }
    }
    // Flip one bit inside a pc field: the size and every kind/taken
    // byte stay plausible, so only the checksum can catch it.
    std::FILE *file = std::fopen(path.c_str(), "rb+");
    std::fseek(file, 20 + 2 * 18 + 5, SEEK_SET);
    const int original = std::fgetc(file);
    std::fseek(file, -1, SEEK_CUR);
    std::fputc(original ^ 0x10, file);
    std::fclose(file);

    StreamingTraceReader reader(path);
    BranchRecord record;
    try {
        while (reader.next(record)) {
        }
        FAIL() << "expected a checksum mismatch";
    } catch (const std::runtime_error &error) {
        EXPECT_NE(std::string(error.what()).find("checksum"),
                  std::string::npos)
            << error.what();
    }
    std::remove(path.c_str());
}

TEST(TraceIo, ReadsLegacyV1Files)
{
    const std::string path = tempPath("legacy.vbt");
    // Hand-write a VBT1 file (12-byte header, no checksum): the reader
    // must stay able to consume traces written before VBT2.
    const BranchRecord record =
        make(0x400000, 0x400010, true, BranchKind::Conditional);
    std::FILE *file = std::fopen(path.c_str(), "wb");
    std::fputs("VBT1", file);
    const std::uint64_t count = 1;
    std::fwrite(&count, 8, 1, file); // little-endian host assumed below
    std::uint8_t buffer[18] = {};
    buffer[0] = static_cast<std::uint8_t>(record.kind);
    buffer[1] = 1;
    std::memcpy(buffer + 2, &record.pc, 8);
    std::memcpy(buffer + 10, &record.nextPc, 8);
    std::fwrite(buffer, 1, sizeof(buffer), file);
    std::fclose(file);

    const VectorTraceSource loaded = loadTrace(path);
    ASSERT_EQ(loaded.size(), 1u);
    EXPECT_EQ(loaded.records()[0], record);
    std::remove(path.c_str());
}

TEST(TraceIo, V1SizeMismatchFailsAtOpen)
{
    const std::string path = tempPath("legacy_bad.vbt");
    std::FILE *file = std::fopen(path.c_str(), "wb");
    std::fputs("VBT1", file);
    const std::uint64_t count = 5; // promises 5 records, provides none
    std::fwrite(&count, 8, 1, file);
    std::fclose(file);
    EXPECT_THROW(StreamingTraceReader reader(path), std::runtime_error);
    std::remove(path.c_str());
}

TEST(TextIo, RoundTripAllKinds)
{
    VectorTraceSource original;
    original.append(make(0x400000, 0x400010, true,
                         BranchKind::Conditional));
    original.append(make(0x400010, 0x400014, false,
                         BranchKind::Conditional));
    original.append(make(0x400014, 0x400100, true,
                         BranchKind::Unconditional));
    original.append(make(0x400100, 0x400200, true,
                         BranchKind::DirectCall));
    original.append(make(0x400200, 0x400300, true,
                         BranchKind::IndirectJump));
    original.append(make(0x400300, 0x400400, true,
                         BranchKind::IndirectCall));
    original.append(make(0x400400, 0x400104, true, BranchKind::Return));

    std::ostringstream out;
    writeTextTrace(original, out);
    std::istringstream in(out.str());
    const VectorTraceSource loaded = readTextTrace(in);
    EXPECT_EQ(loaded.records(), original.records());
}

TEST(TextIo, ParsesCommentsAndBlankLines)
{
    std::istringstream in(
        "# header comment\n"
        "\n"
        "cond 400000 400040 T\n"
        "   # indented comment\n"
        "ret 400040 400004 T\n");
    const VectorTraceSource loaded = readTextTrace(in);
    ASSERT_EQ(loaded.size(), 2u);
    EXPECT_EQ(loaded.records()[0].pc, 0x400000u);
    EXPECT_TRUE(loaded.records()[1].isReturn());
}

TEST(TextIo, RejectsMalformedLines)
{
    {
        std::istringstream in("cond 400000 400040\n"); // missing T|N
        EXPECT_THROW(readTextTrace(in), std::runtime_error);
    }
    {
        std::istringstream in("blorp 400000 400040 T\n"); // bad kind
        EXPECT_THROW(readTextTrace(in), std::runtime_error);
    }
    {
        std::istringstream in("cond zz9 400040 T\n"); // bad pc
        EXPECT_THROW(readTextTrace(in), std::runtime_error);
    }
    {
        std::istringstream in("cond 400000 400040 X\n"); // bad dir
        EXPECT_THROW(readTextTrace(in), std::runtime_error);
    }
    {
        std::istringstream in("jump 400000 400040 N\n"); // jump N
        EXPECT_THROW(readTextTrace(in), std::runtime_error);
    }
}

TEST(TextIo, ParseBranchKindNames)
{
    EXPECT_EQ(parseBranchKind("cond"), BranchKind::Conditional);
    EXPECT_EQ(parseBranchKind("ijump"), BranchKind::IndirectJump);
    EXPECT_EQ(parseBranchKind("ret"), BranchKind::Return);
    EXPECT_THROW(parseBranchKind("unknown"), std::runtime_error);
}

TEST(TextIo, FileRoundTrip)
{
    const std::string path = tempPath("text_trace.txt");
    VectorTraceSource original;
    original.append(make(0x400000, 0x400040, true,
                         BranchKind::Conditional));
    saveTextTrace(original, path);
    const VectorTraceSource loaded = loadTextTrace(path);
    EXPECT_EQ(loaded.records(), original.records());
    std::remove(path.c_str());
    EXPECT_THROW(loadTextTrace("/no/such/file.txt"),
                 std::runtime_error);
}

TEST(WindowTraceSource, SkipAndTake)
{
    VectorTraceSource inner;
    for (int i = 0; i < 10; ++i)
        inner.append(make(4 * i, 4 * i + 4, true,
                          BranchKind::Conditional));

    WindowTraceSource window(inner, 3, 4);
    BranchRecord record;
    std::vector<std::uint64_t> pcs;
    while (window.next(record))
        pcs.push_back(record.pc);
    ASSERT_EQ(pcs.size(), 4u);
    EXPECT_EQ(pcs.front(), 12u);
    EXPECT_EQ(pcs.back(), 24u);

    // Reset rewinds the whole window, including the skip.
    window.reset();
    EXPECT_TRUE(window.next(record));
    EXPECT_EQ(record.pc, 12u);
}

TEST(WindowTraceSource, SkipBeyondEndIsEmpty)
{
    VectorTraceSource inner;
    inner.append(make(4, 8, true, BranchKind::Conditional));
    WindowTraceSource window(inner, 5, 0);
    BranchRecord record;
    EXPECT_FALSE(window.next(record));
}

TEST(WindowTraceSource, ZeroTakeIsUnlimited)
{
    VectorTraceSource inner;
    for (int i = 0; i < 5; ++i)
        inner.append(make(4 * i, 4 * i + 4, true,
                          BranchKind::Conditional));
    WindowTraceSource window(inner, 2, 0);
    BranchRecord record;
    int seen = 0;
    while (window.next(record))
        ++seen;
    EXPECT_EQ(seen, 3);
}

TEST(FilterTraceSource, PassesMatchingRecordsOnly)
{
    VectorTraceSource inner;
    inner.append(make(4, 8, true, BranchKind::Conditional));
    inner.append(make(8, 16, true, BranchKind::IndirectJump));
    inner.append(make(16, 20, false, BranchKind::Conditional));
    inner.append(make(20, 24, true, BranchKind::Return));

    FilterTraceSource filtered(
        inner,
        [](const BranchRecord &record) {
            return record.isConditional();
        });
    BranchRecord record;
    int seen = 0;
    while (filtered.next(record)) {
        EXPECT_TRUE(record.isConditional());
        ++seen;
    }
    EXPECT_EQ(seen, 2);
    filtered.reset();
    EXPECT_TRUE(filtered.next(record));
    EXPECT_EQ(record.pc, 4u);
}

TEST(TraceStats, CountsPerKind)
{
    TraceStats stats;
    stats.observe(make(4, 8, true, BranchKind::Conditional));
    stats.observe(make(4, 8, false, BranchKind::Conditional));
    stats.observe(make(8, 8, true, BranchKind::Conditional));
    stats.observe(make(12, 16, true, BranchKind::IndirectJump));
    stats.observe(make(16, 20, true, BranchKind::IndirectCall));
    stats.observe(make(20, 24, true, BranchKind::Return));
    stats.observe(make(24, 28, true, BranchKind::DirectCall));

    EXPECT_EQ(stats.dynamicConditional(), 3u);
    EXPECT_EQ(stats.staticConditional(), 2u); // pcs 4 and 8
    EXPECT_EQ(stats.dynamicIndirect(), 2u);
    EXPECT_EQ(stats.staticIndirect(), 2u);
    // Returns are not part of the indirect counts.
    EXPECT_EQ(stats.dynamicCount(BranchKind::Return), 1u);
    EXPECT_EQ(stats.dynamicTotal(), 7u);
    EXPECT_NEAR(stats.takenRate(), 100.0 * 2 / 3, 1e-9);
}

TEST(TraceStats, ObserveAllConsumesSource)
{
    VectorTraceSource source;
    for (int i = 0; i < 5; ++i)
        source.append(make(4, 8, true, BranchKind::Conditional));
    TraceStats stats;
    stats.observeAll(source);
    EXPECT_EQ(stats.dynamicConditional(), 5u);
    BranchRecord record;
    EXPECT_FALSE(source.next(record));
}

TEST(TraceStats, SummaryMentionsCounts)
{
    TraceStats stats;
    stats.observe(make(4, 8, true, BranchKind::Conditional));
    const std::string summary = stats.summary();
    EXPECT_NE(summary.find("conditional"), std::string::npos);
    EXPECT_NE(summary.find("indirect"), std::string::npos);
}

} // anonymous namespace
