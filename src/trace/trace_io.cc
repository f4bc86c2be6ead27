/**
 * @file
 * Binary trace reader/writer implementation.
 */

#include "trace/trace_io.h"

#include <array>
#include <cstring>

#include "util/logging.h"

namespace vlp {
namespace trace {

namespace {

constexpr std::array<char, 4> traceMagicV1 = {'V', 'B', 'T', '1'};
constexpr std::array<char, 4> traceMagicV2 = {'V', 'B', 'T', '2'};
constexpr std::size_t recordBytes = 1 + 1 + 8 + 8;
constexpr long headerBytesV1 = 12;
constexpr long headerBytesV2 = 20;

void
putU64(std::uint8_t *buffer, std::uint64_t value)
{
    for (int i = 0; i < 8; ++i)
        buffer[i] = static_cast<std::uint8_t>(value >> (8 * i));
}

std::uint64_t
getU64(const std::uint8_t *buffer)
{
    std::uint64_t value = 0;
    for (int i = 0; i < 8; ++i)
        value |= static_cast<std::uint64_t>(buffer[i]) << (8 * i);
    return value;
}

/** Byte length of @p file, restoring the current position. */
long
fileBytes(std::FILE *file)
{
    const long position = std::ftell(file);
    std::fseek(file, 0, SEEK_END);
    const long size = std::ftell(file);
    std::fseek(file, position, SEEK_SET);
    return size;
}

} // anonymous namespace

TraceWriter::TraceWriter(const std::string &path)
{
    file_ = std::fopen(path.c_str(), "wb");
    if (file_ == nullptr)
        util::fatal("cannot create trace file: " + path);
    std::uint8_t header[headerBytesV2];
    std::memcpy(header, traceMagicV2.data(), 4);
    putU64(header + 4, 0);  // record count, patched in close()
    putU64(header + 12, 0); // checksum, patched in close()
    if (std::fwrite(header, 1, sizeof(header), file_) != sizeof(header))
        util::fatal("cannot write trace header: " + path);
}

TraceWriter::~TraceWriter()
{
    if (file_ != nullptr)
        close();
}

void
TraceWriter::write(const BranchRecord &record)
{
    std::uint8_t buffer[recordBytes];
    buffer[0] = static_cast<std::uint8_t>(record.kind);
    buffer[1] = record.taken ? 1 : 0;
    putU64(buffer + 2, record.pc);
    putU64(buffer + 10, record.nextPc);
    if (std::fwrite(buffer, 1, recordBytes, file_) != recordBytes)
        util::fatal("short write to trace file");
    checksum_.update(buffer, recordBytes);
    ++count_;
}

void
TraceWriter::close()
{
    if (file_ == nullptr)
        return;
    std::uint8_t trailer[16];
    putU64(trailer, count_);
    putU64(trailer + 8, checksum_.digest());
    std::fseek(file_, 4, SEEK_SET);
    if (std::fwrite(trailer, 1, sizeof(trailer), file_) != sizeof(trailer))
        util::warn("failed to finalize trace header");
    std::fclose(file_);
    file_ = nullptr;
}

TraceReader::TraceReader(const std::string &path)
{
    file_ = std::fopen(path.c_str(), "rb");
    if (file_ == nullptr)
        util::fatal("cannot open trace file: " + path);
    std::uint8_t header[headerBytesV2];
    if (std::fread(header, 1, headerBytesV1, file_)
        != static_cast<std::size_t>(headerBytesV1)) {
        std::fclose(file_);
        file_ = nullptr;
        util::fatal("not a .vbt trace file (short header): " + path);
    }
    if (std::memcmp(header, traceMagicV2.data(), 4) == 0) {
        hasChecksum_ = true;
        headerBytes_ = headerBytesV2;
        if (std::fread(header + headerBytesV1, 1, 8, file_) != 8) {
            std::fclose(file_);
            file_ = nullptr;
            util::fatal("not a .vbt trace file (short header): " + path);
        }
        expectedChecksum_ = getU64(header + 12);
    } else if (std::memcmp(header, traceMagicV1.data(), 4) == 0) {
        // VBT1 has no checksum field: the 12-byte header ends at the
        // record count and the first record starts immediately after
        // it. Nothing is read (or skipped) beyond those 12 bytes, and
        // expectedChecksum_ stays unused (hasChecksum_ == false).
        headerBytes_ = headerBytesV1;
    } else {
        std::fclose(file_);
        file_ = nullptr;
        util::fatal("not a .vbt trace file: " + path);
    }
    count_ = getU64(header + 4);

    // Reject truncated or torn files up front: the record stream must
    // hold exactly the bytes the header promises, so next() can never
    // return a partial read.
    const long expected = headerBytes_
        + static_cast<long>(count_ * recordBytes);
    const long actual = fileBytes(file_);
    if (actual != expected) {
        std::fclose(file_);
        file_ = nullptr;
        util::fatal("truncated or corrupt trace file: " + path
                    + " (header promises " + std::to_string(expected)
                    + " bytes, file has " + std::to_string(actual)
                    + ")");
    }
}

TraceReader::~TraceReader()
{
    if (file_ != nullptr)
        std::fclose(file_);
}

bool
TraceReader::next(BranchRecord &record)
{
    if (read_ >= count_) {
        // An empty stream has no final record to trigger the check:
        // its checksum must still be the digest of no bytes.
        if (count_ == 0 && hasChecksum_
            && checksum_.digest() != expectedChecksum_) {
            util::fatal("corrupt trace file: checksum mismatch");
        }
        return false;
    }
    std::uint8_t buffer[recordBytes];
    if (std::fread(buffer, 1, recordBytes, file_) != recordBytes)
        util::fatal("truncated trace file");
    if (buffer[0] >= numBranchKinds)
        util::fatal("corrupt trace record: bad branch kind");
    if (buffer[1] > 1)
        util::fatal("corrupt trace record: bad taken flag");
    record.kind = static_cast<BranchKind>(buffer[0]);
    record.taken = buffer[1] != 0;
    record.pc = getU64(buffer + 2);
    record.nextPc = getU64(buffer + 10);
    if (hasChecksum_) {
        checksum_.update(buffer, recordBytes);
        if (read_ + 1 == count_
            && checksum_.digest() != expectedChecksum_) {
            util::fatal("corrupt trace file: checksum mismatch");
        }
    }
    ++read_;
    return true;
}

void
TraceReader::reset()
{
    std::fseek(file_, headerBytes_, SEEK_SET);
    read_ = 0;
    checksum_.reset();
}

VectorTraceSource
loadTrace(const std::string &path)
{
    TraceReader reader(path);
    std::vector<BranchRecord> records;
    records.reserve(reader.count());
    BranchRecord record;
    while (reader.next(record))
        records.push_back(record);
    return VectorTraceSource(std::move(records));
}

void
saveTrace(const VectorTraceSource &source, const std::string &path)
{
    TraceWriter writer(path);
    for (const auto &record : source.records())
        writer.write(record);
    writer.close();
}

} // namespace trace
} // namespace vlp
