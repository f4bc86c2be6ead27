/**
 * @file
 * Streaming .vbt reader implementation.
 */

#include "trace/streaming.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>

#include "util/logging.h"

namespace vlp {
namespace trace {

namespace {

constexpr std::array<char, 4> traceMagicV1 = {'V', 'B', 'T', '1'};
constexpr std::array<char, 4> traceMagicV2 = {'V', 'B', 'T', '2'};
constexpr std::size_t recordBytes = 1 + 1 + 8 + 8;
constexpr std::uint64_t headerBytesV1 = 12;
constexpr std::uint64_t headerBytesV2 = 20;

/** Block size for whole-file hashing (mapped and buffered paths). */
constexpr std::size_t hashBlockBytes = 64 * 1024;

std::uint64_t
getU64(const std::uint8_t *buffer)
{
    std::uint64_t value = 0;
    for (int i = 0; i < 8; ++i)
        value |= static_cast<std::uint64_t>(buffer[i]) << (8 * i);
    return value;
}

} // anonymous namespace

StreamingTraceReader::StreamingTraceReader(std::unique_ptr<ByteFile> file,
                                           std::size_t chunk_records)
    : file_(std::move(file)), hashing_(file_->hasher()),
      chunkRecords_(chunk_records > 0 ? chunk_records : 1)
{
    std::uint8_t header[headerBytesV2];
    readFully(header, headerBytesV1);
    if (std::memcmp(header, traceMagicV2.data(), 4) == 0) {
        formatVersion_ = 2;
        headerBytes_ = headerBytesV2;
        readFully(header + headerBytesV1, 8);
        expectedChecksum_ = getU64(header + 12);
    } else if (std::memcmp(header, traceMagicV1.data(), 4) == 0) {
        // VBT1 headers end at the record count; there is no checksum
        // field to skip, and the first record starts at byte 12.
        formatVersion_ = 1;
        headerBytes_ = headerBytesV1;
    } else {
        util::fatal("not a .vbt trace file: " + file_->name());
    }
    count_ = getU64(header + 4);

    // Reject truncated or torn files up front: the record stream must
    // hold the bytes the header promises.
    const std::uint64_t expected =
        headerBytes_ + count_ * recordBytes;
    const std::uint64_t actual = file_->size();
    if (actual != expected) {
        util::fatal("truncated or corrupt trace file: " + file_->name()
                    + " (header promises " + std::to_string(expected)
                    + " bytes, file has " + std::to_string(actual)
                    + ")");
    }
}

StreamingTraceReader::StreamingTraceReader(const std::string &path,
                                           std::size_t chunk_records)
    : StreamingTraceReader(openByteFile(path), chunk_records)
{
}

void
StreamingTraceReader::readFully(std::uint8_t *buffer, std::size_t size)
{
    std::size_t got = 0;
    while (got < size) {
        const std::size_t chunk =
            file_->read(buffer + got, size - got);
        if (chunk == 0)
            util::fatal("truncated trace file: " + file_->name());
        got += chunk;
        filePos_ += chunk;
    }
}

void
StreamingTraceReader::refill()
{
    const std::uint64_t remaining = count_ - read_;
    const std::size_t records = static_cast<std::size_t>(
        remaining < chunkRecords_ ? remaining : chunkRecords_);
    const std::size_t bytes = records * recordBytes;
    const std::uint64_t offset = headerBytes_ + read_ * recordBytes;

    // Zero-copy fast path: decode straight out of the mapping. With a
    // hashing decorator underneath, the VBT2 chunk checksum is fused
    // into the content-hash kernel — one pass over the chunk for all
    // three FNV chains plus the decode.
    const std::uint8_t *window = nullptr;
    if (formatVersion_ >= 2 && hashing_ != nullptr) {
        window = hashing_->viewHashing(offset, bytes, checksum_);
    } else {
        window = file_->view(offset, bytes);
        if (window != nullptr && formatVersion_ >= 2)
            checksum_.update(window, bytes);
    }
    if (window != nullptr) {
        chunk_ = window;
        bufferPos_ = 0;
        bufferBytes_ = bytes;
        return;
    }

    // Buffered path: identical read sequence to the historical reader
    // (the lazy seek fires only when something else moved the
    // cursor), so deterministic fault-injection schedules hold.
    buffer_.resize(bytes);
    if (filePos_ != offset) {
        file_->seek(offset);
        filePos_ = offset;
    }
    std::size_t got = 0;
    while (got < bytes) {
        const std::size_t piece = (formatVersion_ >= 2
                                   && hashing_ != nullptr)
            ? hashing_->readHashing(buffer_.data() + got, bytes - got,
                                    checksum_)
            : file_->read(buffer_.data() + got, bytes - got);
        if (piece == 0)
            util::fatal("truncated trace file: " + file_->name());
        got += piece;
        filePos_ += piece;
    }
    if (formatVersion_ >= 2 && hashing_ == nullptr)
        checksum_.update(buffer_.data(), bytes);
    chunk_ = buffer_.data();
    bufferPos_ = 0;
    bufferBytes_ = bytes;
    if (bytes > peakBufferBytes_)
        peakBufferBytes_ = bytes;
}

void
StreamingTraceReader::verifyChecksum() const
{
    if (formatVersion_ >= 2 && checksum_.digest() != expectedChecksum_) {
        util::fatal("corrupt trace file: checksum mismatch: "
                    + file_->name());
    }
}

bool
StreamingTraceReader::next(BranchRecord &record)
{
    if (read_ >= count_) {
        // An empty stream has no final record to trigger the check:
        // its checksum must still be the digest of no bytes.
        if (count_ == 0)
            verifyChecksum();
        return false;
    }
    if (bufferPos_ >= bufferBytes_)
        refill();
    const std::uint8_t *bytes = chunk_ + bufferPos_;
    if (bytes[0] >= numBranchKinds)
        util::fatal("corrupt trace record: bad branch kind");
    if (bytes[1] > 1)
        util::fatal("corrupt trace record: bad taken flag");
    record.kind = static_cast<BranchKind>(bytes[0]);
    record.taken = bytes[1] != 0;
    record.pc = getU64(bytes + 2);
    record.nextPc = getU64(bytes + 10);
    if (read_ + 1 == count_)
        verifyChecksum();
    bufferPos_ += recordBytes;
    ++read_;
    return true;
}

void
StreamingTraceReader::reset()
{
    file_->seek(headerBytes_);
    filePos_ = headerBytes_;
    read_ = 0;
    chunk_ = nullptr;
    bufferPos_ = 0;
    bufferBytes_ = 0;
    checksum_.reset();
}

std::string
hashTraceFile(ByteFile &file)
{
    // Two independently seeded 64-bit FNV-1a streams give the 128-bit
    // identity; seeds match nothing else in the repository so trace
    // hashes never collide with cache-key hashes by construction.
    // ContentHasher fuses the streams into one loop and the mapped
    // view path skips the copies — the digest is byte-identical to
    // the historical two-pass stdio computation (locked by tests).
    ContentHasher hasher;
    file.seek(0);
    const std::uint64_t total = file.size();
    std::uint64_t offset = 0;
    while (offset < total) {
        const std::size_t want = static_cast<std::size_t>(
            std::min<std::uint64_t>(hashBlockBytes, total - offset));
        const std::uint8_t *window = file.view(offset, want);
        if (window == nullptr)
            break;
        hasher.update(window, want);
        offset += want;
    }
    if (offset < total || total == 0) {
        if (offset > 0)
            file.seek(offset);
        std::array<std::uint8_t, hashBlockBytes> buffer;
        for (;;) {
            const std::size_t got =
                file.read(buffer.data(), buffer.size());
            if (got == 0)
                break;
            hasher.update(buffer.data(), got);
        }
    }
    return hasher.digest();
}

} // namespace trace
} // namespace vlp
