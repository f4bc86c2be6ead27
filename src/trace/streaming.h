/**
 * @file
 * Bounded-memory streaming replay of .vbt trace files.
 *
 * StreamingTraceReader serves decoded records chunk by chunk from a
 * ByteFile. When the backing file exposes a contiguous mapped window
 * (ByteFile::view()), records are decoded directly from the mapping —
 * zero copies, zero syscalls per chunk, and peakBufferBytes() stays 0
 * because no buffer is ever grown. Otherwise it refills a fixed-size
 * chunk buffer, so replaying a multi-gigabyte external trace holds
 * peak trace-buffer memory at chunkRecords * 18 bytes regardless of
 * file size — the property the external-trace suite runner relies on.
 *
 * It is the one .vbt decoder: loadTrace() and `vlpsim stats` read
 * through it too. Validation: magic and header-vs-file-size checks at
 * open (truncated files fail before any record is served), per-record
 * kind/taken checks, and — for VBT2 — a stream checksum verified at the end of the stream (when the final
 * record is consumed, or at the first next() of an empty trace). The
 * checksum is accumulated per refilled chunk (same bytes, same order,
 * same digest as the historical per-record accumulation); when the
 * file is wrapped in a HashingByteFile the checksum chain is fused
 * into the content-hash kernel, so one pass hashes, checksums, and
 * decodes each chunk in a single loop. Every further pass re-reads
 * and re-checksums the file, which is why the suite runner makes
 * exactly one such pass per trace and replays a resident copy
 * afterwards (trace/prefetch.h, trace/compact_trace.h), keeping a
 * parked reader only for traces over the resident budget.
 * formatVersion() lets callers warn on unchecksummed VBT1 inputs.
 */

#ifndef VLPSIM_TRACE_STREAMING_H
#define VLPSIM_TRACE_STREAMING_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "trace/byte_file.h"
#include "trace/content_hash.h"
#include "trace/trace_source.h"
#include "util/checksum.h"

namespace vlp {
namespace trace {

/** Streams a .vbt file as a TraceSource with bounded buffering. */
class StreamingTraceReader : public TraceSource
{
  public:
    /** Default chunk size: 4096 records = 72 KiB of buffer. */
    static constexpr std::size_t defaultChunkRecords = 4096;

    /**
     * Take ownership of @p file, validate the header, and verify the
     * file holds exactly the record bytes the header promises.
     * @throws std::runtime_error on bad magic or truncation
     * @throws util::TransientError propagated from @p file
     */
    explicit StreamingTraceReader(
        std::unique_ptr<ByteFile> file,
        std::size_t chunk_records = defaultChunkRecords);

    /** Convenience: open @p path with a plain stdio file. */
    explicit StreamingTraceReader(
        const std::string &path,
        std::size_t chunk_records = defaultChunkRecords);

    /**
     * @throws std::runtime_error on a corrupt record or (VBT2, at the
     *         end of the stream) a checksum mismatch
     */
    bool next(BranchRecord &record) override;

    void reset() override;

    /** Total records according to the header. */
    std::uint64_t count() const { return count_; }

    /** .vbt format version: 1 (no checksum) or 2. */
    unsigned formatVersion() const { return formatVersion_; }

    /** High-water mark of the record buffer, in bytes; stays 0 on the
     *  zero-copy (mapped) path. */
    std::size_t peakBufferBytes() const { return peakBufferBytes_; }

    /** The content-hashing decorator this reader streams through, or
     *  nullptr. finish() on it completes the single-pass identity. */
    HashingByteFile *hashingFile() const { return hashing_; }

    /** The underlying ByteFile (tests assert on backend selection). */
    ByteFile &file() const { return *file_; }

  private:
    /** Load the next chunk: mapped view when available, else a
     *  buffered read; accumulates the VBT2 chunk checksum. */
    void refill();

    /** Throw unless the VBT2 stream checksum of every record read
     *  matches the header's. */
    void verifyChecksum() const;

    /** Read exactly @p size bytes, looping over short reads. */
    void readFully(std::uint8_t *buffer, std::size_t size);

    std::unique_ptr<ByteFile> file_;
    HashingByteFile *hashing_ = nullptr;
    std::size_t chunkRecords_;
    std::uint64_t count_ = 0;
    std::uint64_t read_ = 0;
    unsigned formatVersion_ = 2;
    std::uint64_t expectedChecksum_ = 0;
    std::uint64_t headerBytes_ = 0;
    util::Fnv1a checksum_;

    /** Current decode window: either into buffer_ or into a mapping. */
    const std::uint8_t *chunk_ = nullptr;
    /** Where the underlying stream's read cursor is (the reader seeks
     *  lazily, so interleaved hashing never desyncs the positions). */
    std::uint64_t filePos_ = 0;
    std::vector<std::uint8_t> buffer_;
    std::size_t bufferPos_ = 0;   // byte offset of the next record
    std::size_t bufferBytes_ = 0; // valid bytes in the chunk window
    std::size_t peakBufferBytes_ = 0;
};

/**
 * Content hash of a trace file as a 32-hex-digit string, computed by
 * streaming the raw bytes (header included) through two independently
 * seeded FNV-1a hashes — the identity external traces are cached
 * under, replacing the synthetic workloads' generator version.
 * Zero-copy when the file maps; digests are byte-identical across
 * backends (locked by tests).
 */
std::string hashTraceFile(ByteFile &file);

/** Convenience: hash the file at @p path. */
std::string hashTraceFile(const std::string &path);

} // namespace trace
} // namespace vlp

#endif // VLPSIM_TRACE_STREAMING_H
