/**
 * @file
 * Binary trace file format (.vbt — "vlpsim branch trace").
 *
 * Current layout (little-endian), version 2:
 *   bytes 0..3    magic "VBT2"
 *   bytes 4..11   record count (uint64)
 *   bytes 12..19  FNV-1a checksum of all record bytes (uint64)
 *   then, per record:
 *     uint8  kind        (BranchKind)
 *     uint8  taken       (0 or 1)
 *     uint64 pc
 *     uint64 nextPc
 *
 * Version-1 files ("VBT1" magic, no checksum field) are still read.
 * The reader validates the file size against the header's record count
 * at open — a truncated or torn file fails immediately with a clear
 * error instead of a partial read — and, for VBT2 files, verifies the
 * checksum at the end of the stream (once the last record has been
 * consumed, or on the first next() of an empty trace), so bit flips
 * anywhere in the record stream or its checksum are detected.
 *
 * The format is deliberately trivial so that external traces (e.g.
 * branch streams extracted from ChampSim-style instruction traces) can
 * be converted with a few lines of code; see examples/custom_trace.cpp.
 */

#ifndef VLPSIM_TRACE_TRACE_IO_H
#define VLPSIM_TRACE_TRACE_IO_H

#include <cstdint>
#include <cstdio>
#include <string>

#include "trace/branch_record.h"
#include "trace/trace_source.h"
#include "util/checksum.h"

namespace vlp {
namespace trace {

/** Writes .vbt trace files (always the current VBT2 format). */
class TraceWriter
{
  public:
    /**
     * Open @p path for writing and emit the header.
     * @throws std::runtime_error if the file cannot be created
     */
    explicit TraceWriter(const std::string &path);

    /** Finalizes the record count and checksum in the header. */
    ~TraceWriter();

    TraceWriter(const TraceWriter &) = delete;
    TraceWriter &operator=(const TraceWriter &) = delete;

    /** Append one record. */
    void write(const BranchRecord &record);

    /** Records written so far. */
    std::uint64_t count() const { return count_; }

    /** Flush and close; called by the destructor if not done
     * explicitly. */
    void close();

  private:
    std::FILE *file_ = nullptr;
    std::uint64_t count_ = 0;
    util::Fnv1a checksum_;
};

/** Reads .vbt trace files as a TraceSource. */
class TraceReader : public TraceSource
{
  public:
    /**
     * Open @p path and validate the header, including that the file
     * holds exactly the record bytes the header promises.
     * @throws std::runtime_error on missing file, bad magic, or a
     *         truncated/oversized record stream
     */
    explicit TraceReader(const std::string &path);

    ~TraceReader() override;

    TraceReader(const TraceReader &) = delete;
    TraceReader &operator=(const TraceReader &) = delete;

    /**
     * @throws std::runtime_error on a corrupt record, or — at the end
     *         of a VBT2 stream — on a checksum mismatch
     */
    bool next(BranchRecord &record) override;

    void reset() override;

    /** Total records according to the header. */
    std::uint64_t count() const { return count_; }

    /**
     * The file's .vbt format version: 1 (VBT1, no checksum field —
     * the record stream starts right after the count, and corruption
     * inside records goes undetected) or 2 (VBT2, checksummed).
     * Callers ingesting third-party traces warn on version 1.
     */
    unsigned formatVersion() const { return hasChecksum_ ? 2u : 1u; }

  private:
    std::FILE *file_ = nullptr;
    std::uint64_t count_ = 0;
    std::uint64_t read_ = 0;
    /** Expected record-stream checksum; 0 for VBT1 (not verified). */
    std::uint64_t expectedChecksum_ = 0;
    bool hasChecksum_ = false;
    long headerBytes_ = 0;
    util::Fnv1a checksum_;
};

/** Convenience: read an entire trace file into memory. */
VectorTraceSource loadTrace(const std::string &path);

/** Convenience: write an entire in-memory trace to @p path. */
void saveTrace(const VectorTraceSource &source, const std::string &path);

} // namespace trace
} // namespace vlp

#endif // VLPSIM_TRACE_TRACE_IO_H
