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
 * The one decoder is trace/streaming.h's StreamingTraceReader: it
 * validates the file size against the header's record count at open —
 * a truncated or torn file fails immediately with a clear error
 * instead of a partial read — and, for VBT2 files, verifies the
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

/**
 * Convenience: read an entire trace file into memory through
 * StreamingTraceReader.
 * @throws std::runtime_error on a missing, malformed or corrupt file
 */
VectorTraceSource loadTrace(const std::string &path);

/** Convenience: write an entire in-memory trace to @p path. */
void saveTrace(const VectorTraceSource &source, const std::string &path);

} // namespace trace
} // namespace vlp

#endif // VLPSIM_TRACE_TRACE_IO_H
