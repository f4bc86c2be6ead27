/**
 * @file
 * Binary serialization of profiling artifacts for the artifact store.
 *
 * Encodings are little-endian, deterministic (hash-map contents are
 * written in sorted pc order so identical artifacts always produce
 * identical bytes — a requirement for a content-checksummed store),
 * and self-contained: a Decoder throws on truncation and every
 * artifact decoder calls expectEnd(), so a payload that passed the
 * store's checksum but has the wrong shape still fails loudly and the
 * caller falls back to recomputing.
 */

#ifndef VLPSIM_STORE_SERIALIZE_H
#define VLPSIM_STORE_SERIALIZE_H

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/hash_assignment.h"
#include "core/profiler.h"
#include "sim/experiment.h"

namespace vlp {
namespace store {

/** Appends little-endian fields to a byte buffer. */
class Encoder
{
  public:
    void u32(std::uint32_t value);
    void u64(std::uint64_t value);
    /** Doubles are stored as their IEEE-754 bit pattern. */
    void f64(double value);
    /** Length-prefixed (u32) byte string. */
    void str(const std::string &value);

    const std::vector<std::uint8_t> &buffer() const { return buffer_; }
    std::vector<std::uint8_t> take() { return std::move(buffer_); }

  private:
    std::vector<std::uint8_t> buffer_;
};

/** Reads fields written by Encoder; throws on truncation. */
class Decoder
{
  public:
    explicit Decoder(const std::vector<std::uint8_t> &buffer)
        : buffer_(buffer)
    {
    }

    std::uint32_t u32();
    std::uint64_t u64();
    double f64();
    std::string str();

    /** Step over @p size bytes; throws like a read on truncation. */
    void skip(std::size_t size) { need(size); }

    /** Bytes left to read. */
    std::size_t remaining() const { return buffer_.size() - offset_; }

    /** @throws std::runtime_error if any bytes remain */
    void expectEnd() const;

  private:
    const std::uint8_t *need(std::size_t size);

    const std::vector<std::uint8_t> &buffer_;
    std::size_t offset_ = 0;
};

/**
 * Step-1 profiling result: the aggregate sweep plus the per-branch
 * records — everything restoreStep1() needs.
 *
 * decodeStep1Profile() and decodeStep1Sweep() are one decoder: both
 * read the sweep and run every structural check on the per-branch
 * section (a count the payload can hold, strictly ascending pcs, no
 * trailing bytes), so they reject exactly the same payloads.
 * decodeStep1Profile() also builds the per-branch map;
 * decodeStep1Sweep() steps over each record's counts, for callers
 * that need only the sweep (a warm globalLength()).
 */
std::vector<std::uint8_t> encodeStep1Profile(
    const core::FixedLengthSweep &sweep,
    const std::unordered_map<std::uint64_t, core::BranchProfile>
        &profiles);
void decodeStep1Profile(
    const std::vector<std::uint8_t> &payload,
    core::FixedLengthSweep &sweep,
    std::unordered_map<std::uint64_t, core::BranchProfile> &profiles);
core::FixedLengthSweep
decodeStep1Sweep(const std::vector<std::uint8_t> &payload);

/** Step-2 result: the per-branch hash-number assignment. */
std::vector<std::uint8_t>
encodeAssignment(const core::HashAssignment &assignment);
core::HashAssignment
decodeAssignment(const std::vector<std::uint8_t> &payload);

/** A full predictor-comparison row (suite benchmark result). */
std::vector<std::uint8_t>
encodeComparisonRow(const sim::ComparisonRow &row);
sim::ComparisonRow
decodeComparisonRow(const std::vector<std::uint8_t> &payload);

} // namespace store
} // namespace vlp

#endif // VLPSIM_STORE_SERIALIZE_H
