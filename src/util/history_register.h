/**
 * @file
 * Shift-register style branch history registers.
 *
 * Two flavours are provided:
 *  - BitHistoryRegister: the classic k-bit pattern history register of
 *    two-level predictors (taken/not-taken outcomes shifted in one bit at
 *    a time), also used by the Chang-Hao-Patt pattern-based target cache.
 *  - ChunkHistoryRegister: a register into which q bits of each branch
 *    target address are shifted (Nair-style path history), used by the
 *    Chang-Hao-Patt path-based target cache.
 */

#ifndef VLPSIM_UTIL_HISTORY_REGISTER_H
#define VLPSIM_UTIL_HISTORY_REGISTER_H

#include <cassert>
#include <cstdint>

#include "util/bits.h"

namespace vlp {
namespace util {

/** A k-bit shift register recording one outcome bit per branch. */
class BitHistoryRegister
{
  public:
    /** @param width register width in bits, 1..64 */
    explicit BitHistoryRegister(unsigned width)
        : width_(width), value_(0)
    {
        assert(width >= 1 && width <= 64);
    }

    /** Shift the outcome of the most recent branch into the low bit. */
    void
    push(bool taken)
    {
        value_ = truncate((value_ << 1) | (taken ? 1 : 0), width_);
    }

    /** Current history pattern. */
    std::uint64_t value() const { return value_; }

    /** Register width in bits. */
    unsigned width() const { return width_; }

    /** Clear all recorded history. */
    void clear() { value_ = 0; }

    /** Force the pattern (truncated to the register width). */
    void
    set(std::uint64_t value)
    {
        value_ = truncate(value, width_);
    }

  private:
    unsigned width_;
    std::uint64_t value_;
};

/**
 * A k-bit shift register recording q bits of each branch target address
 * (Nair's path history encoding). The register can represent the path,
 * albeit imperfectly: only floor(k/q) branches are captured.
 */
class ChunkHistoryRegister
{
  public:
    /**
     * @param width     register width in bits, 1..64
     * @param chunkBits bits of each target address shifted in, 1..width
     */
    ChunkHistoryRegister(unsigned width, unsigned chunkBits)
        : width_(width), chunkBits_(chunkBits), value_(0)
    {
        assert(width >= 1 && width <= 64);
        assert(chunkBits >= 1 && chunkBits <= width);
    }

    /** Shift the low chunkBits of @p target into the register. */
    void
    push(std::uint64_t target)
    {
        value_ = truncate((value_ << chunkBits_)
                          | truncate(target, chunkBits_), width_);
    }

    /** Current history pattern. */
    std::uint64_t value() const { return value_; }

    /** Register width in bits. */
    unsigned width() const { return width_; }

    /** Bits recorded per target address. */
    unsigned chunkBits() const { return chunkBits_; }

    /** Number of distinct branches representable in the register. */
    unsigned depth() const { return width_ / chunkBits_; }

    /** Clear all recorded history. */
    void clear() { value_ = 0; }

  private:
    unsigned width_;
    unsigned chunkBits_;
    std::uint64_t value_;
};

} // namespace util
} // namespace vlp

#endif // VLPSIM_UTIL_HISTORY_REGISTER_H
