/**
 * @file
 * Saturating up/down counters.
 *
 * The paper's conditional predictor tables are arrays of 2-bit saturating
 * up/down counters: incremented when the branch is taken, decremented when
 * not taken, predicting taken when the value is >= 2 (Section 3.1).
 */

#ifndef VLPSIM_UTIL_SATURATING_COUNTER_H
#define VLPSIM_UTIL_SATURATING_COUNTER_H

#include <cassert>
#include <cstdint>

namespace vlp {
namespace util {

/**
 * An n-bit saturating up/down counter.
 *
 * The counter saturates at 0 and 2^bits - 1. The taken threshold is the
 * midpoint 2^(bits-1), so for the 2-bit counters used throughout the
 * paper a value >= 2 predicts taken.
 */
class SaturatingCounter
{
  public:
    /**
     * @param bits    counter width in bits (1..8)
     * @param initial initial counter value; defaults to the weakly
     *                not-taken state (midpoint - 1)
     */
    explicit SaturatingCounter(unsigned bits = 2, int initial = -1)
        : maxValue_((1u << bits) - 1),
          threshold_(1u << (bits - 1)),
          value_(initial < 0 ? threshold_ - 1
                             : static_cast<unsigned>(initial))
    {
        assert(bits >= 1 && bits <= 8);
        assert(value_ <= maxValue_);
    }

    /** Increment, saturating at the maximum value. */
    void
    increment()
    {
        if (value_ < maxValue_)
            ++value_;
    }

    /** Decrement, saturating at zero. */
    void
    decrement()
    {
        if (value_ > 0)
            --value_;
    }

    /** Update toward @p taken (increment if taken, else decrement). */
    void
    update(bool taken)
    {
        if (taken)
            increment();
        else
            decrement();
    }

    /** Predicted direction: taken iff the value is at or above midpoint. */
    bool predictTaken() const { return value_ >= threshold_; }

    /**
     * Confidence in the current prediction: distance from the decision
     * boundary, 0 (weak) .. threshold-? For 2-bit counters this is 0 for
     * the weak states and 1 for the strong states.
     */
    unsigned
    confidence() const
    {
        return predictTaken() ? value_ - threshold_
                              : threshold_ - 1 - value_;
    }

    /** Raw counter value. */
    unsigned value() const { return value_; }

    /** Force the raw counter value (used by tests). */
    void
    set(unsigned value)
    {
        assert(value <= maxValue_);
        value_ = value;
    }

    /** Maximum (saturated) value. */
    unsigned maxValue() const { return maxValue_; }

  private:
    unsigned maxValue_;
    unsigned threshold_;
    unsigned value_;
};

} // namespace util
} // namespace vlp

#endif // VLPSIM_UTIL_SATURATING_COUNTER_H
