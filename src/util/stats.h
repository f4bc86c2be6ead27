/**
 * @file
 * Small statistics helpers: ratios, formatting, histograms.
 */

#ifndef VLPSIM_UTIL_STATS_H
#define VLPSIM_UTIL_STATS_H

#include <cstdint>
#include <string>
#include <vector>

namespace vlp {
namespace util {

/** Percentage of @p numer over @p denom; 0 when the denominator is 0. */
double percent(std::uint64_t numer, std::uint64_t denom);

/** Format a double with @p decimals digits after the point. */
std::string formatDouble(double value, int decimals);

/** Format a count with thousands separators ("27,600,000"). */
std::string formatCount(std::uint64_t value);

/**
 * Format a count the way the paper's Table 1 does: "17.6 M", "91.4 K",
 * or the raw number below 1000.
 */
std::string formatScaled(std::uint64_t value);

/**
 * Fixed-bucket histogram over small unsigned values (e.g. selected hash
 * function numbers 1..32, loop trip counts). Values beyond the last
 * bucket are clamped into it.
 */
class Histogram
{
  public:
    /** @param buckets number of buckets; bucket i counts value i */
    explicit Histogram(std::size_t buckets);

    /** Record one sample of @p value. */
    void add(std::size_t value, std::uint64_t weight = 1);

    /** Count in bucket @p value. Test seam: tests read the hash-number
     *  assignment's lengthHistogram() through it, the distribution
     *  `vlpsim profile` and the examples print. */
    std::uint64_t bucket(std::size_t value) const;

    /** Total weight recorded. */
    std::uint64_t total() const { return total_; }

    /** Number of buckets. */
    std::size_t size() const { return counts_.size(); }

    /** Render as "v0:c0 v1:c1 ..." skipping empty buckets. */
    std::string toString() const;

  private:
    std::vector<std::uint64_t> counts_;
    std::uint64_t total_ = 0;
};

} // namespace util
} // namespace vlp

#endif // VLPSIM_UTIL_STATS_H
