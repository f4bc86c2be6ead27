/**
 * @file
 * Deterministic random number generation for the workload generator.
 *
 * All synthetic workloads must be exactly reproducible from a seed so
 * that experiments (and tests) are deterministic across runs and
 * platforms. We therefore avoid std::mt19937 + std::distributions (whose
 * results are implementation-defined for some distributions) and
 * implement xoshiro256** plus the handful of distributions we need.
 */

#ifndef VLPSIM_UTIL_RNG_H
#define VLPSIM_UTIL_RNG_H

#include <cstdint>
#include <vector>

namespace vlp {
namespace util {

/**
 * xoshiro256** pseudo-random generator with SplitMix64 seeding.
 *
 * Fast, high-quality, and fully deterministic given a 64-bit seed.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** Next raw 64-bit value. */
    std::uint64_t next();

    /** Uniform integer in [0, bound) ; @p bound must be non-zero. */
    std::uint64_t nextBelow(std::uint64_t bound);

    /** Uniform integer in [lo, hi] inclusive. */
    std::int64_t nextInRange(std::int64_t lo, std::int64_t hi);

    /** Uniform double in [0, 1). */
    double nextDouble();

    /** Bernoulli trial: true with probability @p p. */
    bool nextBool(double p);

    /**
     * Geometric-ish trip count: 1 + number of successes before failure
     * with continuation probability @p p, capped at @p cap.
     * Used for loop trip counts with a long-ish tail.
     */
    unsigned nextGeometric(double p, unsigned cap);

    /**
     * Sample an index according to (unnormalized, non-negative) weights.
     * At least one weight must be positive.
     */
    std::size_t nextWeighted(const std::vector<double> &weights);

    /**
     * Zipf-like sample in [0, n): index i with probability proportional
     * to 1 / (i + 1)^s. Used for skewed indirect-dispatch target
     * popularity (a few targets dominate, as in real interpreters).
     */
    std::size_t nextZipf(std::size_t n, double s);

  private:
    std::uint64_t s_[4];
};

} // namespace util
} // namespace vlp

#endif // VLPSIM_UTIL_RNG_H
