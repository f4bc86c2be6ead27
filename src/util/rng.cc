/**
 * @file
 * xoshiro256** implementation and derived distributions.
 */

#include "util/rng.h"

#include <cassert>
#include <cmath>

namespace vlp {
namespace util {

namespace {

/** SplitMix64 step, used to expand a 64-bit seed into generator state. */
std::uint64_t
splitMix64(std::uint64_t &state)
{
    state += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::uint64_t
rotl64(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // anonymous namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t state = seed;
    for (auto &word : s_)
        word = splitMix64(state);
}

std::uint64_t
Rng::next()
{
    const std::uint64_t result = rotl64(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;

    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl64(s_[3], 45);

    return result;
}

std::uint64_t
Rng::nextBelow(std::uint64_t bound)
{
    assert(bound != 0);
    // Debiased modulo via rejection sampling on the top of the range.
    const std::uint64_t threshold = -bound % bound;
    for (;;) {
        std::uint64_t r = next();
        if (r >= threshold)
            return r % bound;
    }
}

std::int64_t
Rng::nextInRange(std::int64_t lo, std::int64_t hi)
{
    assert(lo <= hi);
    const std::uint64_t span =
        static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
    return lo + static_cast<std::int64_t>(nextBelow(span));
}

double
Rng::nextDouble()
{
    // 53 high bits -> [0, 1) with full double precision.
    return (next() >> 11) * 0x1.0p-53;
}

bool
Rng::nextBool(double p)
{
    if (p <= 0.0)
        return false;
    if (p >= 1.0)
        return true;
    return nextDouble() < p;
}

unsigned
Rng::nextGeometric(double p, unsigned cap)
{
    assert(cap >= 1);
    unsigned count = 1;
    while (count < cap && nextBool(p))
        ++count;
    return count;
}

std::size_t
Rng::nextWeighted(const std::vector<double> &weights)
{
    double total = 0.0;
    for (double w : weights) {
        assert(w >= 0.0);
        total += w;
    }
    assert(total > 0.0);
    double point = nextDouble() * total;
    for (std::size_t i = 0; i < weights.size(); ++i) {
        point -= weights[i];
        if (point < 0.0)
            return i;
    }
    return weights.size() - 1;
}

std::size_t
Rng::nextZipf(std::size_t n, double s)
{
    assert(n >= 1);
    // Direct inversion on the (small-n) CDF; n is at most a few hundred
    // for our dispatch tables, so the O(n) loop is fine.
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i)
        total += 1.0 / std::pow(static_cast<double>(i + 1), s);
    double point = nextDouble() * total;
    for (std::size_t i = 0; i < n; ++i) {
        point -= 1.0 / std::pow(static_cast<double>(i + 1), s);
        if (point < 0.0)
            return i;
    }
    return n - 1;
}

} // namespace util
} // namespace vlp
