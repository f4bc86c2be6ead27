/**
 * @file
 * Content checksums.
 *
 * FNV-1a is the on-disk contract of everything that hashes as it
 * streams or that older files already carry: the binary trace format
 * (its record checksum and content identity), artifact-store key
 * hashing, the checkpoint journal and chaos seeding. It mixes one byte
 * per multiply, so it runs at well under a byte per cycle.
 *
 * XXH64 checks artifact-store entries, which are verified whole on
 * every warm hit: it mixes four independent 64-bit lanes per 32-byte
 * stripe and so runs at memory speed.
 *
 * Neither is cryptographic; both detect accidental corruption —
 * truncation, bit flips, torn writes — which is the only threat model
 * a local result cache has.
 */

#ifndef VLPSIM_UTIL_CHECKSUM_H
#define VLPSIM_UTIL_CHECKSUM_H

#include <cstddef>
#include <cstdint>
#include <string>

namespace vlp {
namespace util {

/** Incremental 64-bit FNV-1a hasher. */
class Fnv1a
{
  public:
    static constexpr std::uint64_t offsetBasis =
        14695981039346656037ull;
    static constexpr std::uint64_t prime = 1099511628211ull;

    /** @param seed starting state; vary it to derive independent
     *  hashes of the same bytes (the store's 128-bit entry names). */
    explicit Fnv1a(std::uint64_t seed = offsetBasis) : state_(seed) {}

    /** Mix @p size bytes at @p data into the running hash. */
    void update(const void *data, std::size_t size);

    /** Current hash of everything fed so far. */
    std::uint64_t digest() const { return state_; }

    /** Reset to @p seed as if freshly constructed. */
    void reset(std::uint64_t seed = offsetBasis) { state_ = seed; }

  private:
    std::uint64_t state_;
};

/** One-shot hash of a byte range. */
std::uint64_t fnv1a(const void *data, std::size_t size,
                    std::uint64_t seed = Fnv1a::offsetBasis);

/** One-shot hash of a string's bytes. */
std::uint64_t fnv1a(const std::string &text,
                    std::uint64_t seed = Fnv1a::offsetBasis);

/**
 * One-shot XXH64 of a byte range: the published four-lane construction
 * over little-endian 64-bit words, so the value is the same on every
 * host and matches the reference implementation for any @p seed.
 */
std::uint64_t xxh64(const void *data, std::size_t size,
                    std::uint64_t seed = 0);

} // namespace util
} // namespace vlp

#endif // VLPSIM_UTIL_CHECKSUM_H
