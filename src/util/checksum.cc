/**
 * @file
 * FNV-1a and XXH64 implementations.
 */

#include "util/checksum.h"

#include <bit>
#include <cstring>

namespace vlp {
namespace util {

void
Fnv1a::update(const void *data, std::size_t size)
{
    const auto *bytes = static_cast<const unsigned char *>(data);
    std::uint64_t state = state_;
    for (std::size_t i = 0; i < size; ++i) {
        state ^= bytes[i];
        state *= prime;
    }
    state_ = state;
}

std::uint64_t
fnv1a(const void *data, std::size_t size, std::uint64_t seed)
{
    Fnv1a hasher(seed);
    hasher.update(data, size);
    return hasher.digest();
}

std::uint64_t
fnv1a(const std::string &text, std::uint64_t seed)
{
    return fnv1a(text.data(), text.size(), seed);
}

namespace {

constexpr std::uint64_t xxPrime1 = 0x9e3779b185ebca87ull;
constexpr std::uint64_t xxPrime2 = 0xc2b2ae3d27d4eb4full;
constexpr std::uint64_t xxPrime3 = 0x165667b19e3779f9ull;
constexpr std::uint64_t xxPrime4 = 0x85ebca77c2b2ae63ull;
constexpr std::uint64_t xxPrime5 = 0x27d4eb2f165667c5ull;

template <typename Word>
Word
loadLittle(const unsigned char *bytes)
{
    Word word = 0;
    if constexpr (std::endian::native == std::endian::little) {
        std::memcpy(&word, bytes, sizeof(word));
    } else {
        for (std::size_t i = 0; i < sizeof(word); ++i)
            word |= static_cast<Word>(bytes[i]) << (8 * i);
    }
    return word;
}

std::uint64_t
xxRound(std::uint64_t lane, std::uint64_t input)
{
    lane += input * xxPrime2;
    return std::rotl(lane, 31) * xxPrime1;
}

std::uint64_t
xxMerge(std::uint64_t hash, std::uint64_t lane)
{
    hash ^= xxRound(0, lane);
    return hash * xxPrime1 + xxPrime4;
}

} // anonymous namespace

std::uint64_t
xxh64(const void *data, std::size_t size, std::uint64_t seed)
{
    const auto *bytes = static_cast<const unsigned char *>(data);
    const unsigned char *const end = bytes + size;
    std::uint64_t hash = seed + xxPrime5;
    if (size >= 32) {
        // Four independent lanes, one 8-byte word each per stripe.
        std::uint64_t v1 = seed + xxPrime1 + xxPrime2;
        std::uint64_t v2 = seed + xxPrime2;
        std::uint64_t v3 = seed;
        std::uint64_t v4 = seed - xxPrime1;
        const unsigned char *const last_stripe = end - 32;
        do {
            v1 = xxRound(v1, loadLittle<std::uint64_t>(bytes));
            v2 = xxRound(v2, loadLittle<std::uint64_t>(bytes + 8));
            v3 = xxRound(v3, loadLittle<std::uint64_t>(bytes + 16));
            v4 = xxRound(v4, loadLittle<std::uint64_t>(bytes + 24));
            bytes += 32;
        } while (bytes <= last_stripe);
        hash = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12)
            + std::rotl(v4, 18);
        hash = xxMerge(hash, v1);
        hash = xxMerge(hash, v2);
        hash = xxMerge(hash, v3);
        hash = xxMerge(hash, v4);
    }
    hash += static_cast<std::uint64_t>(size);

    // The tail: whole words, then a half word, then single bytes.
    for (; end - bytes >= 8; bytes += 8) {
        hash ^= xxRound(0, loadLittle<std::uint64_t>(bytes));
        hash = std::rotl(hash, 27) * xxPrime1 + xxPrime4;
    }
    if (end - bytes >= 4) {
        hash ^= loadLittle<std::uint32_t>(bytes) * xxPrime1;
        hash = std::rotl(hash, 23) * xxPrime2 + xxPrime3;
        bytes += 4;
    }
    for (; bytes < end; ++bytes) {
        hash ^= *bytes * xxPrime5;
        hash = std::rotl(hash, 11) * xxPrime1;
    }

    // Avalanche.
    hash ^= hash >> 33;
    hash *= xxPrime2;
    hash ^= hash >> 29;
    hash *= xxPrime3;
    hash ^= hash >> 32;
    return hash;
}

} // namespace util
} // namespace vlp
