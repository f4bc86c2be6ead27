/**
 * @file
 * Cache-key derivation implementation.
 */

#include "store/cache_key.h"

#include <charconv>
#include <cstdio>

#include "util/checksum.h"
#include "util/logging.h"

namespace vlp {
namespace store {

namespace {

/** Second FNV seed: offset basis of an unrelated stream (the basis
 *  hashed into itself), giving an independent 64-bit half. */
constexpr std::uint64_t secondSeed = 0x9ae16a3b2f90404full;

std::string
toHex(std::uint64_t value)
{
    char buffer[17];
    std::snprintf(buffer, sizeof(buffer), "%016llx",
                  static_cast<unsigned long long>(value));
    return buffer;
}

} // anonymous namespace

std::string
CacheKey::hashHex() const
{
    return toHex(high_) + toHex(low_);
}

std::string
CacheKey::relativePath() const
{
    const std::string hex = hashHex();
    return "objects/" + hex.substr(0, 2) + "/" + hex + ".vlpa";
}

KeyBuilder::KeyBuilder(const std::string &kind)
{
    field("kind", kind);
    field("version", std::uint64_t{artifactFormatVersion});
}

KeyBuilder &
KeyBuilder::field(const std::string &name, const std::string &value)
{
    if (name.find_first_of("=;") != std::string::npos
        || value.find_first_of("=;") != std::string::npos) {
        util::fatal("cache-key fields must not contain '=' or ';': "
                    + name + "=" + value);
    }
    text_ += name;
    text_ += '=';
    text_ += value;
    text_ += ';';
    return *this;
}

KeyBuilder &
KeyBuilder::field(const std::string &name, std::uint64_t value)
{
    return field(name, std::to_string(value));
}

KeyBuilder &
KeyBuilder::field(const std::string &name, bool value)
{
    return field(name, std::string(value ? "1" : "0"));
}

KeyBuilder &
KeyBuilder::field(const std::string &name, double value)
{
    // Exactly printf's "%.17g", so stored keys keep their text.
    char buffer[32];
    char *end = std::to_chars(buffer, buffer + sizeof(buffer), value,
                              std::chars_format::general, 17)
                    .ptr;
    return field(name, std::string(buffer, end));
}

CacheKey
KeyBuilder::build() const
{
    return CacheKey(text_, util::fnv1a(text_),
                    util::fnv1a(text_, secondSeed));
}

} // namespace store
} // namespace vlp
