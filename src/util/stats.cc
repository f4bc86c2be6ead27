/**
 * @file
 * Statistics helper implementations.
 */

#include "util/stats.h"

#include <algorithm>
#include <cassert>
#include <charconv>
#include <sstream>

namespace vlp {
namespace util {

double
percent(std::uint64_t numer, std::uint64_t denom)
{
    if (denom == 0)
        return 0.0;
    return 100.0 * static_cast<double>(numer) / static_cast<double>(denom);
}

std::string
formatDouble(double value, int decimals)
{
    // Exactly printf's "%.*f" (to_chars' fixed form is defined by it).
    char buffer[64];
    const auto fits = std::to_chars(buffer, buffer + sizeof(buffer),
                                    value, std::chars_format::fixed,
                                    decimals);
    if (fits.ec == std::errc())
        return std::string(buffer, fits.ptr);
    // Past 64 characters: up to 309 integer digits, then the decimals
    // (a negative count means printf's default of 6).
    std::string wide(320 + static_cast<std::size_t>(std::max(decimals, 6)),
                     '\0');
    const auto result =
        std::to_chars(wide.data(), wide.data() + wide.size(), value,
                      std::chars_format::fixed, decimals);
    wide.resize(static_cast<std::size_t>(result.ptr - wide.data()));
    return wide;
}

std::string
formatCount(std::uint64_t value)
{
    std::string digits = std::to_string(value);
    std::string result;
    int position = 0;
    for (auto it = digits.rbegin(); it != digits.rend(); ++it) {
        if (position != 0 && position % 3 == 0)
            result.push_back(',');
        result.push_back(*it);
        ++position;
    }
    std::reverse(result.begin(), result.end());
    return result;
}

std::string
formatScaled(std::uint64_t value)
{
    // Mirror the paper's Table 1 style: two significant decimals below
    // 10 units, one from 10 up ("2.27 M", "17.6 M", "91.4 K").
    if (value >= 1000000)
        return formatDouble(value / 1.0e6, value >= 10000000 ? 1 : 2)
             + " M";
    if (value >= 1000)
        return formatDouble(value / 1.0e3, value >= 10000 ? 1 : 2)
             + " K";
    return std::to_string(value);
}

Histogram::Histogram(std::size_t buckets)
    : counts_(buckets, 0)
{
    assert(buckets >= 1);
}

void
Histogram::add(std::size_t value, std::uint64_t weight)
{
    if (value >= counts_.size())
        value = counts_.size() - 1;
    counts_[value] += weight;
    total_ += weight;
}

std::uint64_t
Histogram::bucket(std::size_t value) const
{
    assert(value < counts_.size());
    return counts_[value];
}

std::string
Histogram::toString() const
{
    std::ostringstream out;
    bool first = true;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
        if (counts_[i] == 0)
            continue;
        if (!first)
            out << ' ';
        out << i << ':' << counts_[i];
        first = false;
    }
    return out.str();
}

} // namespace util
} // namespace vlp
