/**
 * @file
 * HashAssignment implementation.
 */

#include "core/hash_assignment.h"

#include <algorithm>
#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string_view>
#include <vector>

#include "core/path_history.h"
#include "util/logging.h"

namespace vlp {
namespace core {

HashAssignment::HashAssignment(unsigned default_length)
    : defaultLength_(default_length)
{
    setDefaultLength(default_length);
}

unsigned
HashAssignment::lookup(std::uint64_t pc) const
{
    const auto it = table_.find(pc);
    return it == table_.end() ? defaultLength_ : it->second;
}

void
HashAssignment::assign(std::uint64_t pc, unsigned length)
{
    if (length < 1 || length > maxPathLength)
        util::fatal("hash function number out of range");
    table_[pc] = length;
}

bool
HashAssignment::contains(std::uint64_t pc) const
{
    return table_.find(pc) != table_.end();
}

void
HashAssignment::setDefaultLength(unsigned length)
{
    if (length < 1 || length > maxPathLength)
        util::fatal("default hash function number out of range");
    defaultLength_ = length;
}

util::Histogram
HashAssignment::lengthHistogram() const
{
    util::Histogram histogram(maxPathLength + 1);
    for (const auto &[pc, length] : table_) {
        (void)pc;
        histogram.add(length);
    }
    return histogram;
}

void
HashAssignment::save(const std::string &path) const
{
    std::vector<std::uint64_t> pcs;
    pcs.reserve(table_.size());
    for (const auto &[pc, length] : table_)
        pcs.push_back(pc);
    std::sort(pcs.begin(), pcs.end());

    std::FILE *file = std::fopen(path.c_str(), "w");
    if (file == nullptr)
        util::fatal("cannot create assignment file: " + path);
    bool written = std::fprintf(file, "default %u\n", defaultLength_) > 0;
    for (const std::uint64_t pc : pcs) {
        written = written
               && std::fprintf(file, "%" PRIx64 " %u\n", pc,
                               table_.at(pc))
                      > 0;
    }
    written = std::fclose(file) == 0 && written;
    if (!written)
        util::fatal("cannot write assignment file: " + path);
}

namespace {

/** The two whitespace-separated fields of @p line; false unless it has
 *  exactly two. */
bool
splitPair(const std::string &line, std::string &first, std::string &second)
{
    std::istringstream in(line);
    std::string extra;
    return static_cast<bool>(in >> first >> second) && !(in >> extra);
}

/** @p text as a number in @p base (hex may carry a 0x prefix), with
 *  no sign and nothing after it. */
bool
parseNumber(std::string_view text, int base, std::uint64_t &value)
{
    if (base == 16 && text.size() > 2 && text[0] == '0'
        && (text[1] == 'x' || text[1] == 'X'))
        text.remove_prefix(2);
    const char *end = text.data() + text.size();
    const auto [stop, error] =
        std::from_chars(text.data(), end, value, base);
    return !text.empty() && error == std::errc() && stop == end;
}

/** @p text as a hash function number (1..32). */
bool
parseLength(const std::string &text, std::uint64_t &length)
{
    return parseNumber(text, 10, length) && length >= 1
        && length <= maxPathLength;
}

} // anonymous namespace

HashAssignment
HashAssignment::load(const std::string &path)
{
    std::ifstream file(path);
    if (!file)
        util::fatal("cannot open assignment file: " + path);

    std::size_t number = 1;
    const auto malformed = [&](const std::string &why) {
        util::fatal("malformed assignment file: line "
                    + std::to_string(number) + ": " + why + " (" + path
                    + ")");
    };

    std::string line, first, second;
    std::uint64_t length = 0;
    if (!std::getline(file, line) || !splitPair(line, first, second)
        || first != "default" || !parseLength(second, length)) {
        malformed("want 'default <length>' with a length in 1..32, got '"
                  + line + "'");
    }
    HashAssignment assignment(static_cast<unsigned>(length));

    while (std::getline(file, line)) {
        ++number;
        std::uint64_t pc = 0;
        if (!splitPair(line, first, second) || !parseNumber(first, 16, pc)
            || !parseLength(second, length)) {
            malformed("want '<hex pc> <length>' with a length in 1..32, "
                      "got '" + line + "'");
        }
        if (assignment.contains(pc))
            malformed("pc " + first + " is assigned twice");
        assignment.assign(pc, static_cast<unsigned>(length));
    }
    if (file.bad())
        util::fatal("cannot read assignment file: " + path);
    return assignment;
}

} // namespace core
} // namespace vlp
