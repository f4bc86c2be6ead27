/**
 * @file
 * HFNT implementation.
 */

#include "core/hfnt.h"

#include "util/bits.h"
#include "util/logging.h"
#include "util/stats.h"

namespace vlp {
namespace core {

HashFunctionNumberTable::HashFunctionNumberTable(unsigned index_bits)
    : indexBits_(index_bits),
      table_(std::size_t{1} << index_bits, 1)
{
}

std::size_t
HashFunctionNumberTable::index(std::uint64_t pc) const
{
    return static_cast<std::size_t>(
        util::truncate(pc >> 2, indexBits_));
}

unsigned
HashFunctionNumberTable::predictNumber(std::uint64_t pc)
{
    ++lookups_;
    return table_[index(pc)];
}

void
HashFunctionNumberTable::update(std::uint64_t pc,
                                unsigned actual_number)
{
    std::uint8_t &entry = table_[index(pc)];
    if (entry != actual_number)
        ++mismatches_;
    entry = static_cast<std::uint8_t>(actual_number);
}

void
HashFunctionNumberTable::setBanks(unsigned banks)
{
    if (banks == 0 || (banks & (banks - 1)) != 0
        || banks > table_.size())
        util::fatal("HFNT bank count must be a power of two between 1 "
                    "and the entry count");
    banks_ = banks;
}

double
HashFunctionNumberTable::mismatchRate() const
{
    return util::percent(mismatches_, lookups_);
}

std::size_t
HashFunctionNumberTable::sizeBytes() const
{
    return (table_.size() * 5 + 7) / 8;
}

} // namespace core
} // namespace vlp
