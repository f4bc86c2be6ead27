/**
 * @file
 * FLP/VLP predictor implementation.
 */

#include "core/path_predictor.h"

#include <utility>

#include "util/logging.h"

namespace vlp {
namespace core {

template <typename Class>
PathPredictor<Class>::PathPredictor(unsigned index_bits,
                                    unsigned fixed_length,
                                    PathHistoryOptions options)
    : bank_(index_bits, options),
      assignment_(fixed_length),
      variable_(false),
      table_(Class::table(index_bits))
{
}

template <typename Class>
PathPredictor<Class>::PathPredictor(unsigned index_bits,
                                    HashAssignment assignment,
                                    PathHistoryOptions options)
    : bank_(index_bits, options),
      assignment_(std::move(assignment)),
      variable_(true),
      table_(Class::table(index_bits))
{
}

template <typename Class>
std::size_t
PathPredictor<Class>::tableIndex(std::uint64_t pc) const
{
    unsigned length = assignment_.lookup(pc);
    if (length > bank_.depth())
        length = bank_.depth();
    return static_cast<std::size_t>(bank_.index(length));
}

template <typename Class>
typename Class::Prediction
PathPredictor<Class>::predict(const trace::BranchRecord &branch)
{
    return Class::predict(table_, tableIndex(branch.pc), branch);
}

template <typename Class>
void
PathPredictor<Class>::update(const trace::BranchRecord &branch)
{
    Class::update(table_, tableIndex(branch.pc), branch);
}

template <typename Class>
void
PathPredictor<Class>::observe(const trace::BranchRecord &record)
{
    bank_.observe(record);
}

template <typename Class>
void
PathPredictor<Class>::setBanks(unsigned banks)
{
    if (banks != 0
        && ((banks & (banks - 1)) != 0 || banks > table_.size()))
        util::fatal("predictor bank count must be 0 or a power of two "
                    "no larger than the table size");
    banks_ = banks;
}

template <typename Class>
unsigned
PathPredictor<Class>::bankOf(const trace::BranchRecord &record) const
{
    return banks_ == 0
        ? 0
        : static_cast<unsigned>(tableIndex(record.pc)) & (banks_ - 1);
}

template <typename Class>
std::string
PathPredictor<Class>::name() const
{
    return variable_ ? "variable length path" : "fixed length path";
}

template <typename Class>
std::size_t
PathPredictor<Class>::sizeBytes() const
{
    return Class::tableBytes(table_);
}

template class PathPredictor<ConditionalClass>;
template class PathPredictor<IndirectClass>;

} // namespace core
} // namespace vlp
