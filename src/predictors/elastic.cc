/**
 * @file
 * Elastic-history gshare implementation.
 */

#include "predictors/elastic.h"

#include "util/bits.h"

namespace vlp {
namespace pred {

ElasticGsharePredictor::ElasticGsharePredictor(
        unsigned index_bits, PatternLengthAssignment assignment)
    : indexBits_(index_bits),
      assignment_(std::move(assignment)),
      history_(index_bits),
      table_(std::size_t{1} << index_bits, util::SaturatingCounter(2))
{
}

std::size_t
ElasticGsharePredictor::index(std::uint64_t pc) const
{
    unsigned length = assignment_.lookup(pc);
    if (length > indexBits_)
        length = indexBits_;
    const std::uint64_t address = util::xorFold(pc >> 2, indexBits_);
    const std::uint64_t used =
        length == 0 ? 0 : util::truncate(history_.value(), length);
    return static_cast<std::size_t>(
        util::truncate(address ^ used, indexBits_));
}

bool
ElasticGsharePredictor::predict(const trace::BranchRecord &branch)
{
    return table_[index(branch.pc)].predictTaken();
}

void
ElasticGsharePredictor::update(const trace::BranchRecord &branch)
{
    table_[index(branch.pc)].update(branch.taken);
}

void
ElasticGsharePredictor::observe(const trace::BranchRecord &record)
{
    if (record.isConditional())
        history_.push(record.taken);
}

std::size_t
ElasticGsharePredictor::sizeBytes() const
{
    return table_.size() / 4;
}

ElasticProfiler::ElasticProfiler(unsigned index_bits)
    : indexBits_(index_bits)
{
}

PatternLengthAssignment
ElasticProfiler::profile(trace::TraceSource &profile_trace)
{
    const unsigned num_lengths = indexBits_ + 1; // lengths 0..k
    const std::size_t table_size = std::size_t{1} << indexBits_;

    std::vector<std::vector<util::SaturatingCounter>> tables(
        num_lengths,
        std::vector<util::SaturatingCounter>(
            table_size, util::SaturatingCounter(2)));
    std::unordered_map<std::uint64_t, std::vector<std::uint32_t>>
        corrects;
    std::vector<std::uint64_t> total_correct(num_lengths, 0);

    util::BitHistoryRegister history(indexBits_);

    profile_trace.reset();
    trace::BranchRecord record;
    while (profile_trace.next(record)) {
        if (!record.isConditional())
            continue;
        const std::uint64_t address =
            util::xorFold(record.pc >> 2, indexBits_);
        auto &per_branch = corrects[record.pc];
        if (per_branch.empty())
            per_branch.assign(num_lengths, 0);
        for (unsigned length = 0; length < num_lengths; ++length) {
            const std::uint64_t used =
                length == 0
                    ? 0
                    : util::truncate(history.value(), length);
            const std::size_t idx = static_cast<std::size_t>(
                util::truncate(address ^ used, indexBits_));
            util::SaturatingCounter &counter = tables[length][idx];
            if (counter.predictTaken() == record.taken) {
                ++per_branch[length];
                ++total_correct[length];
            }
            counter.update(record.taken);
        }
        history.push(record.taken);
    }

    PatternLengthAssignment assignment;
    unsigned best_global = 0;
    for (unsigned length = 1; length < num_lengths; ++length) {
        if (total_correct[length] > total_correct[best_global])
            best_global = length;
    }
    assignment.defaultLength = best_global;
    for (const auto &[pc, per_branch] : corrects) {
        unsigned best = 0;
        for (unsigned length = 1; length < num_lengths; ++length) {
            if (per_branch[length] > per_branch[best])
                best = length;
        }
        assignment.lengths[pc] = best;
    }
    return assignment;
}

} // namespace pred
} // namespace vlp
