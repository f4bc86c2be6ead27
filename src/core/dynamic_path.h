/**
 * @file
 * Hardware-selected variable length path prediction — the paper's
 * Section 3.4 alternative to profiling: "storage structures are added
 * to the branch predictor that record how accurately the hash
 * functions have predicted each past branch... the hardware uses the
 * information to dynamically select the hash function that has
 * provided the highest accuracy in the past."
 *
 * The paper only evaluates the profiled selector; this implementation
 * lets the repository measure the trade the paper describes
 * qualitatively: dynamic selection needs no ISA or profiling support
 * but spends die area on score tables and trains more slowly.
 *
 * Organization: a per-branch-set score table (indexed by low PC bits)
 * holds one small saturating score per candidate hash function.
 * Predictions use the candidate with the highest score; at update,
 * every candidate's would-be prediction is scored against the outcome
 * and every candidate's predictor-table entry is trained. The branch
 * class (core/branch_class.h) supplies the predictor table.
 */

#ifndef VLPSIM_CORE_DYNAMIC_PATH_H
#define VLPSIM_CORE_DYNAMIC_PATH_H

#include <type_traits>
#include <vector>

#include "core/branch_class.h"
#include "core/path_history.h"
#include "predictors/predictor.h"
#include "util/packed_counter_table.h"

namespace vlp {
namespace core {

/** VLP of the branch class @p Class with score-table length selection. */
template <typename Class>
class DynamicPathPredictor : public Class::Predictor
{
  public:
    /** log2 of the score-table size (the branch sets scored apart). */
    static constexpr unsigned scoreIndexBits =
        std::is_same_v<Class, IndirectClass> ? 8 : 10;

    /** Width of each score counter. */
    static constexpr unsigned scoreBits = 4;

    /**
     * @param index_bits log2 of the predictor-table size
     * @param candidates hash function numbers the hardware implements
     *        and scores (default {1,2,4,8,16,32}, the subset Section
     *        3.1 suggests)
     */
    explicit DynamicPathPredictor(
        unsigned index_bits,
        std::vector<unsigned> candidates = {1, 2, 4, 8, 16, 32});

    typename Class::Prediction
    predict(const trace::BranchRecord &branch) override;

    void update(const trace::BranchRecord &branch) override;

    void observe(const trace::BranchRecord &record) override;

    std::string name() const override
    {
        return "dynamic variable length path";
    }

    /** The predictor table plus the score table. */
    std::size_t sizeBytes() const override;

    /** Selected candidate index for @p pc (for tests). */
    std::size_t selectedCandidate(std::uint64_t pc) const;

    /** Candidate hash function numbers. */
    const std::vector<unsigned> &candidates() const
    {
        return candidates_;
    }

  private:
    std::size_t scoreIndex(std::uint64_t pc) const;

    PathIndexBank bank_;
    std::vector<unsigned> candidates_;
    typename Class::Table table_;
    /** Entry slot * candidates + c: the accuracy score of candidate c
     *  for branch set slot. */
    util::PackedCounterTable scores_;
};

extern template class DynamicPathPredictor<ConditionalClass>;
extern template class DynamicPathPredictor<IndirectClass>;

using DynamicPathConditionalPredictor =
    DynamicPathPredictor<ConditionalClass>;
using DynamicPathIndirectPredictor = DynamicPathPredictor<IndirectClass>;

} // namespace core
} // namespace vlp

#endif // VLPSIM_CORE_DYNAMIC_PATH_H
