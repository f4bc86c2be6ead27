/**
 * @file
 * The paper's predictors: fixed length path (FLP) and variable length
 * path (VLP), for conditional and for indirect branches.
 *
 * Both share the same machinery — a PathIndexBank producing indices
 * I_1..I_N and one predictor table — and differ only in how the hash
 * function number is chosen per branch: a single global number for FLP
 * (the "default value" of Section 3.4), a profiled per-branch number
 * (a HashAssignment) for VLP. The branch class (core/branch_class.h)
 * supplies the table: 2-bit saturating up/down counters for
 * conditional branches, target registers holding the 32 low-order bits
 * of the last target written for indirect ones (Section 3.1 and the
 * footnote in 5.2.2).
 */

#ifndef VLPSIM_CORE_PATH_PREDICTOR_H
#define VLPSIM_CORE_PATH_PREDICTOR_H

#include "core/branch_class.h"
#include "core/hash_assignment.h"
#include "core/path_history.h"
#include "predictors/predictor.h"

namespace vlp {
namespace core {

/** Path-based predictor of the branch class @p Class. */
template <typename Class>
class PathPredictor : public Class::Predictor
{
  public:
    /**
     * Fixed length path predictor: every branch uses @p fixed_length.
     */
    PathPredictor(unsigned index_bits, unsigned fixed_length,
                  PathHistoryOptions options = {});

    /**
     * Variable length path predictor: per-branch lengths from
     * @p assignment (profiled), default for unassigned branches.
     */
    PathPredictor(unsigned index_bits, HashAssignment assignment,
                  PathHistoryOptions options = {});

    typename Class::Prediction
    predict(const trace::BranchRecord &branch) override;

    void update(const trace::BranchRecord &branch) override;

    void observe(const trace::BranchRecord &record) override;

    /**
     * Model the table as @p banks independent single-ported banks
     * (bank = low table-index bits) for the fetch-bundle front end.
     * Power of two between 1 and the table size; 0 restores the
     * unbanked (ideally multiported) default.
     */
    void setBanks(unsigned banks);

    unsigned bankCount() const override { return banks_; }

    unsigned bankOf(const trace::BranchRecord &record) const override;

    std::string name() const override;

    std::size_t sizeBytes() const override;

    /** The hash-number assignment in force. */
    const HashAssignment &assignment() const { return assignment_; }

    /** The shared first-level history (exposed for tests/profiling). */
    const PathIndexBank &bank() const { return bank_; }

  private:
    std::size_t tableIndex(std::uint64_t pc) const;

    PathIndexBank bank_;
    HashAssignment assignment_;
    bool variable_;
    typename Class::Table table_;
    unsigned banks_ = 0;
};

extern template class PathPredictor<ConditionalClass>;
extern template class PathPredictor<IndirectClass>;

using PathConditionalPredictor = PathPredictor<ConditionalClass>;
using PathIndirectPredictor = PathPredictor<IndirectClass>;

} // namespace core
} // namespace vlp

#endif // VLPSIM_CORE_PATH_PREDICTOR_H
