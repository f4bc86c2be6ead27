/**
 * @file
 * The two branch classes the paper predicts, as compile-time policies.
 *
 * The paper's conditional and indirect path predictors share one
 * hash-index machinery and differ only in the table entry: 2-bit
 * counters or 32-bit target registers (Section 3.1). Everything that
 * differs between the two classes is stated once here: the records a
 * class predicts, its table, how an entry predicts, trains and is
 * scored, and what the table costs in hardware.
 *
 * Step 1, step 2 and the comparison replay (core/replay_feed.h) use
 * the fused access(); the path predictors (core/path_predictor.h,
 * core/dynamic_path.h) and sim::Simulator use the split predict() /
 * update() / hit() of the pred:: protocol. Code is a template over a
 * policy, and withClass() picks the policy once per pass, so the
 * per-record loops stay monomorphic.
 */

#ifndef VLPSIM_CORE_BRANCH_CLASS_H
#define VLPSIM_CORE_BRANCH_CLASS_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "predictors/predictor.h"
#include "trace/branch_record.h"
#include "util/packed_counter_table.h"

namespace vlp {
namespace core {

/** Conditional branches: 2-bit counters. */
struct ConditionalClass
{
    using Table = util::PackedCounterTable;
    /** The pred:: interface of a predictor of this class. */
    using Predictor = pred::ConditionalPredictor;
    /** A predicted direction. */
    using Prediction = bool;

    static bool
    profiled(const trace::BranchRecord &record)
    {
        return record.isConditional();
    }

    /** A table of 2^@p index_bits counters, weakly not taken. */
    static Table
    table(unsigned index_bits)
    {
        return Table(std::size_t{1} << index_bits, 2);
    }

    /** Predict, then train, counter @p index: true on a hit. */
    static bool
    access(Table &table, std::size_t index,
           const trace::BranchRecord &record)
    {
        return table.predictThenUpdate(index, record.taken)
            == record.taken;
    }

    static Prediction
    predict(const Table &table, std::size_t index,
            const trace::BranchRecord &)
    {
        return table.predictTaken(index);
    }

    static void
    update(Table &table, std::size_t index,
           const trace::BranchRecord &record)
    {
        table.update(index, record.taken);
    }

    static bool
    hit(Prediction prediction, const trace::BranchRecord &record)
    {
        return prediction == record.taken;
    }

    /** Hardware cost: two bits per counter. */
    static std::size_t
    tableBytes(const Table &table)
    {
        return table.sizeBytes();
    }
};

/** Indirect branches (jumps and calls): 32-bit target registers. */
struct IndirectClass
{
    using Table = std::vector<std::uint32_t>;
    /** The pred:: interface of a predictor of this class. */
    using Predictor = pred::IndirectPredictor;
    /** A predicted target. */
    using Prediction = std::uint64_t;

    static bool
    profiled(const trace::BranchRecord &record)
    {
        return record.isIndirect();
    }

    /** A table of 2^@p index_bits zeroed target registers. */
    static Table
    table(unsigned index_bits)
    {
        return Table(std::size_t{1} << index_bits, 0);
    }

    /** Predict, then overwrite, target register @p index. */
    static bool
    access(Table &table, std::size_t index,
           const trace::BranchRecord &record)
    {
        std::uint32_t &target = table[index];
        const bool hit =
            pred::widenTarget(target, record.pc) == record.nextPc;
        target = static_cast<std::uint32_t>(record.nextPc);
        return hit;
    }

    /** The stored low 32 bits, the rest from the fetch address. */
    static Prediction
    predict(const Table &table, std::size_t index,
            const trace::BranchRecord &record)
    {
        return pred::widenTarget(table[index], record.pc);
    }

    static void
    update(Table &table, std::size_t index,
           const trace::BranchRecord &record)
    {
        table[index] = static_cast<std::uint32_t>(record.nextPc);
    }

    static bool
    hit(Prediction prediction, const trace::BranchRecord &record)
    {
        return prediction == record.nextPc;
    }

    /** Hardware cost: 32 bits per register. */
    static std::size_t
    tableBytes(const Table &table)
    {
        return table.size() * sizeof(std::uint32_t);
    }
};

/** body(policy) with the policy of the class @p indirect selects. */
template <typename Body>
decltype(auto)
withClass(bool indirect, Body &&body)
{
    if (indirect)
        return body(IndirectClass{});
    return body(ConditionalClass{});
}

} // namespace core
} // namespace vlp

#endif // VLPSIM_CORE_BRANCH_CLASS_H
