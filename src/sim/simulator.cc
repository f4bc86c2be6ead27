/**
 * @file
 * Simulator implementation.
 */

#include "sim/simulator.h"

#include <cassert>

#include "core/branch_class.h"
#include "util/stats.h"

namespace vlp {
namespace sim {

double
PredictorResult::rate() const
{
    return util::percent(mispredictions, branches);
}

namespace {

/**
 * Predict and train each of @p registered, the predictors of the class
 * @p Class, on @p record.
 */
template <typename Class, typename Registered>
void
step(std::vector<Registered> &registered, const trace::BranchRecord &record,
     bool track_per_branch)
{
    for (Registered &entry : registered) {
        const bool miss =
            !Class::hit(entry.predictor->predict(record), record);
        ++entry.branches;
        entry.mispredictions += miss ? 1 : 0;
        if (track_per_branch) {
            BranchAccuracy &accuracy = entry.perBranch[record.pc];
            ++accuracy.executions;
            accuracy.mispredictions += miss ? 1 : 0;
        }
        entry.predictor->update(record);
    }
}

template <typename Registered>
std::vector<PredictorResult>
results(const std::vector<Registered> &registered)
{
    std::vector<PredictorResult> results;
    for (const Registered &entry : registered) {
        PredictorResult result;
        result.name = entry.predictor->name();
        result.sizeBytes = entry.predictor->sizeBytes();
        result.branches = entry.branches;
        result.mispredictions = entry.mispredictions;
        results.push_back(std::move(result));
    }
    return results;
}

template <typename Registered>
const std::unordered_map<std::uint64_t, BranchAccuracy> &
perBranch(const std::vector<Registered> &registered, std::size_t index)
{
    assert(index < registered.size());
    return registered[index].perBranch;
}

} // anonymous namespace

void
Simulator::addConditional(pred::ConditionalPredictor *predictor)
{
    assert(predictor != nullptr);
    conditional_.emplace_back(predictor);
}

void
Simulator::addIndirect(pred::IndirectPredictor *predictor)
{
    assert(predictor != nullptr);
    indirect_.emplace_back(predictor);
}

void
Simulator::run(trace::TraceSource &source)
{
    trace::BranchRecord record;
    while (source.next(record)) {
        if (core::ConditionalClass::profiled(record)) {
            step<core::ConditionalClass>(conditional_, record,
                                         trackPerBranch_);
        } else if (core::IndirectClass::profiled(record)) {
            step<core::IndirectClass>(indirect_, record, trackPerBranch_);
        } else if (record.isReturn()) {
            ++returns_;
            if (ras_.predictAndPop() != record.nextPc)
                ++returnMisses_;
        }

        if (record.isCall())
            ras_.push(record.pc + trace::instructionBytes);

        for (const auto &entry : conditional_)
            entry.predictor->observe(record);
        for (const auto &entry : indirect_)
            entry.predictor->observe(record);
    }
}

std::vector<PredictorResult>
Simulator::conditionalResults() const
{
    return results(conditional_);
}

std::vector<PredictorResult>
Simulator::indirectResults() const
{
    return results(indirect_);
}

PredictorResult
Simulator::rasResult() const
{
    PredictorResult result;
    result.name = "return address stack";
    result.sizeBytes = ras_.sizeBytes();
    result.branches = returns_;
    result.mispredictions = returnMisses_;
    return result;
}

const std::unordered_map<std::uint64_t, BranchAccuracy> &
Simulator::conditionalPerBranch(std::size_t index) const
{
    return perBranch(conditional_, index);
}

const std::unordered_map<std::uint64_t, BranchAccuracy> &
Simulator::indirectPerBranch(std::size_t index) const
{
    return perBranch(indirect_, index);
}

} // namespace sim
} // namespace vlp
