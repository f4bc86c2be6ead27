/**
 * @file
 * FetchEngine and closed-form timing implementation.
 *
 * Bit-identity with the Simulator rests on one rule: per predictor,
 * every record is handled predict → update → observe in trace order.
 * Bundle formation reads predictor state (bankOf) but never writes
 * it, so timing and accuracy are fully decoupled.
 */

#include "sim/frontend.h"

#include <algorithm>
#include <cassert>

#include "util/logging.h"

namespace vlp {
namespace sim {

namespace {

bool
contains(const std::vector<unsigned> &banks, unsigned bank)
{
    return std::find(banks.begin(), banks.end(), bank) != banks.end();
}

} // anonymous namespace

double
FrontendResult::totalCycles() const
{
    return baseCycles + mispredictCycles + repredictCycles;
}

double
FrontendResult::ipc(double instructions) const
{
    const double cycles = totalCycles();
    // Negated comparisons so NaN inputs also take the zero path.
    if (!(cycles > 0.0) || !(instructions > 0.0))
        return 0.0;
    return instructions / cycles;
}

double
FrontendResult::branchesPerCycle() const
{
    const double cycles = totalCycles();
    if (!(cycles > 0.0) || branches == 0)
        return 0.0;
    return static_cast<double>(branches) / cycles;
}

FrontendResult
estimateTiming(const TimingParameters &parameters,
               std::uint64_t branches, std::uint64_t mispredictions,
               std::uint64_t repredict_events)
{
    FrontendResult estimate;
    estimate.branches = branches;
    estimate.mispredictions = mispredictions;
    estimate.repredictEvents = repredict_events;
    // Explicit zero-result semantics: an empty stream or a degenerate
    // (zero, negative, or NaN) fetch width estimates zero cycles
    // rather than dividing. The negated comparison keeps NaN on the
    // zero path.
    if (branches == 0 || !(parameters.fetchWidth > 0.0))
        return estimate;
    const double instructions =
        static_cast<double>(branches) * parameters.instructionsPerBranch;
    estimate.baseCycles = instructions / parameters.fetchWidth;
    estimate.mispredictCycles = static_cast<double>(mispredictions)
        * parameters.mispredictPenaltyCycles;
    estimate.repredictCycles = static_cast<double>(repredict_events)
        * parameters.repredictPenaltyCycles;
    return estimate;
}

FrontendResult
estimateTiming(const TimingParameters &parameters,
               const PredictorResult &result,
               std::uint64_t repredict_events)
{
    return estimateTiming(parameters, result.branches,
                          result.mispredictions, repredict_events);
}

double
speedup(const FrontendResult &slower, const FrontendResult &faster)
{
    const double faster_cycles = faster.totalCycles();
    return faster_cycles > 0.0 ? slower.totalCycles() / faster_cycles
                               : 0.0;
}

FetchEngine::FetchEngine(FrontendParameters parameters)
    : parameters_(std::move(parameters))
{
    if (parameters_.bundleWidth == 0)
        util::fatal("fetch bundle width must be at least 1");
}

void
FetchEngine::addConditional(pred::ConditionalPredictor *predictor)
{
    assert(predictor != nullptr);
    ConditionalSlot slot;
    slot.predictor = predictor;
    conditional_.push_back(std::move(slot));
}

void
FetchEngine::attachHfnt(
    std::size_t slot, core::HashFunctionNumberTable *hfnt,
    std::function<unsigned(const trace::BranchRecord &)> actual_number)
{
    if (slot >= conditional_.size())
        util::fatal("attachHfnt: no such conditional slot");
    assert(hfnt != nullptr && actual_number != nullptr);
    conditional_[slot].hfnt = hfnt;
    conditional_[slot].actualNumber = std::move(actual_number);
}

void
FetchEngine::closeBundle(ConditionalSlot &slot)
{
    if (slot.slotsUsed == 0)
        return;
    ++slot.timing.bundles;
    slot.timing.baseCycles += 1.0;
    slot.slotsUsed = 0;
    slot.usedTableBanks.clear();
    slot.usedHfntBanks.clear();
}

void
FetchEngine::predictConditional(ConditionalSlot &slot,
                                const trace::BranchRecord &record)
{
    FrontendResult &timing = slot.timing;

    // HFNT lookup first (it gates the prediction in §4.3 hardware):
    // bank conflicts split the bundle, a number mismatch costs a
    // re-predict bubble once decode reveals the true number.
    bool bubble = false;
    if (slot.hfnt != nullptr) {
        if (slot.hfnt->banks() > 1) {
            const unsigned bank = slot.hfnt->bankOf(record.pc);
            if (contains(slot.usedHfntBanks, bank)) {
                closeBundle(slot);
                ++timing.bankConflicts;
            }
            slot.usedHfntBanks.push_back(bank);
        }
        const unsigned actual_number = slot.actualNumber(record);
        bubble = slot.hfnt->predictNumber(record.pc) != actual_number;
        slot.hfnt->update(record.pc, actual_number);
    }

    // Counter-table bank port: a second branch on the same bank in
    // one bundle is a structural hazard; it starts the next bundle.
    if (slot.predictor->bankCount() > 0) {
        const unsigned bank = slot.predictor->bankOf(record);
        if (contains(slot.usedTableBanks, bank)) {
            closeBundle(slot);
            ++timing.bankConflicts;
        }
        slot.usedTableBanks.push_back(bank);
    }

    const bool predicted = slot.predictor->predict(record);
    const bool miss = predicted != record.taken;
    ++timing.branches;
    timing.mispredictions += miss ? 1 : 0;
    slot.predictor->update(record);

    ++slot.slotsUsed;
    if (bubble) {
        ++timing.repredictEvents;
        timing.repredictCycles += parameters_.repredictPenaltyCycles;
        closeBundle(slot);
    }
    if (miss) {
        timing.mispredictCycles += parameters_.mispredictPenaltyCycles;
        closeBundle(slot);
    } else if (slot.slotsUsed >= parameters_.bundleWidth) {
        closeBundle(slot);
    }
}

void
FetchEngine::run(trace::TraceSource &source)
{
    trace::BranchRecord record;
    while (source.next(record)) {
        for (ConditionalSlot &slot : conditional_) {
            // A non-conditional control transfer redirects fetch; the
            // open bundle cannot span it.
            if (record.isConditional())
                predictConditional(slot, record);
            else
                closeBundle(slot);
            slot.predictor->observe(record);
        }
    }
    for (ConditionalSlot &slot : conditional_)
        closeBundle(slot);
}

std::vector<PredictorResult>
FetchEngine::conditionalResults() const
{
    std::vector<PredictorResult> results;
    for (const ConditionalSlot &slot : conditional_) {
        PredictorResult result;
        result.name = slot.predictor->name();
        result.sizeBytes = slot.predictor->sizeBytes();
        result.branches = slot.timing.branches;
        result.mispredictions = slot.timing.mispredictions;
        results.push_back(std::move(result));
    }
    return results;
}

const FrontendResult &
FetchEngine::conditionalTiming(std::size_t slot) const
{
    assert(slot < conditional_.size());
    return conditional_[slot].timing;
}

} // namespace sim
} // namespace vlp
