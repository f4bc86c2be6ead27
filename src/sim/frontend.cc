/**
 * @file
 * FetchEngine and closed-form timing implementation.
 *
 * Bit-identity with the Simulator rests on one rule: per predictor,
 * every record is handled predict → update → history advance in trace
 * order, and the speculative dance (checkpoint, speculate down the
 * fetched path, restore, observe the actual outcome) nets out to a
 * plain observe. Bundle formation reads predictor state (bankOf) but
 * never writes it, so timing and accuracy are fully decoupled.
 */

#include "sim/frontend.h"

#include <algorithm>
#include <cassert>

#include "util/chaos.h"
#include "util/logging.h"

namespace vlp {
namespace sim {

namespace {

bool
contains(const std::vector<unsigned> &banks, unsigned bank)
{
    return std::find(banks.begin(), banks.end(), bank) != banks.end();
}

/**
 * The record fetch would have speculated on had the conditional
 * prediction been followed: the actual record with the predicted
 * direction. The predicted-taken target would come from a BTB we do
 * not model; any value works because the advance is unwound before it
 * can retire, so the branch's own pc stands in.
 */
trace::BranchRecord
conditionalWrongPath(const trace::BranchRecord &record,
                     bool predicted_taken)
{
    trace::BranchRecord wrong = record;
    wrong.taken = predicted_taken;
    wrong.nextPc = predicted_taken
        ? record.pc
        : record.pc + trace::instructionBytes;
    return wrong;
}

/** Wrong-path record for an indirect branch: the predicted target. */
trace::BranchRecord
indirectWrongPath(const trace::BranchRecord &record,
                  std::uint64_t predicted_target)
{
    trace::BranchRecord wrong = record;
    wrong.nextPc = predicted_target;
    return wrong;
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
closedFormFrontend(const FrontendParameters &parameters,
                   std::uint64_t branches, std::uint64_t mispredictions,
                   std::uint64_t repredict_events)
{
    FrontendResult result;
    result.branches = branches;
    result.mispredictions = mispredictions;
    result.repredictEvents = repredict_events;
    // Explicit zero-result semantics: an empty stream or a degenerate
    // bundle width estimates zero cycles, never NaN or infinity.
    if (branches == 0 || parameters.bundleWidth == 0)
        return result;
    result.baseCycles = static_cast<double>(branches)
        / static_cast<double>(parameters.bundleWidth);
    result.mispredictCycles = static_cast<double>(mispredictions)
        * parameters.mispredictPenaltyCycles;
    result.repredictCycles = static_cast<double>(repredict_events)
        * parameters.repredictPenaltyCycles;
    return result;
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
    slot.chaosKey = parameters_.chaosIdentity + ":c"
        + std::to_string(conditional_.size());
    conditional_.push_back(std::move(slot));
}

void
FetchEngine::addIndirect(pred::IndirectPredictor *predictor)
{
    assert(predictor != nullptr);
    IndirectSlot slot;
    slot.predictor = predictor;
    slot.chaosKey = parameters_.chaosIdentity + ":i"
        + std::to_string(indirect_.size());
    indirect_.push_back(std::move(slot));
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

    slot.lastPrediction = predicted;
    slot.lastMiss = miss;

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
FetchEngine::advanceHistory(pred::Predictor &predictor,
                            const trace::BranchRecord &record, bool miss,
                            const trace::BranchRecord &wrong_path,
                            FrontendResult &timing,
                            const std::string &chaos_key)
{
    if (miss) {
        // What checkpoint-repair hardware does: save the history,
        // speculate down the fetched (wrong) path, and on the flush
        // rewind to the checkpoint before retiring the real outcome.
        const pred::CheckpointPtr saved = predictor.checkpoint();
        predictor.speculate(wrong_path);
        predictor.restore(*saved);
        ++timing.checkpointRestores;
    } else if (CHAOS_SECTION("frontend.checkpoint.restore",
                             chaos_key)) {
        // Chaos: a spurious repair on a correct prediction. The
        // restore-then-replay must be invisible in every statistic.
        const pred::CheckpointPtr saved = predictor.checkpoint();
        predictor.speculate(record);
        predictor.restore(*saved);
        ++timing.checkpointRestores;
    }
    predictor.observe(record);
}

void
FetchEngine::run(trace::TraceSource &source)
{
    trace::BranchRecord record;
    while (source.next(record)) {
        if (record.isConditional()) {
            for (ConditionalSlot &slot : conditional_)
                predictConditional(slot, record);
        } else if (record.isIndirect()) {
            for (IndirectSlot &slot : indirect_) {
                const std::uint64_t predicted =
                    slot.predictor->predict(record);
                const bool miss = predicted != record.nextPc;
                ++slot.timing.branches;
                slot.timing.mispredictions += miss ? 1 : 0;
                slot.predictor->update(record);
                slot.lastPrediction = predicted;
                slot.lastMiss = miss;
            }
        } else if (record.isReturn()) {
            ++returns_;
            if (ras_.predictAndPop() != record.nextPc)
                ++returnMisses_;
        }

        if (record.isCall())
            ras_.push(record.pc + trace::instructionBytes);

        for (ConditionalSlot &slot : conditional_) {
            // Any non-conditional record is a fetch redirect the
            // conditional slot's bundle cannot span.
            if (!record.isConditional())
                closeBundle(slot);
            const bool miss = record.isConditional() && slot.lastMiss;
            advanceHistory(
                *slot.predictor, record, miss,
                conditionalWrongPath(record, slot.lastPrediction),
                slot.timing, slot.chaosKey);
        }
        for (IndirectSlot &slot : indirect_) {
            const bool miss = record.isIndirect() && slot.lastMiss;
            advanceHistory(
                *slot.predictor, record, miss,
                indirectWrongPath(record, slot.lastPrediction),
                slot.timing, slot.chaosKey);
        }
    }

    for (ConditionalSlot &slot : conditional_)
        closeBundle(slot);

    // Indirect slots carry accuracy through the engine but use the
    // closed-form cycle model (the bundle machinery is a conditional
    // fetch-slot concept).
    for (IndirectSlot &slot : indirect_) {
        FrontendResult filled = closedFormFrontend(
            parameters_, slot.timing.branches,
            slot.timing.mispredictions, 0);
        filled.checkpointRestores = slot.timing.checkpointRestores;
        slot.timing = filled;
    }
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

std::vector<PredictorResult>
FetchEngine::indirectResults() const
{
    std::vector<PredictorResult> results;
    for (const IndirectSlot &slot : indirect_) {
        PredictorResult result;
        result.name = slot.predictor->name();
        result.sizeBytes = slot.predictor->sizeBytes();
        result.branches = slot.timing.branches;
        result.mispredictions = slot.timing.mispredictions;
        results.push_back(std::move(result));
    }
    return results;
}

PredictorResult
FetchEngine::rasResult() const
{
    PredictorResult result;
    result.name = "return address stack";
    result.sizeBytes = ras_.sizeBytes();
    result.branches = returns_;
    result.mispredictions = returnMisses_;
    return result;
}

const FrontendResult &
FetchEngine::conditionalTiming(std::size_t slot) const
{
    assert(slot < conditional_.size());
    return conditional_[slot].timing;
}

const FrontendResult &
FetchEngine::indirectTiming(std::size_t slot) const
{
    assert(slot < indirect_.size());
    return indirect_[slot].timing;
}

} // namespace sim
} // namespace vlp
