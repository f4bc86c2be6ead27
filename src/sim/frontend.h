/**
 * @file
 * Fetch-bundle front end (DESIGN.md §17).
 *
 * The Simulator replays branches in retirement order: every predictor
 * sees predict → update → observe per record, with tables and history
 * advancing in lock step. The paper's premise (Sections 1 and 4.3) is
 * a wide machine predicting up to m branches per cycle, with the §4.3
 * HFNT re-predict bubble charged where it occurs in the fetch stream.
 *
 * FetchEngine models that machine's timing while keeping the accuracy
 * numbers bit-identical to the Simulator: each record is processed to
 * completion in trace order (predict, count, update, observe), exactly
 * as the Simulator does. A misprediction's wrong-path history advance
 * would be repaired before the branch retires, so it never reaches the
 * tables; the engine charges the repair (a flush penalty and a closed
 * bundle) instead of re-enacting it. Speculation moves cycles, never
 * what the tables learn.
 *
 * A fetch bundle costs one cycle and closes when m branches fill it,
 * when a misprediction flushes it (plus the flush penalty), when an
 * HFNT mismatch inserts a re-predict bubble (plus the bubble penalty),
 * when two branches in the bundle need the same single-ported table or
 * HFNT bank (the conflicting branch starts the next bundle), or when a
 * non-conditional control transfer redirects fetch.
 */

#ifndef VLPSIM_SIM_FRONTEND_H
#define VLPSIM_SIM_FRONTEND_H

#include <cstdint>
#include <functional>
#include <vector>

#include "core/hfnt.h"
#include "predictors/predictor.h"
#include "sim/simulator.h"
#include "trace/trace_source.h"

namespace vlp {
namespace sim {

/** Front-end configuration. */
struct FrontendParameters
{
    /** m: branch slots per fetch bundle (one bundle per cycle). */
    unsigned bundleWidth = 4;
    /** Average instructions fetched per branch (for IPC). */
    double instructionsPerBranch = 5.0;
    /** Pipeline flush penalty per misprediction, in cycles. */
    double mispredictPenaltyCycles = 10.0;
    /** §4.3 re-predict bubble per HFNT mismatch, in cycles. */
    double repredictPenaltyCycles = 1.0;
};

/**
 * Cycle and bandwidth ledger for one predictor slot. Also the shape of
 * the closed-form model (estimateTiming() below fills it), so
 * engine-measured and estimated costs compare field for field. All
 * derived rates have explicit zero-result semantics: no branches or no
 * cycles yields 0.0, never NaN or infinity.
 */
struct FrontendResult
{
    /** Cycles spent issuing fetch bundles (closed form: fetching). */
    double baseCycles = 0.0;
    /** Cycles lost to misprediction flushes. */
    double mispredictCycles = 0.0;
    /** Cycles lost to HFNT re-predict bubbles. */
    double repredictCycles = 0.0;

    /** Dynamic branches predicted by this slot. */
    std::uint64_t branches = 0;
    /** Mispredicted branches. */
    std::uint64_t mispredictions = 0;
    /** HFNT mismatches charged in-line (0 without an HFNT). */
    std::uint64_t repredictEvents = 0;
    /** Fetch bundles issued (engine only; 0 in closed form). */
    std::uint64_t bundles = 0;
    /** Bundles split because two branches hit one bank. */
    std::uint64_t bankConflicts = 0;

    /** Total front-end cycles. */
    double totalCycles() const;

    /** Instructions per cycle; 0 when either operand is empty. */
    double ipc(double instructions) const;

    /** Branch throughput in branches per cycle; 0 when no cycles. */
    double branchesPerCycle() const;
};

/**
 * Parameters of the first-order timing model (defaults shaped after a
 * late-90s design): estimateTiming() turns misprediction counts into
 * front-end cycles without simulating fetch bundles, so the flush cost
 * the paper's Section 1 motivates and the §4.3 re-predict bubble
 * compare in one number (bench_timing).
 */
struct TimingParameters
{
    /** Average instructions fetched between branches. */
    double instructionsPerBranch = 5.0;
    /** Instructions fetched per cycle. */
    double fetchWidth = 4.0;
    /** Pipeline flush penalty per misprediction, in cycles. */
    double mispredictPenaltyCycles = 10.0;
    /**
     * Bubble cycles when the pipelined predictor must re-predict
     * because the HFNT's hash function number was wrong (§4.3).
     */
    double repredictPenaltyCycles = 1.0;
};

/**
 * Estimate the front-end cost of running @p branches dynamic branches
 * with @p mispredictions of them mispredicted: the FrontendResult
 * ledger filled closed-form (the bundle/conflict counters stay 0).
 * branches == 0 or a non-positive (or NaN) fetchWidth yields the
 * all-zero estimate.
 *
 * @param parameters       front-end parameters
 * @param branches         dynamic branch count
 * @param mispredictions   mispredicted branches
 * @param repredict_events HFNT mismatches (0 for non-VLP predictors)
 */
FrontendResult estimateTiming(const TimingParameters &parameters,
                              std::uint64_t branches,
                              std::uint64_t mispredictions,
                              std::uint64_t repredict_events = 0);

/** Convenience over a simulator result row. */
FrontendResult estimateTiming(const TimingParameters &parameters,
                              const PredictorResult &result,
                              std::uint64_t repredict_events = 0);

/**
 * Speedup of @p faster over @p slower (ratio of total cycles; > 1
 * means @p faster wins).
 */
double speedup(const FrontendResult &slower, const FrontendResult &faster);

/**
 * The fetch-bundle front end. Register conditional predictors
 * (borrowed, like the Simulator's), optionally attach an HFNT to a
 * slot, call run(), then read accuracy results (bit-identical to the
 * Simulator, which stays the retire-order reference) and per-slot
 * timing.
 */
class FetchEngine
{
  public:
    explicit FetchEngine(FrontendParameters parameters = {});

    /** Register a conditional predictor. Must outlive the engine. */
    void addConditional(pred::ConditionalPredictor *predictor);

    /**
     * Attach an HFNT to conditional slot @p slot (registration
     * order); @p actual_number yields the branch's true hash function
     * number as decode would reveal it. The engine then charges
     * re-predict bubbles in-line and models HFNT bank conflicts.
     */
    void attachHfnt(
        std::size_t slot, core::HashFunctionNumberTable *hfnt,
        std::function<unsigned(const trace::BranchRecord &)>
            actual_number);

    /** Consume @p source from its current position to exhaustion. */
    void run(trace::TraceSource &source);

    /** Accuracy results, bit-identical to Simulator's. */
    std::vector<PredictorResult> conditionalResults() const;

    /** Timing ledger for conditional slot @p slot. */
    const FrontendResult &conditionalTiming(std::size_t slot) const;

  private:
    struct ConditionalSlot
    {
        pred::ConditionalPredictor *predictor = nullptr;
        /** Accuracy counters live in the timing ledger. */
        FrontendResult timing;
        core::HashFunctionNumberTable *hfnt = nullptr;
        std::function<unsigned(const trace::BranchRecord &)>
            actualNumber;
        /** Open-bundle state. */
        unsigned slotsUsed = 0;
        std::vector<unsigned> usedTableBanks;
        std::vector<unsigned> usedHfntBanks;
    };

    /** Close @p slot's open bundle, if any (one cycle). */
    void closeBundle(ConditionalSlot &slot);

    /** Predict/count/update one conditional record for @p slot. */
    void predictConditional(ConditionalSlot &slot,
                            const trace::BranchRecord &record);

    FrontendParameters parameters_;
    std::vector<ConditionalSlot> conditional_;
};

} // namespace sim
} // namespace vlp

#endif // VLPSIM_SIM_FRONTEND_H
