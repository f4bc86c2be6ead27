/**
 * @file
 * Speculative fetch-bundle front end (DESIGN.md §17).
 *
 * The Simulator replays branches in retirement order: every predictor
 * sees predict → update → observe per record, with tables and history
 * advancing in lock step. Real front ends do not work that way — the
 * paper's premise (Sections 1 and 4.3) is a wide machine predicting up
 * to m branches per cycle, advancing its history *speculatively* at
 * fetch and repairing it from a checkpoint when a misprediction
 * flushes the pipe, with the §4.3 HFNT re-predict bubble charged where
 * it occurs in the fetch stream.
 *
 * FetchEngine models that split between predictor state and update
 * timing while keeping the accuracy numbers bit-identical to the
 * Simulator. The key invariant: each record is processed to completion
 * in trace order (predict, count, update, then the history advance),
 * so speculation changes only *when* cycles are charged, never what
 * the tables learn. On a correct prediction the speculative advance of
 * the as-predicted branch *is* the architectural advance; on a
 * mispredict the engine checkpoints the predictor, advances down the
 * wrong path, restores the checkpoint, and then applies the actual
 * outcome — exactly what checkpoint-repair hardware converges to at
 * retirement, and algebraically equal to a plain observe().
 *
 * Timing is accounted per predictor slot, independently. A fetch
 * bundle costs one cycle and closes when m branches fill it, when a
 * misprediction flushes it (plus the flush penalty), when an HFNT
 * mismatch inserts a re-predict bubble (plus the bubble penalty), when
 * two branches in the bundle need the same single-ported table or
 * HFNT bank (the conflicting branch starts the next bundle), or when a
 * non-conditional control transfer redirects fetch.
 *
 * The "frontend.checkpoint.restore" chaos section (util::chaos)
 * injects *spurious* repairs on correctly-predicted branches —
 * checkpoint, speculate, restore, replay — which must leave every
 * statistic unchanged; the soak campaign asserts exactly that.
 */

#ifndef VLPSIM_SIM_FRONTEND_H
#define VLPSIM_SIM_FRONTEND_H

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/hfnt.h"
#include "predictors/predictor.h"
#include "predictors/ras.h"
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
    /**
     * Work-unit identity for the chaos switchboard (typically the
     * workload name), keeping fault decisions stable across --jobs.
     */
    std::string chaosIdentity;
};

/**
 * Cycle and bandwidth ledger for one predictor slot. Also the shape of
 * the closed-form model (sim/timing.h aliases TimingEstimate to this
 * struct), so engine-measured and estimated costs compare field for
 * field. All derived rates have explicit zero-result semantics: no
 * branches or no cycles yields 0.0, never NaN or infinity.
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
    /** History repairs performed (mispredict + chaos-forced). */
    std::uint64_t checkpointRestores = 0;

    /** Total front-end cycles. */
    double totalCycles() const;

    /** Instructions per cycle; 0 when either operand is empty. */
    double ipc(double instructions) const;

    /** Branch throughput in branches per cycle; 0 when no cycles. */
    double branchesPerCycle() const;
};

/**
 * Closed-form fill of a FrontendResult — the thin fallback that
 * indirect slots and sim/timing.h build on: bundles of up to m
 * branches with no conflict or speculation modelling. branches == 0 or
 * bundle_width == 0 yields the all-zero result.
 */
FrontendResult closedFormFrontend(const FrontendParameters &parameters,
                                  std::uint64_t branches,
                                  std::uint64_t mispredictions,
                                  std::uint64_t repredict_events);

/**
 * The fetch-bundle front end. Register predictors (borrowed, like the
 * Simulator's), optionally attach an HFNT to a conditional slot, call
 * run(), then read accuracy results (bit-identical to the Simulator,
 * which stays the retire-order reference) and per-slot timing.
 */
class FetchEngine
{
  public:
    explicit FetchEngine(FrontendParameters parameters = {});

    /** Register a conditional predictor. Must outlive the engine. */
    void addConditional(pred::ConditionalPredictor *predictor);

    /** Register an indirect predictor. Must outlive the engine. */
    void addIndirect(pred::IndirectPredictor *predictor);

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

    /** Indirect accuracy results. */
    std::vector<PredictorResult> indirectResults() const;

    /** Return address stack accuracy. */
    PredictorResult rasResult() const;

    /** Timing ledger for conditional slot @p slot. */
    const FrontendResult &conditionalTiming(std::size_t slot) const;

    /** Timing ledger for indirect slot @p slot (closed form). */
    const FrontendResult &indirectTiming(std::size_t slot) const;

    /** The configuration in force. */
    const FrontendParameters &parameters() const { return parameters_; }

  private:
    struct ConditionalSlot
    {
        pred::ConditionalPredictor *predictor = nullptr;
        /** Accuracy counters live in the timing ledger. */
        FrontendResult timing;
        core::HashFunctionNumberTable *hfnt = nullptr;
        std::function<unsigned(const trace::BranchRecord &)>
            actualNumber;
        /** Chaos identity: parameters_.chaosIdentity + slot index. */
        std::string chaosKey;
        /** Open-bundle state. */
        unsigned slotsUsed = 0;
        std::vector<unsigned> usedTableBanks;
        std::vector<unsigned> usedHfntBanks;
        /** Transient, valid between predict and history advance. */
        bool lastMiss = false;
        bool lastPrediction = false;
    };

    struct IndirectSlot
    {
        pred::IndirectPredictor *predictor = nullptr;
        FrontendResult timing;
        std::string chaosKey;
        bool lastMiss = false;
        std::uint64_t lastPrediction = 0;
    };

    /** Close @p slot's open bundle, if any (one cycle). */
    void closeBundle(ConditionalSlot &slot);

    /** Predict/count/update one conditional record for @p slot. */
    void predictConditional(ConditionalSlot &slot,
                            const trace::BranchRecord &record);

    /**
     * Advance @p predictor's history for @p record: the speculative
     * checkpoint/speculate/restore dance on a mispredict (or when the
     * chaos section fires), a plain observe otherwise. Net effect is
     * always exactly observe(record).
     */
    void advanceHistory(pred::Predictor &predictor,
                        const trace::BranchRecord &record, bool miss,
                        const trace::BranchRecord &wrong_path,
                        FrontendResult &timing,
                        const std::string &chaos_key);

    FrontendParameters parameters_;
    std::vector<ConditionalSlot> conditional_;
    std::vector<IndirectSlot> indirect_;

    pred::ReturnAddressStack ras_;
    std::uint64_t returns_ = 0;
    std::uint64_t returnMisses_ = 0;
};

} // namespace sim
} // namespace vlp

#endif // VLPSIM_SIM_FRONTEND_H
