/**
 * @file
 * The trace-driven branch prediction simulator.
 *
 * Drives a branch trace through any number of conditional and indirect
 * predictors simultaneously (they see identical streams), models a
 * return address stack for returns (which are therefore excluded from
 * indirect statistics, as in the paper), and collects per-predictor
 * and optional per-static-branch accuracy statistics.
 */

#ifndef VLPSIM_SIM_SIMULATOR_H
#define VLPSIM_SIM_SIMULATOR_H

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "predictors/predictor.h"
#include "predictors/ras.h"
#include "trace/trace_source.h"

namespace vlp {
namespace sim {

/** Accuracy of one predictor over the simulated stream. */
struct PredictorResult
{
    /** Predictor display name. */
    std::string name;
    /** Predictor table budget in bytes. */
    std::size_t sizeBytes = 0;
    /** Dynamic branches predicted. */
    std::uint64_t branches = 0;
    /** Mispredicted branches. */
    std::uint64_t mispredictions = 0;

    /** Misprediction rate in percent. */
    double rate() const;
};

/** Per-static-branch accuracy record. */
struct BranchAccuracy
{
    std::uint64_t executions = 0;
    std::uint64_t mispredictions = 0;
};

/**
 * Runs traces through registered predictors. Predictors are borrowed,
 * not owned; register them, call run() (possibly over several traces),
 * then read the results.
 */
class Simulator
{
  public:
    Simulator() = default;

    /** Register a conditional predictor. Must outlive the simulator. */
    void addConditional(pred::ConditionalPredictor *predictor);

    /** Register an indirect predictor. Must outlive the simulator. */
    void addIndirect(pred::IndirectPredictor *predictor);

    /**
     * Track per-static-branch accuracy for every registered
     * predictor (off by default; costs a hash lookup per branch).
     */
    void setTrackPerBranch(bool track) { trackPerBranch_ = track; }

    /** Consume @p source from its current position to exhaustion. */
    void run(trace::TraceSource &source);

    /** Results for conditional predictors, in registration order. */
    std::vector<PredictorResult> conditionalResults() const;

    /** Results for indirect predictors, in registration order. */
    std::vector<PredictorResult> indirectResults() const;

    /** Return address stack accuracy over the run. */
    PredictorResult rasResult() const;

    /**
     * Per-branch accuracy for conditional predictor @p index
     * (registration order). Empty unless tracking was enabled.
     */
    const std::unordered_map<std::uint64_t, BranchAccuracy> &
    conditionalPerBranch(std::size_t index) const;

    /** Per-branch accuracy for indirect predictor @p index. */
    const std::unordered_map<std::uint64_t, BranchAccuracy> &
    indirectPerBranch(std::size_t index) const;

  private:
    /** A registered predictor of either class and its statistics. */
    template <typename Predictor>
    struct Registered
    {
        explicit Registered(Predictor *registered) : predictor(registered) {}

        Predictor *predictor;
        std::uint64_t branches = 0;
        std::uint64_t mispredictions = 0;
        std::unordered_map<std::uint64_t, BranchAccuracy> perBranch;
    };

    std::vector<Registered<pred::ConditionalPredictor>> conditional_;
    std::vector<Registered<pred::IndirectPredictor>> indirect_;

    pred::ReturnAddressStack ras_;
    std::uint64_t returns_ = 0;
    std::uint64_t returnMisses_ = 0;

    bool trackPerBranch_ = false;
};

} // namespace sim
} // namespace vlp

#endif // VLPSIM_SIM_SIMULATOR_H
