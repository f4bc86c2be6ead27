/**
 * @file
 * Shared experiment service: the suite/sweep entry points behind both
 * the `vlpsim suite` subcommand and the serve daemon.
 *
 * The CLI and the daemon must produce byte-identical reports for the
 * same request — that is the contract that lets a warm daemon answer
 * from the artifact store with exactly what a cold CLI run would have
 * printed. To make the contract structural rather than aspirational,
 * the report assembly lives here once: runSuiteCompare() builds the
 * `predictor suite` report (title, metadata order, section caption,
 * row layout) and both front ends call it. Cache counters are
 * deliberately *not* part of the report it returns — they vary
 * between cold and warm runs, so each front end reports them out of
 * band (CLI: appended metadata + stderr; serve: result-frame fields).
 *
 * Cancellation is cooperative: pass a util::CancelToken and the run
 * unwinds with util::CancelledError at the next step boundary.
 * Progress is coarse-grained (stage boundaries), which is all the
 * serve heartbeat needs.
 */

#ifndef VLPSIM_SIM_SERVICE_H
#define VLPSIM_SIM_SERVICE_H

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/report.h"
#include "util/cancel.h"

namespace vlp {
namespace store {
class ArtifactStore;
} // namespace store

namespace sim {

/** One `predictor suite` comparison over the synthetic benchmarks. */
struct SuiteCompareSpec
{
    /** false = conditional branches, true = indirect. */
    bool indirect = false;
    /** Predictor table budget in bytes. */
    std::size_t bytes = 8 * 1024;
    /** Worker threads (0 = one per hardware thread, 1 = serial). */
    unsigned jobs = 1;
};

/** A table-budget sweep: one suite comparison per byte budget. */
struct SweepSpec
{
    /** false = conditional branches, true = indirect. */
    bool indirect = false;
    /** Budgets to sweep, one report section each, in order. */
    std::vector<std::size_t> budgets;
    /** Worker threads (0 = one per hardware thread, 1 = serial). */
    unsigned jobs = 1;
};

/** Coarse progress tick, emitted at stage boundaries. */
struct ServiceProgress
{
    /** Human-readable stage, e.g. "global length" or "compare". */
    std::string stage;
    /** Stages finished so far. */
    std::size_t completed = 0;
    /** Total stages in this run. */
    std::size_t total = 0;
};

/** Progress callback; invoked on the controlling thread. */
using ProgressFn = std::function<void(const ServiceProgress &)>;

/** A finished run: the report plus out-of-band throughput data. */
struct ServiceResult
{
    Report report;
    /** Dynamic predictions issued (one per predictor per branch). */
    std::uint64_t predictions = 0;
    /** The part of predictions simulated rather than fetched from
     *  the store (ParallelRunner::simulatedPredictions()). */
    std::uint64_t simulatedPredictions = 0;
    /** Effective worker count used. */
    unsigned jobs = 1;
};

/**
 * Profile and compare the paper's predictors over the synthetic
 * benchmark suite. The returned report is byte-identical to what
 * `vlpsim suite <class> <bytes> --jobs N` prints (before any cache
 * metadata the CLI appends).
 *
 * @throws util::CancelledError when @p cancel fires mid-run
 */
ServiceResult
runSuiteCompare(const SuiteCompareSpec &spec,
                std::shared_ptr<store::ArtifactStore> store = nullptr,
                std::shared_ptr<const util::CancelToken> cancel =
                    nullptr,
                const ProgressFn &progress = {});

/**
 * Run the suite comparison across a list of table budgets, reusing
 * one worker pool (and its step-1 profile caches) for every budget.
 * The report carries one section per budget, each laid out exactly
 * like the corresponding runSuiteCompare() section.
 *
 * @throws util::CancelledError when @p cancel fires mid-run
 * @throws std::runtime_error when @p spec.budgets is empty or holds 0
 */
ServiceResult
runSweep(const SweepSpec &spec,
         std::shared_ptr<store::ArtifactStore> store = nullptr,
         std::shared_ptr<const util::CancelToken> cancel = nullptr,
         const ProgressFn &progress = {});

/**
 * Stamp the build version (git describe, from util::buildVersion())
 * into @p report's metadata as `vlpsimVersion`. Idempotent.
 */
void stampBuildInfo(Report &report);

} // namespace sim
} // namespace vlp

#endif // VLPSIM_SIM_SERVICE_H
