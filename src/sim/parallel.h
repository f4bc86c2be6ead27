/**
 * @file
 * Parallel experiment engine.
 *
 * The paper's methodology — profile every benchmark, then evaluate a
 * grid of benchmark x predictor x table-budget points — is
 * embarrassingly parallel across benchmarks. ParallelRunner spreads
 * that grid over a fixed thread pool (util::ThreadPool), with idle
 * workers claiming the next item, and gives all of them one shared
 * ExperimentContext: a thread-safe memo in which every profile and row
 * is computed once, whichever worker asks first. Below it, every
 * runner in the process shares one SharedMemo (SharedMemo::process()
 * unless the constructor is given another): each generated trace and
 * each synthetic step-1 pass its store misses is computed once per
 * process, so Figure 9's runner reuses what Table 2's runner made. The
 * memo keeps at most its own byte cap (sharedMemoBudgetBytes); what
 * does not fit stays with the runner that made it, as if there were no
 * memo. Results come back in index order.
 *
 * Determinism contract: trace generation, profiling, and simulation
 * are all pure functions of the benchmark spec (the xoshiro RNG is
 * seeded per benchmark, never from global state), so which worker runs
 * an item never changes its result, and reductions accumulate in suite
 * order. Output is therefore bit-identical for any --jobs value;
 * --jobs 1 additionally bypasses the pool and runs the exact serial
 * code path.
 */

#ifndef VLPSIM_SIM_PARALLEL_H
#define VLPSIM_SIM_PARALLEL_H

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <utility>
#include <vector>

#include "sim/experiment.h"
#include "util/thread_pool.h"
#include "workload/benchmarks.h"

namespace vlp {
namespace sim {

/**
 * Runs experiment work across worker threads over one shared
 * ExperimentContext, and reduces results in deterministic order.
 *
 * Items are claimed dynamically: a worker that finishes takes the next
 * unclaimed index, so one slow item never leaves the other workers
 * idle. Work a map body triggers inside the context (a suite average,
 * say) fans out over the same pool, and repeated maps over the same
 * items hit the shared memo whichever worker runs them.
 */
class ParallelRunner
{
  public:
    /**
     * @param jobs worker count; 0 means "one per hardware thread".
     *             jobs == 1 runs everything inline on the calling
     *             thread with no pool — the exact serial path.
     * @param memo the memo shared with other runners; tests pass a
     *             fresh one. It must outlive the runner.
     */
    explicit ParallelRunner(unsigned jobs = 0,
                            SharedMemo &memo = SharedMemo::process());

    ParallelRunner(const ParallelRunner &) = delete;
    ParallelRunner &operator=(const ParallelRunner &) = delete;

    /** Effective worker count (never 0). */
    unsigned jobs() const { return jobs_; }

    /**
     * The shared context, for callers that mix parallel sweeps with
     * ad-hoc serial queries (e.g. a per-benchmark tuned length).
     */
    ExperimentContext &context() { return context_; }

    /**
     * Attach an artifact store to the context (the store is
     * internally synchronized; pass nullptr to detach). Call before
     * submitting work.
     */
    void setStore(std::shared_ptr<store::ArtifactStore> store)
    {
        context_.setStore(std::move(store));
    }

    /**
     * Attach a cooperative cancellation token to the context (pass
     * nullptr to detach). Once the token fires, each worker unwinds
     * with util::CancelledError at its next step boundary and the
     * map()/compare call rethrows it on the calling thread.
     */
    void setCancelToken(std::shared_ptr<const util::CancelToken> token)
    {
        context_.setCancelToken(std::move(token));
    }

    /**
     * Run fn(context, i) for i in [0, count) across the pool and
     * return the results in index order. fn must only touch the
     * (thread-safe) context it is handed plus its own locals; the
     * first exception thrown by fn stops further items and is
     * rethrown on the calling thread once running items finish.
     */
    template <typename T>
    std::vector<T> map(std::size_t count,
                       const std::function<T(ExperimentContext &,
                                             std::size_t)> &fn)
    {
        std::vector<T> results(count);
        runSharded(count, [&](ExperimentContext &context,
                              std::size_t index) {
            results[index] = fn(context, index);
        });
        return results;
    }

    /**
     * compare() for each of @p specs (suite order in, suite order
     * out), spread across workers.
     */
    std::vector<ComparisonRow>
    compareSuite(const std::vector<workload::BenchmarkSpec> &specs,
                 std::size_t bytes, unsigned global_length, bool indirect,
                 bool include_tuned = false);

    /**
     * ExperimentContext::averageSweep() (whose per-benchmark sweeps
     * fan out over the pool), counting the step-1 predictions into
     * predictions() the first time each budget and class is asked for.
     */
    std::vector<double> averageSweep(std::size_t bytes, bool indirect);

    /** The global fixed path length: argminLength(averageSweep()). */
    unsigned globalLength(std::size_t bytes, bool indirect);

    /**
     * Dynamic predictions issued through this runner so far (one per
     * predictor per branch), for throughput reporting. map() callers
     * can contribute their own counts with addPredictions().
     */
    std::uint64_t predictions() const
    {
        return predictions_.load(std::memory_order_relaxed);
    }

    /** Thread-safe: add @p count predictions to the running total. */
    void addPredictions(std::uint64_t count)
    {
        predictions_.fetch_add(count, std::memory_order_relaxed);
    }

    /**
     * The part of the work behind predictions() that this runner
     * simulated rather than fetched from the store
     * (ExperimentContext::simulatedPredictions()).
     */
    std::uint64_t simulatedPredictions() const
    {
        return context_.simulatedPredictions();
    }

  private:
    /** fn(context, i) for i in [0, count), claimed dynamically. */
    void runSharded(std::size_t count,
                    const std::function<void(ExperimentContext &,
                                             std::size_t)> &fn);

    unsigned jobs_;
    std::unique_ptr<util::ThreadPool> pool_; // null when jobs_ == 1
    ExperimentContext context_;              // fans out over pool_
    std::mutex countedMutex_;
    /** (bytes, indirect) averages already counted in predictions_. */
    std::set<std::pair<std::size_t, bool>> countedAverages_;
    std::atomic<std::uint64_t> predictions_{0};
};

} // namespace sim
} // namespace vlp

#endif // VLPSIM_SIM_PARALLEL_H
