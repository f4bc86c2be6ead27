/**
 * @file
 * A small fixed-size thread pool for the parallel experiment engine.
 *
 * The pool is deliberately minimal: tasks are type-erased
 * std::function<void()> thunks, and wait() blocks until every submitted
 * task has finished. Exceptions must be handled inside the task; a task
 * that lets an exception escape terminates the process, as with any
 * detached thread. parallelFor() does that handling for loops: it
 * rethrows the first exception on the calling thread.
 */

#ifndef VLPSIM_UTIL_THREAD_POOL_H
#define VLPSIM_UTIL_THREAD_POOL_H

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace vlp {
namespace util {

/**
 * Fixed set of worker threads consuming a FIFO task queue.
 *
 * Threads are started in the constructor and joined in the destructor;
 * the pool never grows or shrinks. submit() and parallelFor() may be
 * called from any thread, pool tasks included; wait() must not be
 * called from inside a task (it would wait for itself).
 */
class ThreadPool
{
  public:
    /**
     * Start @p threads workers.
     * @p threads must be >= 1; pass defaultThreadCount() for "one per
     * hardware thread".
     */
    explicit ThreadPool(unsigned threads);

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Drains the queue, waits for in-flight tasks, joins workers. */
    ~ThreadPool();

    /** Number of worker threads. */
    unsigned size() const { return static_cast<unsigned>(workers_.size()); }

    /** Enqueue @p task for execution on some worker. */
    void submit(std::function<void()> task);

    /**
     * Run fn(i) once for every i in [0, count), spread over the pool
     * with the calling thread taking part. Up to size() - 1 helper
     * tasks claim indices from a shared counter, and so does the
     * caller; the caller then waits only for indices already claimed,
     * never for a helper still queued. That makes parallelFor safe to
     * call from inside a pool task: when every worker is busy, the
     * caller runs the whole loop itself. The first exception thrown
     * by fn stops further claims and is rethrown here once every
     * claimed index has finished.
     */
    void parallelFor(std::size_t count,
                     const std::function<void(std::size_t)> &fn);

    /**
     * Block until every task submitted so far has completed (queue
     * empty and no task running).
     */
    void wait();

    /**
     * std::thread::hardware_concurrency() with a floor of 1 (the
     * standard allows it to return 0 when unknown).
     */
    static unsigned defaultThreadCount();

  private:
    void workerLoop();

    std::vector<std::thread> workers_;
    std::deque<std::function<void()>> queue_;
    std::mutex mutex_;
    std::condition_variable workAvailable_;
    std::condition_variable allDone_;
    std::size_t inFlight_ = 0;
    bool stopping_ = false;
};

} // namespace util
} // namespace vlp

#endif // VLPSIM_UTIL_THREAD_POOL_H
