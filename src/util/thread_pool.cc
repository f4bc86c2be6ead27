/**
 * @file
 * Thread pool implementation.
 */

#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <exception>
#include <memory>
#include <utility>

namespace vlp {
namespace util {

ThreadPool::ThreadPool(unsigned threads)
{
    assert(threads >= 1);
    if (threads < 1)
        threads = 1;
    workers_.reserve(threads);
    for (unsigned i = 0; i < threads; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    workAvailable_.notify_all();
    for (std::thread &worker : workers_)
        worker.join();
}

void
ThreadPool::submit(std::function<void()> task)
{
    assert(task);
    {
        std::lock_guard<std::mutex> lock(mutex_);
        queue_.push_back(std::move(task));
    }
    workAvailable_.notify_one();
}

namespace {

/** One parallelFor() loop, shared by the caller and its helpers. */
struct LoopState
{
    std::size_t count = 0;
    /** Valid while indices remain unclaimed: the caller outlives
     *  every claimed index, and helpers that find none left never
     *  touch it. */
    const std::function<void(std::size_t)> *fn = nullptr;
    std::atomic<std::size_t> next{0};
    std::atomic<bool> failed{false};
    std::mutex mutex;
    std::condition_variable finished;
    std::size_t settled = 0; // claimed indices that have finished
    std::exception_ptr failure;
};

/** Claim and run indices until none are left. */
void
drain(LoopState &loop)
{
    for (;;) {
        const std::size_t index = loop.next.fetch_add(1);
        if (index >= loop.count)
            return;
        std::exception_ptr error;
        if (!loop.failed.load()) {
            try {
                (*loop.fn)(index);
            } catch (...) {
                error = std::current_exception();
            }
        }
        std::lock_guard<std::mutex> lock(loop.mutex);
        if (error && !loop.failure) {
            loop.failure = error;
            loop.failed = true;
        }
        if (++loop.settled == loop.count)
            loop.finished.notify_all();
    }
}

} // anonymous namespace

void
ThreadPool::parallelFor(std::size_t count,
                        const std::function<void(std::size_t)> &fn)
{
    if (count == 0)
        return;
    auto loop = std::make_shared<LoopState>();
    loop->count = count;
    loop->fn = &fn;
    const std::size_t helpers = std::min<std::size_t>(size() - 1, count - 1);
    for (std::size_t i = 0; i < helpers; ++i)
        submit([loop] { drain(*loop); });
    drain(*loop);

    std::unique_lock<std::mutex> lock(loop->mutex);
    loop->finished.wait(lock, [&] { return loop->settled == count; });
    if (loop->failure)
        std::rethrow_exception(loop->failure);
}

void
ThreadPool::wait()
{
    std::unique_lock<std::mutex> lock(mutex_);
    allDone_.wait(lock,
                  [this] { return queue_.empty() && inFlight_ == 0; });
}

unsigned
ThreadPool::defaultThreadCount()
{
    const unsigned reported = std::thread::hardware_concurrency();
    return reported == 0 ? 1 : reported;
}

void
ThreadPool::workerLoop()
{
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        workAvailable_.wait(
            lock, [this] { return stopping_ || !queue_.empty(); });
        if (queue_.empty()) {
            // stopping_ && empty: drain complete, shut down.
            return;
        }
        std::function<void()> task = std::move(queue_.front());
        queue_.pop_front();
        ++inFlight_;
        lock.unlock();
        task();
        lock.lock();
        --inFlight_;
        if (queue_.empty() && inFlight_ == 0)
            allDone_.notify_all();
    }
}

} // namespace util
} // namespace vlp
