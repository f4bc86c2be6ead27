/**
 * @file
 * A run-once latch for memoized computations that may fail.
 */

#ifndef VLPSIM_UTIL_ONCE_H
#define VLPSIM_UTIL_ONCE_H

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <mutex>

namespace vlp {
namespace util {

/**
 * Guards one memoized computation shared by several threads.
 *
 * Unlike std::call_once, a failure is reported to everyone waiting on
 * it: when the running computation throws, each concurrent caller
 * rethrows that exception and the latch stays unset, so the next call
 * runs the computation afresh. A cancelled run therefore never leaves
 * a half-built value behind.
 */
class Once
{
  public:
    Once() = default;
    Once(const Once &) = delete;
    Once &operator=(const Once &) = delete;

    /**
     * Run @p compute unless an earlier call completed it. Callers that
     * arrive while it runs block until it finishes, then return (on
     * success) or rethrow its exception.
     */
    template <typename Fn>
    void
    call(Fn &&compute)
    {
        std::unique_lock<std::mutex> lock(mutex_);
        if (running_) {
            const std::uint64_t failures = failures_;
            finished_.wait(
                lock, [&] { return done_ || failures_ != failures; });
            if (!done_)
                std::rethrow_exception(error_);
        }
        if (done_)
            return;
        running_ = true;
        lock.unlock();
        try {
            compute();
        } catch (...) {
            lock.lock();
            running_ = false;
            error_ = std::current_exception();
            ++failures_;
            finished_.notify_all();
            throw;
        }
        lock.lock();
        running_ = false;
        done_ = true;
        finished_.notify_all();
    }

  private:
    std::mutex mutex_;
    std::condition_variable finished_;
    bool running_ = false;
    bool done_ = false;
    std::uint64_t failures_ = 0;
    std::exception_ptr error_;
};

} // namespace util
} // namespace vlp

#endif // VLPSIM_UTIL_ONCE_H
