/**
 * @file
 * Process-wide memo implementation.
 */

#include "sim/shared_memo.h"

#include <utility>

namespace vlp {
namespace sim {

namespace {

/** Bytes a step-1 profiler holds: its sweep plus one hash-map node
 *  (next pointer, pc, record) per profiled branch and the buckets. */
std::uint64_t
step1Bytes(const core::Profiler &profiler)
{
    const auto &profiles = profiler.branchProfiles();
    constexpr std::uint64_t node = sizeof(void *)
        + sizeof(std::pair<const std::uint64_t, core::BranchProfile>);
    return sizeof(core::Profiler)
        + profiler.step1Sweep().mispredictions.capacity()
            * sizeof(std::uint64_t)
        + profiles.size() * node + profiles.bucket_count() * sizeof(void *);
}

} // anonymous namespace

SharedMemo &
SharedMemo::process()
{
    // Never destroyed: contexts on other threads may outlive main().
    static SharedMemo *memo = new SharedMemo;
    return *memo;
}

template <typename T, typename Compute, typename Size>
std::shared_ptr<const T>
SharedMemo::obtain(Table<T> &table, const std::string &key,
                   const util::CancelToken *cancel,
                   std::atomic<std::uint64_t> &runs,
                   const Compute &compute, const Size &bytes)
{
    Entry<T> *entry;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        // std::map nodes never move, so the entry outlives the lock.
        entry = &table[key];
    }
    std::shared_ptr<const T> mine;
    for (;;) {
        bool computed = false;
        try {
            entry->once.call([&] {
                computed = true;
                mine = compute();
                runs.fetch_add(1, std::memory_order_relaxed);
                const std::uint64_t size = bytes(*mine);
                if (hold(size))
                    entry->value = mine;
            });
            break;
        } catch (const util::CancelledError &) {
            // Another requester's cancellation unset the latch; this
            // one computes the entry afresh unless it is cancelled too.
            if (computed || (cancel && cancel->cancelled()))
                throw;
        }
    }
    if (entry->value)
        return entry->value;
    if (mine)
        return mine; // over the cap: held privately by the caller
    // Another requester found the entry over the cap: a private copy.
    mine = compute();
    runs.fetch_add(1, std::memory_order_relaxed);
    return mine;
}

bool
SharedMemo::hold(std::uint64_t bytes)
{
    std::uint64_t held = held_.load(std::memory_order_relaxed);
    do {
        if (bytes > capacity_ - held)
            return false;
    } while (!held_.compare_exchange_weak(held, held + bytes,
                                          std::memory_order_relaxed));
    return true;
}

std::shared_ptr<const trace::CompactTrace>
SharedMemo::trace(const std::string &key, const util::CancelToken *cancel,
                  const TraceFn &generate)
{
    return obtain(traces_, key, cancel, traceGenerations_, generate,
                  [](const trace::CompactTrace &trace) {
                      return trace.residentBytes();
                  });
}

std::shared_ptr<const core::Profiler>
SharedMemo::step1(const std::string &key, const util::CancelToken *cancel,
                  const Step1Fn &run)
{
    return obtain(step1_, key, cancel, step1Passes_, run, step1Bytes);
}

} // namespace sim
} // namespace vlp
