/**
 * @file
 * Bounded read-ahead trace opener.
 */

#include "trace/prefetch.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "trace/content_hash.h"
#include "util/chaos.h"

namespace vlp {
namespace trace {

namespace {

/** Blocked producers and consumers re-check the cancel token at this
 *  cadence; cancellation is the rare path, so a coarse poll keeps the
 *  steady state free of timer churn. */
constexpr std::chrono::milliseconds cancelPollInterval{20};

} // anonymous namespace

PrefetchedTrace
TracePrefetcher::openTrace(const std::string &path,
                           const Options &options)
{
    PrefetchedTrace result;
    try {
        if (options.cancel)
            options.cancel->throwIfCancelled();
        result = util::retryTransient(
            options.retry, [&]() -> PrefetchedTrace {
                auto raw = options.opener ? options.opener(path)
                                          : openByteFile(path);
                auto hashing =
                    std::make_unique<HashingByteFile>(std::move(raw));
                HashingByteFile &hasher = *hashing;
                auto reader = std::make_shared<StreamingTraceReader>(
                    std::move(hashing));
                PrefetchedTrace open;
                open.formatVersion = reader->formatVersion();
                open.records = reader->count();
                // The verifying pass: the reader fuses the VBT2
                // checksum into the content-hash kernel over each
                // chunk, checks every record, and throws on a
                // mismatch at the end of the stream.
                CompactTrace::Builder builder(
                    open.records, ResidentBudget::process());
                BranchRecord record;
                while (reader->next(record))
                    builder.add(record);
                // Every byte is hashed by now: finish() only formats.
                open.contentHash = hasher.finish();
                // A resident trace drops the reader, and with it the
                // file, when this attempt returns.
                if (builder.ok()) {
                    open.resident = builder.finish();
                } else {
                    reader->reset();
                    open.session = std::move(reader);
                }
                return open;
            });
    } catch (...) {
        result = PrefetchedTrace{};
        result.error = std::current_exception();
    }
    return result;
}

TracePrefetcher::TracePrefetcher(std::vector<std::string> paths,
                                 Options options)
    : paths_(std::move(paths)), options_(std::move(options)),
      window_(options_.window)
{
    if (window_ == 0 || paths_.empty())
        return; // inline mode: take() opens synchronously
    const std::size_t threads = std::min<std::size_t>(
        std::max<unsigned>(options_.threads, 1u),
        std::min(window_, paths_.size()));
    producers_.reserve(threads);
    producersAlive_ = threads;
    for (std::size_t i = 0; i < threads; ++i)
        producers_.emplace_back([this] { producerLoop(); });
}

TracePrefetcher::~TracePrefetcher()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    space_.notify_all();
    ready_.notify_all();
    for (auto &producer : producers_)
        producer.join();
}

void
TracePrefetcher::producerLoop()
{
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        // wait_for rather than wait: if the token fires while every
        // thread is blocked, nobody would otherwise wake to notice.
        space_.wait_for(lock, cancelPollInterval, [this] {
            return stop_ || nextToStart_ >= paths_.size()
                   || outstanding_ < window_;
        });
        if (stop_ || nextToStart_ >= paths_.size())
            return;
        if (options_.cancel && options_.cancel->cancelled())
            return; // consumers see the token themselves
        if (outstanding_ >= window_)
            continue;
        const std::size_t index = nextToStart_++;
        ++outstanding_;
        // Chaos: this producer dies after claiming an item. The claim
        // is marked abandoned so the consumer opens it inline — the
        // deadlock-freedom contract must survive losing any producer.
        if (util::chaos::enabled()
            && CHAOS_SECTION("trace.prefetch.producer-death",
                             util::chaos::pathKey(paths_[index]))) {
            abandoned_.insert(index);
            --producersAlive_;
            ready_.notify_all();
            return;
        }
        lock.unlock();
        PrefetchedTrace result = openTrace(paths_[index], options_);
        lock.lock();
        results_.emplace(index, std::move(result));
        ready_.notify_all();
    }
}

PrefetchedTrace
TracePrefetcher::take(std::size_t index)
{
    if (producers_.empty()) {
        if (options_.cancel)
            options_.cancel->throwIfCancelled();
        return openTrace(paths_.at(index), options_);
    }
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        const auto it = results_.find(index);
        if (it != results_.end()) {
            PrefetchedTrace result = std::move(it->second);
            results_.erase(it);
            --outstanding_;
            space_.notify_all();
            return result;
        }
        // A dead producer's claim, or an item no surviving producer
        // will ever claim: open it inline on this consumer thread.
        if (abandoned_.erase(index) > 0) {
            --outstanding_;
            space_.notify_all();
            lock.unlock();
            return openTrace(paths_.at(index), options_);
        }
        if (index >= nextToStart_ && producersAlive_ == 0) {
            lock.unlock();
            return openTrace(paths_.at(index), options_);
        }
        if (options_.cancel && options_.cancel->cancelled())
            throw util::CancelledError();
        ready_.wait_for(lock, cancelPollInterval);
    }
}

} // namespace trace
} // namespace vlp
