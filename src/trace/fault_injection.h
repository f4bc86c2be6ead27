/**
 * @file
 * Deterministic fault injection for trace file I/O.
 *
 * FaultInjector wraps a FileOpener so that every ByteFile it hands out
 * misbehaves on a schedule that is a pure function of the plan's seed
 * and the file's path (per-file xoshiro streams — no dependence on
 * thread timing or open order). Injected fault classes:
 *
 *   - transient open/read failures: the first N attempts per path
 *     throw util::TransientError, then succeed — models EINTR/EAGAIN
 *     and exercises the suite runner's retry/backoff path;
 *   - truncation: the file appears cut off at a byte offset — the
 *     reader's header-vs-size validation must catch it;
 *   - short reads: read() serves a prefix of the request — callers'
 *     refill loops must cope without data loss;
 *   - bit flips: one bit of a served chunk is inverted — the VBT2
 *     stream checksum (or record validation) must catch it.
 *
 * Counters record how often each class actually fired, so tests can
 * assert every class was exercised under a fixed seed.
 */

#ifndef VLPSIM_TRACE_FAULT_INJECTION_H
#define VLPSIM_TRACE_FAULT_INJECTION_H

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "trace/byte_file.h"
#include "util/rng.h"

namespace vlp {
namespace trace {

/** What to inject, and how often. Probabilities are per read() call. */
struct FaultPlan
{
    static constexpr std::uint64_t noTruncation = ~std::uint64_t{0};

    /** Seed combined with each file's path hash. */
    std::uint64_t seed = 1;
    /** Opens of each path that fail transiently before succeeding. */
    unsigned transientOpens = 0;
    /** read() calls per path that fail transiently before succeeding. */
    unsigned transientReads = 0;
    /** Probability a read() serves only a prefix of the request. */
    double shortReadProbability = 0.0;
    /** Probability a read() flips one random bit of the served chunk. */
    double bitFlipProbability = 0.0;
    /** Bytes beyond this offset appear to not exist. */
    std::uint64_t truncateAt = noTruncation;
    /**
     * Serve view() from a faultable buffer instead of refusing it.
     * Off, FaultyFile rejects every view, so consumers silently take
     * their stdio fallback and the in-place (mmap) decode path runs
     * fault-free; on, views are served — and can be refused or
     * bit-flipped per the probabilities below — so the zero-copy
     * path faces the same hostility as read().
     */
    bool serveViews = false;
    /** Probability a view() is refused (nullptr), forcing the
     *  caller's buffered fallback mid-stream. */
    double shortViewProbability = 0.0;
    /** Probability a served view carries one flipped bit. */
    double viewBitFlipProbability = 0.0;
};

/** How often each fault class fired (across all files). */
struct FaultCounters
{
    std::uint64_t transientOpens = 0;
    std::uint64_t transientReads = 0;
    std::uint64_t shortReads = 0;
    std::uint64_t bitFlips = 0;
    std::uint64_t truncations = 0;
    std::uint64_t shortViews = 0;
    std::uint64_t viewBitFlips = 0;
};

/**
 * Factory for fault-injecting ByteFiles. Thread-safe; one injector is
 * shared across every open so per-path transient budgets hold across
 * reopens (a retry after a transient failure must eventually succeed).
 */
class FaultInjector
{
  public:
    explicit FaultInjector(FaultPlan plan) : plan_(plan) {}

    /**
     * An opener that wraps @p inner (default: openByteFile) with
     * this injector's faults. The returned opener may outlive no
     * longer than the injector.
     */
    FileOpener opener(FileOpener inner = {});

    /** Snapshot of the fault counters. */
    FaultCounters counters() const;

    /** The plan this injector was built with. */
    const FaultPlan &plan() const { return plan_; }

  private:
    friend class FaultyFile;

    /** Per-path state shared across reopens. */
    struct PathState
    {
        unsigned opensFailed = 0;
        unsigned readsFailed = 0;
    };

    PathState &pathState(const std::string &path);
    void count(std::uint64_t FaultCounters::*counter);

    FaultPlan plan_;
    mutable std::mutex mutex_;
    FaultCounters counters_;
    std::map<std::string, PathState> states_;
};

/**
 * A ByteFile decorator applying a FaultInjector's plan. Created via
 * FaultInjector::opener(); exposed for direct use in harness tests.
 */
class FaultyFile : public ByteFile
{
  public:
    FaultyFile(std::unique_ptr<ByteFile> inner, FaultInjector &injector);

    std::size_t read(void *buffer, std::size_t size) override;
    void seek(std::uint64_t offset) override;
    std::uint64_t size() override;
    const std::string &name() const override { return inner_->name(); }

    /**
     * When the plan enables serveViews: the requested window, served
     * from an internal buffer (copied from the inner backend) so
     * injected bit flips never write through to a shared mapping.
     * Refused (nullptr) with shortViewProbability, and always when
     * serveViews is off or the window crosses the truncation point.
     */
    const std::uint8_t *view(std::uint64_t offset,
                             std::size_t size) override;

  private:
    std::uint64_t effectiveSize();

    std::unique_ptr<ByteFile> inner_;
    FaultInjector &injector_;
    std::uint64_t position_ = 0;
    util::Rng rng_;
    std::vector<std::uint8_t> viewBuffer_;
};

/**
 * Wrap @p inner so every open and every ByteFile it yields consults
 * the global chaos switchboard (util/chaos.h): sections
 * trace.open.transient / trace.read.transient (throw TransientError),
 * trace.read.short (serve a prefix), and trace.view.refuse (return
 * nullptr, forcing the buffered fallback). Pass-through — zero
 * overhead and zero wrapping — while chaos is disabled at open time.
 */
FileOpener chaosOpener(FileOpener inner);

} // namespace trace
} // namespace vlp

#endif // VLPSIM_TRACE_FAULT_INJECTION_H
