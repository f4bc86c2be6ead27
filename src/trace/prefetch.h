/**
 * @file
 * Bounded read-ahead for trace corpora.
 *
 * TracePrefetcher turns a sorted list of trace paths into a pipeline:
 * background producers open and verify upcoming traces while
 * consumers simulate earlier ones, so corpus ingestion overlaps I/O,
 * verification, and compute.
 *
 * Each open is one fused pass over the file (openTrace()): the
 * content hash, the VBT2 stream checksum, the decode, and every
 * per-record check share one loop, so a corrupt trace fails here,
 * before any replay. The pass interns the records into a resident
 * CompactTrace (trace/compact_trace.h) and closes the file; later
 * replays read that copy and never touch the file again. A trace the
 * process-wide resident budget cannot hold is instead kept as a
 * parked streaming session that re-reads and re-checksums the file on
 * every replay. Both forms replay identical records.
 *
 * The window bounds how many verified-but-unconsumed opens may exist
 * at once, which bounds the file descriptors parked sessions hold and
 * how far ahead of the consumers the resident copies are built,
 * regardless of corpus size.
 *
 * Consumption contract: take(i) blocks until item i is ready and may
 * be called from many threads, but each consumer must take its own
 * items in increasing index order, and every item must eventually be
 * taken (even when an earlier item of the same unit failed) — that is
 * what makes the bounded window deadlock-free. Failures never throw
 * out of the producers: each item carries either a verified trace or
 * the exception (post-retry) that prevented one, so consumers apply
 * their own quarantine policy. Results are a pure function of the
 * trace bytes — prefetching cannot change a report.
 */

#ifndef VLPSIM_TRACE_PREFETCH_H
#define VLPSIM_TRACE_PREFETCH_H

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "trace/compact_trace.h"
#include "trace/streaming.h"
#include "util/cancel.h"
#include "util/retry.h"

namespace vlp {
namespace trace {

/** One verified, hash-complete trace open. */
struct PrefetchedTrace
{
    /** The verified records, held resident; null when the resident
     *  budget could not hold them or @ref error is set. */
    std::shared_ptr<const CompactTrace> resident;
    /** A parked session over the still-open file (a HashingByteFile)
     *  when the trace is not resident; null otherwise. */
    std::shared_ptr<StreamingTraceReader> session;
    /** 32-hex content hash (hashTraceFile-identical). */
    std::string contentHash;
    /** Container version from the header (1 or 2). */
    unsigned formatVersion = 0;
    /** Records promised by the header. */
    std::uint64_t records = 0;
    /** Why the open failed, after retries; null on success. */
    std::exception_ptr error;
};

/** Pipelined opener over an ordered path list. */
class TracePrefetcher
{
  public:
    struct Options
    {
        /** How paths open; empty = openByteFile. */
        FileOpener opener;
        /** Max verified-but-untaken opens; 0 = no read-ahead
         *  (take() opens inline on the consumer thread). */
        std::size_t window = 0;
        /** Producer threads verifying ahead (ignored when window is
         *  0); clamped to the window. */
        unsigned threads = 1;
        /** Retry schedule for each open (opener faults included). */
        util::RetryPolicy retry;
        /** Cooperative cancellation; producers stop promptly and
         *  take() throws util::CancelledError. */
        std::shared_ptr<const util::CancelToken> cancel;
    };

    TracePrefetcher(std::vector<std::string> paths, Options options);

    TracePrefetcher(const TracePrefetcher &) = delete;
    TracePrefetcher &operator=(const TracePrefetcher &) = delete;

    /** Stops producers, joins them, and drops untaken opens. */
    ~TracePrefetcher();

    /**
     * The prefetched open of paths[index]; blocks until ready. Each
     * index may be taken exactly once.
     * @throws util::CancelledError once the token fires
     */
    PrefetchedTrace take(std::size_t index);

    /**
     * One synchronous verifying open: open via @p options.opener,
     * wrap in a HashingByteFile, validate the header, then make one
     * fused pass over the records — content hash, stream checksum,
     * decode, and per-record checks — interning them into a resident
     * CompactTrace while ResidentBudget::process() allows, else
     * parking a rewound session. All of it runs under the retry
     * policy, each attempt from a fresh open. Never throws; failures
     * land in PrefetchedTrace::error. (The building block producers
     * run; exposed for inline mode, tools, and benchmarks.)
     */
    static PrefetchedTrace openTrace(const std::string &path,
                                     const Options &options);

  private:
    void producerLoop();

    const std::vector<std::string> paths_;
    const Options options_;
    const std::size_t window_;

    std::mutex mutex_;
    std::condition_variable ready_; // a result landed
    std::condition_variable space_; // window freed / shutdown
    std::map<std::size_t, PrefetchedTrace> results_;
    /** Items claimed by a producer that died (chaos) before opening;
     *  take() opens them inline so the pipeline stays deadlock-free. */
    std::set<std::size_t> abandoned_;
    std::size_t nextToStart_ = 0;
    std::size_t outstanding_ = 0; // started and not yet taken
    /** Producers that have not died; when 0, take() stops waiting for
     *  unclaimed items and opens them inline. */
    std::size_t producersAlive_ = 0;
    bool stop_ = false;
    std::vector<std::thread> producers_;
};

} // namespace trace
} // namespace vlp

#endif // VLPSIM_TRACE_PREFETCH_H
