/**
 * @file
 * vlpsim-serve wire protocol: newline-delimited JSON frames.
 *
 * Transport is a byte stream (TCP loopback or a Unix-domain socket);
 * every frame is one compact JSON object on one line, terminated by
 * `\n`. The server greets each connection with a `hello` frame that
 * names the service, build version, report schema version, and
 * protocol version — clients check the protocol version before
 * submitting. Full frame vocabulary and examples live in
 * docs/FORMATS.md §"serve wire protocol".
 *
 * Client frames:  submit, status, cancel, shutdown
 * Server frames:  hello, accepted, rejected, progress, heartbeat,
 *                 result, status-report, cancelled, shutting-down,
 *                 error
 *
 * This header owns frame *construction and parsing* only — builders
 * return the one-line JSON text (no trailing newline) and
 * parseSubmit() turns a client submit frame into a typed spec. No
 * sockets, no threads: the codec is unit-testable in isolation and
 * shared verbatim by server and client.
 */

#ifndef VLPSIM_SERVE_PROTOCOL_H
#define VLPSIM_SERVE_PROTOCOL_H

#include <cstddef>
#include <cstdint>
#include <string>

#include "serve/request_queue.h"
#include "sim/service.h"
#include "util/json.h"

namespace vlp {
namespace serve {

/** Bumped on any incompatible frame change. */
inline constexpr std::uint32_t protocolVersion = 1;

/** Service identifier in the hello frame. */
inline constexpr const char *serviceName = "vlpsim-serve";

/** One parsed submit frame: which experiment to run. */
struct SubmitSpec
{
    /** "suite", "sweep", "trace-suite", or "sleep" (debug). */
    std::string op;
    /** op == "suite": synthetic-suite comparison. */
    sim::SuiteCompareSpec suite;
    /** op == "sweep": table-budget sweep. */
    sim::SweepSpec sweep;
    /** op == "trace-suite": external corpus by directory reference. */
    std::string tracesDirectory;
    /** Optional pair manifest for trace-suite. */
    std::string pairsManifest;
    /** Table budget for trace-suite. */
    std::size_t traceBytes = 8 * 1024;
    /** Worker threads for trace-suite. */
    unsigned traceJobs = 1;
    /**
     * op == "sleep": hold a worker for this many milliseconds, then
     * return an empty report. Exists so tests and the CI smoke job
     * can deterministically fill the queue and cancel mid-run without
     * depending on experiment runtimes.
     */
    unsigned sleepMs = 0;
    /** Scheduling priority (higher first; default 0). */
    int priority = 0;

    /**
     * Admission cost in bytes: the frame's own size plus a
     * deterministic working-set estimate per op (predictor table
     * budget for suite, summed budgets for sweep, the table budget
     * for trace-suite, nothing for sleep). Used against
     * QueueLimits::maxInflightBytes.
     */
    std::size_t cost(std::size_t frame_bytes) const;
};

/**
 * Parse a client submit frame. Members it does not know are ignored,
 * so a protocol-v1 peer that still sends a retired field (the
 * trace-suite "readMode") is served unchanged.
 * @throws std::runtime_error naming the missing/malformed field
 */
SubmitSpec parseSubmit(const util::Json &frame);

/** HTTP-flavored rejection code for a failed admission (429 for
 *  capacity, 503 for drain/shutdown). */
int admissionCode(Admission admission);

// --- frame builders (one-line JSON, no trailing newline) ------------

/** Client submit frame for @p spec (inverse of parseSubmit()). */
std::string submitFrame(const SubmitSpec &spec);

/** Client status query; @p id 0 asks for server-wide status. */
std::string clientStatusFrame(std::uint64_t id);

std::string clientCancelFrame(std::uint64_t id);

std::string clientShutdownFrame();

/** Server greeting: service, build version, schema + protocol. */
std::string helloFrame();

std::string acceptedFrame(std::uint64_t id, std::size_t position);

/** Admission rejection; @p code is admissionCode(). */
std::string rejectedFrame(int code, const std::string &reason);

std::string progressFrame(std::uint64_t id, const std::string &stage,
                          std::size_t completed, std::size_t total);

std::string heartbeatFrame(std::uint64_t id, std::uint64_t sequence);

/**
 * Final success frame. @p report is rendered once, by JsonReportSink
 * straight into the frame, as the embedded vlpsim-report object: the
 * compact form of the document `--format json` exports.
 * Cache counters are this request's own store activity; cache_hit is
 * the warm-answer flag (every artifact came from the store).
 */
std::string resultFrame(std::uint64_t id, const sim::Report &report,
                        std::uint64_t cache_hits,
                        std::uint64_t cache_misses,
                        std::uint64_t cache_inserts, bool cache_hit,
                        std::uint64_t predictions);

/** Per-request status answer. @p position is meaningful only for
 *  state "queued" (npos-like SIZE_MAX = not queued). */
std::string statusReportFrame(std::uint64_t id,
                              const std::string &state,
                              std::size_t position);

/** Server-wide status answer (status frame without an id). */
std::string serverStatusFrame(std::size_t queue_depth,
                              std::size_t inflight_bytes,
                              std::uint64_t accepted,
                              std::uint64_t rejected,
                              std::uint64_t completed,
                              std::uint64_t cancelled, bool draining);

/** Cancellation ack; @p state is "queued" (never started) or
 *  "running" (token fired, request unwound). */
std::string cancelledFrame(std::uint64_t id, const std::string &state);

std::string shuttingDownFrame();

/** Request-scoped failure (id 0 = connection-scoped, e.g. a frame
 *  that could not be parsed). */
std::string errorFrame(std::uint64_t id, const std::string &message);

} // namespace serve
} // namespace vlp

#endif // VLPSIM_SERVE_PROTOCOL_H
