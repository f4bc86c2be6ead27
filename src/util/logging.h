/**
 * @file
 * Minimal gem5-style status/error reporting and environment helpers.
 *
 * fatal() is for user-caused conditions (bad configuration, bad trace
 * file): it throws a std::runtime_error so callers and tests can catch
 * it.
 *
 * The message functions (debug/inform/warn/error) share one
 * mutex-guarded writer, so lines from concurrent workers and daemon
 * request handlers never interleave mid-line. A severity threshold
 * (setLogLevel, `--log-level`, or VLPSIM_LOG_LEVEL) filters output,
 * and setLogTimestamps(true) prefixes every line with a monotonic
 * seconds-since-start stamp — the serve daemon turns this on so
 * interleaved per-request logs stay attributable and ordered.
 */

#ifndef VLPSIM_UTIL_LOGGING_H
#define VLPSIM_UTIL_LOGGING_H

#include <functional>
#include <stdexcept>
#include <string>

namespace vlp {
namespace util {

/**
 * An I/O failure that is worth retrying: an interrupted read, a
 * momentarily unavailable file, an injected transient fault. Callers
 * that replay whole units of work (the external-trace suite runner)
 * catch this separately from std::runtime_error and retry with
 * backoff; anything else is treated as permanent.
 */
class TransientError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** Message severities, in increasing order. */
enum class LogLevel { Debug = 0, Info, Warn, Error };

/**
 * Parse "debug" / "info" / "warn" / "error" (the `--log-level`
 * spellings).
 * @throws std::runtime_error on anything else
 */
LogLevel parseLogLevel(const std::string &text);

/**
 * Drop messages below @p level. The default is Info (debug messages
 * are suppressed), overridable at startup with VLPSIM_LOG_LEVEL.
 */
void setLogLevel(LogLevel level);

/** The current severity threshold. */
LogLevel logLevel();

/**
 * Prefix every line with "[<seconds>] " measured on the monotonic
 * clock since the first log call. Off by default so one-shot CLI
 * output stays byte-stable; the serve daemon enables it.
 */
void setLogTimestamps(bool enabled);

/**
 * Redirect log lines (the fully formatted text, no trailing newline)
 * to @p sink instead of stderr; pass an empty function to restore
 * stderr. Tests use this to capture and assert on log output.
 */
void setLogSink(std::function<void(const std::string &)> sink);

/** Print a debug-level message ("debug: ..."; dropped by default). */
void debug(const std::string &message);

/** Print an informational message to stderr ("info: ..."). */
void inform(const std::string &message);

/** Print a warning to stderr ("warn: ..."). */
void warn(const std::string &message);

/** Print an error-level message to stderr ("error: ..."). */
void error(const std::string &message);

/**
 * Report an unrecoverable user error.
 * @throws std::runtime_error always
 */
[[noreturn]] void fatal(const std::string &message);

/**
 * Read the global workload scale factor from the VLPSIM_SCALE
 * environment variable. Defaults to 1.0; values are clamped to
 * [0.001, 1000]. All synthetic dynamic trace lengths are multiplied by
 * this factor, so the full experiment suite can be run quickly
 * (VLPSIM_SCALE=0.1) or at near-paper lengths (VLPSIM_SCALE=20).
 */
double workloadScale();

} // namespace util
} // namespace vlp

#endif // VLPSIM_UTIL_LOGGING_H
