/**
 * @file
 * Logging and environment helper implementation.
 *
 * All four message functions funnel into logLine(): the line is fully
 * assembled first, then written under one global mutex with a single
 * fputs, so concurrent threads (ThreadPool workers, serve request
 * handlers) can never interleave characters within a line.
 */

#include "util/logging.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <mutex>

namespace vlp {
namespace util {

namespace {

std::mutex &
logMutex()
{
    static std::mutex mutex;
    return mutex;
}

std::function<void(const std::string &)> &
logSink()
{
    static std::function<void(const std::string &)> sink;
    return sink;
}

std::atomic<int> &
levelThreshold()
{
    static std::atomic<int> threshold{[] {
        const char *env = std::getenv("VLPSIM_LOG_LEVEL");
        if (env != nullptr) {
            try {
                return static_cast<int>(parseLogLevel(env));
            } catch (const std::runtime_error &) {
                // Fall through to the default; warning here would
                // recurse into the logger being initialized.
            }
        }
        return static_cast<int>(LogLevel::Info);
    }()};
    return threshold;
}

std::atomic<bool> timestampsEnabled{false};

/** Monotonic start reference, latched on first use. */
std::chrono::steady_clock::time_point
startTime()
{
    static const auto start = std::chrono::steady_clock::now();
    return start;
}

const char *
levelTag(LogLevel level)
{
    switch (level) {
    case LogLevel::Debug: return "debug";
    case LogLevel::Info: return "info";
    case LogLevel::Warn: return "warn";
    case LogLevel::Error: return "error";
    }
    return "info";
}

void
logLine(LogLevel level, const std::string &message)
{
    if (static_cast<int>(level) < levelThreshold().load())
        return;
    std::string line;
    if (timestampsEnabled.load()) {
        const double seconds =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - startTime())
                .count();
        char stamp[32];
        std::snprintf(stamp, sizeof(stamp), "[%10.3f] ", seconds);
        line += stamp;
    }
    line += levelTag(level);
    line += ": ";
    line += message;
    std::lock_guard<std::mutex> lock(logMutex());
    if (logSink()) {
        logSink()(line);
        return;
    }
    line += "\n";
    std::fputs(line.c_str(), stderr);
}

} // anonymous namespace

LogLevel
parseLogLevel(const std::string &text)
{
    if (text == "debug")
        return LogLevel::Debug;
    if (text == "info")
        return LogLevel::Info;
    if (text == "warn")
        return LogLevel::Warn;
    if (text == "error")
        return LogLevel::Error;
    throw std::runtime_error("unknown log level: " + text
                             + " (expected debug, info, warn, or "
                               "error)");
}

void
setLogLevel(LogLevel level)
{
    levelThreshold().store(static_cast<int>(level));
}

LogLevel
logLevel()
{
    return static_cast<LogLevel>(levelThreshold().load());
}

void
setLogTimestamps(bool enabled)
{
    if (enabled)
        startTime(); // latch the reference before the first line
    timestampsEnabled.store(enabled);
}

void
setLogSink(std::function<void(const std::string &)> sink)
{
    std::lock_guard<std::mutex> lock(logMutex());
    logSink() = std::move(sink);
}

void
debug(const std::string &message)
{
    logLine(LogLevel::Debug, message);
}

void
inform(const std::string &message)
{
    logLine(LogLevel::Info, message);
}

void
warn(const std::string &message)
{
    logLine(LogLevel::Warn, message);
}

void
error(const std::string &message)
{
    logLine(LogLevel::Error, message);
}

void
fatal(const std::string &message)
{
    throw std::runtime_error(message);
}

double
workloadScale()
{
    const char *value = std::getenv("VLPSIM_SCALE");
    if (value == nullptr)
        return 1.0;
    char *end = nullptr;
    double scale = std::strtod(value, &end);
    if (end == value || scale <= 0.0) {
        warn("ignoring malformed VLPSIM_SCALE value");
        return 1.0;
    }
    if (scale < 0.001)
        scale = 0.001;
    if (scale > 1000.0)
        scale = 1000.0;
    return scale;
}

} // namespace util
} // namespace vlp
