/**
 * @file
 * vlpsim-serve frame codec implementation.
 */

#include "serve/protocol.h"

#include <stdexcept>

#include "sim/report.h"
#include "util/version.h"

namespace vlp {
namespace serve {

namespace {

/** Required string member of @p frame. */
std::string
stringField(const util::Json &frame, const std::string &key)
{
    const util::Json *value = frame.find(key);
    if (value == nullptr || !value->isString())
        throw std::runtime_error("submit frame needs string '" + key
                                 + "'");
    return value->asString();
}

/** Optional unsigned member; @p fallback when absent. */
std::uint64_t
uintField(const util::Json &frame, const std::string &key,
          std::uint64_t fallback)
{
    const util::Json *value = frame.find(key);
    if (value == nullptr)
        return fallback;
    if (!value->isNumber())
        throw std::runtime_error("submit frame field '" + key
                                 + "' must be a number");
    return value->asUint();
}

/** "cond"/"ind" → indirect flag. */
bool
parseClass(const util::Json &frame)
{
    const std::string text = stringField(frame, "class");
    if (text == "cond")
        return false;
    if (text == "ind")
        return true;
    throw std::runtime_error(
        "submit frame 'class' must be 'cond' or 'ind'");
}

} // anonymous namespace

std::size_t
SubmitSpec::cost(std::size_t frame_bytes) const
{
    std::size_t working_set = 0;
    if (op == "suite") {
        working_set = suite.bytes;
    } else if (op == "sweep") {
        for (const std::size_t budget : sweep.budgets)
            working_set += budget;
    } else if (op == "trace-suite") {
        working_set = traceBytes;
    }
    return frame_bytes + working_set;
}

SubmitSpec
parseSubmit(const util::Json &frame)
{
    SubmitSpec spec;
    spec.op = stringField(frame, "op");
    // priority may legitimately be negative, so it bypasses
    // uintField().
    if (const util::Json *priority = frame.find("priority")) {
        if (!priority->isNumber())
            throw std::runtime_error(
                "submit frame field 'priority' must be a number");
        spec.priority = static_cast<int>(priority->asNumber());
    }

    if (spec.op == "suite") {
        spec.suite.indirect = parseClass(frame);
        spec.suite.bytes = static_cast<std::size_t>(
            uintField(frame, "bytes", 8 * 1024));
        spec.suite.jobs =
            static_cast<unsigned>(uintField(frame, "jobs", 1));
        if (spec.suite.bytes == 0)
            throw std::runtime_error(
                "submit frame 'bytes' must be positive");
        return spec;
    }
    if (spec.op == "sweep") {
        spec.sweep.indirect = parseClass(frame);
        const util::Json *budgets = frame.find("budgets");
        if (budgets == nullptr || !budgets->isArray()
            || budgets->items().empty()) {
            throw std::runtime_error(
                "submit frame needs non-empty array 'budgets'");
        }
        for (const util::Json &budget : budgets->items()) {
            if (!budget.isNumber() || budget.asUint() == 0)
                throw std::runtime_error(
                    "submit frame 'budgets' entries must be positive "
                    "numbers");
            spec.sweep.budgets.push_back(
                static_cast<std::size_t>(budget.asUint()));
        }
        spec.sweep.jobs =
            static_cast<unsigned>(uintField(frame, "jobs", 1));
        return spec;
    }
    if (spec.op == "trace-suite") {
        spec.tracesDirectory = stringField(frame, "traces");
        if (const util::Json *pairs = frame.find("pairs")) {
            if (!pairs->isString())
                throw std::runtime_error(
                    "submit frame field 'pairs' must be a string");
            spec.pairsManifest = pairs->asString();
        }
        spec.traceBytes = static_cast<std::size_t>(
            uintField(frame, "bytes", 8 * 1024));
        spec.traceJobs =
            static_cast<unsigned>(uintField(frame, "jobs", 1));
        if (spec.traceBytes == 0)
            throw std::runtime_error(
                "submit frame 'bytes' must be positive");
        return spec;
    }
    if (spec.op == "sleep") {
        spec.sleepMs =
            static_cast<unsigned>(uintField(frame, "ms", 100));
        return spec;
    }
    throw std::runtime_error("unknown submit op '" + spec.op
                             + "' (expected suite, sweep, "
                               "trace-suite, or sleep)");
}

int
admissionCode(Admission admission)
{
    switch (admission) {
    case Admission::Accepted:
        return 0;
    case Admission::QueueFull:
    case Admission::BytesExhausted:
        return 429;
    case Admission::Draining:
    case Admission::Closed:
        return 503;
    }
    return 500;
}

// --- frame builders -------------------------------------------------

std::string
submitFrame(const SubmitSpec &spec)
{
    util::JsonWriter writer(util::JsonWriter::Style::Compact);
    writer.beginObject();
    writer.member("type", "submit");
    writer.member("op", spec.op);
    if (spec.op == "suite") {
        writer.member("class", spec.suite.indirect ? "ind" : "cond");
        writer.member("bytes", std::uint64_t{spec.suite.bytes});
        writer.member("jobs", std::uint64_t{spec.suite.jobs});
    } else if (spec.op == "sweep") {
        writer.member("class", spec.sweep.indirect ? "ind" : "cond");
        writer.key("budgets");
        writer.beginArray();
        for (const std::size_t budget : spec.sweep.budgets)
            writer.value(std::uint64_t{budget});
        writer.endArray();
        writer.member("jobs", std::uint64_t{spec.sweep.jobs});
    } else if (spec.op == "trace-suite") {
        writer.member("traces", spec.tracesDirectory);
        if (!spec.pairsManifest.empty())
            writer.member("pairs", spec.pairsManifest);
        writer.member("bytes", std::uint64_t{spec.traceBytes});
        writer.member("jobs", std::uint64_t{spec.traceJobs});
    } else if (spec.op == "sleep") {
        writer.member("ms", std::uint64_t{spec.sleepMs});
    }
    if (spec.priority != 0) {
        writer.key("priority");
        writer.rawNumber(std::to_string(spec.priority));
    }
    writer.endObject();
    return writer.str();
}

std::string
clientStatusFrame(std::uint64_t id)
{
    util::JsonWriter writer(util::JsonWriter::Style::Compact);
    writer.beginObject();
    writer.member("type", "status");
    if (id != 0)
        writer.member("id", id);
    writer.endObject();
    return writer.str();
}

std::string
clientCancelFrame(std::uint64_t id)
{
    util::JsonWriter writer(util::JsonWriter::Style::Compact);
    writer.beginObject();
    writer.member("type", "cancel");
    writer.member("id", id);
    writer.endObject();
    return writer.str();
}

std::string
clientShutdownFrame()
{
    util::JsonWriter writer(util::JsonWriter::Style::Compact);
    writer.beginObject();
    writer.member("type", "shutdown");
    writer.endObject();
    return writer.str();
}

std::string
helloFrame()
{
    util::JsonWriter writer(util::JsonWriter::Style::Compact);
    writer.beginObject();
    writer.member("type", "hello");
    writer.member("service", serviceName);
    writer.member("version", util::buildVersion());
    writer.member("schemaVersion",
                  std::uint64_t{sim::reportSchemaVersion});
    writer.member("protocolVersion", std::uint64_t{protocolVersion});
    writer.endObject();
    return writer.str();
}

std::string
acceptedFrame(std::uint64_t id, std::size_t position)
{
    util::JsonWriter writer(util::JsonWriter::Style::Compact);
    writer.beginObject();
    writer.member("type", "accepted");
    writer.member("id", id);
    writer.member("position", std::uint64_t{position});
    writer.endObject();
    return writer.str();
}

std::string
rejectedFrame(int code, const std::string &reason)
{
    util::JsonWriter writer(util::JsonWriter::Style::Compact);
    writer.beginObject();
    writer.member("type", "rejected");
    writer.member("code", std::uint64_t{static_cast<unsigned>(code)});
    writer.member("reason", reason);
    writer.endObject();
    return writer.str();
}

std::string
progressFrame(std::uint64_t id, const std::string &stage,
              std::size_t completed, std::size_t total)
{
    util::JsonWriter writer(util::JsonWriter::Style::Compact);
    writer.beginObject();
    writer.member("type", "progress");
    writer.member("id", id);
    writer.member("stage", stage);
    writer.member("completed", std::uint64_t{completed});
    writer.member("total", std::uint64_t{total});
    writer.endObject();
    return writer.str();
}

std::string
heartbeatFrame(std::uint64_t id, std::uint64_t sequence)
{
    util::JsonWriter writer(util::JsonWriter::Style::Compact);
    writer.beginObject();
    writer.member("type", "heartbeat");
    writer.member("id", id);
    writer.member("seq", sequence);
    writer.endObject();
    return writer.str();
}

std::string
resultFrame(std::uint64_t id, const sim::Report &report,
            std::uint64_t cache_hits, std::uint64_t cache_misses,
            std::uint64_t cache_inserts, bool cache_hit,
            std::uint64_t predictions)
{
    util::JsonWriter writer(util::JsonWriter::Style::Compact);
    writer.beginObject();
    writer.member("type", "result");
    writer.member("id", id);
    writer.member("status", "ok");
    writer.member("cacheHits", cache_hits);
    writer.member("cacheMisses", cache_misses);
    writer.member("cacheInserts", cache_inserts);
    writer.member("cacheHit", cache_hit);
    writer.member("predictions", predictions);
    writer.key("report");
    sim::JsonReportSink().write(report, writer);
    writer.endObject();
    return writer.str();
}

std::string
statusReportFrame(std::uint64_t id, const std::string &state,
                  std::size_t position)
{
    util::JsonWriter writer(util::JsonWriter::Style::Compact);
    writer.beginObject();
    writer.member("type", "status-report");
    writer.member("id", id);
    writer.member("state", state);
    if (state == "queued")
        writer.member("position", std::uint64_t{position});
    writer.endObject();
    return writer.str();
}

std::string
serverStatusFrame(std::size_t queue_depth, std::size_t inflight_bytes,
                  std::uint64_t accepted, std::uint64_t rejected,
                  std::uint64_t completed, std::uint64_t cancelled,
                  bool draining)
{
    util::JsonWriter writer(util::JsonWriter::Style::Compact);
    writer.beginObject();
    writer.member("type", "status-report");
    writer.member("queueDepth", std::uint64_t{queue_depth});
    writer.member("inflightBytes", std::uint64_t{inflight_bytes});
    writer.member("accepted", accepted);
    writer.member("rejected", rejected);
    writer.member("completed", completed);
    writer.member("cancelled", cancelled);
    writer.member("draining", draining);
    writer.endObject();
    return writer.str();
}

std::string
cancelledFrame(std::uint64_t id, const std::string &state)
{
    util::JsonWriter writer(util::JsonWriter::Style::Compact);
    writer.beginObject();
    writer.member("type", "cancelled");
    writer.member("id", id);
    writer.member("state", state);
    writer.endObject();
    return writer.str();
}

std::string
shuttingDownFrame()
{
    util::JsonWriter writer(util::JsonWriter::Style::Compact);
    writer.beginObject();
    writer.member("type", "shutting-down");
    writer.endObject();
    return writer.str();
}

std::string
errorFrame(std::uint64_t id, const std::string &message)
{
    util::JsonWriter writer(util::JsonWriter::Style::Compact);
    writer.beginObject();
    writer.member("type", "error");
    writer.member("id", id);
    writer.member("message", message);
    writer.endObject();
    return writer.str();
}

} // namespace serve
} // namespace vlp
