/**
 * @file
 * Span recorder implementation.
 */

#include "tracer.h"

#include <atomic>
#include <ctime>
#include <fstream>
#include <stdexcept>
#include <unordered_map>

namespace perfbench {

namespace {

std::atomic<Tracer *> activeTracer{nullptr};
thread_local std::uint64_t currentSpan = 0;
thread_local unsigned currentWorker = 0;

} // anonymous namespace

double
now()
{
    timespec ts{};
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<double>(ts.tv_sec)
        + static_cast<double>(ts.tv_nsec) * 1e-9;
}

Tracer::Tracer()
{
    Tracer *expected = nullptr;
    if (!activeTracer.compare_exchange_strong(expected, this))
        throw std::logic_error("a Tracer is already active");
    spans_.reserve(1 << 16);
}

Tracer::~Tracer()
{
    activeTracer.store(nullptr);
}

Tracer *
Tracer::active()
{
    return activeTracer.load(std::memory_order_relaxed);
}

void
Tracer::record(const Span &span)
{
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(span);
}

std::uint64_t
Tracer::nextId()
{
    std::lock_guard<std::mutex> lock(mutex_);
    return ++lastId_;
}

std::map<std::string, SpanTotals>
Tracer::totals() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::unordered_map<std::uint64_t, double> child_seconds;
    for (const Span &span : spans_) {
        if (span.parent != 0)
            child_seconds[span.parent] += span.end - span.start;
    }
    std::map<std::string, SpanTotals> totals;
    for (const Span &span : spans_) {
        SpanTotals &total = totals[span.name];
        const double seconds = span.end - span.start;
        ++total.calls;
        total.seconds += seconds;
        const auto it = child_seconds.find(span.id);
        total.selfSeconds +=
            seconds - (it == child_seconds.end() ? 0.0 : it->second);
        total.items += span.items;
    }
    return totals;
}

void
Tracer::dump(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::ofstream out(path);
    if (!out)
        throw std::runtime_error("cannot write span dump " + path);
    out.precision(17);
    for (const Span &span : spans_) {
        out << "{\"name\":\"" << span.name << "\",\"id\":" << span.id
            << ",\"parent\":" << span.parent
            << ",\"worker\":" << span.worker
            << ",\"start\":" << span.start << ",\"end\":" << span.end
            << ",\"items\":" << span.items << "}\n";
    }
}

void
setWorker(unsigned worker)
{
    currentWorker = worker;
}

Scope::Scope(const char *name, std::uint64_t items)
    : tracer_(Tracer::active())
{
    if (tracer_ == nullptr)
        return;
    span_.name = name;
    span_.items = items;
    span_.id = tracer_->nextId();
    span_.parent = currentSpan;
    span_.worker = currentWorker;
    savedParent_ = currentSpan;
    currentSpan = span_.id;
    span_.start = now();
}

Scope::~Scope()
{
    if (tracer_ == nullptr)
        return;
    span_.end = now();
    currentSpan = savedParent_;
    tracer_->record(span_);
}

} // namespace perfbench
