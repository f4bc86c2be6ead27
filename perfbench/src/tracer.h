/**
 * @file
 * In-memory span recorder for the traced benchmark runs.
 *
 * A span is one call into a vlpsim module's public API made from the
 * benchmark's own code: name, start, end, the span that was open on
 * the same thread when it began (its parent), and the worker that ran
 * it. Spans stay in memory until the run ends; aggregates and the
 * span dump are produced from the finished list. When no Tracer is
 * active, Scope does nothing, so the untraced code paths stay free of
 * clock reads.
 */

#ifndef PERFBENCH_TRACER_H
#define PERFBENCH_TRACER_H

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/** Monotonic seconds (CLOCK_MONOTONIC, comparable across processes). */
double now();

struct Span
{
    const char *name = "";
    double start = 0.0;
    double end = 0.0;
    /** Unique id (from 1) and the enclosing span's id (0 = root). */
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    unsigned worker = 0;
    /** Work items the call handled (records, bytes...), 0 if none. */
    std::uint64_t items = 0;
};

/** Per-name sums over the finished spans. */
struct SpanTotals
{
    std::uint64_t calls = 0;
    /** Summed inclusive durations (seconds, across workers). */
    double seconds = 0.0;
    /** Summed self time: duration minus the part covered by children. */
    double selfSeconds = 0.0;
    std::uint64_t items = 0;
};

class Tracer
{
  public:
    /** Make this tracer the process-wide recorder (one at a time). */
    Tracer();
    ~Tracer();

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /** The active tracer, or nullptr when tracing is off. */
    static Tracer *active();

    void record(const Span &span);

    std::uint64_t nextId();

    /** Totals keyed by span name. */
    std::map<std::string, SpanTotals> totals() const;

    /** Write every span as one JSON object per line. */
    void dump(const std::string &path) const;

  private:
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
    std::uint64_t lastId_ = 0;
};

/** The worker index recorded on spans opened by this thread. */
void setWorker(unsigned worker);

/**
 * RAII span. Construction opens it under the thread's current span;
 * destruction closes and records it. A no-op without an active Tracer.
 */
class Scope
{
  public:
    explicit Scope(const char *name, std::uint64_t items = 0);
    ~Scope();

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    /** Set the span's work-item count after the fact. */
    void setItems(std::uint64_t items) { span_.items = items; }

  private:
    Tracer *tracer_;
    Span span_;
    std::uint64_t savedParent_ = 0;
};

} // namespace perfbench

#endif // PERFBENCH_TRACER_H
