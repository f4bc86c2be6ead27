/**
 * @file
 * Process-wide deterministic chaos switchboard (Buggify-style).
 *
 * Production code marks hazard points with CHAOS_SECTION("name") (or
 * chaos::fire("name", identity)); each named section is *activated*
 * once per run with probability p_activate, and an activated section
 * *fires* on a given reach with probability p_fire — FoundationDB's
 * Buggify discipline. Both decisions are pure functions of
 * (campaign seed, section name, identity, per-identity reach count),
 * never of thread timing: the same seed over the same workload makes
 * the same faults fire at the same hazard points regardless of --jobs
 * or scheduling, so any campaign failure replays exactly from its
 * seed.
 *
 * The identity string names the work unit at the hazard point (a
 * trace path, a cache key); hazard points that pass one get
 * fire decisions that follow the work item across thread
 * interleavings. Sections with no natural identity (serve-side
 * connection events) still fire deterministically in aggregate but
 * not per-reach-order.
 *
 * Disabled by default; fire() is a single relaxed atomic load when
 * off, so instrumented hot paths cost nothing in normal runs.
 */

#ifndef VLPSIM_UTIL_CHAOS_H
#define VLPSIM_UTIL_CHAOS_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace vlp {
namespace util {
namespace chaos {

/** Global switchboard knobs (the --chaos* flags). */
struct Config
{
    /** Master switch; false = every fire() is false, no accounting. */
    bool enabled = false;
    /** Campaign seed; every decision derives from it. */
    std::uint64_t seed = 1;
    /** Per-run probability that a section activates at all. */
    double activateProbability = 0.25;
    /** Per-reach probability that an activated section fires. */
    double fireProbability = 0.25;
    /** When non-empty, only these sections may activate (targeted
     *  tests); others are reached-but-skipped. */
    std::vector<std::string> only;
};

/** Install @p config and reset all section state and counters. */
void configure(const Config &config);

/** Turn the switchboard off and clear all state (test teardown). */
void disable();

/** Is the switchboard on? */
bool enabled();

/**
 * Reach the named section: true when the section is activated this
 * run and this reach fires. @p identity names the work unit (trace
 * path, cache key, ...) so the decision is stable across thread
 * interleavings; empty is allowed for sections without one.
 */
bool fire(const std::string &section,
          const std::string &identity = std::string());

/** Per-section accounting, exported into report metadata. */
struct SectionStats
{
    /** Did this run's activation draw come up true? */
    bool activated = false;
    /** Reaches while the switchboard was on. */
    std::uint64_t reached = 0;
    /** Reaches that injected the fault. */
    std::uint64_t fired = 0;
    /** Reaches that passed through unharmed. */
    std::uint64_t skipped = 0;

    friend bool operator==(const SectionStats &a,
                           const SectionStats &b)
    {
        return a.activated == b.activated && a.reached == b.reached
            && a.fired == b.fired && a.skipped == b.skipped;
    }
    friend bool operator!=(const SectionStats &a,
                           const SectionStats &b)
    {
        return !(a == b);
    }
};

/** Snapshot of every section reached since configure(). */
std::map<std::string, SectionStats> counters();

/** Canonical registry of the sections instrumented in this build;
 *  campaign coverage checks sweep seeds against this list. */
const std::vector<std::string> &knownSections();

/**
 * Identity for a filesystem path: its final component. Hazard points
 * keyed by file use this so a seeded campaign makes the same
 * decisions wherever the corpus or store happens to live.
 */
std::string pathKey(const std::string &path);

} // namespace chaos
} // namespace util
} // namespace vlp

/** Buggify-style hazard marker: CHAOS_SECTION("store.insert.torn")
 *  or CHAOS_SECTION("trace.read.transient", path). */
#define CHAOS_SECTION(...) (::vlp::util::chaos::fire(__VA_ARGS__))

#endif // VLPSIM_UTIL_CHAOS_H
