/**
 * @file
 * Chaos switchboard implementation.
 *
 * Decisions must be pure functions of (seed, section, identity,
 * per-identity reach count): each draw seeds a fresh Rng from a
 * mixed hash of those four values, so no shared stream exists whose
 * consumption order could depend on thread scheduling. The only
 * mutable state is the per-identity reach counter, and that counts
 * work items, which a deterministic workload reaches a deterministic
 * number of times.
 */

#include "util/chaos.h"

#include <algorithm>
#include <atomic>
#include <mutex>

#include "util/checksum.h"
#include "util/rng.h"

namespace vlp {
namespace util {
namespace chaos {

namespace {

struct SectionState
{
    bool activationDecided = false;
    SectionStats stats;
    /** Reach count per identity — the decision sequence number. */
    std::map<std::string, std::uint64_t> identitySeq;
};

struct Switchboard
{
    std::mutex mutex;
    Config config;
    std::map<std::string, SectionState> sections;
};

std::atomic<bool> gEnabled{false};

Switchboard &
board()
{
    static Switchboard instance;
    return instance;
}

/** SplitMix64 finalizer — mixes hash components into a seed. */
std::uint64_t
mix(std::uint64_t value)
{
    value += 0x9e3779b97f4a7c15ULL;
    value = (value ^ (value >> 30)) * 0xbf58476d1ce4e5b9ULL;
    value = (value ^ (value >> 27)) * 0x94d049bb133111ebULL;
    return value ^ (value >> 31);
}

} // anonymous namespace

void
configure(const Config &config)
{
    Switchboard &b = board();
    std::lock_guard<std::mutex> lock(b.mutex);
    b.config = config;
    b.sections.clear();
    gEnabled.store(config.enabled, std::memory_order_relaxed);
}

void
disable()
{
    configure(Config{});
}

bool
enabled()
{
    return gEnabled.load(std::memory_order_relaxed);
}

bool
fire(const std::string &section, const std::string &identity)
{
    if (!gEnabled.load(std::memory_order_relaxed))
        return false;

    Switchboard &b = board();
    std::lock_guard<std::mutex> lock(b.mutex);
    if (!b.config.enabled)
        return false;

    SectionState &state = b.sections[section];
    if (!state.activationDecided) {
        const bool allowed = b.config.only.empty()
            || std::find(b.config.only.begin(), b.config.only.end(),
                         section)
                != b.config.only.end();
        Rng rng(mix(b.config.seed)
                ^ mix(fnv1a("activate:" + section)));
        state.stats.activated = allowed
            && rng.nextBool(b.config.activateProbability);
        state.activationDecided = true;
    }
    ++state.stats.reached;
    if (!state.stats.activated) {
        ++state.stats.skipped;
        return false;
    }

    const std::uint64_t sequence = state.identitySeq[identity]++;
    Rng rng(mix(b.config.seed) ^ mix(fnv1a(section))
            ^ mix(fnv1a(identity) * 0x9e3779b97f4a7c15ULL)
            ^ mix(sequence));
    const bool fired = rng.nextBool(b.config.fireProbability);
    if (fired)
        ++state.stats.fired;
    else
        ++state.stats.skipped;
    return fired;
}

std::map<std::string, SectionStats>
counters()
{
    Switchboard &b = board();
    std::lock_guard<std::mutex> lock(b.mutex);
    std::map<std::string, SectionStats> snapshot;
    for (const auto &entry : b.sections)
        snapshot.emplace(entry.first, entry.second.stats);
    return snapshot;
}

std::string
pathKey(const std::string &path)
{
    const std::size_t slash = path.find_last_of('/');
    return slash == std::string::npos ? path : path.substr(slash + 1);
}

const std::vector<std::string> &
knownSections()
{
    static const std::vector<std::string> sections = {
        "retry.transient",
        "serve.accept.drop",
        "serve.admission.queue-full",
        "serve.cancel.step",
        "serve.heartbeat.stall",
        "serve.send.slow",
        "store.fetch.checksum-mismatch",
        "store.gc.reader-race",
        "store.insert.torn-rename",
        "trace.mmap.stdio-fallback",
        "trace.open.transient",
        "trace.prefetch.producer-death",
        "trace.read.short",
        "trace.read.transient",
        "trace.view.refuse",
    };
    return sections;
}

} // namespace chaos
} // namespace util
} // namespace vlp
