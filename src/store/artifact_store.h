/**
 * @file
 * Content-addressed, versioned on-disk cache for expensive profiling
 * artifacts.
 *
 * Layout under the cache directory:
 *
 *   objects/<aa>/<32-hex-key-hash>.vlpa   one artifact per file
 *   stats.log                             append-only counter lines
 *
 * Each entry file is magic + format version + the full canonical key
 * string + an XXH64-checksummed payload (docs/FORMATS.md). Entries are
 * written to a temp file in the same directory and atomically renamed
 * into place, so concurrent ParallelRunner workers and parallel CLI
 * invocations never observe torn entries — a reader sees either the
 * complete entry or none. Any validation failure on read (bad magic,
 * version skew, key mismatch, checksum mismatch, truncation) counts as
 * corruption: the entry is evicted and the caller recomputes, so a
 * damaged cache can slow a run down but never break it or change its
 * output.
 *
 * An LRU-style garbage collector bounds the cache: when maxBytes is
 * set, inserts evict the least-recently-used entries (file mtime) until
 * the total fits. A hit refreshes the mtime only when it is a minute or
 * more old, so the LRU order has that resolution. The collector (and
 * `verify`) also removes the temp file an insert was writing when its
 * process was killed, once that writer's pid is gone.
 */

#ifndef VLPSIM_STORE_ARTIFACT_STORE_H
#define VLPSIM_STORE_ARTIFACT_STORE_H

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "store/cache_key.h"

namespace vlp {
namespace store {

/** Store configuration. */
struct StoreOptions
{
    /** Cache root; created on first use. */
    std::string directory;
    /** GC target in bytes; 0 disables garbage collection. */
    std::uint64_t maxBytes = 0;
};

/** Event counters for one store instance (this process). */
struct StoreCounters
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t inserts = 0;
    /** Entries that failed validation and were evicted. */
    std::uint64_t corrupt = 0;
    /** Entries removed by the garbage collector. */
    std::uint64_t evicted = 0;
};

/** Thread-safe handle on one on-disk artifact cache. */
class ArtifactStore
{
  public:
    /**
     * @throws std::runtime_error if the directory cannot be created
     */
    explicit ArtifactStore(StoreOptions options);

    /** Flushes counters to stats.log. */
    ~ArtifactStore();

    ArtifactStore(const ArtifactStore &) = delete;
    ArtifactStore &operator=(const ArtifactStore &) = delete;

    /**
     * The payload stored under @p key, or nullopt on miss. A corrupt
     * entry is evicted and reported as a miss.
     */
    std::optional<std::vector<std::uint8_t>>
    fetch(const CacheKey &key);

    /**
     * fetch() for an entry the caller can rebuild from another one, so
     * that finding nothing is not a miss: a hit counts as a hit and a
     * corrupt entry is evicted and counted corrupt, as in fetch(), but
     * an absent entry counts nothing.
     */
    std::optional<std::vector<std::uint8_t>>
    probe(const CacheKey &key);

    /**
     * Store @p payload under @p key (atomic replace), then garbage
     * collect if over budget. I/O failures degrade to a warning — a
     * full disk must not fail the computation that produced the
     * artifact.
     */
    void insert(const CacheKey &key,
                const std::vector<std::uint8_t> &payload);

    /** This instance's counters so far. */
    StoreCounters counters() const;

    /** Cache root directory. */
    const std::string &directory() const { return directory_; }

    /**
     * Append this instance's nonzero counters to stats.log and reset
     * them, so `vlpsim cache stats` sees runs from every process.
     */
    void flushStats();

    /** Aggregate view of a cache directory. */
    struct Summary
    {
        std::uint64_t entries = 0;
        /** Bytes of the entries and of any insert temp files. */
        std::uint64_t bytes = 0;
        /** Totals accumulated in stats.log across all runs. */
        StoreCounters lifetime;
    };

    /** Scan @p directory and sum its stats.log. */
    static Summary summarize(const std::string &directory);

    struct VerifyResult
    {
        std::uint64_t ok = 0;
        /** Corrupt entries found (and removed). */
        std::uint64_t corrupt = 0;
    };

    /** Re-validate every entry under @p directory; remove bad ones
     *  and the temp files of writers that no longer run. */
    static VerifyResult verify(const std::string &directory);

    /** Remove all entries, temp files, and stats under @p directory.
     *  @return entries removed */
    static std::uint64_t clear(const std::string &directory);

  private:
    std::string objectPath(const CacheKey &key) const;
    std::optional<std::vector<std::uint8_t>>
    lookup(const CacheKey &key, bool absent_is_miss);
    void collectGarbage();

    std::string directory_;
    std::uint64_t maxBytes_;
    mutable std::mutex mutex_;
    StoreCounters counters_;
    std::uint64_t tempCounter_ = 0;
};

} // namespace store
} // namespace vlp

#endif // VLPSIM_STORE_ARTIFACT_STORE_H
