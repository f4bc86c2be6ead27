/**
 * @file
 * Artifact store implementation.
 */

#include "store/artifact_store.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <unistd.h>

#include "util/chaos.h"
#include "util/checksum.h"
#include "util/logging.h"

namespace fs = std::filesystem;

namespace vlp {
namespace store {

namespace {

// VLPSTOR1 entries checksummed their payload with FNV-1a; this build
// cannot read them, so they evict and recompute like any other bad
// entry.
constexpr char entryMagic[8] = {'V', 'L', 'P', 'S', 'T', 'O', 'R', '2'};
constexpr const char *entrySuffix = ".vlpa";
/** An insert writes `<key>.vlpa.tmp.<pid>.<n>`, then renames it. */
constexpr const char *tempInfix = ".tmp.";
constexpr const char *statsLogName = "stats.log";

/**
 * A hit rewrites its entry's mtime (the GC's LRU clock) only when that
 * mtime is at least this old, so a warm hit normally costs no metadata
 * write. An mtime may thus trail the entry's last use by up to this
 * interval, which is the resolution of the GC's LRU order.
 */
constexpr std::chrono::seconds lruRefreshInterval{60};

void
putU32(std::uint8_t *buffer, std::uint32_t value)
{
    for (int i = 0; i < 4; ++i)
        buffer[i] = static_cast<std::uint8_t>(value >> (8 * i));
}

void
putU64(std::uint8_t *buffer, std::uint64_t value)
{
    for (int i = 0; i < 8; ++i)
        buffer[i] = static_cast<std::uint8_t>(value >> (8 * i));
}

std::uint32_t
getU32(const std::uint8_t *buffer)
{
    std::uint32_t value = 0;
    for (int i = 0; i < 4; ++i)
        value |= static_cast<std::uint32_t>(buffer[i]) << (8 * i);
    return value;
}

std::uint64_t
getU64(const std::uint8_t *buffer)
{
    std::uint64_t value = 0;
    for (int i = 0; i < 8; ++i)
        value |= static_cast<std::uint64_t>(buffer[i]) << (8 * i);
    return value;
}

/** Entry header: magic, format version, key length. */
constexpr std::size_t headerBytes = sizeof(entryMagic) + 4 + 4;

std::vector<std::uint8_t>
buildEntry(const CacheKey &key, const std::vector<std::uint8_t> &payload)
{
    std::vector<std::uint8_t> entry;
    entry.resize(headerBytes + key.text().size() + 16 + payload.size());
    std::uint8_t *cursor = entry.data();
    std::copy(std::begin(entryMagic), std::end(entryMagic), cursor);
    cursor += sizeof(entryMagic);
    putU32(cursor, artifactFormatVersion);
    cursor += 4;
    putU32(cursor, static_cast<std::uint32_t>(key.text().size()));
    cursor += 4;
    std::copy(key.text().begin(), key.text().end(), cursor);
    cursor += key.text().size();
    putU64(cursor, payload.size());
    cursor += 8;
    putU64(cursor, util::xxh64(payload.data(), payload.size()));
    cursor += 8;
    std::copy(payload.begin(), payload.end(), cursor);
    return entry;
}

struct ParsedEntry
{
    std::string key;
    std::vector<std::uint8_t> payload;
    /** The file's mtime when it was read. */
    std::chrono::system_clock::time_point modified;
};

/**
 * Read and validate one entry file. nullopt means the file is absent;
 * a present-but-invalid file sets @p corrupt.
 */
std::optional<ParsedEntry>
readEntry(const fs::path &path, bool &corrupt)
{
    corrupt = false;
    const int fd = ::open(path.string().c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0)
        return std::nullopt;
    // One read into a buffer sized from the file; once checked, the
    // payload is shifted down in place and the buffer becomes it.
    std::vector<std::uint8_t> raw;
    struct stat info = {};
    if (::fstat(fd, &info) == 0 && info.st_size > 0) {
        raw.resize(static_cast<std::size_t>(info.st_size));
        std::size_t done = 0;
        while (done < raw.size()) {
            const ssize_t got =
                ::read(fd, raw.data() + done, raw.size() - done);
            if (got < 0 && errno == EINTR)
                continue;
            if (got <= 0)
                break;
            done += static_cast<std::size_t>(got);
        }
        raw.resize(done);
    }
    ::close(fd);

    if (raw.size() < headerBytes
        || !std::equal(std::begin(entryMagic), std::end(entryMagic),
                       raw.begin())
        || getU32(raw.data() + sizeof(entryMagic))
               != artifactFormatVersion) {
        corrupt = true;
        return std::nullopt;
    }
    const std::size_t key_size = getU32(raw.data() + sizeof(entryMagic)
                                        + 4);
    if (raw.size() < headerBytes + key_size + 16) {
        corrupt = true;
        return std::nullopt;
    }
    ParsedEntry entry;
    entry.key.assign(
        reinterpret_cast<const char *>(raw.data() + headerBytes),
        key_size);
    const std::size_t payload_offset = headerBytes + key_size + 16;
    const std::uint8_t *cursor = raw.data() + headerBytes + key_size;
    const std::uint64_t payload_size = getU64(cursor);
    const std::uint64_t checksum = getU64(cursor + 8);
    if (raw.size() - payload_offset != payload_size
        || util::xxh64(raw.data() + payload_offset, payload_size)
               != checksum) {
        corrupt = true;
        return std::nullopt;
    }
    raw.erase(raw.begin(),
              raw.begin() + static_cast<std::ptrdiff_t>(payload_offset));
    entry.payload = std::move(raw);
    entry.modified = std::chrono::system_clock::time_point(
        std::chrono::duration_cast<std::chrono::system_clock::duration>(
            std::chrono::seconds(info.st_mtim.tv_sec)
            + std::chrono::nanoseconds(info.st_mtim.tv_nsec)));
    return entry;
}

void
removeQuietly(const fs::path &path)
{
    std::error_code error;
    fs::remove(path, error);
}

/**
 * All entry files under @p directory/objects; with @p temps, also the
 * `<key>.vlpa.tmp.<pid>.<n>` files of inserts still being written or
 * whose writer was killed before its rename.
 */
std::vector<fs::path>
entryFiles(const std::string &directory,
           std::vector<fs::path> *temps = nullptr)
{
    std::vector<fs::path> entries;
    const fs::path objects = fs::path(directory) / "objects";
    std::error_code error;
    if (!fs::is_directory(objects, error))
        return entries;
    const std::string temp_infix = std::string(entrySuffix) + tempInfix;
    for (fs::recursive_directory_iterator
             it(objects, fs::directory_options::skip_permission_denied,
                error),
         end;
         it != end; it.increment(error)) {
        if (error)
            break;
        if (!it->is_regular_file(error))
            continue;
        if (it->path().extension() == entrySuffix)
            entries.push_back(it->path());
        else if (temps != nullptr
                 && it->path().filename().string().find(temp_infix)
                        != std::string::npos)
            temps->push_back(it->path());
    }
    return entries;
}

/**
 * Remove each of @p temps whose writer is gone: the pid in its name
 * answers kill(pid, 0) with ESRCH. A live writer's file (this
 * process's included) stays; so does one whose name carries no pid.
 * Pids are only meaningful inside one pid namespace, so a store
 * shared across containers should not be written from both at once.
 */
void
removeDeadWritersTemps(const std::vector<fs::path> &temps)
{
    const std::string temp_infix = std::string(entrySuffix) + tempInfix;
    for (const fs::path &temp : temps) {
        const std::string name = temp.filename().string();
        const char *pid_text =
            name.c_str() + name.find(temp_infix) + temp_infix.size();
        char *end = nullptr;
        const long pid = std::strtol(pid_text, &end, 10);
        if (end == pid_text || *end != '.' || pid <= 0)
            continue;
        if (::kill(static_cast<pid_t>(pid), 0) != 0 && errno == ESRCH)
            removeQuietly(temp);
    }
}

} // anonymous namespace

ArtifactStore::ArtifactStore(StoreOptions options)
    : directory_(options.directory), maxBytes_(options.maxBytes)
{
    if (directory_.empty())
        util::fatal("artifact store requires a cache directory");
    std::error_code error;
    fs::create_directories(fs::path(directory_) / "objects", error);
    if (error) {
        util::fatal("cannot create cache directory: " + directory_
                    + " (" + error.message() + ")");
    }
}

ArtifactStore::~ArtifactStore()
{
    flushStats();
}

std::string
ArtifactStore::objectPath(const CacheKey &key) const
{
    return (fs::path(directory_) / key.relativePath()).string();
}

std::optional<std::vector<std::uint8_t>>
ArtifactStore::fetch(const CacheKey &key)
{
    return lookup(key, true);
}

std::optional<std::vector<std::uint8_t>>
ArtifactStore::probe(const CacheKey &key)
{
    return lookup(key, false);
}

std::optional<std::vector<std::uint8_t>>
ArtifactStore::lookup(const CacheKey &key, bool absent_is_miss)
{
    const fs::path path = objectPath(key);
    bool corrupt = false;
    auto entry = readEntry(path, corrupt);
    // The canonical key string stored in the entry must match the
    // request: a hash collision (or a renamed file) degrades to a
    // miss, never to a wrong artifact.
    if (entry && entry->key != key.text()) {
        corrupt = true;
        entry.reset();
    }
    // Chaos: the entry rotted on disk after it was written — must
    // degrade to an evict-and-miss, never a wrong artifact.
    if (entry
        && CHAOS_SECTION("store.fetch.checksum-mismatch", key.text())) {
        corrupt = true;
        entry.reset();
    }
    std::lock_guard<std::mutex> lock(mutex_);
    if (corrupt) {
        removeQuietly(path);
        ++counters_.corrupt;
        if (absent_is_miss)
            ++counters_.misses;
        return std::nullopt;
    }
    if (!entry) {
        if (absent_is_miss)
            ++counters_.misses;
        return std::nullopt;
    }
    ++counters_.hits;
    // Refresh a stale LRU clock to now; best effort only.
    if (std::chrono::system_clock::now() - entry->modified
        >= lruRefreshInterval)
        ::utimensat(AT_FDCWD, path.c_str(), nullptr, 0);
    return std::move(entry->payload);
}

void
ArtifactStore::insert(const CacheKey &key,
                      const std::vector<std::uint8_t> &payload)
{
    const fs::path path = objectPath(key);
    std::error_code error;
    fs::create_directories(path.parent_path(), error);
    if (error) {
        util::warn("cache insert failed (mkdir): " + error.message());
        return;
    }

    std::uint64_t temp_id;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        temp_id = ++tempCounter_;
    }
    // Unique temp name per process and per insert, in the same
    // directory as the final name so the rename is atomic.
    const fs::path temp = path.parent_path()
        / (path.filename().string() + tempInfix
           + std::to_string(static_cast<long>(getpid())) + "."
           + std::to_string(temp_id));

    std::vector<std::uint8_t> entry = buildEntry(key, payload);
    // Chaos: the process dies mid-write and the torn temp file gets
    // published anyway (a crashed rename-based writer's worst case).
    // fetch() must classify the remnant as corrupt and recompute.
    if (CHAOS_SECTION("store.insert.torn-rename", key.text()))
        entry.resize(entry.size() / 2);
    std::FILE *file = std::fopen(temp.string().c_str(), "wb");
    if (file == nullptr) {
        util::warn("cache insert failed (open): " + temp.string());
        return;
    }
    const bool wrote =
        std::fwrite(entry.data(), 1, entry.size(), file) == entry.size();
    const bool flushed = std::fclose(file) == 0;
    if (!wrote || !flushed) {
        util::warn("cache insert failed (write): " + temp.string());
        removeQuietly(temp);
        return;
    }
    fs::rename(temp, path, error);
    if (error) {
        util::warn("cache insert failed (rename): " + error.message());
        removeQuietly(temp);
        return;
    }
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++counters_.inserts;
    }
    if (maxBytes_ > 0)
        collectGarbage();
}

void
ArtifactStore::collectGarbage()
{
    std::lock_guard<std::mutex> lock(mutex_);

    struct Aged
    {
        fs::file_time_type mtime;
        std::uint64_t bytes;
        fs::path path;
    };
    std::vector<Aged> aged;
    std::uint64_t total = 0;
    std::error_code error;
    // A killed insert's temp file would otherwise sit outside the
    // bound for good; reclaim it before counting.
    std::vector<fs::path> temps;
    const std::vector<fs::path> entries = entryFiles(directory_, &temps);
    removeDeadWritersTemps(temps);
    for (const fs::path &path : entries) {
        // Chaos: a racing reader (or another GC) removed this entry
        // between the directory scan and the stat — the sweep must
        // carry on over vanished files.
        // (The filename, not the full path, is the chaos identity:
        // entry names are content-derived, so a seeded campaign makes
        // the same decisions whatever directory the store lives in.)
        if (CHAOS_SECTION("store.gc.reader-race",
                          path.filename().string()))
            continue;
        Aged entry;
        entry.path = path;
        entry.bytes = fs::file_size(path, error);
        if (error)
            continue;
        entry.mtime = fs::last_write_time(path, error);
        if (error)
            continue;
        total += entry.bytes;
        aged.push_back(std::move(entry));
    }
    if (total <= maxBytes_)
        return;
    // Oldest first; ties broken by path so eviction is deterministic.
    std::sort(aged.begin(), aged.end(),
              [](const Aged &a, const Aged &b) {
                  if (a.mtime != b.mtime)
                      return a.mtime < b.mtime;
                  return a.path < b.path;
              });
    for (const Aged &entry : aged) {
        if (total <= maxBytes_)
            break;
        removeQuietly(entry.path);
        total -= entry.bytes;
        ++counters_.evicted;
    }
}

StoreCounters
ArtifactStore::counters() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return counters_;
}

void
ArtifactStore::flushStats()
{
    StoreCounters flushed;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        flushed = counters_;
        counters_ = StoreCounters{};
    }
    if (flushed.hits == 0 && flushed.misses == 0 && flushed.inserts == 0
        && flushed.corrupt == 0 && flushed.evicted == 0) {
        return;
    }
    std::ofstream log(fs::path(directory_) / statsLogName,
                      std::ios::app);
    if (!log) {
        util::warn("cannot append to cache stats log in " + directory_);
        return;
    }
    log << "hits=" << flushed.hits << " misses=" << flushed.misses
        << " inserts=" << flushed.inserts << " corrupt="
        << flushed.corrupt << " evicted=" << flushed.evicted << "\n";
}

ArtifactStore::Summary
ArtifactStore::summarize(const std::string &directory)
{
    Summary summary;
    std::error_code error;
    std::vector<fs::path> temps;
    const std::vector<fs::path> entries = entryFiles(directory, &temps);
    summary.entries = entries.size();
    // Temp files take disk space too, whether in flight or left by a
    // killed writer. A file removed since the scan adds nothing.
    for (const std::vector<fs::path> &files : {entries, temps}) {
        for (const fs::path &path : files) {
            const std::uintmax_t bytes = fs::file_size(path, error);
            if (!error)
                summary.bytes += bytes;
        }
    }
    std::ifstream log(fs::path(directory) / statsLogName);
    std::string line;
    while (std::getline(log, line)) {
        std::istringstream fields(line);
        std::string field;
        while (fields >> field) {
            const auto equals = field.find('=');
            if (equals == std::string::npos)
                continue;
            const std::string name = field.substr(0, equals);
            const std::uint64_t value =
                std::strtoull(field.c_str() + equals + 1, nullptr, 10);
            if (name == "hits")
                summary.lifetime.hits += value;
            else if (name == "misses")
                summary.lifetime.misses += value;
            else if (name == "inserts")
                summary.lifetime.inserts += value;
            else if (name == "corrupt")
                summary.lifetime.corrupt += value;
            else if (name == "evicted")
                summary.lifetime.evicted += value;
        }
    }
    return summary;
}

ArtifactStore::VerifyResult
ArtifactStore::verify(const std::string &directory)
{
    VerifyResult result;
    std::vector<fs::path> temps;
    const std::vector<fs::path> entries = entryFiles(directory, &temps);
    removeDeadWritersTemps(temps);
    for (const fs::path &path : entries) {
        bool corrupt = false;
        const auto entry = readEntry(path, corrupt);
        if (entry && !corrupt) {
            ++result.ok;
        } else {
            ++result.corrupt;
            removeQuietly(path);
        }
    }
    return result;
}

std::uint64_t
ArtifactStore::clear(const std::string &directory)
{
    const std::uint64_t entries = entryFiles(directory).size();
    std::error_code error;
    fs::remove_all(fs::path(directory) / "objects", error);
    fs::remove(fs::path(directory) / statsLogName, error);
    return entries;
}

} // namespace store
} // namespace vlp
