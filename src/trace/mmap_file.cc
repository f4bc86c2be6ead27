/**
 * @file
 * Mapped ByteFile implementation and the one trace-file opener.
 */

#include "trace/mmap_file.h"

#include <algorithm>
#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "util/chaos.h"
#include "util/logging.h"

namespace vlp {
namespace trace {

namespace {

bool
isTransientErrno(int error)
{
    return error == EINTR || error == EAGAIN
#ifdef EWOULDBLOCK
        || error == EWOULDBLOCK
#endif
        || error == EBUSY;
}

[[noreturn]] void
throwErrno(const std::string &what, const std::string &path)
{
    const int error = errno;
    const std::string message =
        what + ": " + path + " (" + std::strerror(error) + ")";
    if (isTransientErrno(error))
        throw util::TransientError(message);
    throw std::runtime_error(message);
}

std::size_t
pageSize()
{
    static const std::size_t size = [] {
        const long page = ::sysconf(_SC_PAGESIZE);
        return page > 0 ? static_cast<std::size_t>(page)
                        : std::size_t{4096};
    }();
    return size;
}

} // anonymous namespace

MmapByteFile::MmapByteFile(const std::string &path,
                           std::size_t window_bytes)
    : path_(path),
      windowBytes_(std::max<std::size_t>(window_bytes, pageSize()))
{
    // Classify the path before opening it. Opening a FIFO, even
    // O_NONBLOCK, pairs it with a writer already waiting in open();
    // that writer's bytes would then be discarded with the descriptor,
    // and the stdio fallback's own open would wait for a writer that
    // is gone.
    struct stat info;
    if (::stat(path.c_str(), &info) != 0)
        throwErrno("cannot open trace file", path_);
    if (!S_ISREG(info.st_mode))
        throw MmapUnsupported("not a regular file: " + path);
    // O_NONBLOCK so a path swapped for a FIFO since the stat cannot
    // block the open; regular files ignore the flag entirely.
    fd_ = ::open(path.c_str(), O_RDONLY | O_NONBLOCK | O_CLOEXEC);
    if (fd_ < 0)
        throwErrno("cannot open trace file", path_);
    if (::fstat(fd_, &info) != 0) {
        ::close(fd_);
        fd_ = -1;
        throwErrno("cannot stat trace file", path_);
    }
    if (!S_ISREG(info.st_mode)) {
        ::close(fd_);
        fd_ = -1;
        throw MmapUnsupported("not a regular file: " + path);
    }
    fileSize_ = static_cast<std::uint64_t>(info.st_size);
    // Probe the first window now so an unmappable filesystem is
    // classified at open time, where callers can still fall back.
    if (fileSize_ > 0 && !ensureWindow(0, 1)) {
        ::close(fd_);
        fd_ = -1;
        throw MmapUnsupported("mmap failed: " + path);
    }
}

MmapByteFile::~MmapByteFile()
{
    unmap();
    if (fd_ >= 0)
        ::close(fd_);
}

void
MmapByteFile::unmap()
{
    if (window_ != nullptr) {
        ::munmap(window_, windowLength_);
        window_ = nullptr;
        windowLength_ = 0;
    }
}

bool
MmapByteFile::ensureWindow(std::uint64_t offset, std::size_t size)
{
    if (offset + size > fileSize_)
        return false;
    if (window_ != nullptr && offset >= windowStart_
        && offset + size <= windowStart_ + windowLength_) {
        return true;
    }
    const std::uint64_t start = offset - (offset % pageSize());
    const std::size_t span = static_cast<std::size_t>(offset - start)
        + std::max(size, windowBytes_);
    const std::size_t length = static_cast<std::size_t>(
        std::min<std::uint64_t>(span, fileSize_ - start));
    void *mapped = ::mmap(nullptr, length, PROT_READ, MAP_PRIVATE, fd_,
                          static_cast<off_t>(start));
    if (mapped == MAP_FAILED)
        return false;
    unmap();
    window_ = mapped;
    windowStart_ = start;
    windowLength_ = length;
    ++remaps_;
#ifdef MADV_SEQUENTIAL
    ::madvise(window_, windowLength_, MADV_SEQUENTIAL);
#endif
    return true;
}

const std::uint8_t *
MmapByteFile::view(std::uint64_t offset, std::size_t size)
{
    if (size == 0 || offset + size > fileSize_)
        return nullptr;
    if (!ensureWindow(offset, size))
        return nullptr;
    return static_cast<const std::uint8_t *>(window_)
        + (offset - windowStart_);
}

std::size_t
MmapByteFile::read(void *buffer, std::size_t size)
{
    if (position_ >= fileSize_)
        return 0;
    const std::size_t want = static_cast<std::size_t>(
        std::min<std::uint64_t>(size, fileSize_ - position_));
    const std::uint8_t *source = view(position_, want);
    if (source == nullptr) {
        // The window could not be re-established (address-space
        // pressure, file shrank underneath us) — a retry is the only
        // plausible recovery.
        throw util::TransientError("mmap window lost: " + path_);
    }
    std::memcpy(buffer, source, want);
    position_ += want;
    return want;
}

void
MmapByteFile::seek(std::uint64_t offset)
{
    position_ = offset;
}

std::unique_ptr<ByteFile>
openByteFile(const std::string &path)
{
    try {
        // Chaos: the mapping fails (address-space pressure, an
        // unmappable filesystem) and the open degrades to stdio —
        // reports are backend-agnostic, so this must be invisible.
        if (CHAOS_SECTION("trace.mmap.stdio-fallback",
                          util::chaos::pathKey(path)))
            throw MmapUnsupported("chaos: mmap refused: " + path);
        return std::make_unique<MmapByteFile>(path);
    } catch (const MmapUnsupported &) {
        return std::make_unique<StdioByteFile>(path);
    }
}

} // namespace trace
} // namespace vlp
