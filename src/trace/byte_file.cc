/**
 * @file
 * Stdio-backed ByteFile implementation.
 */

#include "trace/byte_file.h"

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "util/logging.h"

namespace vlp {
namespace trace {

namespace {

/** Errnos that name a condition a retry can plausibly clear. */
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

} // anonymous namespace

StdioByteFile::StdioByteFile(const std::string &path) : path_(path)
{
    file_ = std::fopen(path.c_str(), "rb");
    if (file_ == nullptr)
        throwErrno("cannot open trace file", path_);
}

StdioByteFile::~StdioByteFile()
{
    if (file_ != nullptr)
        std::fclose(file_);
}

std::size_t
StdioByteFile::read(void *buffer, std::size_t size)
{
    const std::size_t got = std::fread(buffer, 1, size, file_);
    if (got < size && std::ferror(file_)) {
        std::clearerr(file_);
        throwErrno("read failed", path_);
    }
    return got;
}

void
StdioByteFile::seek(std::uint64_t offset)
{
    if (std::fseek(file_, static_cast<long>(offset), SEEK_SET) != 0)
        throwErrno("seek failed", path_);
}

std::uint64_t
StdioByteFile::size()
{
    const long position = std::ftell(file_);
    if (std::fseek(file_, 0, SEEK_END) != 0)
        throwErrno("seek failed", path_);
    const long end = std::ftell(file_);
    if (std::fseek(file_, position, SEEK_SET) != 0)
        throwErrno("seek failed", path_);
    return static_cast<std::uint64_t>(end);
}

ByteFileStreamBuf::ByteFileStreamBuf(ByteFile &file)
    : file_(file), mapped_(file.view(0, 1) != nullptr)
{
}

ByteFileStreamBuf::int_type
ByteFileStreamBuf::underflow()
{
    if (gptr() < egptr())
        return traits_type::to_int_type(*gptr());
    if (mapped_) {
        const std::uint64_t size = file_.size();
        if (offset_ >= size)
            return traits_type::eof();
        const std::size_t want = static_cast<std::size_t>(
            std::min<std::uint64_t>(windowBytes, size - offset_));
        // The get area is read-only by construction (no putback
        // support beyond what's buffered), so serving the mapped
        // window directly through the non-const streambuf pointers is
        // safe.
        if (const std::uint8_t *window = file_.view(offset_, want)) {
            char *base = const_cast<char *>(
                reinterpret_cast<const char *>(window));
            setg(base, base, base + want);
            offset_ += want;
            return traits_type::to_int_type(*gptr());
        }
        // The window was lost: carry on buffered from here.
        file_.seek(offset_);
        mapped_ = false;
    }
    buffer_.resize(windowBytes);
    std::size_t got = 0;
    while (got < windowBytes) {
        const std::size_t chunk =
            file_.read(buffer_.data() + got, windowBytes - got);
        if (chunk == 0)
            break;
        got += chunk;
    }
    if (got == 0)
        return traits_type::eof();
    setg(buffer_.data(), buffer_.data(), buffer_.data() + got);
    offset_ += got;
    return traits_type::to_int_type(*gptr());
}

} // namespace trace
} // namespace vlp
