/**
 * @file
 * Byte-level file access behind a virtual seam.
 *
 * Trace readers consume raw bytes through the ByteFile interface
 * instead of touching stdio directly, so tests can interpose
 * deterministic fault injection (trace/fault_injection.h) on the exact
 * code paths production uses: the same short-read loops, the same
 * error classification, the same checksum verification.
 *
 * Error model: read()/seek()/size() throw util::TransientError for
 * failures worth retrying (EINTR/EAGAIN-class) and std::runtime_error
 * for everything else. read() may legitimately return fewer bytes than
 * requested (a short read) — callers must loop.
 */

#ifndef VLPSIM_TRACE_BYTE_FILE_H
#define VLPSIM_TRACE_BYTE_FILE_H

#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <streambuf>
#include <string>
#include <vector>

namespace vlp {
namespace trace {

class HashingByteFile;

/** A seekable, read-only stream of bytes. */
class ByteFile
{
  public:
    virtual ~ByteFile() = default;

    /**
     * Read up to @p size bytes into @p buffer.
     * @return bytes actually read; 0 only at end of file. May be
     *         short — callers loop until satisfied or 0.
     * @throws util::TransientError on retryable failures
     * @throws std::runtime_error on permanent failures
     */
    virtual std::size_t read(void *buffer, std::size_t size) = 0;

    /** Reposition the stream to absolute @p offset. */
    virtual void seek(std::uint64_t offset) = 0;

    /** Total byte length of the file. */
    virtual std::uint64_t size() = 0;

    /** Path (or other identity) for error messages. */
    virtual const std::string &name() const = 0;

    /**
     * Zero-copy window: a pointer to the file's bytes
     * [@p offset, @p offset + @p size), or nullptr when this backend
     * cannot serve the range without copying (the default — only
     * mapped backends override). A returned pointer stays valid until
     * the next view()/read()/seek() call on this file; view() does not
     * move the read() position. Callers must always be prepared for
     * nullptr and fall back to read().
     */
    virtual const std::uint8_t *view(std::uint64_t offset,
                                     std::size_t size)
    {
        (void)offset;
        (void)size;
        return nullptr;
    }

    /**
     * The content-hashing decorator wrapping this stream, if this
     * *is* one (see trace/content_hash.h). Lets the streaming reader
     * fuse its VBT2 stream checksum into the decorator's hash kernel
     * — one pass over each chunk instead of two — without a
     * dynamic_cast on the hot path.
     */
    virtual HashingByteFile *hasher() { return nullptr; }
};

/** Plain stdio-backed ByteFile. */
class StdioByteFile : public ByteFile
{
  public:
    /**
     * @throws util::TransientError when the open fails with a
     *         retryable errno, std::runtime_error otherwise
     */
    explicit StdioByteFile(const std::string &path);
    ~StdioByteFile() override;

    StdioByteFile(const StdioByteFile &) = delete;
    StdioByteFile &operator=(const StdioByteFile &) = delete;

    std::size_t read(void *buffer, std::size_t size) override;
    void seek(std::uint64_t offset) override;
    std::uint64_t size() override;
    const std::string &name() const override { return path_; }

  private:
    std::string path_;
    std::FILE *file_ = nullptr;
};

/**
 * How trace consumers open files. The default opener is
 * openByteFile(); tests substitute a fault-injecting opener (see
 * trace::FaultInjector::opener()).
 */
using FileOpener =
    std::function<std::unique_ptr<ByteFile>(const std::string &path)>;

/**
 * Open @p path for reading: the input picks the backend. A regular
 * file is mapped (MmapByteFile, zero-copy views); a FIFO, /dev/stdin
 * on a pipe, or a file the kernel will not map falls back to
 * StdioByteFile. Never fails because of a backend limitation — only
 * genuine open errors propagate. (Defined in mmap_file.cc.)
 */
std::unique_ptr<ByteFile> openByteFile(const std::string &path);

/**
 * Adapts a freshly opened ByteFile to std::streambuf so istream-based
 * consumers (the text-trace importer) read through the same seam — and
 * zero-copy when the backend is mapped: underflow() serves the
 * backend's view() window directly as the get area when available.
 * Any other backend is read sequentially into a buffer, with no seek
 * and no size query, so a pipe streams through too.
 */
class ByteFileStreamBuf : public std::streambuf
{
  public:
    /** Window served per underflow, view-backed or buffered. */
    static constexpr std::size_t windowBytes = 64 * 1024;

    explicit ByteFileStreamBuf(ByteFile &file);

  protected:
    int_type underflow() override;

  private:
    ByteFile &file_;
    std::uint64_t offset_ = 0; // file offset of the next window
    bool mapped_;              // serve view() windows in place
    std::vector<char> buffer_;
};

} // namespace trace
} // namespace vlp

#endif // VLPSIM_TRACE_BYTE_FILE_H
