/**
 * @file
 * Memory-mapped zero-copy ByteFile for local .vbt traces.
 *
 * MmapByteFile maps a regular file read-only and serves view() windows
 * straight out of the mapping — the streaming reader decodes records
 * in place, no memcpy, no syscalls per chunk. Files larger than the
 * mapping window are remapped as the reader advances (windowed remap),
 * so address-space use stays bounded on multi-GB corpora; every
 * mapping is madvise(MADV_SEQUENTIAL)-hinted for the replay access
 * pattern.
 *
 * Non-regular inputs (FIFOs, /dev/stdin, sockets) and mmap failures
 * raise MmapUnsupported from the constructor; openByteFile() turns
 * that into a graceful fallback to StdioByteFile, so callers never
 * lose a trace to a backend limitation. The fallback matrix lives in
 * DESIGN §15.
 */

#ifndef VLPSIM_TRACE_MMAP_FILE_H
#define VLPSIM_TRACE_MMAP_FILE_H

#include <stdexcept>

#include "trace/byte_file.h"

namespace vlp {
namespace trace {

/** The input exists but cannot be served by mmap (not a defect). */
class MmapUnsupported : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** Read-only mapped ByteFile with a bounded remapping window. */
class MmapByteFile : public ByteFile
{
  public:
    /** Default mapping window: 256 MiB of address space. */
    static constexpr std::size_t defaultWindowBytes =
        256ull * 1024 * 1024;

    /**
     * Open and map @p path.
     * @param window_bytes mapping-window floor; requests larger than
     *        the window still succeed (the window grows to cover
     *        them), smaller values force remaps for tests
     * @throws MmapUnsupported when the path is not a regular file or
     *         the kernel refuses the mapping
     * @throws util::TransientError / std::runtime_error on open
     *         failures, classified like StdioByteFile
     */
    explicit MmapByteFile(const std::string &path,
                          std::size_t window_bytes = defaultWindowBytes);
    ~MmapByteFile() override;

    MmapByteFile(const MmapByteFile &) = delete;
    MmapByteFile &operator=(const MmapByteFile &) = delete;

    std::size_t read(void *buffer, std::size_t size) override;
    void seek(std::uint64_t offset) override;
    std::uint64_t size() override { return fileSize_; }
    const std::string &name() const override { return path_; }
    const std::uint8_t *view(std::uint64_t offset,
                             std::size_t size) override;

    /** Times the mapping window was (re)established — observability
     *  for the windowed-remap tests. */
    std::uint64_t remaps() const { return remaps_; }

  private:
    /** Ensure the window covers [offset, offset+size); may remap. */
    bool ensureWindow(std::uint64_t offset, std::size_t size);
    void unmap();

    std::string path_;
    int fd_ = -1;
    std::uint64_t fileSize_ = 0;
    std::uint64_t position_ = 0; // read() cursor
    std::size_t windowBytes_;
    void *window_ = nullptr;
    std::uint64_t windowStart_ = 0;
    std::size_t windowLength_ = 0;
    std::uint64_t remaps_ = 0;
};

/** openByteFile's one mode; kept for perfbench/src until the replica
 *  is re-mirrored. */
enum class ReadMode { Auto };

/** The openByteFile opener; kept for perfbench/src until the replica
 *  is re-mirrored. */
inline FileOpener fastOpener(ReadMode) { return openByteFile; }

} // namespace trace
} // namespace vlp

#endif // VLPSIM_TRACE_MMAP_FILE_H
