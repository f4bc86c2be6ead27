/**
 * @file
 * Deterministic trace I/O fault injection implementation.
 */

#include "trace/fault_injection.h"

#include <algorithm>
#include <cstring>

#include "util/chaos.h"
#include "util/checksum.h"
#include "util/logging.h"

namespace vlp {
namespace trace {

FileOpener
FaultInjector::opener(FileOpener inner)
{
    if (!inner)
        inner = openByteFile;
    return [this, inner](const std::string &path) {
        PathState &state = pathState(path);
        bool fail_open = false;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (state.opensFailed < plan_.transientOpens) {
                ++state.opensFailed;
                ++counters_.transientOpens;
                fail_open = true;
            }
        }
        if (fail_open)
            throw util::TransientError(
                "injected transient open failure: " + path);
        return std::unique_ptr<ByteFile>(
            std::make_unique<FaultyFile>(inner(path), *this));
    };
}

FaultCounters
FaultInjector::counters() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return counters_;
}

FaultInjector::PathState &
FaultInjector::pathState(const std::string &path)
{
    std::lock_guard<std::mutex> lock(mutex_);
    return states_[path];
}

void
FaultInjector::count(std::uint64_t FaultCounters::*counter)
{
    std::lock_guard<std::mutex> lock(mutex_);
    ++(counters_.*counter);
}

FaultyFile::FaultyFile(std::unique_ptr<ByteFile> inner,
                       FaultInjector &injector)
    : inner_(std::move(inner)), injector_(injector),
      // Per-path stream: fault positions depend only on the seed and
      // the path, never on thread timing or open order.
      rng_(injector.plan().seed ^ util::fnv1a(inner_->name()))
{
    const FaultPlan &plan = injector_.plan();
    if (plan.truncateAt != FaultPlan::noTruncation
        && inner_->size() > plan.truncateAt) {
        injector_.count(&FaultCounters::truncations);
    }
}

std::uint64_t
FaultyFile::effectiveSize()
{
    return std::min(inner_->size(), injector_.plan().truncateAt);
}

std::size_t
FaultyFile::read(void *buffer, std::size_t size)
{
    const FaultPlan &plan = injector_.plan();
    {
        FaultInjector::PathState &state =
            injector_.pathState(inner_->name());
        bool fail_read = false;
        {
            std::lock_guard<std::mutex> lock(injector_.mutex_);
            if (state.readsFailed < plan.transientReads) {
                ++state.readsFailed;
                ++injector_.counters_.transientReads;
                fail_read = true;
            }
        }
        if (fail_read)
            throw util::TransientError(
                "injected transient read failure: " + inner_->name());
    }

    const std::uint64_t limit = effectiveSize();
    if (position_ >= limit)
        return 0;
    const std::uint64_t available = limit - position_;
    std::size_t want = static_cast<std::size_t>(
        std::min<std::uint64_t>(size, available));
    if (want > 1 && rng_.nextBool(plan.shortReadProbability)) {
        want = 1 + static_cast<std::size_t>(
                   rng_.nextBelow(want - 1));
        injector_.count(&FaultCounters::shortReads);
    }

    const std::size_t got = inner_->read(buffer, want);
    if (got > 0 && rng_.nextBool(plan.bitFlipProbability)) {
        auto *bytes = static_cast<std::uint8_t *>(buffer);
        bytes[rng_.nextBelow(got)] ^=
            std::uint8_t{1} << rng_.nextBelow(8);
        injector_.count(&FaultCounters::bitFlips);
    }
    position_ += got;
    return got;
}

void
FaultyFile::seek(std::uint64_t offset)
{
    inner_->seek(offset);
    position_ = offset;
}

std::uint64_t
FaultyFile::size()
{
    return effectiveSize();
}

const std::uint8_t *
FaultyFile::view(std::uint64_t offset, std::size_t size)
{
    const FaultPlan &plan = injector_.plan();
    if (!plan.serveViews || size == 0
        || offset + size > effectiveSize()) {
        return nullptr;
    }
    if (rng_.nextBool(plan.shortViewProbability)) {
        injector_.count(&FaultCounters::shortViews);
        return nullptr;
    }
    viewBuffer_.resize(size);
    if (const std::uint8_t *direct = inner_->view(offset, size)) {
        std::memcpy(viewBuffer_.data(), direct, size);
    } else {
        // Buffer through read(); the view contract says view() must
        // not move the read position, so restore it afterwards.
        inner_->seek(offset);
        std::size_t got = 0;
        while (got < size) {
            const std::size_t n =
                inner_->read(viewBuffer_.data() + got, size - got);
            if (n == 0) {
                inner_->seek(position_);
                return nullptr;
            }
            got += n;
        }
        inner_->seek(position_);
    }
    if (rng_.nextBool(plan.viewBitFlipProbability)) {
        viewBuffer_[rng_.nextBelow(size)] ^=
            std::uint8_t{1} << rng_.nextBelow(8);
        injector_.count(&FaultCounters::viewBitFlips);
    }
    return viewBuffer_.data();
}

namespace {

/** ByteFile decorator driven by the global chaos switchboard. */
class ChaosFile : public ByteFile
{
  public:
    explicit ChaosFile(std::unique_ptr<ByteFile> inner)
        : inner_(std::move(inner)),
          key_(util::chaos::pathKey(inner_->name()))
    {}

    std::size_t read(void *buffer, std::size_t size) override
    {
        if (CHAOS_SECTION("trace.read.transient", key_)) {
            throw util::TransientError(
                "chaos: transient read failure: " + inner_->name());
        }
        std::size_t want = size;
        if (want > 1 && CHAOS_SECTION("trace.read.short", key_)) {
            want = 1 + want / 2;
        }
        return inner_->read(buffer, want);
    }

    const std::uint8_t *view(std::uint64_t offset,
                             std::size_t size) override
    {
        if (CHAOS_SECTION("trace.view.refuse", key_))
            return nullptr;
        return inner_->view(offset, size);
    }

    void seek(std::uint64_t offset) override { inner_->seek(offset); }
    std::uint64_t size() override { return inner_->size(); }
    const std::string &name() const override { return inner_->name(); }

  private:
    std::unique_ptr<ByteFile> inner_;
    /** Chaos identity: the file's final path component, so decisions
     *  replay no matter where the corpus lives. */
    std::string key_;
};

} // anonymous namespace

FileOpener
chaosOpener(FileOpener inner)
{
    if (!inner)
        inner = openByteFile;
    return [inner](const std::string &path)
        -> std::unique_ptr<ByteFile> {
        if (!util::chaos::enabled())
            return inner(path);
        if (CHAOS_SECTION("trace.open.transient",
                          util::chaos::pathKey(path))) {
            throw util::TransientError(
                "chaos: transient open failure: " + path);
        }
        return std::make_unique<ChaosFile>(inner(path));
    };
}

} // namespace trace
} // namespace vlp

