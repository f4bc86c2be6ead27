/**
 * @file
 * The edge-id feed.
 */

#include "core/replay_feed.h"

#include <utility>

namespace vlp {
namespace core {
namespace detail {

namespace {

/** Records read into one streamed chunk. */
constexpr std::size_t chunkRecords = 4096;

} // anonymous namespace

EdgeFeed::EdgeFeed(trace::TraceSource &source, SlotOf slot_of)
    : source_(source), slotOf_(std::move(slot_of))
{
    if (const auto *cursor =
            dynamic_cast<const trace::CompactTraceCursor *>(&source)) {
        resident_ = &cursor->trace();
        assignSlots(*resident_);
    }
}

void
EdgeFeed::assignSlots(const trace::CompactTrace &trace)
{
    slots_.resize(trace.edges().size());
    for (std::size_t edge = 0; edge < slots_.size(); ++edge)
        slots_[edge] = slotOf_(trace.edges()[edge]);
}

EdgeChunk
EdgeFeed::next()
{
    const trace::CompactTrace *chunk = resident_;
    if (chunk != nullptr) {
        // The whole trace is the pass's one chunk.
        inPass_ = !inPass_ && chunk->size() != 0;
        if (!inPass_)
            return {};
    } else {
        if (!inPass_)
            source_.reset();
        chunk_ = trace::CompactTrace::intern(source_, chunkRecords);
        inPass_ = chunk_->size() != 0;
        if (!inPass_)
            return {};
        assignSlots(*chunk_);
        chunk = chunk_.get();
    }
    return {chunk->edges(), chunk->ids(), slots_};
}

} // namespace detail
} // namespace core
} // namespace vlp
