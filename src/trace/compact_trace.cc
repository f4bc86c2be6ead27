/**
 * @file
 * Resident trace interning and its byte budget.
 */

#include "trace/compact_trace.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "util/logging.h"

namespace vlp {
namespace trace {

namespace {

/** Edge-table slots at the start of a build (4 KiB). */
constexpr std::uint64_t initialSlots = 1024;

/** Edges the first edge-table reservation holds. */
constexpr std::size_t initialEdges = 256;

/** Ids the first growth of an unsized id array holds. */
constexpr std::size_t initialIds = 4096;

std::uint64_t
edgeHash(const BranchRecord &record)
{
    std::uint64_t hash = record.pc
        ^ (record.nextPc * 0x9e3779b97f4a7c15ULL)
        ^ (static_cast<std::uint64_t>(record.kind) << 1)
        ^ static_cast<std::uint64_t>(record.taken);
    hash ^= hash >> 32;
    hash *= 0xd6e8feb86659fd93ULL;
    hash ^= hash >> 32;
    return hash;
}

} // anonymous namespace

ResidentBudget &
ResidentBudget::process()
{
    static ResidentBudget budget(residentTraceBudgetBytes);
    return budget;
}

bool
ResidentBudget::tryAdd(std::uint64_t bytes)
{
    std::uint64_t used = used_.load(std::memory_order_relaxed);
    do {
        if (bytes > capacity() || used > capacity() - bytes)
            return false;
    } while (!used_.compare_exchange_weak(used, used + bytes,
                                          std::memory_order_relaxed));
    return true;
}

void
ResidentBudget::release(std::uint64_t bytes)
{
    used_.fetch_sub(bytes, std::memory_order_relaxed);
}

std::shared_ptr<const CompactTrace>
CompactTrace::intern(TraceSource &source)
{
    // Never refuses: the bytes are counted but bound nothing.
    static ResidentBudget uncharged(
        std::numeric_limits<std::uint64_t>::max());
    Builder builder(0, uncharged);
    BranchRecord record;
    while (source.next(record)) {
        if (!builder.add(record))
            util::fatal("trace has too many distinct edges to intern");
    }
    return builder.finish();
}

bool
CompactTrace::charge(std::uint64_t bytes)
{
    if (!budget_.tryAdd(bytes))
        return false;
    charged_ += bytes;
    return true;
}

CompactTrace::Builder::Builder(std::uint64_t records,
                               ResidentBudget &budget)
    : trace_(new CompactTrace(budget))
{
    if (records > std::numeric_limits<std::size_t>::max() / sizeof(EdgeId)
        || !trace_->charge(records * sizeof(EdgeId))
        || !trace_->charge(initialEdges * sizeof(BranchRecord))) {
        trace_.reset();
        return;
    }
    trace_->ids_.reserve(static_cast<std::size_t>(records));
    trace_->edges_.reserve(initialEdges);
    if (!growSlots())
        abandon();
}

void
CompactTrace::Builder::abandon()
{
    trace_.reset(); // returns the charge
    slots_ = {};
    slotMask_ = 0;
}

bool
CompactTrace::Builder::growSlots()
{
    const std::uint64_t size =
        slots_.empty() ? initialSlots : 2 * slots_.size();
    if (!trace_->charge((size - slots_.size()) * sizeof(EdgeId)))
        return false;
    std::vector<EdgeId> slots(static_cast<std::size_t>(size), 0);
    const std::uint64_t mask = size - 1;
    const std::vector<BranchRecord> &edges = trace_->edges_;
    for (std::size_t edge = 0; edge < edges.size(); ++edge) {
        std::uint64_t slot = edgeHash(edges[edge]) & mask;
        while (slots[slot] != 0)
            slot = (slot + 1) & mask;
        slots[slot] = static_cast<EdgeId>(edge + 1);
    }
    slots_ = std::move(slots);
    slotMask_ = mask;
    return true;
}

bool
CompactTrace::Builder::push(EdgeId id)
{
    std::vector<EdgeId> &ids = trace_->ids_;
    if (ids.size() == ids.capacity()) {
        const std::size_t capacity =
            std::max(2 * ids.capacity(), initialIds);
        if (!trace_->charge((capacity - ids.capacity()) * sizeof(EdgeId))) {
            abandon();
            return false;
        }
        ids.reserve(capacity);
    }
    ids.push_back(id);
    return true;
}

bool
CompactTrace::Builder::add(const BranchRecord &record)
{
    if (!ok())
        return false;
    std::vector<BranchRecord> &edges = trace_->edges_;
    std::uint64_t slot = edgeHash(record) & slotMask_;
    for (;;) {
        const EdgeId entry = slots_[slot];
        if (entry == 0)
            break;
        if (edges[entry - 1] == record)
            return push(entry - 1);
        slot = (slot + 1) & slotMask_;
    }

    // A new edge: the id space, the edge table and (past half load)
    // the hash table may all need to grow first.
    if (edges.size() + 1 >= std::numeric_limits<EdgeId>::max()) {
        abandon();
        return false;
    }
    if (edges.size() == edges.capacity()) {
        const std::size_t capacity = 2 * edges.capacity();
        if (!trace_->charge((capacity - edges.capacity())
                            * sizeof(BranchRecord))) {
            abandon();
            return false;
        }
        edges.reserve(capacity);
    }
    const EdgeId id = static_cast<EdgeId>(edges.size());
    edges.push_back(record);
    if (!push(id))
        return false;
    if (2 * edges.size() > slots_.size()) {
        if (!growSlots()) {
            abandon();
            return false;
        }
    } else {
        slots_[slot] = id + 1;
    }
    return true;
}

std::shared_ptr<const CompactTrace>
CompactTrace::Builder::finish()
{
    slots_ = {};
    slotMask_ = 0;
    CompactTrace &trace = *trace_;
    trace.edges_.shrink_to_fit();
    trace.ids_.shrink_to_fit();
    const std::uint64_t held = trace.ids_.capacity() * sizeof(EdgeId)
        + trace.edges_.capacity() * sizeof(BranchRecord);
    if (held < trace.charged_) {
        trace.budget_.release(trace.charged_ - held);
        trace.charged_ = held;
    }
    return std::shared_ptr<const CompactTrace>(trace_.release());
}

ScopedResidentCapacity::ScopedResidentCapacity(std::uint64_t capacity)
    : saved_(ResidentBudget::process().capacity())
{
    ResidentBudget::process().capacity_.store(capacity,
                                             std::memory_order_relaxed);
}

ScopedResidentCapacity::~ScopedResidentCapacity()
{
    ResidentBudget::process().capacity_.store(saved_,
                                             std::memory_order_relaxed);
}

} // namespace trace
} // namespace vlp
