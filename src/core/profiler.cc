/**
 * @file
 * Profiling heuristic implementation.
 */

#include "core/profiler.h"

#include <algorithm>
#include <cassert>
#include <type_traits>
#include <utility>

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
/** The AVX-512 step-1 kernel is built (and used where the CPU has it). */
#define VLPSIM_STEP1_AVX512 1
#define VLPSIM_AVX512 \
    __attribute__((target("avx512f,avx512vl,avx512dq,avx512bw")))
#else
#define VLPSIM_STEP1_AVX512 0
#endif

#include "core/branch_class.h"
#include "core/replay_feed.h"
#include "core/step1_kernel.h"
#include "util/logging.h"
#include "util/packed_counter_table.h"

namespace vlp {
namespace core {

double
FixedLengthSweep::rate(unsigned length) const
{
    assert(length >= minLength && length <= mispredictions.size());
    if (branches == 0)
        return 0.0;
    return 100.0 * static_cast<double>(mispredictions[length - 1])
         / static_cast<double>(branches);
}

unsigned
FixedLengthSweep::bestLength() const
{
    assert(minLength >= 1 && minLength <= mispredictions.size());
    unsigned best = minLength;
    for (unsigned length = minLength + 1;
         length <= mispredictions.size(); ++length) {
        if (mispredictions[length - 1] < mispredictions[best - 1])
            best = length;
    }
    return best;
}

using detail::EdgeChunk;
using detail::EdgeFeed;
using detail::Step1Kernel;

namespace {

void
validateOptions(const ProfileOptions &options)
{
    if (options.indexBits < 1 || options.indexBits > 30)
        util::fatal("profile indexBits must be 1..30");
    if (options.minLength < 1)
        util::fatal("profile length range must not start at zero");
    if (options.maxLength > maxPathLength)
        util::fatal("profile maxLength must be 1..32");
    if (options.minLength > options.maxLength) {
        util::fatal("profile length range is descending (minLength "
                    + std::to_string(options.minLength)
                    + " > maxLength "
                    + std::to_string(options.maxLength)
                    + "); it would produce an empty sweep");
    }
    if (options.candidates < 1)
        util::fatal("profile candidate count must be >= 1");
    if (options.iterations < 1)
        util::fatal("profile iteration count must be >= 1");
}

PathHistoryOptions
historyFor(const ProfileOptions &options)
{
    PathHistoryOptions history = options.history;
    history.depth = options.maxLength;
    return history;
}

/** Each of @p pcs mapped to its index in the list. */
std::unordered_map<std::uint64_t, std::uint32_t>
indexOf(const std::vector<std::uint64_t> &pcs)
{
    std::unordered_map<std::uint64_t, std::uint32_t> index;
    for (std::uint32_t i = 0; i < pcs.size(); ++i)
        index.emplace(pcs[i], i);
    return index;
}

/** Number of path lengths step 1 sweeps. */
unsigned
sweptLengths(const ProfileOptions &options)
{
    return options.maxLength - options.minLength + 1;
}

/*
 * ---- Step-1 tables --------------------------------------------------
 *
 * One private table per swept length, packed back to back: length
 * minLength + s owns the segment of entries starting at
 * s << segmentBits().
 * access() predicts and updates one entry (the portable kernel);
 * access8() does the same for eight entries of eight different
 * segments at once (the AVX-512 kernel). The segments never overlap,
 * so the eight lanes never alias and both give identical results.
 */

/**
 * Conditional branches: 2-bit counters in one PackedCounterTable.
 * Every segment is at least one 64-bit word (32 counters), so two
 * lanes never share a word even when k < 5.
 */
class ConditionalStep1Tables
{
  public:
    ConditionalStep1Tables(unsigned index_bits, unsigned lengths)
        : segmentBits_(std::max(index_bits, 5u)),
          table_(std::size_t{lengths} << segmentBits_, 2)
    {
    }

    unsigned segmentBits() const { return segmentBits_; }

    /** Predict, then train, counter @p entry: true on a hit. */
    bool
    access(std::size_t entry, const trace::BranchRecord &record)
    {
        return ConditionalClass::access(table_, entry, record);
    }

#if VLPSIM_STEP1_AVX512
    /**
     * access() for the @p active lanes of @p entry: the hit mask. A
     * word holds 32 counters (entry >> 5 selects the word, (entry &
     * 31) * 2 the bit position), as PackedCounterTable lays out 2-bit
     * counters.
     */
    VLPSIM_AVX512 __mmask8
    access8(__m512i entry, __mmask8 active,
            const trace::BranchRecord &record)
    {
        std::uint64_t *words = table_.wordData();
        const __m512i word_index = _mm512_srli_epi64(entry, 5);
        // AddressSanitizer does not see gathers and scatters.
        assert(_mm512_mask_cmpge_epu64_mask(
                   active, word_index,
                   _mm512_set1_epi64(static_cast<long long>(
                       (table_.size() + 31) / 32)))
               == 0);
        const __m512i shift = _mm512_slli_epi64(
            _mm512_and_epi64(entry, _mm512_set1_epi64(31)), 1);
        const __m512i word = _mm512_mask_i64gather_epi64(
            _mm512_setzero_si512(), active, word_index, words, 8);
        const __m512i field = _mm512_and_epi64(
            _mm512_srlv_epi64(word, shift), _mm512_set1_epi64(3));
        const __mmask8 taken = record.taken ? 0xff : 0;
        const __mmask8 predict_taken =
            _mm512_cmpge_epu64_mask(field, _mm512_set1_epi64(2));
        // Saturating step toward the outcome: up below 3 when taken,
        // down above 0 when not.
        const __mmask8 move =
            (taken & _mm512_cmplt_epu64_mask(field, _mm512_set1_epi64(3)))
            | (static_cast<__mmask8>(~taken)
               & _mm512_test_epi64_mask(field, field));
        const __m512i next = _mm512_mask_add_epi64(
            field, move, field, _mm512_set1_epi64(record.taken ? 1 : -1));
        _mm512_mask_i64scatter_epi64(
            words, active, word_index,
            _mm512_xor_epi64(word,
                             _mm512_sllv_epi64(
                                 _mm512_xor_epi64(field, next), shift)),
            8);
        return static_cast<__mmask8>(~(predict_taken ^ taken)) & active;
    }
#endif

  private:
    unsigned segmentBits_;
    util::PackedCounterTable table_;
};

/** Indirect branches: 32-bit target registers. */
class IndirectStep1Tables
{
  public:
    IndirectStep1Tables(unsigned index_bits, unsigned lengths)
        : segmentBits_(index_bits),
          table_(std::size_t{lengths} << index_bits, 0)
    {
    }

    unsigned segmentBits() const { return segmentBits_; }

    /** Predict, then overwrite, target register @p entry. */
    bool
    access(std::size_t entry, const trace::BranchRecord &record)
    {
        return IndirectClass::access(table_, entry, record);
    }

#if VLPSIM_STEP1_AVX512
    /** See ConditionalStep1Tables::access8(). */
    VLPSIM_AVX512 __mmask8
    access8(__m512i entry, __mmask8 active,
            const trace::BranchRecord &record)
    {
        assert(_mm512_mask_cmpge_epu64_mask(
                   active, entry,
                   _mm512_set1_epi64(
                       static_cast<long long>(table_.size())))
               == 0);
        const __m256i target = _mm256_set1_epi32(
            static_cast<int>(static_cast<std::uint32_t>(record.nextPc)));
        const __m256i stored = _mm512_mask_i64gather_epi32(
            _mm256_setzero_si256(), active, entry, table_.data(), 4);
        _mm512_mask_i64scatter_epi32(table_.data(), active, entry, target,
                                     4);
        // widenTarget() takes the high half from the branch's own pc.
        if ((record.pc >> 32) != (record.nextPc >> 32))
            return 0;
        return _mm256_mask_cmpeq_epi32_mask(active, stored, target);
    }
#endif

  private:
    unsigned segmentBits_;
    std::vector<std::uint32_t> table_;
};

/*
 * ---- Step-1 kernels -------------------------------------------------
 *
 * A kernel owns the tables of the swept lengths and, per profiled
 * record, predicts and trains every one of them and tallies the
 * outcome: hits bump the branch's (saturating) correct[], misses the
 * sweep's misses[].
 */

/** One length at a time, reading each index from the bank. */
template <typename Tables>
class PortableKernel
{
  public:
    PortableKernel(const ProfileOptions &options, const PathIndexBank &)
        : tables_(options.indexBits, sweptLengths(options)),
          lo_(options.minLength), lengths_(sweptLengths(options))
    {
    }

    void
    access(const PathIndexBank &bank, const trace::BranchRecord &record,
           std::uint32_t *correct, std::uint64_t *misses)
    {
        for (unsigned slot = 0; slot < lengths_; ++slot) {
            const bool hit = tables_.access(
                (std::size_t{slot} << tables_.segmentBits())
                    | static_cast<std::size_t>(bank.index(lo_ + slot)),
                record);
            correct[slot] += static_cast<std::uint32_t>(
                hit & (correct[slot] != BranchProfile::saturated));
            misses[slot] += !hit;
        }
    }

  private:
    Tables tables_;
    unsigned lo_;
    unsigned lengths_;
};

#if VLPSIM_STEP1_AVX512
/**
 * Eight lengths per instruction, in chunks of eight consecutive swept
 * lengths. What depends only on the options — each chunk's segment
 * bases, rotate amounts and lane mask — is computed once, in the
 * constructor. Per record, each chunk's eight past sums are one
 * contiguous load from the mirrored ring, and the tallies are
 * full-width loads and stores, because a masked store does not
 * forward to the next record's load of the same lanes. Only a ragged
 * last chunk (fewer than eight lengths left) masks them.
 */
template <typename Tables>
class Avx512Kernel
{
  public:
    VLPSIM_AVX512
    Avx512Kernel(const ProfileOptions &options, const PathIndexBank &bank)
        : tables_(options.indexBits, sweptLengths(options)),
          lo_(options.minLength), lengths_(sweptLengths(options)),
          fullChunks_(lengths_ / 8)
    {
        const PathIndexBank::RawView view = bank.rawView();
        const __m512i lane = _mm512_set_epi64(7, 6, 5, 4, 3, 2, 1, 0);
        for (unsigned base = 0; base < lengths_; base += 8) {
            Chunk &chunk = chunks_[base / 8];
            const unsigned rest = lengths_ - base;
            chunk.active = rest >= 8 ? 0xff : (1u << rest) - 1;
            chunk.segment = _mm512_sll_epi64(
                _mm512_add_epi64(_mm512_set1_epi64(base), lane),
                _mm_cvtsi32_si128(
                    static_cast<int>(tables_.segmentBits())));
            // Rotate S_{t-L} left by rotAmounts[L - 1] as a k-bit
            // value: two shifts, by amount and by k - amount.
            chunk.left = _mm512_cvtepu32_epi64(_mm256_maskz_loadu_epi32(
                chunk.active, view.rotAmounts + (lo_ + base - 1)));
            chunk.right = _mm512_sub_epi64(
                _mm512_set1_epi64(view.indexBits), chunk.left);
        }
        indexMask_ = _mm512_set1_epi64(
            static_cast<long long>(view.indexMask));
    }

    VLPSIM_AVX512 void
    access(const PathIndexBank &bank, const trace::BranchRecord &record,
           std::uint32_t *correct, std::uint64_t *misses)
    {
        const PathIndexBank::RawView view = bank.rawView();
        // S_{t-L} for L = lo, lo + 1, ...: one unwrapped run.
        assert(view.head + lo_ + lengths_ <= 2 * (view.mask + 1));
        const std::uint64_t *sums = view.sums + view.head + lo_;
        const __m512i path_sum =
            _mm512_set1_epi64(static_cast<long long>(view.pathSum));
        for (unsigned c = 0; c < fullChunks_; ++c)
            chunk<false>(c, sums, path_sum, record, correct, misses);
        if (fullChunks_ * 8 < lengths_)
            chunk<true>(fullChunks_, sums, path_sum, record, correct,
                        misses);
    }

  private:
    /** One chunk's record-invariant vectors. */
    struct Chunk
    {
        __m512i segment;
        __m512i left;
        __m512i right;
        __mmask8 active;
    };

    template <bool ragged>
    VLPSIM_AVX512 void
    chunk(unsigned c, const std::uint64_t *sums, __m512i path_sum,
          const trace::BranchRecord &record, std::uint32_t *correct,
          std::uint64_t *misses)
    {
        const Chunk &chunk = chunks_[c];
        const unsigned base = c * 8;
        __m512i sum;
        if constexpr (ragged)
            sum = _mm512_maskz_loadu_epi64(chunk.active, sums + base);
        else
            sum = _mm512_loadu_si512(sums + base);
        const __m512i index = _mm512_xor_epi64(
            path_sum,
            _mm512_and_epi64(
                _mm512_or_epi64(_mm512_sllv_epi64(sum, chunk.left),
                                _mm512_srlv_epi64(sum, chunk.right)),
                indexMask_));
        const __mmask8 hit = tables_.access8(
            _mm512_or_epi64(chunk.segment, index), chunk.active, record);

        __m256i tallies;
        if constexpr (ragged)
            tallies = _mm256_maskz_loadu_epi32(chunk.active, correct + base);
        else
            tallies = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(correct + base));
        // Subtracting the all-ones lanes of a mask adds one to them.
        // (A masked add would let the compiler store only the changed
        // lanes: a masked store again.)
        tallies = _mm256_sub_epi32(
            tallies,
            _mm256_movm_epi32(
                hit & _mm256_cmpneq_epu32_mask(
                          tallies, _mm256_set1_epi32(static_cast<int>(
                                       BranchProfile::saturated)))));
        if constexpr (ragged)
            _mm256_mask_storeu_epi32(correct + base, chunk.active,
                                     tallies);
        else
            _mm256_storeu_si256(reinterpret_cast<__m256i *>(correct + base),
                                tallies);

        // misses has a slot for every lane of every chunk, so even a
        // ragged chunk stores it full width.
        _mm512_storeu_si512(
            misses + base,
            _mm512_sub_epi64(_mm512_loadu_si512(misses + base),
                             _mm512_movm_epi64(static_cast<__mmask8>(~hit)
                                               & chunk.active)));
    }

    Tables tables_;
    unsigned lo_;
    unsigned lengths_;
    unsigned fullChunks_;
    __m512i indexMask_;
    std::array<Chunk, maxPathLength / 8> chunks_;
};
#endif

/** The step-1 table bank of the branch class @p Class. */
template <typename Class>
using Step1TablesOf =
    std::conditional_t<std::is_same_v<Class, IndirectClass>,
                       IndirectStep1Tables, ConditionalStep1Tables>;

/**
 * The step-1 loop, the same for both classes and both kernels: each
 * profiled record goes through the kernel and tallies into the
 * profile of its edge's slot, every record goes into the bank.
 */
template <typename Class, typename Kernel>
[[gnu::always_inline]] inline void
step1Loop(EdgeFeed &feed, const ProfileOptions &options,
          FixedLengthSweep &sweep, std::vector<BranchProfile> &profiles)
{
    PathIndexBank bank(options.indexBits, historyFor(options));
    Kernel kernel(options, bank);
    // Room for every lane of every chunk; added to the sweep once.
    alignas(64) std::array<std::uint64_t, maxPathLength> misses{};
    std::uint64_t branches = 0;
    for (EdgeChunk chunk = feed.next(); !chunk.ids.empty();
         chunk = feed.next()) {
        const trace::BranchRecord *edges = chunk.edges.data();
        const std::uint32_t *slots = chunk.slots.data();
        // next() may have added slots, and so moved the profiles.
        BranchProfile *slot_profiles = profiles.data();
        for (const trace::CompactTrace::EdgeId id : chunk.ids) {
            const trace::BranchRecord &record = edges[id];
            if (Class::profiled(record)) {
                BranchProfile &profile = slot_profiles[slots[id]];
                profile.addExecution();
                ++branches;
                kernel.access(bank, record,
                              profile.correct.data()
                                  + (options.minLength - 1),
                              misses.data());
            }
            bank.observe(record);
        }
    }
    sweep.mispredictions.assign(options.maxLength, 0);
    std::copy(misses.begin(), misses.begin() + sweptLengths(options),
              sweep.mispredictions.begin() + (options.minLength - 1));
    sweep.branches = branches;
    sweep.minLength = options.minLength;
}

#if VLPSIM_STEP1_AVX512
/** step1Loop() with the AVX-512 kernel, compiled for AVX-512. */
template <typename Class>
VLPSIM_AVX512 void
step1LoopAvx512(EdgeFeed &feed, const ProfileOptions &options,
                FixedLengthSweep &sweep,
                std::vector<BranchProfile> &profiles)
{
    step1Loop<Class, Avx512Kernel<Step1TablesOf<Class>>>(feed, options,
                                                         sweep, profiles);
}
#endif

/**
 * One step-2 pass for one class: one variable length path predictor
 * (N hash functions, one shared table) over the whole trace, with the
 * per-branch @p branch_lengths (the last for every other pc), adding
 * each branch's misses to @p branch_misses. Per chunk, the lengths go
 * out to the edges and the edges' misses come back to the branches.
 */
template <typename Class>
void
step2Loop(EdgeFeed &feed, unsigned index_bits,
          const PathHistoryOptions &history,
          std::span<const std::uint8_t> branch_lengths,
          std::vector<std::uint64_t> &branch_misses)
{
    PathIndexBank bank(index_bits, history);
    typename Class::Table table = Class::table(index_bits);
    std::vector<std::uint8_t> lengths;
    std::vector<std::uint64_t> misses;
    for (EdgeChunk chunk = feed.next(); !chunk.ids.empty();
         chunk = feed.next()) {
        const std::size_t edge_count = chunk.edges.size();
        lengths.resize(edge_count);
        misses.assign(edge_count, 0);
        for (std::size_t edge = 0; edge < edge_count; ++edge)
            lengths[edge] = branch_lengths[chunk.slots[edge]];
        for (const trace::CompactTrace::EdgeId id : chunk.ids) {
            const trace::BranchRecord &record = chunk.edges[id];
            if (Class::profiled(record))
                misses[id] += !Class::access(
                    table, static_cast<std::size_t>(bank.index(lengths[id])),
                    record);
            bank.observe(record);
        }
        for (std::size_t edge = 0; edge < edge_count; ++edge)
            branch_misses[chunk.slots[edge]] += misses[edge];
    }
}

} // anonymous namespace

namespace detail {

Step1Kernel
nativeStep1Kernel()
{
#if VLPSIM_STEP1_AVX512
    static const bool avx512 = __builtin_cpu_supports("avx512f")
                            && __builtin_cpu_supports("avx512vl")
                            && __builtin_cpu_supports("avx512dq")
                            && __builtin_cpu_supports("avx512bw");
    if (avx512)
        return Step1Kernel::avx512;
#endif
    return Step1Kernel::portable;
}

void
runStep1(Step1Kernel kernel, bool indirect,
         trace::TraceSource &profile_trace, const ProfileOptions &options,
         FixedLengthSweep &sweep,
         std::unordered_map<std::uint64_t, BranchProfile> &profiles)
{
    if (kernel == Step1Kernel::avx512
        && nativeStep1Kernel() != Step1Kernel::avx512)
        util::fatal("this CPU cannot run the AVX-512 step-1 kernel");
    // Profiled branches take dense slots in order of first appearance.
    std::unordered_map<std::uint64_t, std::uint32_t> slot_of;
    std::vector<std::uint64_t> pcs;
    std::vector<BranchProfile> slot_profiles;
    withClass(indirect, [&](auto policy) {
        using Class = decltype(policy);
        EdgeFeed feed(profile_trace, [&](const trace::BranchRecord &edge) {
            if (!Class::profiled(edge))
                return std::uint32_t{0}; // never read
            const auto [slot, added] = slot_of.try_emplace(
                edge.pc, static_cast<std::uint32_t>(pcs.size()));
            if (added) {
                pcs.push_back(edge.pc);
                slot_profiles.emplace_back();
            }
            return slot->second;
        });
#if VLPSIM_STEP1_AVX512
        if (kernel == Step1Kernel::avx512) {
            step1LoopAvx512<Class>(feed, options, sweep, slot_profiles);
            return;
        }
#endif
        step1Loop<Class, PortableKernel<Step1TablesOf<Class>>>(
            feed, options, sweep, slot_profiles);
    });
    // Inserted in first-appearance order, as a per-record insert would
    // have been, so the map iterates in the same order.
    profiles.clear();
    for (std::size_t slot = 0; slot < pcs.size(); ++slot)
        profiles[pcs[slot]] = slot_profiles[slot];
}

Step2Replay::Step2Replay(trace::TraceSource &profile_trace,
                         const ProfileOptions &options, bool indirect,
                         const std::vector<std::uint64_t> &branches)
    : feed_(profile_trace,
            [index = indexOf(branches),
             other = static_cast<std::uint32_t>(branches.size())](
                const trace::BranchRecord &edge) {
                const auto found = index.find(edge.pc);
                return found == index.end() ? other : found->second;
            }),
      branchCount_(branches.size()), options_(options),
      indirect_(indirect)
{
}

std::vector<std::uint64_t>
Step2Replay::pass(std::span<const std::uint8_t> lengths)
{
    const PathHistoryOptions history = historyFor(options_);
    assert(std::all_of(lengths.begin(), lengths.end(),
                       [&](std::uint8_t length) {
                           return length >= 1 && length <= history.depth;
                       }));
    if (lengths.size() != branchCount_ + 1)
        util::fatal("step-2 lengths do not match the profiled branches");
    std::vector<std::uint64_t> misses(lengths.size(), 0);
    withClass(indirect_, [&](auto policy) {
        step2Loop<decltype(policy)>(feed_, options_.indexBits, history,
                                    lengths, misses);
    });
    // Every pc outside the list shares the last entry; not reported.
    misses.pop_back();
    return misses;
}

} // namespace detail

Profiler::Profiler(ProfileOptions options, bool indirect)
    : options_(options), indirect_(indirect)
{
    validateOptions(options_);
}

const FixedLengthSweep &
Profiler::runStep1(trace::TraceSource &profile_trace)
{
    // One private table per hash function (step 1 of Section 3.5),
    // packed; see the kernel comment above.
    step1Done_ = false;
    detail::runStep1(detail::nativeStep1Kernel(), indirect_,
                     profile_trace, options_, sweep_, profiles_);
    step1Done_ = true;
    return sweep_;
}

HashAssignment
Profiler::runStep2(trace::TraceSource &profile_trace) const
{
    if (!step1Done_)
        util::fatal("profiler step 2 requires step 1 to have run");
    CandidateSelector selector(profiles_, sweep_, options_.candidates,
                               options_.maxLength);
    detail::Step2Replay replay(profile_trace, options_, indirect_,
                               selector.branches());
    for (unsigned iteration = 0; iteration < options_.iterations;
         ++iteration)
        selector.recordResults(replay.pass(selector.nextLengths()));
    return selector.finalAssignment();
}

HashAssignment
Profiler::profile(trace::TraceSource &profile_trace)
{
    runStep1(profile_trace);
    return runStep2(profile_trace);
}

void
checkRestoredSweep(const ProfileOptions &options,
                   const FixedLengthSweep &sweep)
{
    validateOptions(options);
    if (sweep.mispredictions.size() != options.maxLength
        || sweep.minLength != options.minLength) {
        util::fatal("restored step-1 sweep does not match the "
                    "profiler's configured length range");
    }
}

void
Profiler::restoreStep1(
        FixedLengthSweep sweep,
        std::unordered_map<std::uint64_t, BranchProfile> profiles)
{
    checkRestoredSweep(options_, sweep);
    sweep_ = std::move(sweep);
    profiles_ = std::move(profiles);
    step1Done_ = true;
}

CandidateSelector::CandidateSelector(
        const std::unordered_map<std::uint64_t, BranchProfile> &profiles,
        const FixedLengthSweep &sweep, unsigned candidates,
        unsigned max_length)
    : keep_(std::min(candidates, max_length - sweep.minLength + 1)),
      defaultLength_(sweep.bestLength())
{
    branches_.reserve(profiles.size());
    candidates_.reserve(profiles.size() * keep_);
    std::vector<unsigned> order;
    for (const auto &[pc, profile] : profiles) {
        // Rank the swept lengths by step-1 correct count, descending;
        // ties go to the shorter (cheaper-to-train) length. Lengths
        // below the sweep's minLength were never simulated and are
        // not candidates.
        order.clear();
        for (unsigned length = sweep.minLength; length <= max_length;
             ++length) {
            order.push_back(length);
        }
        std::stable_sort(order.begin(), order.end(),
            [&profile](unsigned a, unsigned b) {
                if (profile.correct[a - 1] != profile.correct[b - 1])
                    return profile.correct[a - 1]
                         > profile.correct[b - 1];
                return a < b;
            });
        branches_.push_back(pc);
        for (unsigned i = 0; i < keep_; ++i)
            candidates_.push_back(static_cast<std::uint8_t>(order[i]));
    }
    recorded_.assign(candidates_.size(), untested);
    chosen_.assign(branches_.size(), 0);
    lengths_.assign(branches_.size() + 1,
                    static_cast<std::uint8_t>(defaultLength_));
}

std::size_t
CandidateSelector::chooseCandidate(std::size_t branch) const
{
    // Untested candidates (recorded as "never mispredicted") are
    // always chosen before tested ones; among tested ones, take the
    // fewest mispredictions.
    const std::uint64_t *recorded = recorded_.data() + branch * keep_;
    std::size_t best = 0;
    for (std::size_t i = 0; i < keep_; ++i) {
        if (recorded[i] == untested)
            return i;
        if (recorded[i] < recorded[best])
            best = i;
    }
    return best;
}

const std::vector<std::uint8_t> &
CandidateSelector::nextLengths()
{
    for (std::size_t b = 0; b < branches_.size(); ++b) {
        chosen_[b] = static_cast<std::uint8_t>(chooseCandidate(b));
        lengths_[b] = candidates_[b * keep_ + chosen_[b]];
    }
    return lengths_;
}

void
CandidateSelector::recordResults(
        std::span<const std::uint64_t> mispredictions)
{
    if (mispredictions.size() != branches_.size())
        util::fatal("step-2 results do not cover the profiled branches");
    for (std::size_t b = 0; b < branches_.size(); ++b)
        recorded_[b * keep_ + chosen_[b]] = mispredictions[b];
}

HashAssignment
CandidateSelector::finalAssignment() const
{
    HashAssignment assignment(defaultLength_);
    for (std::size_t b = 0; b < branches_.size(); ++b) {
        const std::uint64_t *recorded = recorded_.data() + b * keep_;
        std::size_t best = 0;
        for (std::size_t i = 1; i < keep_; ++i) {
            // An untested candidate (possible when iterations <
            // candidates) never wins over a tested one.
            if (recorded[i] != untested
                && (recorded[best] == untested
                    || recorded[i] < recorded[best]))
                best = i;
        }
        assignment.assign(branches_[b], candidates_[b * keep_ + best]);
    }
    return assignment;
}

} // namespace core
} // namespace vlp
