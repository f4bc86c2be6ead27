/**
 * @file
 * Profiling heuristic implementation.
 */

#include "core/profiler.h"

#include <algorithm>
#include <cassert>
#include <exception>
#include <mutex>

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#endif

#include "core/path_predictor.h"
#include "predictors/predictor.h"
#include "util/logging.h"
#include "util/packed_counter_table.h"
#include "util/thread_pool.h"

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

/*
 * ---- Sharded step-1 kernel ------------------------------------------
 *
 * Step 1 simulates one private fixed-length predictor per path length.
 * The lengths are completely independent: length L's table is touched
 * only by hash index I_L, and I_L is a pure function of the trace
 * prefix (the partial-sum recurrence I_X = rotl(I_{X-1}, 1) ^ T only
 * ever reads shorter lengths, so a PathIndexBank of depth D produces
 * the same I_L for every L <= D regardless of D). Sharding the
 * [minLength, maxLength] range therefore yields integer counts
 * bit-identical to a serial sweep: each worker replays the trace with
 * its own bank (depth = its highest length) and its own packed
 * counter bank, and the per-length results are merged in length
 * order.
 *
 * The leader shard (the one holding minLength) also owns the
 * length-independent counts — per-branch executions and the sweep's
 * dynamic branch total — and builds the per-branch map in trace
 * order, so the merged profiles_ has exactly the insertion order the
 * serial code produces.
 */

/** One contiguous range of path lengths, inclusive. */
struct LengthShard
{
    unsigned lo;
    unsigned hi;
};

/** Split [min_length, max_length] into at most @p jobs even shards. */
std::vector<LengthShard>
makeLengthShards(unsigned min_length, unsigned max_length, unsigned jobs)
{
    const unsigned effective = jobs == 0
        ? util::ThreadPool::defaultThreadCount()
        : jobs;
    const unsigned count = max_length - min_length + 1;
    const unsigned shards = std::min(std::max(effective, 1u), count);
    std::vector<LengthShard> result;
    result.reserve(shards);
    unsigned next = min_length;
    for (unsigned shard = 0; shard < shards; ++shard) {
        const unsigned width =
            count / shards + (shard < count % shards ? 1 : 0);
        result.push_back({next, next + width - 1});
        next += width;
    }
    return result;
}

/** One shard's private output, merged on the controlling thread. */
struct ShardResult
{
    /** mispredictions[L - lo]: total mispredictions at length L. */
    std::vector<std::uint64_t> mispredictions;
    /**
     * Per-branch records with correct[] filled for this shard's
     * lengths only; the leader also fills executions.
     */
    std::unordered_map<std::uint64_t, BranchProfile> profiles;
    /** Dynamic profiled branches (leader shard only). */
    std::uint64_t branches = 0;
};

/**
 * Step-1 table bank for conditional branches: every shard length's
 * 2-bit-counter table, packed back to back in one PackedCounterTable
 * (4 KiB per 14-bit table, so even the full 32-length bank stays
 * L2-resident).
 *
 * accessAll() predicts, updates, and tallies every shard length for
 * one dynamic branch. On x86-64 hosts with AVX-512 it runs a
 * gather/scatter kernel eight lengths at a time — each length's
 * counter lives in its own table segment, so the lanes never alias —
 * with arithmetic identical to the scalar loop (results stay
 * bit-identical; the dispatch is per process capability, not per
 * run).
 */
class ConditionalStep1Tables
{
  public:
    ConditionalStep1Tables(unsigned index_bits, unsigned lengths)
        : indexBits_(index_bits),
          table_(std::size_t{lengths} << index_bits, 2)
    {
#if defined(__x86_64__) && defined(__GNUC__)
        simd_ = __builtin_cpu_supports("avx512f")
             && __builtin_cpu_supports("avx512vl")
             && __builtin_cpu_supports("avx512dq")
             && __builtin_cpu_supports("avx512bw");
#endif
    }

    /**
     * Predict/update lengths lo..lo+lengths-1 (table slots 0..) for
     * one branch, reading the hash indices straight out of @p bank:
     * hits bump the (saturating) correct[s], misses bump misses[s].
     */
    void
    accessAll(const PathIndexBank &bank, unsigned lo, unsigned lengths,
              const trace::BranchRecord &record, std::uint32_t *correct,
              std::uint64_t *misses)
    {
#if defined(__x86_64__) && defined(__GNUC__)
        if (simd_) {
            accessAllAvx512(bank.rawView(), lo, lengths, record.taken,
                            correct, misses);
            return;
        }
#endif
        const bool taken = record.taken;
        for (unsigned slot = 0; slot < lengths; ++slot) {
            const std::size_t entry =
                (std::size_t{slot} << indexBits_)
                | static_cast<std::size_t>(bank.index(lo + slot));
            const bool hit =
                table_.predictThenUpdate(entry, taken) == taken;
            correct[slot] += static_cast<std::uint32_t>(
                hit & (correct[slot] != BranchProfile::saturated));
            misses[slot] += !hit;
        }
    }

  private:
#if defined(__x86_64__) && defined(__GNUC__)
    /**
     * The scalar loop above, eight 64-bit lanes at a time, with the
     * index reconstruction (ring read, rotate, XOR with the running
     * sum) fused in so no per-record staging buffer is needed. Slot
     * width is 2 bits, so a word holds 32 counters (entry >> 5
     * selects the word, (entry & 31) * 2 the bit position) —
     * mirroring PackedCounterTable's layout for bits == 2.
     */
    __attribute__((target("avx512f,avx512vl,avx512dq,avx512bw")))
    void
    accessAllAvx512(const PathIndexBank::RawView view, unsigned lo,
                    unsigned lengths, bool taken,
                    std::uint32_t *correct, std::uint64_t *misses)
    {
        std::uint64_t *words = table_.wordData();
        const __m512i one = _mm512_set1_epi64(1);
        const __m512i two = _mm512_set1_epi64(2);
        const __m512i three = _mm512_set1_epi64(3);
        const __m512i in_word = _mm512_set1_epi64(31);
        const __m512i lane = _mm512_set_epi64(7, 6, 5, 4, 3, 2, 1, 0);
        const __m128i index_bits = _mm_cvtsi32_si128(
            static_cast<int>(indexBits_));
        const __m256i saturated =
            _mm256_set1_epi32(static_cast<int>(BranchProfile::saturated));
        const __m256i one32 = _mm256_set1_epi32(1);
        const __m512i ring_mask = _mm512_set1_epi64(view.mask);
        const __m512i path_sum = _mm512_set1_epi64(
            static_cast<long long>(view.pathSum));
        const __m512i k_mask = _mm512_set1_epi64(
            static_cast<long long>(view.indexMask));
        const __m512i k = _mm512_set1_epi64(view.indexBits);
        for (unsigned base = 0; base < lengths; base += 8) {
            const unsigned rest = lengths - base;
            const __mmask8 active = rest >= 8
                ? static_cast<__mmask8>(0xff)
                : static_cast<__mmask8>((1u << rest) - 1);
            const __m512i slot = _mm512_add_epi64(
                _mm512_set1_epi64(base), lane);
            // index(L) for L = lo+base+lane: rotate S_{t-L} left by
            // rotAmounts[L-1] as a k-bit value, XOR the running sum.
            const __m512i ring_index = _mm512_and_epi64(
                _mm512_add_epi64(
                    _mm512_set1_epi64(view.head + lo + base), lane),
                ring_mask);
            const __m512i sum = _mm512_mask_i64gather_epi64(
                _mm512_setzero_si512(), active, ring_index, view.sums,
                8);
            const __m512i amount = _mm512_cvtepu32_epi64(
                _mm256_maskz_loadu_epi32(
                    active, view.rotAmounts + (lo + base - 1)));
            const __m512i rotated = _mm512_and_epi64(
                _mm512_or_epi64(
                    _mm512_sllv_epi64(sum, amount),
                    _mm512_srlv_epi64(sum,
                                      _mm512_sub_epi64(k, amount))),
                k_mask);
            const __m512i index =
                _mm512_xor_epi64(path_sum, rotated);
            const __m512i entry = _mm512_or_epi64(
                _mm512_sll_epi64(slot, index_bits), index);
            const __m512i word_index = _mm512_srli_epi64(entry, 5);
            const __m512i shift = _mm512_slli_epi64(
                _mm512_and_epi64(entry, in_word), 1);
            __m512i word = _mm512_mask_i64gather_epi64(
                _mm512_setzero_si512(), active, word_index, words, 8);
            const __m512i field = _mm512_and_epi64(
                _mm512_srlv_epi64(word, shift), three);
            const __mmask8 predict_taken =
                _mm512_cmpge_epu64_mask(field, two);
            __m512i next;
            __mmask8 hit;
            if (taken) {
                next = _mm512_mask_add_epi64(
                    field, _mm512_cmplt_epu64_mask(field, three),
                    field, one);
                hit = predict_taken & active;
            } else {
                next = _mm512_mask_sub_epi64(
                    field,
                    _mm512_cmpneq_epu64_mask(field,
                                             _mm512_setzero_si512()),
                    field, one);
                hit = static_cast<__mmask8>(~predict_taken) & active;
            }
            word = _mm512_xor_epi64(
                word,
                _mm512_sllv_epi64(_mm512_xor_epi64(field, next),
                                  shift));
            _mm512_mask_i64scatter_epi64(words, active, word_index,
                                         word, 8);
            __m256i tallies =
                _mm256_maskz_loadu_epi32(active, correct + base);
            const __mmask8 unsaturated =
                _mm256_cmpneq_epu32_mask(tallies, saturated);
            tallies = _mm256_mask_add_epi32(tallies, hit & unsaturated,
                                            tallies, one32);
            _mm256_mask_storeu_epi32(correct + base, active, tallies);
            __m512i missed =
                _mm512_maskz_loadu_epi64(active, misses + base);
            missed = _mm512_mask_add_epi64(
                missed, static_cast<__mmask8>(~hit) & active, missed,
                one);
            _mm512_mask_storeu_epi64(misses + base, active, missed);
        }
    }
#endif

    unsigned indexBits_;
    util::PackedCounterTable table_;
#if defined(__x86_64__) && defined(__GNUC__)
    bool simd_ = false;
#endif
};

/**
 * Step-1 table bank for indirect branches: per-length tables of
 * 32-bit target registers, packed back to back. Indirect branches are
 * a small fraction of a trace, so the scalar loop suffices.
 */
class IndirectStep1Tables
{
  public:
    IndirectStep1Tables(unsigned index_bits, unsigned lengths)
        : indexBits_(index_bits),
          table_(std::size_t{lengths} << index_bits, 0)
    {
    }

    /** See ConditionalStep1Tables::accessAll(). */
    void
    accessAll(const PathIndexBank &bank, unsigned lo, unsigned lengths,
              const trace::BranchRecord &record, std::uint32_t *correct,
              std::uint64_t *misses)
    {
        for (unsigned slot = 0; slot < lengths; ++slot) {
            std::uint32_t &entry =
                table_[(std::size_t{slot} << indexBits_)
                       | static_cast<std::size_t>(
                           bank.index(lo + slot))];
            const bool hit =
                pred::widenTarget(entry, record.pc) == record.nextPc;
            entry = static_cast<std::uint32_t>(record.nextPc);
            correct[slot] += static_cast<std::uint32_t>(
                hit & (correct[slot] != BranchProfile::saturated));
            misses[slot] += !hit;
        }
    }

  private:
    unsigned indexBits_;
    std::vector<std::uint32_t> table_;
};

/*
 * ---- Per-class policy -----------------------------------------------
 *
 * Everything the heuristic does differently for the two branch
 * classes: the step-1 table bank, the step-2 variable length path
 * predictor, the record filter (profiled()) and the miss test
 * (missed()). The step loops are templates over a policy, and
 * withClass() picks the policy once per step, so the per-record loops
 * stay monomorphic.
 */

struct ConditionalClass
{
    using Step1Tables = ConditionalStep1Tables;
    using Predictor = PathConditionalPredictor;

    static bool
    profiled(const trace::BranchRecord &record)
    {
        return record.isConditional();
    }

    static bool
    missed(bool predicted, const trace::BranchRecord &record)
    {
        return predicted != record.taken;
    }
};

struct IndirectClass
{
    using Step1Tables = IndirectStep1Tables;
    using Predictor = PathIndirectPredictor;

    static bool
    profiled(const trace::BranchRecord &record)
    {
        return record.isIndirect();
    }

    static bool
    missed(std::uint64_t predicted, const trace::BranchRecord &record)
    {
        return predicted != record.nextPc;
    }
};

/** body(policy) with the policy of the class @p indirect selects. */
template <typename Body>
decltype(auto)
withClass(bool indirect, Body &&body)
{
    if (indirect)
        return body(IndirectClass{});
    return body(ConditionalClass{});
}

/**
 * Replay a record stream over one shard's private predictors.
 * @p replay is a callable invoking its argument once per record in
 * trace order — either a loop over an in-memory vector or a streaming
 * pass over a trace source (bounded memory for on-disk traces).
 */
template <typename Class, typename Replay>
void
runShard(Replay &&replay, const ProfileOptions &options,
         const LengthShard &shard, bool leader, ShardResult &out)
{
    PathHistoryOptions history = options.history;
    // A shallower bank computes identical indices for every length it
    // implements (see the kernel comment above), and a shard never
    // reads past its own highest length.
    history.depth = shard.hi;
    PathIndexBank bank(options.indexBits, history);
    typename Class::Step1Tables tables(options.indexBits,
                                       shard.hi - shard.lo + 1);

    const unsigned lengths = shard.hi - shard.lo + 1;
    out.mispredictions.assign(lengths, 0);

    // Direct-mapped pc -> profile cache in front of the hash map. Hot
    // branches dominate a trace, so most records hit; BranchProfile
    // references are stable across unordered_map inserts, making the
    // cached pointers safe.
    struct CachedProfile
    {
        std::uint64_t pc = 0;
        BranchProfile *profile = nullptr;
    };
    std::array<CachedProfile, 1024> recent{};

    replay([&](const trace::BranchRecord &record) {
        if (Class::profiled(record)) {
            CachedProfile &cached = recent[(record.pc >> 2) & 1023];
            if (cached.pc != record.pc || cached.profile == nullptr) {
                cached.pc = record.pc;
                cached.profile = &out.profiles[record.pc];
            }
            BranchProfile &profile = *cached.profile;
            if (leader) {
                profile.addExecution();
                ++out.branches;
            }
            tables.accessAll(bank, shard.lo, lengths, record,
                             profile.correct.data() + (shard.lo - 1),
                             out.mispredictions.data());
        }
        bank.observe(record);
    });
}

/** A Replay over an in-memory record vector (see runShard()). */
struct VectorReplay
{
    const std::vector<trace::BranchRecord> &records;

    template <typename Body>
    void
    operator()(Body &&body) const
    {
        for (const trace::BranchRecord &record : records)
            body(record);
    }
};

/**
 * Run step 1 over @p profile_trace, sharding the length range across
 * options.jobs workers, and merge into @p sweep / @p profiles.
 */
template <typename Class>
void
runStep1Sharded(trace::TraceSource &profile_trace,
                const ProfileOptions &options, FixedLengthSweep &sweep,
                std::unordered_map<std::uint64_t, BranchProfile>
                    &profiles)
{
    profile_trace.reset();
    const std::vector<LengthShard> shards = makeLengthShards(
        options.minLength, options.maxLength, options.jobs);
    std::vector<ShardResult> results(shards.size());

    const auto *vector_source =
        dynamic_cast<const trace::VectorTraceSource *>(&profile_trace);

    if (shards.size() == 1) {
        // A single shard makes exactly one pass, so a non-vector
        // source (e.g. a streaming .vbt reader) is consumed in place —
        // peak trace-buffer memory stays whatever the source buffers,
        // not the whole trace.
        if (vector_source != nullptr) {
            runShard<Class>(VectorReplay{vector_source->records()},
                            options, shards[0], true, results[0]);
        } else {
            runShard<Class>(
                [&profile_trace](auto &&body) {
                    trace::BranchRecord record;
                    while (profile_trace.next(record))
                        body(record);
                },
                options, shards[0], true, results[0]);
        }
    } else {
        // Workers need independent, read-only passes over the
        // records; borrow the vector of an in-memory trace, otherwise
        // materialize the stream once (a documented memory/speed
        // trade: intra-trace sharding buys wall-clock at the cost of
        // holding the records).
        const std::vector<trace::BranchRecord> *records = nullptr;
        std::vector<trace::BranchRecord> materialized;
        if (vector_source != nullptr) {
            records = &vector_source->records();
        } else {
            trace::BranchRecord record;
            while (profile_trace.next(record))
                materialized.push_back(record);
            records = &materialized;
        }
        // The controlling thread takes the leader shard; the rest run
        // on a transient pool. Tasks must not leak exceptions into
        // the pool, so failures are captured and rethrown here.
        util::ThreadPool pool(
            static_cast<unsigned>(shards.size()) - 1);
        std::exception_ptr failure;
        std::mutex failure_mutex;
        for (std::size_t i = 1; i < shards.size(); ++i) {
            pool.submit([&, i] {
                try {
                    runShard<Class>(VectorReplay{*records}, options,
                                    shards[i], false, results[i]);
                } catch (...) {
                    std::lock_guard<std::mutex> lock(failure_mutex);
                    if (!failure)
                        failure = std::current_exception();
                }
            });
        }
        runShard<Class>(VectorReplay{*records}, options, shards[0],
                        true, results[0]);
        pool.wait();
        if (failure)
            std::rethrow_exception(failure);
    }

    // Merge in length order. Every shard sees the same profiled
    // records, so the key sets agree and merging never inserts; the
    // leader's map (built in trace order, like the serial sweep)
    // becomes the result.
    sweep.mispredictions.assign(options.maxLength, 0);
    sweep.minLength = options.minLength;
    sweep.branches = results[0].branches;
    for (std::size_t i = 0; i < shards.size(); ++i) {
        std::copy(results[i].mispredictions.begin(),
                  results[i].mispredictions.end(),
                  sweep.mispredictions.begin() + shards[i].lo - 1);
    }
    profiles = std::move(results[0].profiles);
    for (std::size_t i = 1; i < shards.size(); ++i) {
        for (const auto &[pc, shard_profile] : results[i].profiles) {
            const auto it = profiles.find(pc);
            assert(it != profiles.end());
            std::copy(shard_profile.correct.begin() + shards[i].lo - 1,
                      shard_profile.correct.begin() + shards[i].hi,
                      it->second.correct.begin() + shards[i].lo - 1);
        }
    }
}

/**
 * Step 2 for one class: options.iterations replays of the profile
 * trace, each testing the selector's next assignment on one variable
 * length path predictor. @p branches sizes the miss map.
 */
template <typename Class>
void
runStep2Iterations(trace::TraceSource &profile_trace,
                   const ProfileOptions &options,
                   CandidateSelector &selector, std::size_t branches)
{
    // One miss map reused across iterations, sized for the worst case
    // (every profiled branch mispredicts at least once), so the hot
    // counting loop never rehashes or reallocates.
    std::unordered_map<std::uint64_t, std::uint64_t> misses;
    misses.reserve(branches);
    for (unsigned iteration = 0; iteration < options.iterations;
         ++iteration) {
        const HashAssignment assignment = selector.nextAssignment();
        typename Class::Predictor predictor(options.indexBits, assignment,
                                            historyFor(options));
        misses.clear();

        profile_trace.reset();
        trace::BranchRecord record;
        while (profile_trace.next(record)) {
            if (Class::profiled(record)) {
                if (Class::missed(predictor.predict(record), record))
                    ++misses[record.pc];
                predictor.update(record);
            }
            predictor.observe(record);
        }
        selector.recordResults(assignment, misses);
    }
}

} // anonymous namespace

Profiler::Profiler(ProfileOptions options, bool indirect)
    : options_(options), indirect_(indirect)
{
    validateOptions(options_);
}

const FixedLengthSweep &
Profiler::runStep1(trace::TraceSource &profile_trace)
{
    // One private table per hash function (step 1 of Section 3.5),
    // packed and length-sharded; see the kernel comment above.
    FixedLengthSweep sweep;
    profiles_.clear();
    withClass(indirect_, [&](auto policy) {
        runStep1Sharded<decltype(policy)>(profile_trace, options_, sweep,
                                          profiles_);
    });
    sweep_ = std::move(sweep);
    step1Done_ = true;
    return sweep_;
}

HashAssignment
Profiler::runStep2(trace::TraceSource &profile_trace)
{
    if (!step1Done_)
        util::fatal("profiler step 2 requires step 1 to have run");
    CandidateSelector selector(profiles_, sweep_, options_.candidates,
                               options_.maxLength);
    withClass(indirect_, [&](auto policy) {
        runStep2Iterations<decltype(policy)>(profile_trace, options_,
                                             selector, profiles_.size());
    });
    return selector.finalAssignment();
}

HashAssignment
Profiler::profile(trace::TraceSource &profile_trace)
{
    runStep1(profile_trace);
    return runStep2(profile_trace);
}

void
Profiler::restoreStep1(
        FixedLengthSweep sweep,
        std::unordered_map<std::uint64_t, BranchProfile> profiles)
{
    if (sweep.mispredictions.size() != options_.maxLength
        || sweep.minLength != options_.minLength) {
        util::fatal("restored step-1 sweep does not match the "
                    "profiler's configured length range");
    }
    sweep_ = std::move(sweep);
    profiles_ = std::move(profiles);
    step1Done_ = true;
}

CandidateSelector::CandidateSelector(
        const std::unordered_map<std::uint64_t, BranchProfile> &profiles,
        const FixedLengthSweep &sweep, unsigned candidates,
        unsigned max_length)
    : defaultLength_(sweep.bestLength())
{
    for (const auto &[pc, profile] : profiles) {
        // Rank the swept lengths by step-1 correct count, descending;
        // ties go to the shorter (cheaper-to-train) length. Lengths
        // below the sweep's minLength were never simulated and are
        // not candidates.
        std::vector<unsigned> order;
        order.reserve(max_length - sweep.minLength + 1);
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

        Entry entry;
        const unsigned keep = std::min<unsigned>(
            candidates, static_cast<unsigned>(order.size()));
        entry.lengths.assign(order.begin(), order.begin() + keep);
        entry.recorded.assign(keep, untested);
        entries_.emplace(pc, std::move(entry));
    }
}

std::size_t
CandidateSelector::chooseCandidate(const Entry &entry) const
{
    // Untested candidates (recorded as "never mispredicted") are
    // always chosen before tested ones; among tested ones, take the
    // fewest mispredictions.
    std::size_t best = 0;
    for (std::size_t i = 0; i < entry.recorded.size(); ++i) {
        if (entry.recorded[i] == untested)
            return i;
        if (entry.recorded[i] < entry.recorded[best])
            best = i;
    }
    return best;
}

HashAssignment
CandidateSelector::nextAssignment() const
{
    HashAssignment assignment(defaultLength_);
    for (const auto &[pc, entry] : entries_)
        assignment.assign(pc, entry.lengths[chooseCandidate(entry)]);
    return assignment;
}

void
CandidateSelector::recordResults(
        const HashAssignment &tested,
        const std::unordered_map<std::uint64_t, std::uint64_t>
            &mispredictions)
{
    for (auto &[pc, entry] : entries_) {
        const unsigned used = tested.lookup(pc);
        const auto pos = std::find(entry.lengths.begin(),
                                   entry.lengths.end(), used);
        if (pos == entry.lengths.end())
            continue; // not one of this branch's candidates
        const std::size_t idx =
            static_cast<std::size_t>(pos - entry.lengths.begin());
        const auto it = mispredictions.find(pc);
        entry.recorded[idx] =
            it == mispredictions.end() ? 0 : it->second;
    }
}

HashAssignment
CandidateSelector::finalAssignment() const
{
    HashAssignment assignment(defaultLength_);
    for (const auto &[pc, entry] : entries_) {
        std::size_t best = 0;
        for (std::size_t i = 1; i < entry.recorded.size(); ++i) {
            const std::uint64_t a = entry.recorded[i];
            const std::uint64_t b = entry.recorded[best];
            // An untested candidate (possible when iterations <
            // candidates) never wins over a tested one.
            if (a != untested && (b == untested || a < b))
                best = i;
        }
        assignment.assign(pc, entry.lengths[best]);
    }
    return assignment;
}

} // namespace core
} // namespace vlp
