/**
 * @file
 * Artifact serialization implementation.
 */

#include "store/serialize.h"

#include <algorithm>
#include <bit>

#include "util/logging.h"

namespace vlp {
namespace store {

void
Encoder::u32(std::uint32_t value)
{
    for (int i = 0; i < 4; ++i)
        buffer_.push_back(static_cast<std::uint8_t>(value >> (8 * i)));
}

void
Encoder::u64(std::uint64_t value)
{
    for (int i = 0; i < 8; ++i)
        buffer_.push_back(static_cast<std::uint8_t>(value >> (8 * i)));
}

void
Encoder::f64(double value)
{
    u64(std::bit_cast<std::uint64_t>(value));
}

void
Encoder::str(const std::string &value)
{
    u32(static_cast<std::uint32_t>(value.size()));
    buffer_.insert(buffer_.end(), value.begin(), value.end());
}

const std::uint8_t *
Decoder::need(std::size_t size)
{
    if (remaining() < size)
        util::fatal("truncated artifact payload");
    const std::uint8_t *data = buffer_.data() + offset_;
    offset_ += size;
    return data;
}

std::uint32_t
Decoder::u32()
{
    const std::uint8_t *data = need(4);
    std::uint32_t value = 0;
    for (int i = 0; i < 4; ++i)
        value |= static_cast<std::uint32_t>(data[i]) << (8 * i);
    return value;
}

std::uint64_t
Decoder::u64()
{
    const std::uint8_t *data = need(8);
    std::uint64_t value = 0;
    for (int i = 0; i < 8; ++i)
        value |= static_cast<std::uint64_t>(data[i]) << (8 * i);
    return value;
}

double
Decoder::f64()
{
    return std::bit_cast<double>(u64());
}

std::string
Decoder::str()
{
    const std::uint32_t size = u32();
    const std::uint8_t *data = need(size);
    return std::string(reinterpret_cast<const char *>(data), size);
}

void
Decoder::expectEnd() const
{
    if (remaining() != 0)
        util::fatal("artifact payload has trailing bytes");
}

namespace {

void
encodeSweep(Encoder &encoder, const core::FixedLengthSweep &sweep)
{
    encoder.u32(static_cast<std::uint32_t>(sweep.minLength));
    encoder.u32(static_cast<std::uint32_t>(
        sweep.mispredictions.size()));
    for (const std::uint64_t count : sweep.mispredictions)
        encoder.u64(count);
    encoder.u64(sweep.branches);
}

core::FixedLengthSweep
decodeSweep(Decoder &decoder)
{
    core::FixedLengthSweep sweep;
    sweep.minLength = decoder.u32();
    const std::uint32_t lengths = decoder.u32();
    if (lengths > core::maxPathLength)
        util::fatal("artifact sweep has an impossible length count");
    sweep.mispredictions.reserve(lengths);
    for (std::uint32_t i = 0; i < lengths; ++i)
        sweep.mispredictions.push_back(decoder.u64());
    sweep.branches = decoder.u64();
    return sweep;
}

/** pcs of @p map in ascending order, for deterministic encodings. */
template <typename Map>
std::vector<std::uint64_t>
sortedPcs(const Map &map)
{
    std::vector<std::uint64_t> pcs;
    pcs.reserve(map.size());
    for (const auto &[pc, value] : map)
        pcs.push_back(pc);
    std::sort(pcs.begin(), pcs.end());
    return pcs;
}

/** The step-1 decoder: the sweep, then every per-branch record,
 *  checked, and inserted into @p profiles unless it is null. */
core::FixedLengthSweep
decodeStep1(const std::vector<std::uint8_t> &payload,
            std::unordered_map<std::uint64_t, core::BranchProfile>
                *profiles)
{
    Decoder decoder(payload);
    core::FixedLengthSweep sweep = decodeSweep(decoder);
    const std::uint64_t count = decoder.u64();
    constexpr std::size_t countBytes = core::maxPathLength * 4;
    constexpr std::size_t entryBytes = 8 + 4 + countBytes;
    if (count > decoder.remaining() / entryBytes)
        util::fatal("artifact profile count exceeds payload size");
    if (profiles) {
        profiles->clear();
        profiles->reserve(count);
    }
    std::uint64_t last = 0;
    for (std::uint64_t i = 0; i < count; ++i) {
        const std::uint64_t pc = decoder.u64();
        // The encoder writes pcs strictly ascending (sortedPcs()); a
        // repeated pc would otherwise vanish without an error.
        if (i != 0 && pc <= last)
            util::fatal("artifact profile pcs are not strictly ascending");
        last = pc;
        if (!profiles) {
            decoder.skip(4 + countBytes);
            continue;
        }
        core::BranchProfile profile;
        profile.executions = decoder.u32();
        for (std::uint32_t &correct : profile.correct)
            correct = decoder.u32();
        profiles->emplace(pc, profile);
    }
    decoder.expectEnd();
    return sweep;
}

} // anonymous namespace

std::vector<std::uint8_t>
encodeStep1Profile(
        const core::FixedLengthSweep &sweep,
        const std::unordered_map<std::uint64_t, core::BranchProfile>
            &profiles)
{
    Encoder encoder;
    encodeSweep(encoder, sweep);
    encoder.u64(profiles.size());
    for (const std::uint64_t pc : sortedPcs(profiles)) {
        const core::BranchProfile &profile = profiles.at(pc);
        encoder.u64(pc);
        encoder.u32(profile.executions);
        for (const std::uint32_t correct : profile.correct)
            encoder.u32(correct);
    }
    return encoder.take();
}

void
decodeStep1Profile(
        const std::vector<std::uint8_t> &payload,
        core::FixedLengthSweep &sweep,
        std::unordered_map<std::uint64_t, core::BranchProfile>
            &profiles)
{
    sweep = decodeStep1(payload, &profiles);
}

core::FixedLengthSweep
decodeStep1Sweep(const std::vector<std::uint8_t> &payload)
{
    return decodeStep1(payload, nullptr);
}

std::vector<std::uint8_t>
encodeAssignment(const core::HashAssignment &assignment)
{
    Encoder encoder;
    encoder.u32(assignment.defaultLength());
    encoder.u64(assignment.table().size());
    for (const std::uint64_t pc : sortedPcs(assignment.table())) {
        encoder.u64(pc);
        encoder.u32(assignment.table().at(pc));
    }
    return encoder.take();
}

core::HashAssignment
decodeAssignment(const std::vector<std::uint8_t> &payload)
{
    Decoder decoder(payload);
    core::HashAssignment assignment(decoder.u32());
    const std::uint64_t count = decoder.u64();
    if (count > decoder.remaining() / 12)
        util::fatal("artifact assignment count exceeds payload size");
    std::uint64_t last = 0;
    for (std::uint64_t i = 0; i < count; ++i) {
        const std::uint64_t pc = decoder.u64();
        if (i != 0 && pc <= last)
            util::fatal("artifact assignment pcs are not strictly "
                        "ascending");
        last = pc;
        assignment.assign(pc, decoder.u32());
    }
    decoder.expectEnd();
    return assignment;
}

std::vector<std::uint8_t>
encodeComparisonRow(const sim::ComparisonRow &row)
{
    Encoder encoder;
    encoder.str(row.benchmark);
    encoder.u32(static_cast<std::uint32_t>(row.entries.size()));
    for (const sim::RateEntry &entry : row.entries) {
        encoder.str(entry.predictor);
        encoder.u64(entry.branches);
        encoder.u64(entry.mispredictions);
        encoder.f64(entry.rate);
    }
    return encoder.take();
}

sim::ComparisonRow
decodeComparisonRow(const std::vector<std::uint8_t> &payload)
{
    Decoder decoder(payload);
    sim::ComparisonRow row;
    row.benchmark = decoder.str();
    const std::uint32_t entries = decoder.u32();
    // Each entry is at least a name length, two counts and a rate.
    if (entries > decoder.remaining() / (4 + 8 + 8 + 8))
        util::fatal("artifact row entry count exceeds payload size");
    row.entries.reserve(entries);
    for (std::uint32_t i = 0; i < entries; ++i) {
        sim::RateEntry entry;
        entry.predictor = decoder.str();
        entry.branches = decoder.u64();
        entry.mispredictions = decoder.u64();
        entry.rate = decoder.f64();
        row.entries.push_back(std::move(entry));
    }
    decoder.expectEnd();
    return row;
}

} // namespace store
} // namespace vlp
