#include "core/stratified_sampler.h"

#include <algorithm>

#include "support/bit_util.h"
#include "support/panic.h"

namespace mhp {

StratifiedSampler::StratifiedSampler(
        const StratifiedSamplerConfig &config_, uint64_t thresholdCount_)
    : config(config_), thresholdCount(thresholdCount_),
      hasher(config_.seed, config_.entries)
{
    blockIndexScratch.resize(kIngestBlock);
    blockSigScratch.resize(kIngestBlock);
    MHP_REQUIRE(config.entries >= 2, "sampler needs counters");
    MHP_REQUIRE(config.samplingThreshold >= 1,
                "sampling threshold must be positive");
    MHP_REQUIRE(config.bufferEntries >= 1, "buffer needs capacity");
    MHP_REQUIRE(thresholdCount >= 1, "candidate threshold positive");
    if (config.tagged) {
        taggedEntries.resize(config.entries);
        signatures = ContributionTable(hasher.tableWords(), 1, 64);
    }
    else
        counters.assign(config.entries, 0);
    aggregator.reserve(config.aggregatorEntries);
    buffer.reserve(config.bufferEntries);
}

void
StratifiedSampler::onEvents(const Tuple *events, size_t count)
{
    // The sampler's one ingest path (onEvent() is a one-event block):
    // the variant branch is hoisted out of the loop and the hash
    // indexes come from one contribution-table pass per block. The
    // report() path stays a call — it fires once per
    // samplingThreshold events at most.
    uint32_t *const blk = blockIndexScratch.data();
    const uint64_t sampleAt = config.samplingThreshold;

    if (!config.tagged) {
        uint64_t *const plain = counters.data();
        for (size_t base = 0; base < count; base += kIngestBlock) {
            const size_t m = std::min(kIngestBlock, count - base);
            const Tuple *const block = events + base;
            hasher.contributions().indexBlock(block, m, blk, 0);
            for (size_t e = 0; e < m; ++e) {
                const Tuple &t = block[e];
                ++eventClock;
                uint64_t &c = plain[blk[e]];
                if (++c >= sampleAt) {
                    c = 0;
                    report(t, sampleAt);
                }
            }
        }
        return;
    }

    // Tagged variant: both the index (xor-fold) and the partial tag
    // derive from the unfolded signature, so one pass over the
    // unfolded contribution table replaces two randomize pipelines
    // per event. Tags are
    // taken from the signature's high bits so they are mostly
    // independent of the index bits.
    TaggedEntry *const entries = taggedEntries.data();
    uint64_t *const sig = blockSigScratch.data();
    const unsigned bits = hasher.indexBits();
    for (size_t base = 0; base < count; base += kIngestBlock) {
        const size_t m = std::min(kIngestBlock, count - base);
        const Tuple *const block = events + base;
        signatures.signatureBlock(block, m, sig);
        for (size_t e = 0; e < m; ++e) {
            const Tuple &t = block[e];
            ++eventClock;
            TaggedEntry &entry = entries[xorFoldHot(sig[e], bits)];
            const uint64_t tag = lowBits(sig[e] >> 20, config.tagBits);
            if (!entry.valid) {
                entry = TaggedEntry{tag, 1, 0, true};
                continue;
            }
            if (entry.tag == tag) {
                if (++entry.hits >= sampleAt) {
                    entry.hits = 0;
                    report(t, sampleAt);
                }
                continue;
            }
            // Tag mismatch: count the miss; if the occupant is losing
            // the entry (more misses than hits), replace it with the
            // newcomer.
            ++entry.misses;
            if (entry.misses > entry.hits)
                entry = TaggedEntry{tag, 1, 0, true};
        }
    }
}

void
StratifiedSampler::report(const Tuple &t, uint64_t weight)
{
    if (config.aggregatorEntries == 0) {
        enqueue(t, weight);
        return;
    }

    // Aggregate in the small associative table before messaging.
    for (auto &entry : aggregator) {
        if (entry.tuple == t) {
            entry.count += weight;
            entry.lastUse = eventClock;
            if (entry.count >= config.aggregatorMax * weight) {
                enqueue(entry.tuple, entry.count);
                entry = aggregator.back();
                aggregator.pop_back();
            }
            return;
        }
    }
    if (aggregator.size() < config.aggregatorEntries) {
        aggregator.push_back({t, weight, eventClock});
        return;
    }
    // Capacity eviction: flush the least-recently-used entry.
    size_t victim = 0;
    for (size_t i = 1; i < aggregator.size(); ++i) {
        if (aggregator[i].lastUse < aggregator[victim].lastUse)
            victim = i;
    }
    enqueue(aggregator[victim].tuple, aggregator[victim].count);
    aggregator[victim] = {t, weight, eventClock};
}

void
StratifiedSampler::enqueue(const Tuple &t, uint64_t weight)
{
    buffer.push_back({t, weight});
    ++messageCount;
    if (buffer.size() >= config.bufferEntries)
        interrupt();
}

void
StratifiedSampler::interrupt()
{
    if (buffer.empty())
        return;
    ++interruptCount;
    for (const auto &msg : buffer)
        software[msg.tuple] += msg.count;
    buffer.clear();
}

IntervalSnapshot
StratifiedSampler::endInterval()
{
    // Flush everything still in flight so the software profile is as
    // complete as this architecture can make it.
    for (const auto &entry : aggregator)
        enqueue(entry.tuple, entry.count);
    aggregator.clear();
    interrupt();

    IntervalSnapshot out;
    for (const auto &[tuple, count] : software) {
        if (count >= thresholdCount)
            out.push_back({tuple, count});
    }
    canonicalize(out);

    software.clear();
    if (config.tagged) {
        for (auto &e : taggedEntries)
            e = TaggedEntry{};
    } else {
        std::fill(counters.begin(), counters.end(), 0);
    }
    return out;
}

void
StratifiedSampler::reset()
{
    endInterval();
    interruptCount = 0;
    messageCount = 0;
    eventClock = 0;
}

std::string
StratifiedSampler::name() const
{
    return config.tagged ? "stratified-tagged" : "stratified";
}

uint64_t
StratifiedSampler::areaBytes() const
{
    // Counter or tagged entries, plus aggregator and buffer storage.
    uint64_t entryBits = 24;
    if (config.tagged)
        entryBits = config.tagBits + 24 + 24 + 1;
    const uint64_t tableBytes = config.entries * ((entryBits + 7) / 8);
    const uint64_t aggBytes = config.aggregatorEntries * 16;
    const uint64_t bufBytes = config.bufferEntries * 16;
    return tableBytes + aggBytes + bufBytes;
}

} // namespace mhp
