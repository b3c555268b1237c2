/**
 * @file
 * The Stratified Sampler of Sastry, Bodik & Smith (ISCA 2001) — the
 * baseline architecture the paper's design is derived from (Section
 * 4.2, Figure 1).
 *
 * A hash-indexed counter table splits the input stream into
 * substreams. When a tuple's counter reaches the *sampling threshold*,
 * the counter is reset and the event is reported toward software
 * through an optional small fully-associative aggregation table and a
 * message buffer; a full buffer raises an interrupt and the operating
 * system accumulates the samples.
 *
 * Two variants are modelled, as in the original paper:
 *  - plain: untagged counters (aliasing inflates sample counts);
 *  - tagged: partial tags with hit/miss counters and a miss-driven
 *    replacement policy.
 *
 * The simulated "software" side accumulates drained messages so the
 * same interval error metric can score this design against the
 * paper's hardware-only profilers; interrupt and message counts
 * quantify the software overhead the Multi-Hash design eliminates.
 */

#ifndef MHP_CORE_STRATIFIED_SAMPLER_H
#define MHP_CORE_STRATIFIED_SAMPLER_H

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/hash_function.h"
#include "core/profiler.h"
#include "trace/tuple.h"

namespace mhp {

/** Knobs of the stratified-sampler baseline. */
struct StratifiedSamplerConfig
{
    /** Counter-table entries. */
    uint64_t entries = 2048;

    /** Counter value at which an event is sampled and reported. */
    uint64_t samplingThreshold = 32;

    /** Use partial tags + miss counters (the accuracy variant). */
    bool tagged = false;

    /** Partial-tag width in bits. */
    unsigned tagBits = 16;

    /**
     * Entries in the associative aggregation table between sampler and
     * buffer; 0 disables aggregation.
     */
    uint64_t aggregatorEntries = 32;

    /** Sampled reports an aggregator entry absorbs before flushing. */
    uint64_t aggregatorMax = 8;

    /** Message-buffer capacity; a full buffer interrupts the OS. */
    uint64_t bufferEntries = 100;

    /** Hash seed. */
    uint64_t seed = 0xabadcafeULL;
};

/** The stratified-sampling baseline profiler. */
class StratifiedSampler : public HardwareProfiler
{
  public:
    /**
     * @param config Architecture knobs.
     * @param thresholdCount Candidate threshold used when scoring the
     *        software-accumulated profile at interval end.
     */
    StratifiedSampler(const StratifiedSamplerConfig &config,
                      uint64_t thresholdCount);

    void onEvent(const Tuple &t) override { onEvents(&t, 1); }
    void onEvents(const Tuple *events, size_t count) override;
    IntervalSnapshot endInterval() override;
    void reset() override;
    std::string name() const override;
    uint64_t areaBytes() const override;

    /** OS interrupts raised so far (the 5% overhead of the paper). */
    uint64_t interrupts() const { return interruptCount; }

    /** Messages delivered to software so far. */
    uint64_t messagesSent() const { return messageCount; }

    const StratifiedSamplerConfig &configuration() const
    {
        return config;
    }

  private:
    struct TaggedEntry
    {
        uint64_t tag = 0;
        uint64_t hits = 0;
        uint64_t misses = 0;
        bool valid = false;
    };

    struct AggregatorEntry
    {
        Tuple tuple;
        uint64_t count = 0;
        uint64_t lastUse = 0;
    };

    /** A sampled event heading to software: tuple + sample weight. */
    struct Message
    {
        Tuple tuple;
        uint64_t count = 0;
    };

    /** Events per batched-ingest precompute block. */
    static constexpr size_t kIngestBlock = 256;

    void report(const Tuple &t, uint64_t weight);
    void enqueue(const Tuple &t, uint64_t weight);
    void interrupt();

    StratifiedSamplerConfig config;
    uint64_t thresholdCount;
    TupleHasher hasher;
    /** The hasher's unfolded contributions (tagged variant only). */
    ContributionTable signatures;
    /** kIngestBlock precomputed indexes (untagged). */
    std::vector<uint32_t> blockIndexScratch;
    /** kIngestBlock precomputed signatures (tagged). */
    std::vector<uint64_t> blockSigScratch;

    // Plain variant state.
    std::vector<uint64_t> counters;
    // Tagged variant state.
    std::vector<TaggedEntry> taggedEntries;

    std::vector<AggregatorEntry> aggregator;
    std::vector<Message> buffer;

    /** The simulated OS-side accumulation of drained messages. */
    std::unordered_map<Tuple, uint64_t, TupleHash> software;

    uint64_t interruptCount = 0;
    uint64_t messageCount = 0;
    uint64_t eventClock = 0;
};

} // namespace mhp

#endif // MHP_CORE_STRATIFIED_SAMPLER_H
