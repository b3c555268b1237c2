/**
 * @file
 * Differential testing against executable specifications.
 *
 * The reference models below implement the paper's per-event state
 * machines as directly as possible: plain arrays, a linearly searched
 * accumulator CAM, one event at a time, no blocks and no SIMD. The
 * production profilers have a single ingest path, the onEvents() block
 * kernel (onEvent(t) is onEvents(&t, 1)), so these specs are the only
 * per-event encoding of the semantics. Production must produce
 * IDENTICAL interval snapshots for every combination of the P/R/C
 * options, with shielding on and off, at every block size:
 *
 *  - ReferenceEquivalence sweeps the option grid on randomized Zipf
 *    streams, and SamplerReferenceEquivalence does the same for the
 *    stratified-sampler baseline (tagged and untagged);
 *  - BatchedIngest replays a realistic suite workload through every
 *    compile-time kernel instantiation at block sizes from one event
 *    to several kernel blocks, with ragged tails.
 *
 * The ctest MHP_FORCE_ISA matrix re-runs these suites under each ISA
 * tier, so every tier's kernels are held to the same specs.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "core/factory.h"
#include "core/hash_function.h"
#include "core/multi_hash_profiler.h"
#include "core/perfect_profiler.h"
#include "core/stratified_sampler.h"
#include "support/bit_util.h"
#include "support/rng.h"
#include "support/zipf.h"
#include "workload/benchmarks.h"

namespace mhp {
namespace {

/** Ordered map key so reference tables iterate deterministically. */
struct TupleLess
{
    bool
    operator()(const Tuple &a, const Tuple &b) const
    {
        return std::tie(a.first, a.second) <
               std::tie(b.first, b.second);
    }
};

/** Largest value of a `bits`-wide saturating counter. */
uint64_t
saturationOf(unsigned bits)
{
    return bits >= 64 ? ~0ULL : (1ULL << bits) - 1;
}

/** Saturating +1. */
void
bump(uint64_t &counter, uint64_t saturation)
{
    if (counter < saturation)
        ++counter;
}

/** A per-event spec: one event at a time, one interval at a time. */
struct RefProfiler
{
    virtual ~RefProfiler() = default;
    virtual void onEvent(const Tuple &t) = 0;
    virtual IntervalSnapshot endInterval() = 0;
};

/**
 * Straight-line reference of the accumulator (Section 5.2): a CAM of
 * `capacity` slots, searched linearly. Slot choice is part of the
 * behaviour — an eviction takes the lowest-numbered replaceable slot —
 * so the spec allocates exactly as the production table does: free
 * slots come off a stack that starts as 0, 1, 2, ... and takes back,
 * in ascending order, the slots a retaining interval end frees.
 */
struct RefAccumulator
{
    struct Slot
    {
        Tuple tuple;
        uint64_t count = 0;
        bool valid = false;
        bool replaceable = false;
    };

    uint64_t threshold;
    bool retaining;
    std::vector<Slot> slots;
    std::vector<size_t> freeSlots; // back() is allocated next

    RefAccumulator(uint64_t capacity, uint64_t threshold_,
                   bool retaining_)
        : threshold(threshold_), retaining(retaining_), slots(capacity)
    {
        freeEverySlot();
    }

    void
    freeEverySlot()
    {
        freeSlots.clear();
        for (size_t i = slots.size(); i-- > 0;)
            freeSlots.push_back(i);
    }

    /** The shield check: count the tuple if it has an entry. */
    bool
    incrementIfPresent(const Tuple &t)
    {
        for (Slot &slot : slots) {
            if (slot.valid && slot.tuple == t) {
                ++slot.count;
                // A retained entry that re-crosses the threshold is
                // pinned again (Section 5.4.1).
                if (slot.replaceable && slot.count >= threshold)
                    slot.replaceable = false;
                return true;
            }
        }
        return false;
    }

    /** Promote: an empty slot, else evict a replaceable entry, else
     *  drop. */
    bool
    insert(const Tuple &t, uint64_t initial)
    {
        size_t victim = slots.size();
        if (!freeSlots.empty()) {
            victim = freeSlots.back();
            freeSlots.pop_back();
        } else {
            for (size_t i = 0; i < slots.size(); ++i) {
                if (slots[i].valid && slots[i].replaceable) {
                    victim = i;
                    break;
                }
            }
        }
        if (victim == slots.size())
            return false;
        slots[victim] = Slot{t, initial, true, initial < threshold};
        return true;
    }

    IntervalSnapshot
    endInterval()
    {
        IntervalSnapshot out;
        for (const Slot &slot : slots) {
            if (slot.valid && slot.count >= threshold)
                out.push_back({slot.tuple, slot.count});
        }
        canonicalize(out);
        if (!retaining) {
            for (Slot &slot : slots)
                slot.valid = false;
            freeEverySlot();
            return out;
        }
        for (size_t i = 0; i < slots.size(); ++i) {
            Slot &slot = slots[i];
            if (!slot.valid)
                continue;
            if (slot.count < threshold) {
                slot.valid = false;
                freeSlots.push_back(i);
            } else {
                slot.count = 0;
                slot.replaceable = true;
            }
        }
        return out;
    }
};

/** Reference single-hash profiler, written from the paper's text. */
struct RefSingleHash : RefProfiler
{
    ProfilerConfig cfg;
    TupleHasher hasher;
    std::vector<uint64_t> counters;
    RefAccumulator acc;

    explicit RefSingleHash(const ProfilerConfig &c)
        : cfg(c), hasher(c.seed, c.totalHashEntries),
          counters(c.totalHashEntries, 0),
          acc(c.accumulatorSize(), c.thresholdCount(), c.retaining)
    {
    }

    void
    onEvent(const Tuple &t) override
    {
        const uint64_t sat = saturationOf(cfg.counterBits);
        uint64_t &c = counters[hasher.index(t)];
        if (acc.incrementIfPresent(t)) {
            // Shielding keeps accumulator hits out of the hash table;
            // the ablation lets them keep pressuring it.
            if (!cfg.shielding)
                bump(c, sat);
            return;
        }
        bump(c, sat);
        if (c >= cfg.thresholdCount()) {
            if (acc.insert(t, c) && cfg.resetOnPromote)
                c = 0;
        }
    }

    IntervalSnapshot
    endInterval() override
    {
        if (cfg.flushHashTables)
            std::fill(counters.begin(), counters.end(), 0);
        return acc.endInterval();
    }
};

/** Reference multi-hash profiler, written from the paper's text. */
struct RefMultiHash : RefProfiler
{
    ProfilerConfig cfg;
    TupleHasherFamily family;
    std::vector<std::vector<uint64_t>> tables;
    RefAccumulator acc;

    explicit RefMultiHash(const ProfilerConfig &c)
        : cfg(c),
          family(c.seed, c.numHashTables, c.entriesPerTable()),
          acc(c.accumulatorSize(), c.thresholdCount(), c.retaining)
    {
        tables.assign(c.numHashTables,
                      std::vector<uint64_t>(c.entriesPerTable(), 0));
    }

    void
    onEvent(const Tuple &t) override
    {
        const unsigned n = cfg.numHashTables;
        const uint64_t sat = saturationOf(cfg.counterBits);
        std::vector<uint64_t> idx(n);
        for (unsigned i = 0; i < n; ++i)
            idx[i] = family.function(i).index(t);

        if (acc.incrementIfPresent(t)) {
            // Ablation: hits keep pressuring every table (a plain
            // update, whatever the C option).
            if (!cfg.shielding) {
                for (unsigned i = 0; i < n; ++i)
                    bump(tables[i][idx[i]], sat);
            }
            return;
        }
        if (cfg.conservativeUpdate) {
            // Only the counters at the minimum advance; ties all do.
            uint64_t mn = ~0ULL;
            for (unsigned i = 0; i < n; ++i)
                mn = std::min(mn, tables[i][idx[i]]);
            for (unsigned i = 0; i < n; ++i) {
                if (tables[i][idx[i]] == mn)
                    bump(tables[i][idx[i]], sat);
            }
        } else {
            for (unsigned i = 0; i < n; ++i)
                bump(tables[i][idx[i]], sat);
        }
        // Promotion requires every table's counter at threshold.
        uint64_t mn = ~0ULL;
        for (unsigned i = 0; i < n; ++i)
            mn = std::min(mn, tables[i][idx[i]]);
        if (mn >= cfg.thresholdCount()) {
            if (acc.insert(t, mn) && cfg.resetOnPromote) {
                for (unsigned i = 0; i < n; ++i)
                    tables[i][idx[i]] = 0;
            }
        }
    }

    IntervalSnapshot
    endInterval() override
    {
        if (cfg.flushHashTables) {
            for (auto &table : tables)
                std::fill(table.begin(), table.end(), 0);
        }
        return acc.endInterval();
    }
};

/**
 * Reference stratified sampler (Sastry, Bodik & Smith): counters or
 * partial-tag entries pick the sampled events, which flow through the
 * aggregation table and the message buffer into the simulated
 * software profile.
 */
struct RefStratifiedSampler : RefProfiler
{
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

    StratifiedSamplerConfig cfg;
    uint64_t thresholdCount;
    TupleHasher hasher;
    std::vector<uint64_t> counters;
    std::vector<TaggedEntry> tagged;
    std::vector<AggregatorEntry> aggregator;
    std::vector<CandidateCount> buffer;
    std::map<Tuple, uint64_t, TupleLess> software;
    uint64_t interrupts = 0;
    uint64_t messages = 0;
    uint64_t clock = 0;

    RefStratifiedSampler(const StratifiedSamplerConfig &c,
                         uint64_t thresholdCount_)
        : cfg(c), thresholdCount(thresholdCount_),
          hasher(c.seed, c.entries), counters(c.entries, 0),
          tagged(c.entries)
    {
    }

    void
    onEvent(const Tuple &t) override
    {
        ++clock;
        const uint64_t idx = hasher.index(t);
        const uint64_t sampleAt = cfg.samplingThreshold;
        if (!cfg.tagged) {
            uint64_t &c = counters[idx];
            if (++c >= sampleAt) {
                c = 0;
                report(t, sampleAt);
            }
            return;
        }

        // Tags come from the unfolded signature so they are mostly
        // independent of the index bits.
        const uint64_t tag =
            lowBits(hasher.signature(t) >> 20, cfg.tagBits);
        TaggedEntry &e = tagged[idx];
        if (!e.valid) {
            e = TaggedEntry{tag, 1, 0, true};
        } else if (e.tag == tag) {
            if (++e.hits >= sampleAt) {
                e.hits = 0;
                report(t, sampleAt);
            }
        } else if (++e.misses > e.hits) {
            // The occupant lost the entry: the newcomer replaces it.
            e = TaggedEntry{tag, 1, 0, true};
        }
    }

    void
    report(const Tuple &t, uint64_t weight)
    {
        if (cfg.aggregatorEntries == 0) {
            enqueue(t, weight);
            return;
        }
        for (AggregatorEntry &entry : aggregator) {
            if (entry.tuple == t) {
                entry.count += weight;
                entry.lastUse = clock;
                if (entry.count >= cfg.aggregatorMax * weight) {
                    enqueue(entry.tuple, entry.count);
                    entry = aggregator.back();
                    aggregator.pop_back();
                }
                return;
            }
        }
        if (aggregator.size() < cfg.aggregatorEntries) {
            aggregator.push_back({t, weight, clock});
            return;
        }
        // Full: flush the least-recently-used entry to make room.
        size_t victim = 0;
        for (size_t i = 1; i < aggregator.size(); ++i) {
            if (aggregator[i].lastUse < aggregator[victim].lastUse)
                victim = i;
        }
        enqueue(aggregator[victim].tuple, aggregator[victim].count);
        aggregator[victim] = {t, weight, clock};
    }

    void
    enqueue(const Tuple &t, uint64_t weight)
    {
        buffer.push_back({t, weight});
        ++messages;
        if (buffer.size() >= cfg.bufferEntries)
            interrupt();
    }

    void
    interrupt()
    {
        if (buffer.empty())
            return;
        ++interrupts;
        for (const CandidateCount &msg : buffer)
            software[msg.tuple] += msg.count;
        buffer.clear();
    }

    IntervalSnapshot
    endInterval() override
    {
        for (const AggregatorEntry &entry : aggregator)
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
        std::fill(counters.begin(), counters.end(), 0);
        std::fill(tagged.begin(), tagged.end(), TaggedEntry{});
        return out;
    }
};

/** Reference oracle: exact counts per interval. */
struct RefPerfect : RefProfiler
{
    uint64_t threshold;
    std::map<Tuple, uint64_t, TupleLess> counts;

    explicit RefPerfect(uint64_t threshold_) : threshold(threshold_) {}

    void onEvent(const Tuple &t) override { ++counts[t]; }

    IntervalSnapshot
    endInterval() override
    {
        IntervalSnapshot out;
        for (const auto &[tuple, count] : counts) {
            if (count >= threshold)
                out.push_back({tuple, count});
        }
        canonicalize(out);
        counts.clear();
        return out;
    }
};

/**
 * Feed `stream` to production through onEvents() in `block`-sized
 * calls and to the spec one event at a time, closing an interval
 * after each length in `intervals`; every snapshot must match
 * exactly. The last block of an interval is ragged unless `block`
 * divides its length.
 */
void
expectMatchesSpec(HardwareProfiler &prod, RefProfiler &ref,
                  const std::vector<Tuple> &stream,
                  const std::vector<size_t> &intervals, size_t block,
                  const std::string &what)
{
    size_t pos = 0;
    for (size_t iv = 0; iv < intervals.size(); ++iv) {
        const size_t end = pos + intervals[iv];
        ASSERT_LE(end, stream.size());
        for (size_t i = pos; i < end; i += block)
            prod.onEvents(stream.data() + i, std::min(block, end - i));
        for (size_t i = pos; i < end; ++i)
            ref.onEvent(stream[i]);
        pos = end;

        const IntervalSnapshot expected = ref.endInterval();
        const IntervalSnapshot actual = prod.endInterval();
        ASSERT_EQ(expected, actual)
            << what << " block=" << block << " interval " << iv << ": "
            << expected.size() << " vs " << actual.size()
            << " candidates";
    }
}

/** Block sizes for the spec sweeps: one event, a ragged odd size, one
 *  kernel block, and several kernel blocks with a tail. */
constexpr size_t kBlockSizes[] = {1, 7, 256, 1000};

std::vector<Tuple>
randomStream(uint64_t seed, uint64_t events)
{
    Rng rng(seed);
    ZipfDistribution hot(150, 1.1);
    std::vector<Tuple> out;
    out.reserve(events);
    for (uint64_t i = 0; i < events; ++i) {
        if (rng.nextBool(0.65))
            out.push_back({hot.sample(rng) * 4 + 0x4000, 3});
        else
            out.push_back({rng.nextBelow(30'000) * 4 + 0x800000,
                           rng.nextBelow(8)});
    }
    return out;
}

using Params = std::tuple<unsigned, bool, bool, bool, uint64_t>;

class ReferenceEquivalence : public ::testing::TestWithParam<Params>
{
};

TEST_P(ReferenceEquivalence, ProductionMatchesSpec)
{
    const auto [tables, conservative, reset, retain, seed] = GetParam();
    ProfilerConfig cfg;
    cfg.intervalLength = 2'000;
    cfg.candidateThreshold = 0.01;
    cfg.totalHashEntries = 256;
    cfg.numHashTables = tables;
    cfg.conservativeUpdate = conservative;
    cfg.resetOnPromote = reset;
    cfg.retaining = retain;
    cfg.seed = 4242 + seed;

    const auto stream = randomStream(seed * 31 + 5, 8'000);
    const std::vector<size_t> intervals(4, cfg.intervalLength);

    for (const bool shielding : {true, false}) {
        cfg.shielding = shielding;
        for (const size_t block : kBlockSizes) {
            const std::string what =
                shielding ? "shielded" : "unshielded";
            // One table is the single-hash design: the same production
            // profiler, held to the Section 5 spec.
            MultiHashProfiler prod(cfg);
            if (tables == 1) {
                RefSingleHash ref(cfg);
                expectMatchesSpec(prod, ref, stream, intervals, block,
                                  "single-hash " + what);
            } else {
                RefMultiHash ref(cfg);
                expectMatchesSpec(prod, ref, stream, intervals, block,
                                  "multi-hash " + what);
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    SpecSweep, ReferenceEquivalence,
    ::testing::Combine(::testing::Values(1u, 2u, 4u),
                       ::testing::Bool(), // conservative update
                       ::testing::Bool(), // reset on promote
                       ::testing::Bool(), // retaining
                       ::testing::Values(0ULL, 1ULL, 2ULL)),
    [](const ::testing::TestParamInfo<Params> &info) {
        return "t" + std::to_string(std::get<0>(info.param)) + "_C" +
               std::to_string(std::get<1>(info.param)) + "R" +
               std::to_string(std::get<2>(info.param)) + "P" +
               std::to_string(std::get<3>(info.param)) + "_s" +
               std::to_string(std::get<4>(info.param));
    });

/**
 * The stale-probe repair path: a tuple the block probe found in the
 * accumulator, then evicted by a promotion earlier in the same block,
 * is re-hashed through kernel_ref::indexMulti, while the block's
 * other absent events take their indexes from the contribution table.
 * Both must land on the spec's counters. mh4 and mh16 at 2048 entries
 * cover one and two contribution words per entry.
 */
TEST(StaleProbeRepair, EvictedTupleBumpsTheSpecCounters)
{
    for (const unsigned tables : {4u, 16u}) {
        ProfilerConfig cfg;
        cfg.intervalLength = 400;
        cfg.candidateThreshold = 0.05; // threshold count 20
        cfg.totalHashEntries = 2048;
        cfg.numHashTables = tables;
        cfg.accumulatorEntries = 1;
        cfg.conservativeUpdate = false;
        cfg.retaining = true;
        MultiHashProfiler prod(cfg);
        RefMultiHash ref(cfg);

        // Interval 0 promotes a into the only slot; retaining keeps it
        // there, replaceable, for interval 1.
        const Tuple a{0x401000, 7};
        const Tuple b{0x402000, 9};
        const std::vector<Tuple> first(30, a);
        prod.onEvents(first.data(), first.size());
        for (const Tuple &t : first)
            ref.onEvent(t);
        ASSERT_EQ(prod.endInterval(), ref.endInterval());

        // Interval 1, one block: b's 20th event promotes it and evicts
        // a, so a's later events (hits at probe time) need the repair.
        std::vector<Tuple> second(20, b);
        second.insert(second.end(), 10, a);
        prod.onEvents(second.data(), second.size());
        for (const Tuple &t : second)
            ref.onEvent(t);
        for (unsigned i = 0; i < tables; ++i) {
            for (const Tuple &t : {a, b}) {
                EXPECT_EQ(prod.counterValueIn(i, t),
                          ref.tables[i][ref.family.function(i).index(t)])
                    << "n=" << tables << " table " << i << " tuple "
                    << t.first;
            }
        }
        const IntervalSnapshot snap = prod.endInterval();
        EXPECT_EQ(snap, ref.endInterval()) << "n=" << tables;
        ASSERT_EQ(snap.size(), 1u);
        EXPECT_EQ(snap[0].tuple, b);
    }
}

/** (tagged, aggregator entries) of the sampler under test. */
using SamplerParams = std::tuple<bool, uint64_t>;

class SamplerReferenceEquivalence
    : public ::testing::TestWithParam<SamplerParams>
{
};

TEST_P(SamplerReferenceEquivalence, ProductionMatchesSpec)
{
    StratifiedSamplerConfig sc;
    sc.entries = 256; // small, so counters and tags alias
    sc.samplingThreshold = 4;
    sc.tagged = std::get<0>(GetParam());
    sc.aggregatorEntries = std::get<1>(GetParam());
    const uint64_t thresholdCount = 20;

    const auto stream = randomStream(77, 8'000);
    const std::vector<size_t> intervals(4, 2'000);
    for (const size_t block : kBlockSizes) {
        StratifiedSampler prod(sc, thresholdCount);
        RefStratifiedSampler ref(sc, thresholdCount);
        expectMatchesSpec(prod, ref, stream, intervals, block,
                          prod.name());
        EXPECT_EQ(prod.interrupts(), ref.interrupts) << block;
        EXPECT_EQ(prod.messagesSent(), ref.messages) << block;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Variants, SamplerReferenceEquivalence,
    ::testing::Combine(::testing::Bool(), // tagged
                       ::testing::Values(0ULL, 32ULL)),
    [](const ::testing::TestParamInfo<SamplerParams> &info) {
        return std::string(std::get<0>(info.param) ? "tagged"
                                                   : "untagged") +
               "_agg" + std::to_string(std::get<1>(info.param));
    });

constexpr uint64_t kIntervalLength = 2000;
constexpr int kFullIntervals = 5;
constexpr uint64_t kPartialTail = 500;

/** The architectures under BatchedIngest, built fresh per run. Held
 *  as std::string so gtest prints each parameter by value: a
 *  const char * prints as its address, which changes every run and
 *  would leak into the registered ctest names. */
const std::vector<std::string> kArchitectures = {
    // Single-hash: every (Shielding, Reset) kernel, retaining on/off.
    "sh-R0P0", "sh-R1P0", "sh-R0P1", "sh-R1P1",
    "sh-R0P1-noshield", "sh-R1P0-noshield",
    // Multi-hash: every (Conservative, Reset, Shielding) kernel.
    "mh4-C0R0P0", "mh4-C0R0P1-noshield", "mh4-C0R1P0-noshield",
    "mh4-C0R1P1", "mh4-C1R0P0-noshield", "mh4-C1R0P1",
    "mh4-C1R1P1", "mh4-C1R1P0-noshield",
    // Baselines.
    "sampler", "sampler-tagged", "perfect",
};

constexpr uint64_t kArchThresholdCount = 20; // 1% of the interval

StratifiedSamplerConfig
archSamplerConfig(const std::string &arch)
{
    StratifiedSamplerConfig sc;
    sc.entries = 256;
    sc.samplingThreshold = 4;
    sc.tagged = (arch == "sampler-tagged");
    return sc;
}

ProfilerConfig
archHashConfig(const std::string &arch)
{
    ProfilerConfig c;
    c.intervalLength = kIntervalLength;
    c.candidateThreshold = 0.01;
    c.totalHashEntries = 256; // small, so promotions and aliasing occur
    c.numHashTables = arch[0] == 's' ? 1 : 4;
    c.conservativeUpdate = arch.find("C1") != std::string::npos;
    c.resetOnPromote = arch.find("R1") != std::string::npos;
    c.retaining = arch.find("P1") != std::string::npos;
    c.shielding = arch.find("noshield") == std::string::npos;
    return c;
}

std::unique_ptr<HardwareProfiler>
buildProfiler(const std::string &arch)
{
    if (arch == "perfect")
        return std::make_unique<PerfectProfiler>(kArchThresholdCount);
    if (arch.rfind("sampler", 0) == 0) {
        return std::make_unique<StratifiedSampler>(
            archSamplerConfig(arch), kArchThresholdCount);
    }
    return makeProfiler(archHashConfig(arch));
}

std::unique_ptr<RefProfiler>
buildSpec(const std::string &arch)
{
    if (arch == "perfect")
        return std::make_unique<RefPerfect>(kArchThresholdCount);
    if (arch.rfind("sampler", 0) == 0) {
        return std::make_unique<RefStratifiedSampler>(
            archSamplerConfig(arch), kArchThresholdCount);
    }
    const ProfilerConfig c = archHashConfig(arch);
    if (c.numHashTables == 1)
        return std::make_unique<RefSingleHash>(c);
    return std::make_unique<RefMultiHash>(c);
}

/** The shared input stream: a realistic suite workload. */
const std::vector<Tuple> &
suiteStream()
{
    static const std::vector<Tuple> events = [] {
        std::vector<Tuple> out;
        auto source = makeValueWorkload("gcc", 7);
        const size_t total =
            kFullIntervals * kIntervalLength + kPartialTail;
        out.reserve(total);
        while (out.size() < total && !source->done())
            out.push_back(source->next());
        return out;
    }();
    return events;
}

using BatchedIngestParam = std::tuple<std::string, size_t>;

class BatchedIngest
    : public ::testing::TestWithParam<BatchedIngestParam>
{
};

TEST_P(BatchedIngest, SnapshotsMatchPerEventPath)
{
    const std::string arch = std::get<0>(GetParam());
    const size_t batchSize = std::get<1>(GetParam());

    std::vector<size_t> intervals(kFullIntervals, kIntervalLength);
    intervals.push_back(kPartialTail);
    auto production = buildProfiler(arch);
    auto spec = buildSpec(arch);
    expectMatchesSpec(*production, *spec, suiteStream(), intervals,
                      batchSize, arch);
}

INSTANTIATE_TEST_SUITE_P(
    AllArchitectures, BatchedIngest,
    ::testing::Combine(::testing::ValuesIn(kArchitectures),
                       ::testing::Values<size_t>(1, 3, 256, 1000, 4096)),
    [](const ::testing::TestParamInfo<BatchedIngestParam> &info) {
        std::string name = std::get<0>(info.param);
        std::replace(name.begin(), name.end(), '-', '_');
        return name + "_b" + std::to_string(std::get<1>(info.param));
    });

} // namespace
} // namespace mhp
