#include "core/perfect_profiler.h"

#include "support/panic.h"

namespace mhp {

namespace {

/** Smallest table: 1024 slots, 20 KB. */
constexpr size_t kMinSlots = size_t{1} << 10;

/** Most slots an expectedDistinct hint may ask for up front: 20 MB. */
constexpr size_t kMaxHintedSlots = size_t{1} << 20;

size_t
slotsFor(uint64_t expectedDistinct)
{
    size_t slots = kMinSlots;
    while (slots < 2 * expectedDistinct && slots < kMaxHintedSlots)
        slots *= 2;
    return slots;
}

} // namespace

PerfectProfiler::PerfectProfiler(uint64_t thresholdCount,
                                 uint64_t expectedDistinct)
    : threshold(thresholdCount)
{
    MHP_REQUIRE(threshold >= 1, "threshold must be positive");
    const size_t slots = slotsFor(expectedDistinct);
    keys.resize(slots);
    counts.assign(slots, 0);
    mask = slots - 1;
}

size_t
PerfectProfiler::probe(const Tuple &t) const
{
    size_t s = TupleHash{}(t) & mask;
    while (counts[s] != 0 && !(keys[s] == t))
        s = (s + 1) & mask;
    return s;
}

void
PerfectProfiler::grow()
{
    // Slots are recorded as uint32_t.
    MHP_REQUIRE(counts.size() <= size_t{1} << 31,
                "perfect profiler: more than 2^31 distinct tuples in "
                "one interval");
    const std::vector<Tuple> oldKeys = std::move(keys);
    const std::vector<uint32_t> oldCounts = std::move(counts);
    const size_t slots = oldCounts.size() * 2;
    keys.assign(slots, Tuple{});
    counts.assign(slots, 0);
    mask = slots - 1;
    for (uint32_t &s : filled) {
        const size_t to = probe(oldKeys[s]);
        keys[to] = oldKeys[s];
        counts[to] = oldCounts[s];
        s = static_cast<uint32_t>(to);
    }
    for (uint32_t &s : crossed)
        s = static_cast<uint32_t>(probe(oldKeys[s]));
}

void
PerfectProfiler::onEvent(const Tuple &t)
{
    onEvents(&t, 1);
}

void
PerfectProfiler::onEvents(const Tuple *events, size_t count)
{
    for (size_t i = 0; i < count; ++i) {
        const Tuple &t = events[i];
        size_t s = probe(t);
        if (counts[s] == 0) {
            if (2 * (filled.size() + 1) > counts.size()) {
                grow();
                s = probe(t);
            }
            keys[s] = t;
            filled.push_back(static_cast<uint32_t>(s));
        }
        const uint32_t c = ++counts[s];
        MHP_REQUIRE(c != 0, "perfect profiler: a tuple occurred 2^32 "
                            "times in one interval");
        if (c == threshold)
            crossed.push_back(static_cast<uint32_t>(s));
    }
}

uint64_t
PerfectProfiler::countOf(const Tuple &t) const
{
    return counts[probe(t)];
}

IntervalSnapshot
PerfectProfiler::candidates() const
{
    IntervalSnapshot out;
    out.reserve(crossed.size());
    for (uint32_t s : crossed)
        out.push_back({keys[s], counts[s]});
    return out;
}

IntervalSnapshot
PerfectProfiler::endInterval()
{
    IntervalSnapshot out = candidates();
    canonicalize(out);
    reset();
    return out;
}

void
PerfectProfiler::reset()
{
    for (uint32_t s : filled)
        counts[s] = 0;
    filled.clear();
    crossed.clear();
}

std::unordered_map<Tuple, uint64_t, TupleHash>
PerfectProfiler::takeCounts()
{
    std::unordered_map<Tuple, uint64_t, TupleHash> out;
    out.reserve(filled.size());
    for (uint32_t s : filled)
        out.emplace(keys[s], counts[s]);
    reset();
    return out;
}

} // namespace mhp
