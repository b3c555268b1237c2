#include "core/hotspot_detector.h"

#include "support/bit_util.h"
#include "support/panic.h"

namespace mhp {

HotSpotDetector::HotSpotDetector(const HotSpotConfig &config_,
                                 uint64_t thresholdCount_)
    : config(config_), thresholdCount(thresholdCount_),
      hasher(config_.seed, config_.entries / config_.ways)
{
    MHP_REQUIRE(config.ways >= 1, "BBB needs at least one way");
    MHP_REQUIRE(config.entries % config.ways == 0,
                "entries must divide evenly into ways");
    sets = config.entries / config.ways;
    MHP_REQUIRE(isPowerOfTwo(sets), "BBB sets must be a power of two");
    MHP_REQUIRE(config.hdcBits >= 1 && config.hdcBits <= 64,
                "HDC width out of range");
    MHP_REQUIRE(thresholdCount >= 1, "threshold must be positive");
    entries.resize(config.entries);
    hdcMax = config.hdcBits >= 64 ? ~0ULL
                                  : (1ULL << config.hdcBits) - 1;
}

HotSpotDetector::Entry &
HotSpotDetector::lookup(const Tuple &t, bool &hit)
{
    const uint64_t set = hasher.index(t);
    const uint64_t tag = lowBits(hasher.signature(t) >> 17,
                                 config.tagBits);
    Entry *base = &entries[set * config.ways];

    for (unsigned w = 0; w < config.ways; ++w) {
        if (base[w].valid && base[w].tag == tag) {
            hit = true;
            return base[w];
        }
    }
    hit = false;
    // Allocate: free way first, then any non-candidate way (Merten's
    // policy protects candidate branches from eviction).
    for (unsigned w = 0; w < config.ways; ++w) {
        if (!base[w].valid)
            return base[w];
    }
    for (unsigned w = 0; w < config.ways; ++w) {
        if (!base[w].candidate) {
            ++evicted;
            return base[w];
        }
    }
    // Every way holds a candidate: the newcomer is not tracked; reuse
    // way 0 as a sentinel the caller must check via `hit == false` and
    // the entry staying valid+candidate.
    return base[0];
}

void
HotSpotDetector::onEvent(const Tuple &t)
{
    bool hit = false;
    Entry &entry = lookup(t, hit);
    const uint64_t tag =
        lowBits(hasher.signature(t) >> 17, config.tagBits);

    if (hit) {
        ++entry.execCount;
        if (!entry.candidate &&
            entry.execCount >= config.candidateThresholdCount)
            entry.candidate = true;
    } else if (!entry.valid || !entry.candidate) {
        // Install (possibly evicting a non-candidate).
        entry = Entry{tag, 1, t, true, false};
        if (entry.execCount >= config.candidateThresholdCount)
            entry.candidate = true;
    }
    // else: set full of candidates; the event goes untracked.

    // Hot Spot Detection Counter.
    if (hit && entry.candidate) {
        hdc = (hdcMax - hdc < config.hdcIncrement)
                  ? hdcMax
                  : hdc + config.hdcIncrement;
    } else {
        hdc = hdc < config.hdcDecrement ? 0 : hdc - config.hdcDecrement;
    }
}

IntervalSnapshot
HotSpotDetector::endInterval()
{
    IntervalSnapshot out;
    for (const auto &entry : entries) {
        if (entry.valid && entry.execCount >= thresholdCount)
            out.push_back({entry.exemplar, entry.execCount});
    }
    canonicalize(out);
    // Timer-based refresh in the original: clear per interval.
    for (auto &entry : entries)
        entry = Entry{};
    hdc = 0;
    return out;
}

void
HotSpotDetector::reset()
{
    for (auto &entry : entries)
        entry = Entry{};
    hdc = 0;
    evicted = 0;
}

uint64_t
HotSpotDetector::areaBytes() const
{
    // tag + exec counter (3B) + flags per entry, plus the HDC.
    const unsigned entryBits = config.tagBits + 24 + 2;
    return config.entries * ((entryBits + 7) / 8) +
           (config.hdcBits + 7) / 8;
}

} // namespace mhp
