/**
 * @file
 * The hot-spot detector of Merten et al. (ISCA 1999) — the
 * table-based hardware profiler class of paper Section 4.1.3.
 *
 * A set-associative Branch Behavior Buffer (BBB) tracks branch
 * execution counts with partial tags; a branch whose counter exceeds
 * the candidate threshold is flagged as a *candidate branch*. A
 * saturating Hot Spot Detection Counter (HDC) increments when an
 * executing branch is a candidate and decrements otherwise; HDC
 * saturation means execution is concentrated in the candidate set — a
 * hot spot. Unlike the Multi-Hash design, the BBB is tagged (costly)
 * and capacity-limited (new branches evict old ones), which is exactly
 * the error class the paper's untagged multistage filter avoids.
 *
 * Adapted to this library's interval framing: at each interval end,
 * the snapshot is the BBB's above-threshold branches; the detector
 * state (timer-based refresh in the original) is reset per interval.
 */

#ifndef MHP_CORE_HOTSPOT_DETECTOR_H
#define MHP_CORE_HOTSPOT_DETECTOR_H

#include <cstdint>
#include <string>
#include <vector>

#include "core/hash_function.h"
#include "core/profiler.h"

namespace mhp {

/** Knobs of the Merten-style detector. */
struct HotSpotConfig
{
    /** BBB entries (sets * ways). */
    uint64_t entries = 512;

    /** Associativity of the BBB. */
    unsigned ways = 2;

    /** Partial-tag width in bits. */
    unsigned tagBits = 16;

    /** Execution count that makes an entry a candidate branch. */
    uint64_t candidateThresholdCount = 16;

    /** HDC width in bits (saturates at 2^bits - 1). */
    unsigned hdcBits = 13;

    /** HDC increment on a candidate-branch execution. */
    uint64_t hdcIncrement = 2;

    /** HDC decrement on a non-candidate execution. */
    uint64_t hdcDecrement = 1;

    /** Hash seed for BBB indexing. */
    uint64_t seed = 0x4075b07;
};

/** Merten et al. Branch Behavior Buffer + Hot Spot Detection Counter. */
class HotSpotDetector : public HardwareProfiler
{
  public:
    /**
     * @param config Detector knobs.
     * @param thresholdCount Interval candidate threshold used for the
     *        snapshot (the BBB's own candidate flag uses
     *        config.candidateThresholdCount, as in the original).
     */
    HotSpotDetector(const HotSpotConfig &config, uint64_t thresholdCount);

    void onEvent(const Tuple &t) override;
    IntervalSnapshot endInterval() override;
    void reset() override;
    std::string name() const override { return "merten-hotspot"; }
    uint64_t areaBytes() const override;

    /** Current HDC value (saturated high = inside a hot spot). */
    uint64_t hdcValue() const { return hdc; }

    /** True when the HDC is saturated (hot spot detected). */
    bool inHotSpot() const { return hdc == hdcMax; }

    /** Entries evicted due to BBB capacity (the design's error source). */
    uint64_t evictions() const { return evicted; }

  private:
    struct Entry
    {
        uint64_t tag = 0;
        uint64_t execCount = 0;
        Tuple exemplar;        ///< a full tuple for reporting
        bool valid = false;
        bool candidate = false;
    };

    Entry &lookup(const Tuple &t, bool &hit);

    HotSpotConfig config;
    uint64_t thresholdCount;
    TupleHasher hasher;
    std::vector<Entry> entries; // sets * ways
    uint64_t sets;
    uint64_t hdc = 0;
    uint64_t hdcMax;
    uint64_t evicted = 0;
};

} // namespace mhp

#endif // MHP_CORE_HOTSPOT_DETECTOR_H
