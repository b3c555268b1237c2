/**
 * @file
 * onEvents() ≡ onEvent() equivalence, the contract every batched
 * ingest kernel must honour: for any architecture, configuration and
 * batch size, feeding a stream through onEvents() must produce
 * bit-identical interval snapshots to feeding it one event at a time.
 *
 * The parameter grid covers every compile-time kernel instantiation:
 * all four (Shielding x Reset) single-hash paths, all eight
 * (Conservative x Reset x Shielding) multi-hash paths, the stratified
 * sampler (tagged and untagged), and the perfect profiler — each
 * crossed with batch sizes spanning one event to multiple blocks.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/factory.h"
#include "core/perfect_profiler.h"
#include "core/profiler.h"
#include "core/stratified_sampler.h"
#include "workload/benchmarks.h"

namespace mhp {
namespace {

constexpr uint64_t kIntervalLength = 2000;
constexpr int kFullIntervals = 5;
constexpr uint64_t kPartialTail = 500;

/** The profiler architectures under test, built fresh per run. Held
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

std::unique_ptr<HardwareProfiler>
buildProfiler(const std::string &arch)
{
    const uint64_t thresholdCount = 20; // 1% of the interval

    if (arch == "perfect")
        return std::make_unique<PerfectProfiler>(thresholdCount);
    if (arch == "sampler" || arch == "sampler-tagged") {
        StratifiedSamplerConfig sc;
        sc.entries = 256;
        sc.samplingThreshold = 4;
        sc.tagged = (arch == "sampler-tagged");
        return std::make_unique<StratifiedSampler>(sc, thresholdCount);
    }

    ProfilerConfig c;
    c.intervalLength = kIntervalLength;
    c.candidateThreshold = 0.01;
    c.totalHashEntries = 256; // small, so promotions and aliasing occur
    c.numHashTables = arch[0] == 's' ? 1 : 4;
    c.conservativeUpdate = arch.find("C1") != std::string::npos;
    c.resetOnPromote = arch.find("R1") != std::string::npos;
    c.retaining = arch.find("P1") != std::string::npos;
    c.shielding = arch.find("noshield") == std::string::npos;
    return makeProfiler(c);
}

/** The shared input stream: a realistic suite workload. */
const std::vector<Tuple> &
stream()
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
    const std::vector<Tuple> &events = stream();

    auto reference = buildProfiler(arch);
    auto batched = buildProfiler(arch);

    size_t pos = 0;
    for (int iv = 0; iv <= kFullIntervals; ++iv) {
        const size_t intervalEvents =
            iv < kFullIntervals ? kIntervalLength : kPartialTail;

        for (size_t i = 0; i < intervalEvents; ++i)
            reference->onEvent(events[pos + i]);

        // Same events through onEvents() in batchSize chunks; the
        // final chunk is a ragged remainder unless batchSize divides
        // the interval.
        for (size_t i = 0; i < intervalEvents; i += batchSize) {
            const size_t n =
                std::min(batchSize, intervalEvents - i);
            batched->onEvents(events.data() + pos + i, n);
        }
        pos += intervalEvents;

        const IntervalSnapshot expected = reference->endInterval();
        const IntervalSnapshot actual = batched->endInterval();
        ASSERT_EQ(expected, actual)
            << arch << " batch=" << batchSize << " interval " << iv
            << ": " << expected.size() << " vs " << actual.size()
            << " candidates";
    }
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
