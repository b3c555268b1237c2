/**
 * @file
 * Use case: adaptive interval-length selection (the future-work idea
 * at the end of paper Section 5.6.1: "one can potentially adaptively
 * pick the appropriate interval length for a given program").
 *
 * Strategy: run profilers at several interval lengths simultaneously;
 * measure the candidate variation between consecutive intervals at
 * each length; pick the longest interval whose variation stays under a
 * target (stable enough to optimize against, timely as possible).
 */

#include <cstdio>
#include <string>
#include <vector>

#include "core/candidate_variation.h"
#include "core/factory.h"
#include "support/cli.h"
#include "workload/benchmarks.h"

using namespace mhp;

int
main(int argc, char **argv)
{
    CliParser cli("adaptive interval-length selection");
    cli.addString("benchmark", "deltablue", "workload model");
    cli.addInt("events", 4'000'000, "events to profile");
    cli.addDouble("target", 30.0, "max acceptable mean variation (%)");
    cli.parse(argc, argv);

    const std::vector<uint64_t> lengths = {10'000, 50'000, 200'000,
                                           1'000'000};
    std::vector<std::unique_ptr<HardwareProfiler>> profilers;
    std::vector<CandidateVariation> trackers(lengths.size());
    // Sum and count of the variations measured at each length.
    std::vector<double> sums(lengths.size(), 0.0);
    std::vector<uint64_t> pairs(lengths.size(), 0);
    for (const uint64_t len : lengths) {
        // Keep the absolute candidate bar comparable: 1% of 10K (100
        // occurrences) at every length.
        ProfilerConfig c = bestMultiHashConfig(len, 0.01);
        c.candidateThreshold = 100.0 / static_cast<double>(len);
        profilers.push_back(makeProfiler(c));
    }

    auto workload = makeValueWorkload(cli.getString("benchmark"));
    const auto events = static_cast<uint64_t>(cli.getInt("events"));
    std::printf("profiling %s at %zu interval lengths "
                "simultaneously...\n\n",
                workload->name().c_str(), lengths.size());

    for (uint64_t i = 1; i <= events; ++i) {
        const Tuple t = workload->next();
        for (size_t k = 0; k < lengths.size(); ++k) {
            profilers[k]->onEvent(t);
            if (i % lengths[k] != 0)
                continue;
            const IntervalSnapshot snap = profilers[k]->endInterval();
            if (const std::optional<double> v = trackers[k].next(snap)) {
                sums[k] += *v;
                ++pairs[k];
            }
        }
    }

    std::printf("%-12s %-18s\n", "interval", "mean variation %");
    size_t chosen = 0;
    const double target = cli.getDouble("target");
    for (size_t k = 0; k < lengths.size(); ++k) {
        const double mean =
            pairs[k] == 0 ? 0.0 : sums[k] / static_cast<double>(pairs[k]);
        std::printf("%-12llu %-18.1f\n",
                    static_cast<unsigned long long>(lengths[k]), mean);
        if (mean <= target)
            chosen = k; // longest stable length wins
    }
    std::printf("\nchosen interval length: %llu events (longest whose "
                "candidate set stays\nstable within %.0f%% between "
                "intervals -- Section 5.6.1's adaptive idea).\n",
                static_cast<unsigned long long>(lengths[chosen]),
                target);
    return 0;
}
