/**
 * @file
 * Sweep protocol message tests: every payload round trips exactly,
 * and — because everything arriving over the socket is untrusted —
 * the corruption corpus (run under ASan+UBSan via ctest -R
 * CorruptionCorpus) feeds every decoder truncations, bit flips, and
 * adversarial count fields, asserting a clean Status every time:
 * no crash, no hang, no count-driven allocation.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "analysis/sweep_wire.h"
#include "core/factory.h"
#include "support/bytes.h"

namespace mhp {
namespace {

WirePlan
samplePlan()
{
    WirePlan plan;
    plan.plan.benchmarks = {"gcc"};
    plan.plan.kind = ProfileKind::Path;
    ProfilerConfig cfg;
    cfg.intervalLength = 5000;
    cfg.candidateThreshold = 0.015;
    cfg.numHashTables = 2;
    plan.plan.configs.push_back({"mh2", cfg});
    cfg.numHashTables = 4;
    plan.plan.configs.push_back({"mh4", cfg});
    plan.plan.intervalLengths = {1000, 2000, 4000};
    plan.plan.intervals = 3;
    plan.plan.workloadSeed = 17;
    plan.plan.batchSize = 512;
    plan.tracePath = "some/trace.mht";
    plan.traceFingerprint = 0xABCDEF0123456789ULL;
    plan.maxAttempts = 4;
    plan.cellDeadlineMs = 1234;
    plan.backoffBaseMs = 5;
    plan.backoffCapMs = 500;
    plan.backoffSeed = 99;
    plan.failpointSpec = "sweep.cell.compute=1/3@2";
    plan.failpointSeed = 7;
    plan.planFingerprint = 0x1111222233334444ULL;
    return plan;
}

std::vector<uint8_t>
encoded(const WirePlan &plan)
{
    ByteBuffer out;
    encodePlan(out, plan);
    return {out.data(), out.data() + out.size()};
}

TEST(SweepWire, HelloRoundTrips)
{
    WireHello hello;
    hello.protoVersion = kSweepProtoVersion;
    hello.pid = 4242;
    ByteBuffer out;
    encodeHello(out, hello);
    WireHello back;
    ASSERT_TRUE(decodeHello(out.data(), out.size(), back).isOk());
    EXPECT_EQ(back.protoVersion, hello.protoVersion);
    EXPECT_EQ(back.pid, hello.pid);
}

TEST(SweepWire, PlanRoundTripsEveryField)
{
    const WirePlan plan = samplePlan();
    const std::vector<uint8_t> bytes = encoded(plan);
    WirePlan back;
    ASSERT_TRUE(decodePlan(bytes.data(), bytes.size(), back).isOk());

    EXPECT_EQ(back.plan.benchmarks, plan.plan.benchmarks);
    EXPECT_EQ(back.plan.kind, plan.plan.kind);
    ASSERT_EQ(back.plan.configs.size(), plan.plan.configs.size());
    for (size_t i = 0; i < plan.plan.configs.size(); ++i) {
        EXPECT_EQ(back.plan.configs[i].label,
                  plan.plan.configs[i].label);
        EXPECT_EQ(back.plan.configs[i].config.describe(),
                  plan.plan.configs[i].config.describe());
        EXPECT_EQ(back.plan.configs[i].config.candidateThreshold,
                  plan.plan.configs[i].config.candidateThreshold);
    }
    EXPECT_EQ(back.plan.intervalLengths, plan.plan.intervalLengths);
    EXPECT_EQ(back.plan.intervals, plan.plan.intervals);
    EXPECT_EQ(back.plan.workloadSeed, plan.plan.workloadSeed);
    EXPECT_EQ(back.plan.batchSize, plan.plan.batchSize);
    EXPECT_EQ(back.tracePath, plan.tracePath);
    EXPECT_EQ(back.traceFingerprint, plan.traceFingerprint);
    EXPECT_EQ(back.maxAttempts, plan.maxAttempts);
    EXPECT_EQ(back.cellDeadlineMs, plan.cellDeadlineMs);
    EXPECT_EQ(back.backoffBaseMs, plan.backoffBaseMs);
    EXPECT_EQ(back.backoffCapMs, plan.backoffCapMs);
    EXPECT_EQ(back.backoffSeed, plan.backoffSeed);
    EXPECT_EQ(back.failpointSpec, plan.failpointSpec);
    EXPECT_EQ(back.failpointSeed, plan.failpointSeed);
    EXPECT_EQ(back.planFingerprint, plan.planFingerprint);
}

TEST(SweepWire, PlanWithUnbuildableConfigIsCorruptNotFatal)
{
    WirePlan plan = samplePlan();
    plan.plan.configs[0].config.totalHashEntries = 3000;
    const std::vector<uint8_t> bytes = encoded(plan);
    WirePlan back;
    EXPECT_EQ(decodePlan(bytes.data(), bytes.size(), back).code(),
              StatusCode::CorruptData);
}

// --- ProfilerConfig codec and plan fingerprint pins -----------------
// The codec (core/config.h) is shared by the sweep Plan, the service
// Hello and the service journal; planFingerprint() keys every
// checkpoint journal. Their bytes must never drift: a drift silently
// orphans existing checkpoints and journals.

std::vector<uint8_t>
configBytes(const ProfilerConfig &c)
{
    ByteBuffer out;
    encodeProfilerConfig(out, c);
    return {out.data(), out.data() + out.size()};
}

uint64_t
fingerprintWith(const ProfilerConfig &c)
{
    SweepPlan plan;
    plan.benchmarks = {"gcc", "li"};
    plan.configs.push_back({"mh4", c});
    plan.intervalLengths = {1000, 2000};
    plan.intervals = 3;
    plan.workloadSeed = 7;
    return SweepRunner(std::move(plan)).planFingerprint();
}

/** One edit per ProfilerConfig field, each keeping the config valid. */
const std::vector<std::pair<const char *,
                            std::function<void(ProfilerConfig &)>>>
    kFieldEdits = {
        {"intervalLength", [](ProfilerConfig &c) { c.intervalLength++; }},
        {"candidateThreshold",
         [](ProfilerConfig &c) { c.candidateThreshold = 0.02; }},
        {"totalHashEntries",
         [](ProfilerConfig &c) { c.totalHashEntries = 4096; }},
        {"numHashTables", [](ProfilerConfig &c) { c.numHashTables = 2; }},
        {"counterBits", [](ProfilerConfig &c) { c.counterBits = 16; }},
        {"retaining", [](ProfilerConfig &c) { c.retaining = !c.retaining; }},
        {"resetOnPromote",
         [](ProfilerConfig &c) { c.resetOnPromote = !c.resetOnPromote; }},
        {"conservativeUpdate",
         [](ProfilerConfig &c) {
             c.conservativeUpdate = !c.conservativeUpdate;
         }},
        {"shielding", [](ProfilerConfig &c) { c.shielding = !c.shielding; }},
        {"flushHashTables",
         [](ProfilerConfig &c) { c.flushHashTables = !c.flushHashTables; }},
        {"accumulatorEntries",
         [](ProfilerConfig &c) { c.accumulatorEntries = 64; }},
        {"seed", [](ProfilerConfig &c) { c.seed++; }},
};

TEST(ProfilerConfigCodec, EveryFieldChangesBytesAndFingerprint)
{
    ASSERT_EQ(kFieldEdits.size(), 12u);
    const ProfilerConfig base = bestMultiHashConfig(10'000, 0.01);
    const std::vector<uint8_t> baseBytes = configBytes(base);
    const uint64_t baseFingerprint = fingerprintWith(base);
    for (const auto &[field, edit] : kFieldEdits) {
        ProfilerConfig changed = base;
        edit(changed);
        ASSERT_TRUE(changed.check().isOk()) << field;
        EXPECT_NE(configBytes(changed), baseBytes) << field;
        EXPECT_NE(fingerprintWith(changed), baseFingerprint) << field;
    }
}

TEST(ProfilerConfigCodec, RoundTripsEveryField)
{
    ProfilerConfig c;
    for (const auto &[field, edit] : kFieldEdits)
        edit(c);
    const std::vector<uint8_t> bytes = configBytes(c);
    ByteCursor cursor(bytes.data(), bytes.size());
    ProfilerConfig back;
    ASSERT_TRUE(decodeProfilerConfig(cursor, back));
    EXPECT_TRUE(cursor.atEnd());
    EXPECT_EQ(back.intervalLength, c.intervalLength);
    EXPECT_EQ(back.candidateThreshold, c.candidateThreshold);
    EXPECT_EQ(back.totalHashEntries, c.totalHashEntries);
    EXPECT_EQ(back.numHashTables, c.numHashTables);
    EXPECT_EQ(back.counterBits, c.counterBits);
    EXPECT_EQ(back.retaining, c.retaining);
    EXPECT_EQ(back.resetOnPromote, c.resetOnPromote);
    EXPECT_EQ(back.conservativeUpdate, c.conservativeUpdate);
    EXPECT_EQ(back.shielding, c.shielding);
    EXPECT_EQ(back.flushHashTables, c.flushHashTables);
    EXPECT_EQ(back.accumulatorEntries, c.accumulatorEntries);
    EXPECT_EQ(back.seed, c.seed);
    for (size_t cut = 0; cut < bytes.size(); ++cut) {
        ByteCursor truncated(bytes.data(), cut);
        EXPECT_FALSE(decodeProfilerConfig(truncated, back)) << cut;
    }
}

TEST(ProfilerConfigCodec, BytesMatchRecordedLiterals)
{
    // Literal bytes that existing Hellos, Plans, service journals and
    // checkpoint journals carry; a build that changes them can no
    // longer read what older builds wrote.
    const std::vector<uint8_t> bytes = configBytes(ProfilerConfig{});
    std::string hex;
    for (uint8_t b : bytes) {
        static const char digits[] = "0123456789abcdef";
        hex += digits[b >> 4];
        hex += digits[b & 15];
    }
    EXPECT_EQ(hex, "10270000000000007b14ae47e17a843f0008000000000000"
                   "0400000018000000010001010100000000000000000df0fe"
                   "ca00000000");

    EXPECT_EQ(fingerprintWith(bestMultiHashConfig(10'000, 0.01)),
              0x86eae6977258a088ULL);
    const std::vector<uint8_t> plan = encoded(samplePlan());
    EXPECT_EQ(fnv1a64(plan.data(), plan.size()), 0xbf65e31d9a794930ULL);
}

TEST(SweepWire, LeaseRoundTripsAndRejectsInversion)
{
    WireLease lease;
    lease.leaseId = 7;
    lease.begin = 100;
    lease.end = 228;
    ByteBuffer out;
    encodeLease(out, lease);
    WireLease back;
    ASSERT_TRUE(decodeLease(out.data(), out.size(), back).isOk());
    EXPECT_EQ(back.leaseId, lease.leaseId);
    EXPECT_EQ(back.begin, lease.begin);
    EXPECT_EQ(back.end, lease.end);

    WireLease inverted;
    inverted.begin = 10;
    inverted.end = 3;
    ByteBuffer bad;
    encodeLease(bad, inverted);
    EXPECT_FALSE(decodeLease(bad.data(), bad.size(), back).isOk());
}

TEST(SweepWire, ResultRoundTripsBitExact)
{
    SweepCellResult cell;
    cell.benchmarkIndex = 1;
    cell.configIndex = 2;
    cell.intervalLengthIndex = 3;
    cell.benchmark = "gcc";
    cell.configLabel = "mh4";
    cell.intervalLength = 4000;
    cell.thresholdCount = 40;
    cell.eventsConsumed = 123456;
    cell.intervalsCompleted = 9;

    ByteBuffer out;
    encodeResult(out, 5, 17, cell);
    uint64_t leaseId = 0;
    uint64_t cellIndex = 0;
    SweepCellResult back;
    ASSERT_TRUE(
        decodeResult(out.data(), out.size(), leaseId, cellIndex, back)
            .isOk());
    EXPECT_EQ(leaseId, 5u);
    EXPECT_EQ(cellIndex, 17u);
    EXPECT_EQ(back, cell);
}

TEST(SweepWire, QuarantineRoundTripsAndRejectsBadCode)
{
    WireQuarantine q;
    q.leaseId = 3;
    q.cellIndex = 21;
    q.attempts = 4;
    q.code = StatusCode::DeadlineExceeded;
    q.message = "cell 21: deadline exceeded after 120 ms";
    ByteBuffer out;
    encodeQuarantine(out, q);
    WireQuarantine back;
    ASSERT_TRUE(
        decodeQuarantine(out.data(), out.size(), back).isOk());
    EXPECT_EQ(back.leaseId, q.leaseId);
    EXPECT_EQ(back.cellIndex, q.cellIndex);
    EXPECT_EQ(back.attempts, q.attempts);
    EXPECT_EQ(back.code, q.code);
    EXPECT_EQ(back.message, q.message);

    // An unknown status code byte must be rejected, as must Ok — a
    // quarantined cell by definition carries a failure.
    std::vector<uint8_t> bytes(out.data(), out.data() + out.size());
    bytes[8 + 8 + 4] = 250;
    EXPECT_FALSE(
        decodeQuarantine(bytes.data(), bytes.size(), back).isOk());
    bytes[8 + 8 + 4] = 0;
    EXPECT_FALSE(
        decodeQuarantine(bytes.data(), bytes.size(), back).isOk());
}

TEST(SweepWire, HeartbeatRoundTrips)
{
    ByteBuffer out;
    encodeHeartbeat(out, 77);
    uint64_t cellsDone = 0;
    ASSERT_TRUE(
        decodeHeartbeat(out.data(), out.size(), cellsDone).isOk());
    EXPECT_EQ(cellsDone, 77u);
}

TEST(CorruptionCorpusSweepWire, PlanSurvivesEveryTruncation)
{
    const std::vector<uint8_t> bytes = encoded(samplePlan());
    for (size_t cut = 0; cut < bytes.size(); ++cut) {
        WirePlan back;
        EXPECT_FALSE(decodePlan(bytes.data(), cut, back).isOk())
            << "cut at " << cut;
    }
}

TEST(CorruptionCorpusSweepWire, PlanSurvivesEveryBitFlip)
{
    const std::vector<uint8_t> pristine = encoded(samplePlan());
    for (size_t bit = 0; bit < pristine.size() * 8; ++bit) {
        std::vector<uint8_t> mutated = pristine;
        mutated[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
        WirePlan back;
        // Some flips land in free-form fields (a benchmark name, a
        // seed) and decode fine; the assertion is purely that decode
        // terminates cleanly with bounded allocation — ASan/UBSan
        // turn any overrun into a loud failure here.
        (void)decodePlan(mutated.data(), mutated.size(), back);
    }
}

TEST(CorruptionCorpusSweepWire, AdversarialCountsDontAllocate)
{
    // A tiny payload claiming 2^61 benchmarks must fail the
    // count-vs-remaining-bytes guard, not reserve petabytes.
    ByteBuffer out;
    out.str("");                      // tracePath
    out.u64(0);                       // traceFingerprint
    out.u64(0x2000000000000000ULL);   // benchmark count
    WirePlan back;
    EXPECT_FALSE(decodePlan(out.data(), out.size(), back).isOk());

    const std::vector<std::vector<uint8_t>> corpus = {
        {},
        {0x00},
        std::vector<uint8_t>(64, 0xFF),
    };
    for (const auto &bytes : corpus) {
        WireHello hello;
        EXPECT_FALSE(
            decodeHello(bytes.data(), bytes.size(), hello).isOk());
        WireLease lease;
        EXPECT_FALSE(
            decodeLease(bytes.data(), bytes.size(), lease).isOk());
        uint64_t leaseId = 0;
        uint64_t cellIndex = 0;
        SweepCellResult cell;
        EXPECT_FALSE(decodeResult(bytes.data(), bytes.size(), leaseId,
                                  cellIndex, cell)
                         .isOk());
        WireQuarantine q;
        EXPECT_FALSE(
            decodeQuarantine(bytes.data(), bytes.size(), q).isOk());
    }
}

TEST(CorruptionCorpusSweepWire, ResultSurvivesTruncationAndFlips)
{
    SweepCellResult cell;
    cell.benchmark = "go";
    cell.configLabel = "mh1";
    cell.intervalLength = 1000;
    cell.intervalsCompleted = 2;
    ByteBuffer out;
    encodeResult(out, 1, 2, cell);
    const std::vector<uint8_t> pristine(out.data(),
                                        out.data() + out.size());
    for (size_t cut = 0; cut < pristine.size(); ++cut) {
        uint64_t leaseId = 0;
        uint64_t cellIndex = 0;
        SweepCellResult back;
        EXPECT_FALSE(decodeResult(pristine.data(), cut, leaseId,
                                  cellIndex, back)
                         .isOk());
    }
    for (size_t bit = 0; bit < pristine.size() * 8; ++bit) {
        std::vector<uint8_t> mutated = pristine;
        mutated[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
        uint64_t leaseId = 0;
        uint64_t cellIndex = 0;
        SweepCellResult back;
        (void)decodeResult(mutated.data(), mutated.size(), leaseId,
                           cellIndex, back);
    }
}

} // namespace
} // namespace mhp
