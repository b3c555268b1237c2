/**
 * @file
 * Service protocol message tests: every payload round trips exactly,
 * and — because mhprofd treats every arriving byte as untrusted —
 * the corruption corpus feeds the decoders truncations, bit flips,
 * and adversarial count fields, asserting a clean Status every time:
 * no crash, no hang, no count-driven allocation.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "service/service_wire.h"
#include "support/bytes.h"
#include "trace/event_class.h"

namespace mhp {
namespace {

WireTenantHello
sampleHello()
{
    WireTenantHello hello;
    hello.tenant = "tenant-7_x";
    hello.kind = static_cast<uint8_t>(ProfileKind::Edge);
    hello.config.intervalLength = 5'000;
    hello.config.candidateThreshold = 0.015;
    hello.config.numHashTables = 2;
    hello.config.totalHashEntries = 512;
    hello.config.resetOnPromote = true;
    hello.config.retaining = false;
    hello.config.conservativeUpdate = false;
    hello.quota.priority = 9;
    hello.quota.maxQueueEvents = 1234;
    hello.quota.maxBytesPerSec = 4096;
    hello.quota.maxIntervals = 17;
    hello.quota.maxMemoryBytes = 1 << 20;
    return hello;
}

std::vector<Tuple>
sampleTuples(size_t n)
{
    std::vector<Tuple> tuples;
    for (size_t i = 0; i < n; ++i)
        tuples.push_back(
            {0x1000 + i, 0xdeadbeef00ull + i * 31});
    return tuples;
}

TEST(ServiceWire, HelloRoundTripsEveryField)
{
    const WireTenantHello hello = sampleHello();
    ByteBuffer out;
    encodeHello(out, hello);
    WireTenantHello back;
    ASSERT_TRUE(decodeHello(out.data(), out.size(), back).isOk());
    EXPECT_EQ(back.protoVersion, hello.protoVersion);
    EXPECT_EQ(back.tenant, hello.tenant);
    EXPECT_EQ(back.kind, hello.kind);
    EXPECT_EQ(back.config.describe(), hello.config.describe());
    EXPECT_EQ(back.config.candidateThreshold,
              hello.config.candidateThreshold);
    EXPECT_EQ(back.config.resetOnPromote, hello.config.resetOnPromote);
    EXPECT_EQ(back.config.retaining, hello.config.retaining);
    EXPECT_EQ(back.config.conservativeUpdate,
              hello.config.conservativeUpdate);
    EXPECT_EQ(back.quota.priority, hello.quota.priority);
    EXPECT_EQ(back.quota.maxQueueEvents, hello.quota.maxQueueEvents);
    EXPECT_EQ(back.quota.maxBytesPerSec, hello.quota.maxBytesPerSec);
    EXPECT_EQ(back.quota.maxIntervals, hello.quota.maxIntervals);
    EXPECT_EQ(back.quota.maxMemoryBytes, hello.quota.maxMemoryBytes);
}

TEST(ServiceWire, HelloBytesMatchRecordedLiteral)
{
    // The Hello (and with it the journal's admit records, which share
    // its ProfilerConfig codec) must stay byte-stable across builds.
    WireTenantHello hello;
    hello.tenant = "pin";
    hello.kind = static_cast<uint8_t>(ProfileKind::Edge);
    hello.quota.priority = 2;
    hello.quota.maxQueueEvents = 4096;
    ByteBuffer out;
    encodeHello(out, hello);
    EXPECT_EQ(out.size(), 105u);
    EXPECT_EQ(fnv1a64(out.data(), out.size()), 0xd3ed48ebf2e98c5dULL);
}

TEST(ServiceWire, HelloRejectsProtocolVersionMismatch)
{
    WireTenantHello hello = sampleHello();
    hello.protoVersion = kServiceProtoVersion + 1;
    ByteBuffer out;
    encodeHello(out, hello);
    WireTenantHello back;
    EXPECT_FALSE(decodeHello(out.data(), out.size(), back).isOk());
}

TEST(ServiceWire, HelloAckRoundTrips)
{
    WireHelloAck ack;
    ack.tenantId = 42;
    ack.resumed = 1;
    ack.lastSeq = 0x1122334455667788ull;
    ack.bootId = 0xdeadbeefcafef00dull;
    ByteBuffer out;
    encodeHelloAck(out, ack);
    WireHelloAck back;
    ASSERT_TRUE(decodeHelloAck(out.data(), out.size(), back).isOk());
    EXPECT_EQ(back.tenantId, ack.tenantId);
    EXPECT_EQ(back.resumed, ack.resumed);
    EXPECT_EQ(back.lastSeq, ack.lastSeq);
    EXPECT_EQ(back.bootId, ack.bootId);
}

TEST(ServiceWire, StatusMsgRoundTripsThroughStatus)
{
    WireStatusMsg msg;
    msg.code = static_cast<uint8_t>(StatusCode::ResourceExhausted);
    msg.message = "no room at priority 3";
    ByteBuffer out;
    encodeStatusMsg(out, msg);
    WireStatusMsg back;
    ASSERT_TRUE(decodeStatusMsg(out.data(), out.size(), back).isOk());
    const Status status = statusFromMsg(back);
    EXPECT_EQ(status.code(), StatusCode::ResourceExhausted);
    EXPECT_NE(status.toString().find("no room at priority 3"),
              std::string::npos);
}

TEST(ServiceWire, EventsRoundTripBitExact)
{
    const std::vector<Tuple> tuples = sampleTuples(37);
    ByteBuffer out;
    encodeEvents(out, 99, TupleSpan(tuples.data(), tuples.size()));
    WireEvents back;
    ASSERT_TRUE(
        decodeEvents(out.data(), out.size(), back, 64).isOk());
    EXPECT_EQ(back.seq, 99u);
    ASSERT_EQ(back.events.size(), tuples.size());
    for (size_t i = 0; i < tuples.size(); ++i) {
        EXPECT_EQ(back.events[i].first, tuples[i].first);
        EXPECT_EQ(back.events[i].second, tuples[i].second);
    }
}

TEST(ServiceWire, EventsRejectsBatchOverEndpointCeiling)
{
    const std::vector<Tuple> tuples = sampleTuples(10);
    ByteBuffer out;
    encodeEvents(out, 1, TupleSpan(tuples.data(), tuples.size()));
    WireEvents back;
    EXPECT_FALSE(
        decodeEvents(out.data(), out.size(), back, 9).isOk());
    EXPECT_TRUE(
        decodeEvents(out.data(), out.size(), back, 10).isOk());
}

TEST(ServiceWire, EventsAckRoundTrips)
{
    WireEventsAck ack;
    ack.seq = 5;
    ack.accepted = 100;
    ack.dropped = 28;
    ack.queuedEvents = 512;
    ack.retryAfterMs = 20;
    ack.reason = "tenant 'a' ingest queue full (512-event bound)";
    ByteBuffer out;
    encodeEventsAck(out, ack);
    WireEventsAck back;
    ASSERT_TRUE(
        decodeEventsAck(out.data(), out.size(), back).isOk());
    EXPECT_EQ(back.seq, ack.seq);
    EXPECT_EQ(back.accepted, ack.accepted);
    EXPECT_EQ(back.dropped, ack.dropped);
    EXPECT_EQ(back.queuedEvents, ack.queuedEvents);
    EXPECT_EQ(back.retryAfterMs, ack.retryAfterMs);
    EXPECT_EQ(back.reason, ack.reason);
}

TEST(ServiceWire, QueryRoundTrips)
{
    WireQuery query;
    query.what = static_cast<uint8_t>(ServiceQueryWhat::Snapshot);
    query.tenant = "peer-tenant";
    query.top = 12;
    query.program.groupBy = QueryGroupBy::First;
    ByteBuffer out;
    encodeQuery(out, query);
    WireQuery back;
    ASSERT_TRUE(decodeQuery(out.data(), out.size(), back).isOk());
    EXPECT_EQ(back.what, query.what);
    EXPECT_EQ(back.tenant, query.tenant);
    EXPECT_EQ(back.top, query.top);
    EXPECT_EQ(back.program.groupBy, query.program.groupBy);
}

TEST(ServiceWire, SnapshotRoundTripsAndBoundsCandidates)
{
    WireSnapshot snap;
    snap.tenantId = 3;
    snap.epoch = 77;
    snap.intervals = 9;
    snap.kind = profileKindToByte(ProfileKind::Path);
    snap.candidates = {{{0x10, 0x20}, 500}, {{0x30, 0x40}, 250}};
    ByteBuffer out;
    encodeSnapshot(out, snap);
    WireSnapshot back;
    ASSERT_TRUE(
        decodeSnapshot(out.data(), out.size(), back, 16).isOk());
    EXPECT_EQ(back.tenantId, snap.tenantId);
    EXPECT_EQ(back.epoch, snap.epoch);
    EXPECT_EQ(back.intervals, snap.intervals);
    EXPECT_EQ(back.kind, snap.kind);
    EXPECT_EQ(back.candidates, snap.candidates);

    EXPECT_FALSE(
        decodeSnapshot(out.data(), out.size(), back, 1).isOk());
}

TEST(ServiceWire, SnapshotRejectsUnregisteredKindByte)
{
    WireSnapshot snap;
    snap.tenantId = 3;
    snap.kind = 0x7f; // not a registry byte
    ByteBuffer out;
    encodeSnapshot(out, snap);
    WireSnapshot back;
    EXPECT_FALSE(
        decodeSnapshot(out.data(), out.size(), back, 16).isOk());
}

TEST(ServiceWire, StatsTableRoundTrips)
{
    std::vector<TenantStatsRow> rows(2);
    rows[0].id = 0;
    rows[0].name = "alpha";
    rows[0].state = "active";
    rows[0].priority = 4;
    rows[0].arrived = 1000;
    rows[0].accepted = 900;
    rows[0].ingested = 800;
    rows[0].intervals = 8;
    rows[0].droppedQueueFull = 60;
    rows[0].droppedRate = 40;
    rows[0].pushbacks = 3;
    rows[0].epoch = 12;
    rows[0].memoryBytes = 4096;
    rows[1].id = 1;
    rows[1].name = "beta";
    rows[1].state = "shed";
    rows[1].droppedShed = 500;
    rows[1].poisonStrikes = 2;
    ByteBuffer out;
    encodeStats(out, rows);
    std::vector<TenantStatsRow> back;
    ASSERT_TRUE(decodeStats(out.data(), out.size(), back).isOk());
    ASSERT_EQ(back.size(), rows.size());
    for (size_t i = 0; i < rows.size(); ++i) {
        EXPECT_EQ(back[i].id, rows[i].id);
        EXPECT_EQ(back[i].name, rows[i].name);
        EXPECT_EQ(back[i].state, rows[i].state);
        EXPECT_EQ(back[i].priority, rows[i].priority);
        EXPECT_EQ(back[i].arrived, rows[i].arrived);
        EXPECT_EQ(back[i].accepted, rows[i].accepted);
        EXPECT_EQ(back[i].ingested, rows[i].ingested);
        EXPECT_EQ(back[i].intervals, rows[i].intervals);
        EXPECT_EQ(back[i].droppedQueueFull,
                  rows[i].droppedQueueFull);
        EXPECT_EQ(back[i].droppedRate, rows[i].droppedRate);
        EXPECT_EQ(back[i].droppedQuota, rows[i].droppedQuota);
        EXPECT_EQ(back[i].droppedShed, rows[i].droppedShed);
        EXPECT_EQ(back[i].droppedQuarantine,
                  rows[i].droppedQuarantine);
        EXPECT_EQ(back[i].pushbacks, rows[i].pushbacks);
        EXPECT_EQ(back[i].poisonStrikes, rows[i].poisonStrikes);
        EXPECT_EQ(back[i].epoch, rows[i].epoch);
        EXPECT_EQ(back[i].memoryBytes, rows[i].memoryBytes);
    }
}

TEST(ServiceWire, GoodbyeAckRoundTrips)
{
    TenantStatsRow row;
    row.id = 6;
    row.name = "farewell";
    row.state = "active";
    row.arrived = 123;
    row.accepted = 120;
    row.ingested = 110;
    row.intervals = 11;
    ByteBuffer out;
    encodeGoodbyeAck(out, row);
    TenantStatsRow back;
    ASSERT_TRUE(
        decodeGoodbyeAck(out.data(), out.size(), back).isOk());
    EXPECT_EQ(back.id, row.id);
    EXPECT_EQ(back.name, row.name);
    EXPECT_EQ(back.ingested, row.ingested);
    EXPECT_EQ(back.intervals, row.intervals);
}

// ---------------------------------------------------------------------------
// Corruption corpus: truncations, bit flips, hostile counts.

TEST(CorruptionCorpusServiceWire, HelloSurvivesEveryTruncation)
{
    ByteBuffer out;
    encodeHello(out, sampleHello());
    for (size_t cut = 0; cut < out.size(); ++cut) {
        WireTenantHello back;
        EXPECT_FALSE(decodeHello(out.data(), cut, back).isOk())
            << "cut at " << cut;
    }
}

TEST(CorruptionCorpusServiceWire, HelloSurvivesEveryBitFlip)
{
    ByteBuffer pristine;
    encodeHello(pristine, sampleHello());
    const std::vector<uint8_t> bytes{
        pristine.data(), pristine.data() + pristine.size()};
    for (size_t bit = 0; bit < bytes.size() * 8; ++bit) {
        std::vector<uint8_t> mutated = bytes;
        mutated[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
        WireTenantHello back;
        // Flips in free-form fields may still decode; the assertion
        // is clean termination with bounded allocation (ASan/UBSan
        // turn any overrun into a loud failure here).
        (void)decodeHello(mutated.data(), mutated.size(), back);
    }
}

TEST(CorruptionCorpusServiceWire, EventsSurviveEveryTruncation)
{
    const std::vector<Tuple> tuples = sampleTuples(5);
    ByteBuffer out;
    encodeEvents(out, 3, TupleSpan(tuples.data(), tuples.size()));
    for (size_t cut = 0; cut < out.size(); ++cut) {
        WireEvents back;
        EXPECT_FALSE(
            decodeEvents(out.data(), cut, back, 64).isOk())
            << "cut at " << cut;
    }
}

TEST(CorruptionCorpusServiceWire, AdversarialEventCountDoesNotAllocate)
{
    // A 24-byte payload claiming 2^60 events must fail the
    // count-vs-remaining-bytes guard before any allocation.
    ByteBuffer out;
    out.u64(1);                     // seq
    out.u64(0x1000000000000000ull); // event count
    out.u64(0);                     // one stray word
    WireEvents back;
    EXPECT_FALSE(decodeEvents(out.data(), out.size(), back,
                              UINT64_MAX)
                     .isOk());
}

TEST(CorruptionCorpusServiceWire,
     AdversarialCandidateCountDoesNotAllocate)
{
    ByteBuffer out;
    out.u64(0);                     // tenantId
    out.u64(1);                     // epoch
    out.u64(1);                     // intervals
    out.u8(0);                      // kind (Value)
    out.u64(0x0800000000000000ull); // candidate count
    WireSnapshot back;
    EXPECT_FALSE(decodeSnapshot(out.data(), out.size(), back,
                                UINT64_MAX)
                     .isOk());
}

TEST(CorruptionCorpusServiceWire, StatsSurviveEveryTruncation)
{
    std::vector<TenantStatsRow> rows(1);
    rows[0].name = "x";
    rows[0].state = "active";
    ByteBuffer out;
    encodeStats(out, rows);
    for (size_t cut = 0; cut < out.size(); ++cut) {
        std::vector<TenantStatsRow> back;
        EXPECT_FALSE(decodeStats(out.data(), cut, back).isOk())
            << "cut at " << cut;
    }
}

} // namespace
} // namespace mhp
