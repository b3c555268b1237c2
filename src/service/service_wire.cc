#include "service/service_wire.h"

#include "trace/event_class.h"

namespace mhp {
namespace {

Status
truncated(const char *what)
{
    return Status::corruptData(
        std::string(what) + " payload is truncated or malformed");
}

void
encodeRow(ByteBuffer &out, const TenantStatsRow &row)
{
    out.u64(row.id);
    out.str(row.name);
    out.str(row.state);
    out.u32(row.priority);
    out.u64(row.arrived);
    out.u64(row.accepted);
    out.u64(row.ingested);
    out.u64(row.intervals);
    out.u64(row.droppedQueueFull);
    out.u64(row.droppedRate);
    out.u64(row.droppedQuota);
    out.u64(row.droppedShed);
    out.u64(row.droppedQuarantine);
    out.u64(row.pushbacks);
    out.u64(row.poisonStrikes);
    out.u64(row.epoch);
    out.u64(row.memoryBytes);
}

bool
decodeRow(ByteCursor &cursor, TenantStatsRow &row)
{
    return cursor.u64(row.id) && cursor.str(row.name) &&
           cursor.str(row.state) && cursor.u32(row.priority) &&
           cursor.u64(row.arrived) && cursor.u64(row.accepted) &&
           cursor.u64(row.ingested) && cursor.u64(row.intervals) &&
           cursor.u64(row.droppedQueueFull) &&
           cursor.u64(row.droppedRate) &&
           cursor.u64(row.droppedQuota) &&
           cursor.u64(row.droppedShed) &&
           cursor.u64(row.droppedQuarantine) &&
           cursor.u64(row.pushbacks) &&
           cursor.u64(row.poisonStrikes) && cursor.u64(row.epoch) &&
           cursor.u64(row.memoryBytes);
}

} // namespace

const char *
serviceMsgName(uint8_t type)
{
    switch (static_cast<ServiceMsg>(type)) {
      case ServiceMsg::Hello: return "Hello";
      case ServiceMsg::HelloAck: return "HelloAck";
      case ServiceMsg::Reject: return "Reject";
      case ServiceMsg::Events: return "Events";
      case ServiceMsg::EventsAck: return "EventsAck";
      case ServiceMsg::Pushback: return "Pushback";
      case ServiceMsg::Query: return "Query";
      case ServiceMsg::Snapshot: return "Snapshot";
      case ServiceMsg::Stats: return "Stats";
      case ServiceMsg::Shed: return "Shed";
      case ServiceMsg::Quarantine: return "Quarantine";
      case ServiceMsg::Heartbeat: return "Heartbeat";
      case ServiceMsg::Goodbye: return "Goodbye";
      case ServiceMsg::GoodbyeAck: return "GoodbyeAck";
    }
    return "unknown";
}

void
encodeTenantQuota(ByteBuffer &out, const TenantQuota &q)
{
    out.u32(q.priority);
    out.u64(q.maxQueueEvents);
    out.u64(q.maxBytesPerSec);
    out.u64(q.maxIntervals);
    out.u64(q.maxMemoryBytes);
}

bool
decodeTenantQuota(ByteCursor &cursor, TenantQuota &q)
{
    return cursor.u32(q.priority) && cursor.u64(q.maxQueueEvents) &&
           cursor.u64(q.maxBytesPerSec) && cursor.u64(q.maxIntervals) &&
           cursor.u64(q.maxMemoryBytes);
}

void
encodeHello(ByteBuffer &out, const WireTenantHello &hello)
{
    out.u32(hello.protoVersion);
    out.str(hello.tenant);
    out.u8(hello.kind);
    encodeProfilerConfig(out, hello.config);
    encodeTenantQuota(out, hello.quota);
}

Status
decodeHello(const uint8_t *data, size_t size, WireTenantHello &hello)
{
    ByteCursor cursor(data, size);
    if (!(cursor.u32(hello.protoVersion) && cursor.str(hello.tenant) &&
          cursor.u8(hello.kind) &&
          decodeProfilerConfig(cursor, hello.config) &&
          decodeTenantQuota(cursor, hello.quota) && cursor.atEnd()))
        return truncated("Hello");
    if (hello.protoVersion != kServiceProtoVersion)
        return Status::invalidArgument(
            "peer speaks service protocol version " +
            std::to_string(hello.protoVersion) + ", this build " +
            std::to_string(kServiceProtoVersion));
    if (!profileKindFromByte(hello.kind))
        return Status::corruptData(
            "Hello carries an unknown profile kind");
    return Status::ok();
}

void
encodeHelloAck(ByteBuffer &out, const WireHelloAck &ack)
{
    out.u64(ack.tenantId);
    out.u8(ack.resumed);
    out.u64(ack.lastSeq);
    out.u64(ack.bootId);
}

Status
decodeHelloAck(const uint8_t *data, size_t size, WireHelloAck &ack)
{
    ByteCursor cursor(data, size);
    if (!(cursor.u64(ack.tenantId) && cursor.u8(ack.resumed) &&
          cursor.u64(ack.lastSeq) && cursor.u64(ack.bootId) &&
          cursor.atEnd()))
        return truncated("HelloAck");
    return Status::ok();
}

void
encodeStatusMsg(ByteBuffer &out, const WireStatusMsg &msg)
{
    out.u8(msg.code);
    out.str(msg.message);
}

Status
decodeStatusMsg(const uint8_t *data, size_t size, WireStatusMsg &msg)
{
    ByteCursor cursor(data, size);
    if (!(cursor.u8(msg.code) && cursor.str(msg.message) &&
          cursor.atEnd()))
        return truncated("status");
    return Status::ok();
}

Status
statusFromMsg(const WireStatusMsg &msg)
{
    return Status(static_cast<StatusCode>(msg.code), msg.message);
}

void
encodeEvents(ByteBuffer &out, uint64_t seq, TupleSpan events)
{
    out.u64(seq);
    out.u64(events.size());
    for (const Tuple &t : events) {
        out.u64(t.first);
        out.u64(t.second);
    }
}

Status
decodeEvents(const uint8_t *data, size_t size, WireEvents &batch,
             uint64_t maxEvents)
{
    ByteCursor cursor(data, size);
    uint64_t count = 0;
    if (!cursor.u64(batch.seq) || !cursor.u64(count))
        return truncated("Events");
    if (cursor.remaining() % 16 != 0 ||
        count != cursor.remaining() / 16)
        return Status::corruptData(
            "Events batch declares " + std::to_string(count) +
            " tuples but carries " +
            std::to_string(cursor.remaining()) + " payload bytes");
    if (count > maxEvents)
        return Status::corruptData(
            "Events batch of " + std::to_string(count) +
            " tuples exceeds this endpoint's " +
            std::to_string(maxEvents) + "-event batch ceiling");
    batch.events.resize(static_cast<size_t>(count));
    for (Tuple &t : batch.events)
        if (!cursor.u64(t.first) || !cursor.u64(t.second))
            return truncated("Events");
    return Status::ok();
}

void
encodeEventsAck(ByteBuffer &out, const WireEventsAck &ack)
{
    out.u64(ack.seq);
    out.u64(ack.accepted);
    out.u64(ack.dropped);
    out.u64(ack.queuedEvents);
    out.u64(ack.retryAfterMs);
    out.str(ack.reason);
}

Status
decodeEventsAck(const uint8_t *data, size_t size, WireEventsAck &ack)
{
    ByteCursor cursor(data, size);
    if (!(cursor.u64(ack.seq) && cursor.u64(ack.accepted) &&
          cursor.u64(ack.dropped) && cursor.u64(ack.queuedEvents) &&
          cursor.u64(ack.retryAfterMs) && cursor.str(ack.reason) &&
          cursor.atEnd()))
        return truncated("EventsAck");
    return Status::ok();
}

void
encodeQuery(ByteBuffer &out, const WireQuery &query)
{
    out.u8(query.what);
    out.str(query.tenant);
    out.u64(query.top);
    out.u64(query.program.firstMask);
    out.u64(query.program.firstMatch);
    out.u64(query.program.secondMask);
    out.u64(query.program.secondMatch);
    out.u8(static_cast<uint8_t>(query.program.groupBy));
}

Status
decodeQuery(const uint8_t *data, size_t size, WireQuery &query)
{
    ByteCursor cursor(data, size);
    uint8_t groupBy = 0;
    if (!(cursor.u8(query.what) && cursor.str(query.tenant) &&
          cursor.u64(query.top) &&
          cursor.u64(query.program.firstMask) &&
          cursor.u64(query.program.firstMatch) &&
          cursor.u64(query.program.secondMask) &&
          cursor.u64(query.program.secondMatch) &&
          cursor.u8(groupBy) && cursor.atEnd()))
        return truncated("Query");
    if (groupBy > static_cast<uint8_t>(QueryGroupBy::Second))
        return Status::corruptData(
            "Query group-by " + std::to_string(groupBy) +
            " is not a QueryGroupBy");
    query.program.groupBy = static_cast<QueryGroupBy>(groupBy);
    return Status::ok();
}

void
encodeSnapshot(ByteBuffer &out, const WireSnapshot &snapshot)
{
    out.u64(snapshot.tenantId);
    out.u64(snapshot.epoch);
    out.u64(snapshot.intervals);
    out.u8(snapshot.kind);
    out.u64(snapshot.candidates.size());
    for (const CandidateCount &c : snapshot.candidates) {
        out.u64(c.tuple.first);
        out.u64(c.tuple.second);
        out.u64(c.count);
    }
}

Status
decodeSnapshot(const uint8_t *data, size_t size, WireSnapshot &snapshot,
               uint64_t maxCandidates)
{
    ByteCursor cursor(data, size);
    uint64_t count = 0;
    if (!(cursor.u64(snapshot.tenantId) && cursor.u64(snapshot.epoch) &&
          cursor.u64(snapshot.intervals) && cursor.u8(snapshot.kind) &&
          cursor.u64(count)))
        return truncated("Snapshot");
    if (!profileKindFromByte(snapshot.kind))
        return Status::corruptData(
            "Snapshot carries an unknown profile kind");
    if (cursor.remaining() % 24 != 0 ||
        count != cursor.remaining() / 24 || count > maxCandidates)
        return Status::corruptData(
            "Snapshot declares " + std::to_string(count) +
            " candidates but carries " +
            std::to_string(cursor.remaining()) + " payload bytes");
    snapshot.candidates.resize(static_cast<size_t>(count));
    for (CandidateCount &c : snapshot.candidates)
        if (!(cursor.u64(c.tuple.first) && cursor.u64(c.tuple.second) &&
              cursor.u64(c.count)))
            return truncated("Snapshot");
    return Status::ok();
}

void
encodeStats(ByteBuffer &out, const std::vector<TenantStatsRow> &rows)
{
    out.u64(rows.size());
    for (const TenantStatsRow &row : rows)
        encodeRow(out, row);
}

Status
decodeStats(const uint8_t *data, size_t size,
            std::vector<TenantStatsRow> &rows)
{
    ByteCursor cursor(data, size);
    uint64_t count = 0;
    if (!cursor.u64(count))
        return truncated("Stats");
    // Each row is at least 17 fixed fields; bound the allocation by
    // what the payload could possibly hold.
    if (count > cursor.remaining() / 32)
        return Status::corruptData(
            "Stats declares " + std::to_string(count) +
            " rows but carries only " +
            std::to_string(cursor.remaining()) + " payload bytes");
    rows.clear();
    rows.resize(static_cast<size_t>(count));
    for (TenantStatsRow &row : rows)
        if (!decodeRow(cursor, row))
            return truncated("Stats");
    if (!cursor.atEnd())
        return truncated("Stats");
    return Status::ok();
}

void
encodeGoodbyeAck(ByteBuffer &out, const TenantStatsRow &row)
{
    encodeRow(out, row);
}

Status
decodeGoodbyeAck(const uint8_t *data, size_t size, TenantStatsRow &row)
{
    ByteCursor cursor(data, size);
    if (!decodeRow(cursor, row) || !cursor.atEnd())
        return truncated("GoodbyeAck");
    return Status::ok();
}

} // namespace mhp
