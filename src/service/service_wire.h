/**
 * @file
 * Message layer of the multi-tenant profiling service: the typed
 * payloads that travel inside wire frames (support/wire.h) between
 * mhprofd and its clients. The tenant lifecycle, backpressure
 * contract, and reconnect protocol are documented in docs/SERVICE.md.
 *
 * Everything here is untrusted input on arrival: every decode is
 * bounds-checked through ByteCursor, event counts are validated
 * against the frame size before any allocation, and a malformed
 * payload is a one-line CorruptData Status — never a crash, never
 * trust in a peer's length field.
 *
 * Service frames are small by design (an Events batch tops out well
 * under a megabyte), so endpoints tighten the transport's frame cap
 * to kServiceFrameCap — a confused or hostile peer cannot make the
 * daemon buffer the transport-default 64 MiB.
 */

#ifndef MHP_SERVICE_SERVICE_WIRE_H
#define MHP_SERVICE_SERVICE_WIRE_H

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/snapshot_text.h"
#include "core/config.h"
#include "core/profiler.h"
#include "core/query_coprocessor.h"
#include "service/tenant.h"
#include "support/bytes.h"
#include "support/status.h"
#include "trace/source.h"
#include "trace/tuple.h"

namespace mhp {

/** Protocol revision; bumped on any frame-payload change. */
constexpr uint32_t kServiceProtoVersion = 3; // v3: HelloAck carries
                                             // the daemon's boot id

/** Per-endpoint frame cap for service connections: 1 MiB. */
constexpr uint32_t kServiceFrameCap = 1u << 20;

/** Frame types of the service protocol (wire frame `type` byte). */
enum class ServiceMsg : uint8_t
{
    Hello = 1,       ///< c→d: admission request (config + quotas)
    HelloAck = 2,    ///< d→c: admitted/resumed; carries lastSeq
    Reject = 3,      ///< d→c: request refused (status code + reason)
    Events = 4,      ///< c→d: one seq-numbered batch of tuples
    EventsAck = 5,   ///< d→c: exact accepted/dropped for that seq
    Pushback = 6,    ///< d→c: ack + explicit backoff (retryAfterMs)
    Query = 7,       ///< c→d: snapshot or stats request
    Snapshot = 8,    ///< d→c: epoch-versioned candidate snapshot
    Stats = 9,       ///< d→c: per-tenant accounting table
    Shed = 10,       ///< d→c: your tenant was shed (reason)
    Quarantine = 11, ///< d→c: your tenant was quarantined (reason)
    Heartbeat = 12,  ///< c→d: liveness while the client is idle
    Goodbye = 13,    ///< c→d done streaming / d→c daemon draining
    GoodbyeAck = 14, ///< d→c: final counters for the tenant
};

/** Printable frame-type name for diagnostics. */
const char *serviceMsgName(uint8_t type);

/** Hello payload: who I am and what I need. */
struct WireTenantHello
{
    uint32_t protoVersion = kServiceProtoVersion;
    std::string tenant;
    uint8_t kind = 0; ///< ProfileKind
    ProfilerConfig config;
    TenantQuota quota;
};

void encodeHello(ByteBuffer &out, const WireTenantHello &hello);
Status decodeHello(const uint8_t *data, size_t size,
                   WireTenantHello &hello);

/**
 * The quota field encoding shared by the Hello payload and the
 * service journal's admit/checkpoint records (service/wal.h); the
 * config beside it travels through the one ProfilerConfig codec
 * (core/config.h), so a config admitted over the wire and one
 * replayed from the journal can never disagree.
 */
void encodeTenantQuota(ByteBuffer &out, const TenantQuota &q);
bool decodeTenantQuota(ByteCursor &cursor, TenantQuota &q);

/** HelloAck payload. */
struct WireHelloAck
{
    uint64_t tenantId = 0;
    uint8_t resumed = 0;  ///< 1: reattached to an existing tenant
    uint64_t lastSeq = 0; ///< highest Events seq already accounted
    /**
     * Random identity of this daemon process, drawn at startup. A
     * reconnecting client that sees a different bootId than last time
     * knows the daemon restarted and must trust `lastSeq` (recovered
     * from the journal) over its own — see docs/SERVICE.md, "Crash
     * recovery".
     */
    uint64_t bootId = 0;
};

void encodeHelloAck(ByteBuffer &out, const WireHelloAck &ack);
Status decodeHelloAck(const uint8_t *data, size_t size,
                      WireHelloAck &ack);

/** Reject / Shed / Quarantine / Goodbye payload: a Status. */
struct WireStatusMsg
{
    uint8_t code = 0; ///< StatusCode
    std::string message;
};

void encodeStatusMsg(ByteBuffer &out, const WireStatusMsg &msg);
Status decodeStatusMsg(const uint8_t *data, size_t size,
                       WireStatusMsg &msg);

/** Turn a decoded Reject back into the Status it carried. */
Status statusFromMsg(const WireStatusMsg &msg);

/** Encode an Events batch: seq + the tuples. */
void encodeEvents(ByteBuffer &out, uint64_t seq, TupleSpan events);

/** Decoded Events batch. */
struct WireEvents
{
    uint64_t seq = 0;
    std::vector<Tuple> events;
};

/**
 * Decode an Events batch; the declared event count is validated
 * against the payload size before any allocation, and against
 * `maxEvents` (the endpoint's batch ceiling).
 */
Status decodeEvents(const uint8_t *data, size_t size,
                    WireEvents &batch, uint64_t maxEvents);

/** EventsAck / Pushback payload: exact accounting for one batch. */
struct WireEventsAck
{
    uint64_t seq = 0;
    uint64_t accepted = 0;
    uint64_t dropped = 0;
    uint64_t queuedEvents = 0; ///< queue depth after admission
    uint64_t retryAfterMs = 0; ///< Pushback only: backoff hint
    std::string reason;        ///< Pushback only: why
};

void encodeEventsAck(ByteBuffer &out, const WireEventsAck &ack);
Status decodeEventsAck(const uint8_t *data, size_t size,
                       WireEventsAck &ack);

/** What a Query frame asks for. */
enum class ServiceQueryWhat : uint8_t
{
    Snapshot = 0, ///< the tenant's latest published candidates
    Stats = 1,    ///< the per-tenant accounting table
};

/** Query payload: a co-processor query program over the read side. */
struct WireQuery
{
    uint8_t what = 0;   ///< ServiceQueryWhat
    std::string tenant; ///< empty: the connection's own tenant
    uint64_t top = 0;   ///< keep only the heaviest N groups (0=all)
    Query program;      ///< filter + group-by (Snapshot only)
};

void encodeQuery(ByteBuffer &out, const WireQuery &query);
Status decodeQuery(const uint8_t *data, size_t size, WireQuery &query);

/** Snapshot payload: query result + provenance. */
struct WireSnapshot
{
    uint64_t tenantId = 0;
    uint64_t epoch = 0;     ///< publication epoch answered from
    uint64_t intervals = 0; ///< completed intervals at publication
    /**
     * The tenant's ProfileKind (registry byte encoding): what the
     * candidate tuples mean. Validated against the event-class
     * registry on decode.
     */
    uint8_t kind = 0;
    IntervalSnapshot candidates;
};

void encodeSnapshot(ByteBuffer &out, const WireSnapshot &snapshot);
Status decodeSnapshot(const uint8_t *data, size_t size,
                      WireSnapshot &snapshot, uint64_t maxCandidates);

/** Stats payload: the whole accounting table. */
void encodeStats(ByteBuffer &out,
                 const std::vector<TenantStatsRow> &rows);
Status decodeStats(const uint8_t *data, size_t size,
                   std::vector<TenantStatsRow> &rows);

/** GoodbyeAck payload: the tenant's final accounting row. */
void encodeGoodbyeAck(ByteBuffer &out, const TenantStatsRow &row);
Status decodeGoodbyeAck(const uint8_t *data, size_t size,
                        TenantStatsRow &row);

} // namespace mhp

#endif // MHP_SERVICE_SERVICE_WIRE_H
