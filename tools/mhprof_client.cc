/**
 * @file
 * mhprof_client — stream a workload into mhprofd and/or query it.
 *
 * Streaming mode registers (or resumes) a tenant, then sends the
 * benchmark's tuple stream in seq-numbered batches with stop-and-wait
 * acknowledgement. The client honours the daemon's backpressure: a
 * Pushback reply is slept out with capped exponential backoff, and a
 * lost connection is retried the same way — on reconnect the daemon's
 * HelloAck names the last batch it accounted, so replayed batches are
 * deduplicated and nothing is ever ingested twice.
 *
 *   mhprof_client --connect=/tmp/mhp.sock --tenant=gcc0 \
 *       --benchmark=gcc --events=100000 --priority=5
 *   mhprof_client --connect=/tmp/mhp.sock --query=stats
 *   mhprof_client --connect=/tmp/mhp.sock --tenant=gcc0 \
 *       --events=0 --query=snapshot --top=10
 *
 * Exit codes (asserted by tests/tools_smoke.sh): 0 stream/query
 * completed; 1 usage error or protocol error; 2 admission refused at
 * Hello; 3 this tenant was shed or quarantined; 4 the daemon was
 * lost (reconnect budget exhausted — before or mid-stream — or the
 * daemon drained). A daemon bounce inside the budget is survived
 * transparently: the client detects the new boot id, trusts the
 * journal-recovered watermark, and resumes exactly-once.
 */

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "analysis/snapshot_text.h"
#include "profiler_flags.h"
#include "service/service_wire.h"
#include "trace/event_class.h"
#include "support/cli.h"
#include "support/failpoint.h"
#include "support/wire.h"
#include "workload/benchmarks.h"

namespace {

using namespace mhp;

void
sleepMs(uint64_t ms)
{
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

uint64_t
cappedBackoffMs(uint64_t baseMs, unsigned attempt, uint64_t capMs)
{
    uint64_t delay = baseMs;
    for (unsigned i = 0; i < attempt && delay < capMs; ++i)
        delay *= 2;
    return std::min(delay, capMs);
}

/** The client's connection + reconnect state machine. */
struct ClientSession
{
    std::string path;
    WireTenantHello hello;
    bool wantTenant = false; ///< false: query-only, no Hello

    uint64_t ioTimeoutMs = 10'000;
    uint64_t connectTimeoutMs = 5'000;
    unsigned maxReconnects = 5;
    uint64_t backoffBaseMs = 10;
    uint64_t backoffCapMs = 1'000;

    WireConn conn;
    bool connected = false;
    uint64_t daemonLastSeq = 0; ///< from the latest HelloAck
    uint64_t daemonBootId = 0;  ///< 0 until the first HelloAck
    unsigned reconnects = 0;
};

/** Connect with capped-exponential retry inside the budget. */
Status
connectOnce(ClientSession &session)
{
    const auto start = std::chrono::steady_clock::now();
    unsigned attempt = 0;
    for (;;) {
        StatusOr<WireConn> conn =
            WireConn::connect(session.path, kServiceFrameCap);
        if (conn.isOk()) {
            session.conn = std::move(*conn);
            session.connected = true;
            return Status::ok();
        }
        const auto waited =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::steady_clock::now() - start)
                .count();
        if (static_cast<uint64_t>(waited) >= session.connectTimeoutMs)
            return conn.status();
        sleepMs(cappedBackoffMs(session.backoffBaseMs, attempt++,
                                session.backoffCapMs));
    }
}

/**
 * Hello handshake. A Reject comes back as the Status the daemon sent
 * (ResourceExhausted / Unavailable / InvalidArgument...) so main()
 * can map admission refusals to exit 2.
 */
Status
helloExchange(ClientSession &session)
{
    ByteBuffer payload;
    encodeHello(payload, session.hello);
    MHP_RETURN_IF_ERROR(session.conn.send(
        static_cast<uint8_t>(ServiceMsg::Hello), payload,
        session.ioTimeoutMs));
    WireFrame frame;
    MHP_RETURN_IF_ERROR(
        session.conn.recv(frame, session.ioTimeoutMs));
    if (frame.type == static_cast<uint8_t>(ServiceMsg::Reject)) {
        WireStatusMsg msg;
        MHP_RETURN_IF_ERROR(decodeStatusMsg(frame.payload.data(),
                                            frame.payload.size(),
                                            msg));
        return statusFromMsg(msg);
    }
    if (frame.type != static_cast<uint8_t>(ServiceMsg::HelloAck))
        return Status::corruptData(
            std::string("expected HelloAck, got ") +
            serviceMsgName(frame.type));
    WireHelloAck ack;
    MHP_RETURN_IF_ERROR(decodeHelloAck(frame.payload.data(),
                                       frame.payload.size(), ack));
    if (session.daemonBootId != 0 && ack.bootId != 0 &&
        ack.bootId != session.daemonBootId)
        // The daemon died and came back between our connections. Its
        // journal-recovered watermark is authoritative — resume from
        // there; stop-and-wait + seq dedup make the handoff
        // exactly-once (docs/SERVICE.md, "Crash recovery").
        std::fprintf(stderr,
                     "mhprof_client: daemon restarted; resuming "
                     "tenant '%s' from acknowledged seq %llu\n",
                     session.hello.tenant.c_str(),
                     static_cast<unsigned long long>(ack.lastSeq));
    session.daemonBootId = ack.bootId;
    session.daemonLastSeq = ack.lastSeq;
    return Status::ok();
}

/** Connect (and Hello, when streaming) until usable or hopeless. */
Status
ensureSession(ClientSession &session)
{
    if (session.connected)
        return Status::ok();
    MHP_RETURN_IF_ERROR(connectOnce(session));
    if (session.wantTenant)
        return helloExchange(session);
    return Status::ok();
}

/** Drop the connection and back off before the next attempt. */
Status
loseConnection(ClientSession &session, const Status &why)
{
    session.conn.close();
    session.connected = false;
    if (session.reconnects >= session.maxReconnects)
        return Status::unavailable(
            "daemon lost after " +
            std::to_string(session.reconnects) +
            " reconnect attempts (" + why.toString() + ")");
    sleepMs(cappedBackoffMs(session.backoffBaseMs,
                            session.reconnects,
                            session.backoffCapMs));
    ++session.reconnects;
    return Status::ok();
}

/**
 * ensureSession with the transact() transport-retry policy: the very
 * first Hello must ride a daemon crash just like any later frame, or
 * a restart during the admission handshake kills the client while
 * every already-admitted neighbour survives.
 */
Status
establishSession(ClientSession &session)
{
    for (;;) {
        const Status attempt = ensureSession(session);
        if (attempt.isOk())
            return attempt;
        if (attempt.code() != StatusCode::IoError &&
            attempt.code() != StatusCode::DeadlineExceeded &&
            attempt.code() != StatusCode::NotFound)
            return attempt; // admission refusal / protocol damage
        MHP_RETURN_IF_ERROR(loseConnection(session, attempt));
    }
}

/**
 * Send one request frame and receive the reply, reconnecting through
 * connection loss. Returns the reply frame.
 */
StatusOr<WireFrame>
transact(ClientSession &session, ServiceMsg type,
         const ByteBuffer &payload)
{
    for (;;) {
        Status attempt = ensureSession(session);
        if (attempt.isOk())
            attempt = session.conn.send(static_cast<uint8_t>(type),
                                        payload,
                                        session.ioTimeoutMs);
        WireFrame frame;
        if (attempt.isOk())
            attempt = session.conn.recv(frame, session.ioTimeoutMs);
        if (attempt.isOk()) {
            // A round trip succeeded: the daemon is back for real, so
            // a later bounce gets the full reconnect budget again (a
            // long stream may survive several daemon restarts).
            session.reconnects = 0;
            return frame;
        }
        // Admission refusals and protocol damage are final; only
        // transport-level loss is retried.
        if (attempt.code() != StatusCode::IoError &&
            attempt.code() != StatusCode::DeadlineExceeded &&
            attempt.code() != StatusCode::NotFound)
            return attempt;
        MHP_RETURN_IF_ERROR(loseConnection(session, attempt));
    }
}

struct StreamTotals
{
    uint64_t frames = 0;
    uint64_t sent = 0;
    uint64_t accepted = 0;
    uint64_t dropped = 0;
    uint64_t pushbacks = 0;
};

/** Outcome of streaming: 0/3/4-style classification for main(). */
struct StreamOutcome
{
    int exitCode = 0;
    std::string reason;
};

StatusOr<StreamOutcome>
streamEvents(ClientSession &session, EventSource &source,
             uint64_t totalEvents, uint64_t batchSize,
             uint64_t pushbackCapMs, StreamTotals &totals)
{
    std::vector<Tuple> batch;
    batch.reserve(static_cast<size_t>(batchSize));
    uint64_t seq = 0;
    uint64_t remaining = totalEvents;
    unsigned consecutivePushbacks = 0;

    while (remaining > 0 && !source.done()) {
        batch.clear();
        while (batch.size() < batchSize && remaining > 0 &&
               !source.done()) {
            batch.push_back(source.next());
            --remaining;
        }
        ++seq;
        totals.sent += batch.size();
        if (seq <= session.daemonLastSeq)
            continue; // already accounted by the daemon (resume)

        for (;;) { // until this batch is acknowledged
            ByteBuffer payload;
            encodeEvents(payload, seq,
                         TupleSpan(batch.data(), batch.size()));
            StatusOr<WireFrame> reply =
                transact(session, ServiceMsg::Events, payload);
            if (!reply.isOk())
                return reply.status();
            if (session.daemonLastSeq >= seq) {
                // The reconnect handshake revealed this batch was
                // accounted before the connection died.
                break;
            }

            const uint8_t type = reply->type;
            if (type ==
                    static_cast<uint8_t>(ServiceMsg::EventsAck) ||
                type == static_cast<uint8_t>(ServiceMsg::Pushback)) {
                WireEventsAck ack;
                MHP_RETURN_IF_ERROR(
                    decodeEventsAck(reply->payload.data(),
                                    reply->payload.size(), ack));
                totals.accepted += ack.accepted;
                totals.dropped += ack.dropped;
                ++totals.frames;
                if (type ==
                    static_cast<uint8_t>(ServiceMsg::Pushback)) {
                    ++totals.pushbacks;
                    const uint64_t hint =
                        ack.retryAfterMs != 0 ? ack.retryAfterMs : 1;
                    sleepMs(cappedBackoffMs(hint,
                                            consecutivePushbacks,
                                            pushbackCapMs));
                    ++consecutivePushbacks;
                } else {
                    consecutivePushbacks = 0;
                }
                break;
            }
            WireStatusMsg msg;
            MHP_RETURN_IF_ERROR(decodeStatusMsg(
                reply->payload.data(), reply->payload.size(), msg));
            if (type == static_cast<uint8_t>(ServiceMsg::Shed) ||
                type ==
                    static_cast<uint8_t>(ServiceMsg::Quarantine)) {
                StreamOutcome out;
                out.exitCode = 3;
                out.reason =
                    (type == static_cast<uint8_t>(ServiceMsg::Shed)
                         ? "shed: "
                         : "quarantined: ") +
                    msg.message;
                return out;
            }
            if (type == static_cast<uint8_t>(ServiceMsg::Goodbye)) {
                StreamOutcome out;
                out.exitCode = 4;
                out.reason = "daemon is draining: " + msg.message;
                return out;
            }
            return statusFromMsg(msg); // Reject: protocol error
        }
    }
    return StreamOutcome{};
}

int
runQuery(ClientSession &session, const std::string &tenantName,
         uint8_t what, uint64_t top, const Query &program)
{
    WireQuery request;
    request.what = what;
    request.tenant = tenantName;
    request.top = top;
    request.program = program;
    ByteBuffer payload;
    encodeQuery(payload, request);
    StatusOr<WireFrame> reply =
        transact(session, ServiceMsg::Query, payload);
    if (!reply.isOk()) {
        std::fprintf(stderr, "mhprof_client: %s\n",
                     reply.status().toString().c_str());
        return 1;
    }
    if (reply->type == static_cast<uint8_t>(ServiceMsg::Stats)) {
        std::vector<TenantStatsRow> rows;
        if (const Status bad = decodeStats(reply->payload.data(),
                                           reply->payload.size(),
                                           rows);
            !bad.isOk()) {
            std::fprintf(stderr, "mhprof_client: %s\n",
                         bad.toString().c_str());
            return 1;
        }
        std::fputs(renderTenantStatsTable(rows).c_str(), stdout);
        return 0;
    }
    if (reply->type == static_cast<uint8_t>(ServiceMsg::Snapshot)) {
        WireSnapshot snap;
        if (const Status bad = decodeSnapshot(
                reply->payload.data(), reply->payload.size(), snap,
                kServiceFrameCap / 24 + 1);
            !bad.isOk()) {
            std::fprintf(stderr, "mhprof_client: %s\n",
                         bad.toString().c_str());
            return 1;
        }
        const std::string title =
            "tenant " +
            (tenantName.empty() ? session.hello.tenant : tenantName);
        const std::optional<ProfileKind> kind =
            profileKindFromByte(snap.kind);
        std::printf("profile kind: %s\n",
                    kind ? profileKindName(*kind) : "?");
        std::fputs(renderSnapshotText(title, snap.epoch,
                                      snap.intervals,
                                      snap.candidates, 0)
                       .c_str(),
                   stdout);
        return 0;
    }
    WireStatusMsg msg;
    if (decodeStatusMsg(reply->payload.data(), reply->payload.size(),
                        msg)
            .isOk())
        std::fprintf(stderr, "mhprof_client: query refused: %s\n",
                     statusFromMsg(msg).toString().c_str());
    else
        std::fprintf(stderr,
                     "mhprof_client: unexpected %s reply to query\n",
                     serviceMsgName(reply->type));
    return 1;
}

} // namespace

int
main(int argc, char **argv)
{
    CliParser cli("stream a workload into mhprofd and/or query it "
                  "(exit codes: 0 ok, 1 error, 2 admission refused, "
                  "3 shed/quarantined, 4 daemon lost)");
    cli.addString("connect", "", "daemon Unix socket path");
    cli.addString("tenant", "", "tenant name ([A-Za-z0-9_-], <=64)");
    cli.addInt("priority", 0,
               "shedding priority (lower is shed first)");
    cli.addString("benchmark", "gcc", "suite benchmark to stream");
    cli.addBool("edges", false, "stream the edge model");
    cli.addInt("seed", 1, "workload seed");
    cli.addInt("events", 100'000,
               "events to stream (0 = query only, no Hello)");
    cli.addInt("batch", 4096, "events per Events frame");
    addProfilerFlags(cli);
    cli.addInt("max-queue-events", 65536,
               "requested ingest-queue bound");
    cli.addInt("max-bytes-per-sec", 0,
               "requested byte-rate quota (0 = unlimited)");
    cli.addInt("max-intervals", 0,
               "requested interval quota (0 = unlimited)");
    cli.addInt("max-memory-bytes", 0,
               "requested memory quota (0 = unlimited)");
    cli.addString("query", "",
                  "after streaming: 'snapshot' or 'stats'");
    cli.addInt("top", 0, "snapshot query: keep heaviest N groups");
    cli.addString("group-by", "whole",
                  "snapshot query: whole|first|second");
    cli.addInt("connect-timeout-ms", 5'000,
               "initial-connect retry budget");
    cli.addInt("io-timeout-ms", 10'000, "per-reply receive timeout");
    cli.addInt("max-reconnects", 5,
               "reconnect attempts before giving up (exit 4)");
    cli.addInt("backoff-ms", 10, "reconnect/backoff base delay");
    cli.addInt("backoff-cap-ms", 1'000,
               "cap for every exponential backoff");
    cli.addString("failpoints", "", "failpoint spec");
    cli.addInt("failpoint-seed", 0, "failpoint seed");
    cli.parse(argc, argv);

    if (cli.getString("connect").empty()) {
        std::fprintf(stderr, "mhprof_client: --connect is required\n");
        return 1;
    }
    const std::string tenantName = cli.getString("tenant");
    const std::string queryWhat = cli.getString("query");
    // A --query without an explicit --events is query-only: the
    // default event count is for streaming runs, and silently
    // streaming it before a query would mutate the tenant being
    // inspected.
    const int64_t events = !queryWhat.empty() && !cli.wasSet("events")
                               ? 0
                               : cli.getInt("events");
    if (cli.getInt("events") < 0 || cli.getInt("batch") <= 0 ||
        cli.getInt("priority") < 0 ||
        cli.getInt("max-queue-events") <= 0) {
        std::fprintf(stderr,
                     "mhprof_client: --events/--priority must be >= "
                     "0 and --batch/--max-queue-events positive\n");
        return 1;
    }
    if (events > 0 && tenantName.empty()) {
        std::fprintf(stderr,
                     "mhprof_client: streaming needs --tenant\n");
        return 1;
    }
    if (!queryWhat.empty() && queryWhat != "snapshot" &&
        queryWhat != "stats") {
        std::fprintf(stderr, "mhprof_client: --query must be "
                             "'snapshot' or 'stats'\n");
        return 1;
    }
    if (events == 0 && queryWhat.empty()) {
        std::fprintf(stderr, "mhprof_client: nothing to do "
                             "(--events=0 and no --query)\n");
        return 1;
    }

    if (cli.getInt("failpoint-seed") != 0)
        setFailpointSeed(
            static_cast<uint64_t>(cli.getInt("failpoint-seed")));
    if (const std::string spec = cli.getString("failpoints");
        !spec.empty()) {
        if (const Status bad = configureFailpoints(spec);
            !bad.isOk()) {
            std::fprintf(stderr, "mhprof_client: %s\n",
                         bad.toString().c_str());
            return 1;
        }
    }

    Query program;
    const std::string groupBy = cli.getString("group-by");
    if (groupBy == "first")
        program.groupBy = QueryGroupBy::First;
    else if (groupBy == "second")
        program.groupBy = QueryGroupBy::Second;
    else if (groupBy != "whole") {
        std::fprintf(stderr, "mhprof_client: --group-by must be "
                             "whole|first|second\n");
        return 1;
    }

    ClientSession session;
    session.path = cli.getString("connect");
    session.ioTimeoutMs =
        static_cast<uint64_t>(cli.getInt("io-timeout-ms"));
    session.connectTimeoutMs =
        static_cast<uint64_t>(cli.getInt("connect-timeout-ms"));
    session.maxReconnects =
        static_cast<unsigned>(cli.getInt("max-reconnects"));
    session.backoffBaseMs =
        static_cast<uint64_t>(cli.getInt("backoff-ms"));
    session.backoffCapMs =
        static_cast<uint64_t>(cli.getInt("backoff-cap-ms"));
    session.wantTenant = events > 0;

    const std::string bench = cli.getString("benchmark");
    if (session.wantTenant && !isBenchmarkName(bench)) {
        std::fprintf(stderr,
                     "mhprof_client: --benchmark=%s is not in the "
                     "suite\n",
                     bench.c_str());
        return 1;
    }

    WireTenantHello &hello = session.hello;
    hello.tenant = tenantName;
    hello.kind = static_cast<uint8_t>(
        cli.getBool("edges") ? ProfileKind::Edge : ProfileKind::Value);
    if (session.wantTenant) {
        const StatusOr<ProfilerConfig> config =
            profilerConfigFromFlags(cli);
        if (!config.isOk()) {
            std::fprintf(stderr, "mhprof_client: %s\n",
                         config.status().toString().c_str());
            return 1;
        }
        hello.config = *config;
    }
    hello.quota.priority =
        static_cast<uint32_t>(cli.getInt("priority"));
    hello.quota.maxQueueEvents =
        static_cast<uint64_t>(cli.getInt("max-queue-events"));
    hello.quota.maxBytesPerSec =
        static_cast<uint64_t>(cli.getInt("max-bytes-per-sec"));
    hello.quota.maxIntervals =
        static_cast<uint64_t>(cli.getInt("max-intervals"));
    hello.quota.maxMemoryBytes =
        static_cast<uint64_t>(cli.getInt("max-memory-bytes"));

    Status ready = establishSession(session);
    if (!ready.isOk()) {
        std::fprintf(stderr, "mhprof_client: %s\n",
                     ready.toString().c_str());
        // A spent reconnect budget means the daemon was lost, not
        // that it said "no" — the same exit 4 a mid-stream loss gets.
        if (ready.code() == StatusCode::Unavailable &&
            session.reconnects >= session.maxReconnects)
            return 4;
        // An admission refusal is the daemon saying "no", not a
        // transport failure — its own exit code.
        return (ready.code() == StatusCode::ResourceExhausted ||
                ready.code() == StatusCode::Unavailable ||
                ready.code() == StatusCode::InvalidArgument ||
                ready.code() == StatusCode::FailedPrecondition)
                   ? 2
                   : 1;
    }

    StreamTotals totals;
    if (session.wantTenant) {
        std::unique_ptr<EventSource> source;
        if (cli.getBool("edges"))
            source = makeEdgeWorkload(
                bench, static_cast<uint64_t>(cli.getInt("seed")));
        else
            source = makeValueWorkload(
                bench, static_cast<uint64_t>(cli.getInt("seed")));

        StatusOr<StreamOutcome> streamed = streamEvents(
            session, *source, static_cast<uint64_t>(events),
            static_cast<uint64_t>(cli.getInt("batch")),
            session.backoffCapMs, totals);
        if (!streamed.isOk()) {
            std::fprintf(stderr, "mhprof_client: %s\n",
                         streamed.status().toString().c_str());
            return streamed.status().code() == StatusCode::Unavailable
                       ? 4
                       : 1;
        }
        if (streamed->exitCode != 0) {
            std::fprintf(stderr, "mhprof_client: tenant '%s': %s\n",
                         tenantName.c_str(),
                         streamed->reason.c_str());
            return streamed->exitCode;
        }
    }

    int queryExit = 0;
    if (!queryWhat.empty()) {
        const uint8_t what =
            queryWhat == "stats"
                ? static_cast<uint8_t>(ServiceQueryWhat::Stats)
                : static_cast<uint8_t>(ServiceQueryWhat::Snapshot);
        queryExit = runQuery(
            session, session.wantTenant ? "" : tenantName, what,
            static_cast<uint64_t>(cli.getInt("top")), program);
    }

    if (session.wantTenant && session.connected) {
        // Clean goodbye: the ack carries the daemon-side accounting
        // for the summary line.
        ByteBuffer payload;
        StatusOr<WireFrame> bye =
            transact(session, ServiceMsg::Goodbye, payload);
        TenantStatsRow row;
        if (bye.isOk() &&
            bye->type ==
                static_cast<uint8_t>(ServiceMsg::GoodbyeAck) &&
            decodeGoodbyeAck(bye->payload.data(),
                             bye->payload.size(), row)
                .isOk()) {
            std::printf(
                "tenant %s: sent %llu events in %llu frames, "
                "accepted %llu, dropped %llu, pushbacks %llu; "
                "daemon: ingested %llu events, %llu intervals, "
                "dropped %llu\n",
                tenantName.c_str(),
                static_cast<unsigned long long>(totals.sent),
                static_cast<unsigned long long>(totals.frames),
                static_cast<unsigned long long>(totals.accepted),
                static_cast<unsigned long long>(totals.dropped),
                static_cast<unsigned long long>(totals.pushbacks),
                static_cast<unsigned long long>(row.ingested),
                static_cast<unsigned long long>(row.intervals),
                static_cast<unsigned long long>(row.dropped()));
        } else {
            std::printf("tenant %s: sent %llu events in %llu "
                        "frames, accepted %llu, dropped %llu, "
                        "pushbacks %llu\n",
                        tenantName.c_str(),
                        static_cast<unsigned long long>(totals.sent),
                        static_cast<unsigned long long>(totals.frames),
                        static_cast<unsigned long long>(
                            totals.accepted),
                        static_cast<unsigned long long>(
                            totals.dropped),
                        static_cast<unsigned long long>(
                            totals.pushbacks));
        }
    }
    return queryExit;
}
