#include "service/daemon.h"

#include <poll.h>
#include <time.h>

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <filesystem>
#include <memory>

#include "core/factory.h"
#include "service/wal.h"
#include "support/failpoint.h"
#include "support/wire.h"
#include "trace/event_class.h"

namespace mhp {

namespace {

/**
 * Round-robin drain slice: the most events one tenant ingests before
 * a tick moves on to the next tenant's queue (one ingest block).
 */
constexpr uint64_t kDrainQuantum = 256;

} // namespace

// ---------------------------------------------------------------------------
// ServiceCore

ServiceCore::ServiceCore(const ServiceOptions &opts)
    : options(opts), controller(opts.limits)
{
}

void
ServiceCore::recordStateChange(uint64_t tenantId)
{
    if (durable == nullptr)
        return;
    if (const TenantSession *session = tenants.byId(tenantId))
        durable->logStateChange(*session);
}

StatusOr<WireHelloAck>
ServiceCore::connectTenant(const WireTenantHello &hello)
{
    if (TenantSession *existing = tenants.byName(hello.tenant)) {
        switch (existing->state()) {
          case TenantState::Active: {
            WireHelloAck ack;
            ack.tenantId = existing->id();
            ack.resumed = 1;
            ack.lastSeq = existing->lastSeq();
            return ack;
          }
          case TenantState::Shed:
            return Status::resourceExhausted(
                "tenant '" + hello.tenant +
                "' was shed: " + existing->stateReason());
          case TenantState::Quarantined:
            return Status::unavailable(
                "tenant '" + hello.tenant +
                "' is quarantined: " + existing->stateReason());
          case TenantState::Closed:
            return Status::unavailable(
                "tenant '" + hello.tenant +
                "' was closed: " + existing->stateReason());
        }
    }

    MHP_RETURN_IF_ERROR(checkTenantName(hello.tenant));
    MHP_RETURN_IF_ERROR(controller.vet(hello.config, hello.quota));

    // Probe the profiler footprint the tenant will charge on day one,
    // then shed lower-priority tenants if admission needs the room.
    const uint64_t probeBytes =
        makeProfiler(hello.config)->areaBytes();
    StatusOr<std::vector<uint64_t>> shed =
        controller.makeRoom(tenants, probeBytes,
                            hello.quota.priority);
    if (!shed.isOk())
        return shed.status();
    for (uint64_t id : *shed) {
        const TenantSession *victim = tenants.byId(id);
        pending.push_back({id, false, victim->stateReason()});
        published.evict(id);
        recordStateChange(id);
    }

    StatusOr<TenantSession *> created = tenants.create(
        hello.tenant, static_cast<ProfileKind>(hello.kind),
        hello.config, hello.quota);
    if (!created.isOk())
        return created.status();
    if (durable != nullptr) {
        (*created)->setHistorySink(durable);
        durable->logAdmit(**created);
    }

    WireHelloAck ack;
    ack.tenantId = (*created)->id();
    return ack;
}

StatusOr<WireEventsAck>
ServiceCore::ingest(uint64_t tenantId, uint64_t seq, TupleSpan events,
                    uint64_t nowMs)
{
    TenantSession *session = tenants.byId(tenantId);
    if (session == nullptr)
        return Status::notFound("no tenant with id " +
                                std::to_string(tenantId));

    WireEventsAck ack;
    ack.seq = seq;
    if (seq != 0 && seq <= session->lastSeq()) {
        // A replay of a batch already accounted (reconnect dedup):
        // acknowledge without ingesting anything twice.
        ack.queuedEvents = session->queuedEvents();
        return ack;
    }

    const TenantSession::Offer offer = session->offer(events, nowMs);
    if (seq > session->lastSeq())
        session->setLastSeq(seq);
    if (durable != nullptr)
        // offer() queues the accepted prefix of the batch; the
        // journal record carries it so replay re-applies this exact
        // outcome instead of re-deciding under a different clock.
        durable->logIngest(
            *session, seq, events.size(), offer,
            TupleSpan(events.data(),
                      static_cast<size_t>(offer.accepted)));
    ack.accepted = offer.accepted;
    ack.dropped = offer.dropped;
    ack.queuedEvents = session->queuedEvents();
    if (offer.pushback) {
        ack.retryAfterMs = options.pushbackRetryMs;
        ack.reason = offer.reason;
    }
    return ack;
}

uint64_t
ServiceCore::tick()
{
    uint64_t budget = options.drainBudgetPerTick;
    uint64_t total = 0;
    bool progress = true;
    while (budget > 0 && progress) {
        progress = false;
        std::vector<TenantSession *> act = tenants.active();
        if (act.empty())
            break;
        const size_t n = act.size();
        for (size_t i = 0; i < n && budget > 0; ++i) {
            TenantSession *session =
                act[(nextDrainTenant + i) % n];
            if (session->state() != TenantState::Active ||
                session->queuedEvents() == 0)
                continue;
            const uint64_t slice =
                std::min<uint64_t>(budget, kDrainQuantum);
            const uint64_t did = session->drain(
                slice, options.limits.poisonStrikes, &published);
            if (session->state() == TenantState::Quarantined) {
                pending.push_back({session->id(), true,
                                   session->stateReason()});
                published.evict(session->id());
                recordStateChange(session->id());
            }
            budget -= did;
            total += did;
            if (did > 0)
                progress = true;
        }
        nextDrainTenant = (nextDrainTenant + 1) % n;
    }

    for (uint64_t id : controller.enforceBudget(tenants)) {
        const TenantSession *victim = tenants.byId(id);
        pending.push_back({id, false, victim->stateReason()});
        published.evict(id);
        recordStateChange(id);
    }
    return total;
}

uint64_t
ServiceCore::finishTenant(uint64_t tenantId)
{
    TenantSession *session = tenants.byId(tenantId);
    uint64_t total = 0;
    // Terminates: each drain either makes progress or strikes the
    // tenant, and enough strikes leave Active for Quarantined.
    while (session != nullptr &&
           session->state() == TenantState::Active &&
           session->queuedEvents() > 0) {
        total += session->drain(session->queuedEvents(),
                                options.limits.poisonStrikes,
                                &published);
        if (session->state() == TenantState::Quarantined) {
            pending.push_back(
                {session->id(), true, session->stateReason()});
            published.evict(session->id());
            recordStateChange(session->id());
        }
    }
    // The queue is empty (or the tenant left Active trying): journal
    // the fully-drained accounting so a restart after the client
    // departs still reports final numbers (and replay gains a
    // drain-and-verify barrier).
    if (durable != nullptr && session != nullptr &&
        session->state() == TenantState::Active)
        durable->logFinal(*session);
    return total;
}

bool
ServiceCore::backlog()
{
    for (const TenantSession *session : tenants.active())
        if (session->queuedEvents() > 0)
            return true;
    return false;
}

StatusOr<WireSnapshot>
ServiceCore::query(uint64_t tenantId, const WireQuery &request) const
{
    const TenantSession *session = tenants.byId(tenantId);
    if (session == nullptr)
        return Status::notFound("no tenant with id " +
                                std::to_string(tenantId));

    WireSnapshot snap;
    snap.tenantId = tenantId;
    snap.kind = profileKindToByte(session->kind());
    std::optional<PublishedSnapshot> result =
        published.query(tenantId, request.program, request.top);
    if (result) {
        snap.epoch = result->epoch;
        snap.intervals = result->intervals;
        snap.candidates = std::move(result->candidates);
    }
    return snap;
}

TenantStatsRow
ServiceCore::statsRow(const TenantSession &session) const
{
    const TenantCounters &c = session.counters();
    TenantStatsRow row;
    row.id = session.id();
    row.name = session.name();
    row.state = tenantStateName(session.state());
    row.priority = session.quota().priority;
    row.arrived = c.arrived;
    row.accepted = c.accepted;
    row.ingested = c.ingested;
    row.intervals = c.intervals;
    row.droppedQueueFull = c.droppedQueueFull;
    row.droppedRate = c.droppedRate;
    row.droppedQuota = c.droppedQuota;
    row.droppedShed = c.droppedShed;
    row.droppedQuarantine = c.droppedQuarantine;
    row.pushbacks = c.pushbacks;
    row.poisonStrikes = c.poisonStrikes;
    row.epoch = published.epochOf(session.id());
    row.memoryBytes = session.memoryBytes();
    return row;
}

std::vector<TenantStatsRow>
ServiceCore::stats() const
{
    std::vector<TenantStatsRow> rows;
    for (const TenantSession *session : tenants.all())
        rows.push_back(statsRow(*session));
    return rows;
}

std::vector<TenantEvent>
ServiceCore::takeEvents()
{
    std::vector<TenantEvent> out;
    out.swap(pending);
    return out;
}

Status
ServiceCore::drainAll(const std::string &dir)
{
    Status first = Status::ok();
    for (const TenantSession *snap : tenants.all()) {
        TenantSession *session = tenants.byId(snap->id());
        if (session->state() != TenantState::Active)
            continue;
        while (session->queuedEvents() > 0) {
            if (session->drain(session->queuedEvents(),
                               options.limits.poisonStrikes,
                               &published) == 0 &&
                session->state() != TenantState::Active)
                break;
            if (session->state() != TenantState::Active)
                break;
        }
        if (session->state() != TenantState::Active) {
            recordStateChange(session->id());
            continue;
        }
        if (durable != nullptr)
            durable->logFinal(*session);
        if (dir.empty())
            continue;
        const Status flushed = session->flushDurable(dir);
        if (!flushed.isOk() && first.isOk())
            first = flushed;
    }
    return first;
}

// ---------------------------------------------------------------------------
// The poll loop

namespace {

uint64_t
monotonicMs()
{
    timespec ts{};
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<uint64_t>(ts.tv_sec) * 1000 +
           static_cast<uint64_t>(ts.tv_nsec) / 1'000'000;
}

constexpr uint64_t kNoTenant = UINT64_MAX;

/** One frame queued for a client, awaiting the journal commit. */
struct Outgoing
{
    uint8_t type = 0;
    ByteBuffer payload;
};

/**
 * One connected client. Replies are queued in `outbox` and flushed
 * once per loop iteration, *after* the journal commit — an ack the
 * client can observe is therefore always durable (exactly-once
 * across a daemon crash). `closing` drains the outbox first and then
 * dies (the Goodbye path); `dead` is immediate.
 */
struct Conn
{
    WireConn wire;
    uint64_t tenantId = kNoTenant;
    uint64_t lastActivityMs = 0;
    bool dead = false;
    bool closing = false;
    std::vector<Outgoing> outbox;
};

void
logLine(const ServiceOptions &options, const char *fmt, ...)
{
    if (!options.verbose)
        return;
    std::va_list ap;
    va_start(ap, fmt);
    std::fprintf(stderr, "mhprofd: ");
    std::vfprintf(stderr, fmt, ap);
    std::fprintf(stderr, "\n");
    va_end(ap);
}

/** Queue a frame; the write failpoint still kills the conn here. */
void
sendFrame(Conn &conn, ServiceMsg type, const ByteBuffer &payload,
          const ServiceOptions &options)
{
    if (conn.dead)
        return;
    if (failpointsArmed() && failpointFires("service.write.eio")) {
        logLine(options,
                "injected write failure (failpoint "
                "service.write.eio); dropping connection");
        conn.dead = true;
        return;
    }
    conn.outbox.push_back({static_cast<uint8_t>(type), payload});
}

/**
 * Flush every queued reply. Called once per loop iteration after the
 * journal commit; a dead connection's queue is still attempted
 * best-effort (matching the old send-immediately behaviour for
 * Rejects that precede a disconnect), and a closing connection dies
 * once its farewell is on the wire.
 */
void
flushOutboxes(std::vector<Conn> &conns, const ServiceOptions &options)
{
    for (Conn &conn : conns) {
        bool broken = false;
        for (const Outgoing &frame : conn.outbox) {
            const Status sent =
                conn.wire.send(frame.type, frame.payload, 5000);
            if (!sent.isOk()) {
                logLine(options, "send failed: %s",
                        sent.toString().c_str());
                broken = true;
                break;
            }
        }
        conn.outbox.clear();
        if (broken || conn.closing)
            conn.dead = true;
    }
}

void
sendStatus(Conn &conn, ServiceMsg type, const Status &status,
           const ServiceOptions &options)
{
    WireStatusMsg msg;
    msg.code = static_cast<uint8_t>(status.code());
    msg.message = status.message();
    ByteBuffer payload;
    encodeStatusMsg(payload, msg);
    sendFrame(conn, type, payload, options);
}

/** Everything one frame dispatch needs to see. */
struct DaemonCtx
{
    const ServiceOptions &options;
    ServiceCore &core;
    std::vector<Conn> &conns;
    uint64_t maxBatchEvents;
    uint64_t nowMs;
    ServiceState *state; ///< null when running stateless
};

bool
tenantAttachedElsewhere(const DaemonCtx &ctx, const Conn &self,
                        uint64_t tenantId)
{
    for (const Conn &other : ctx.conns)
        if (&other != &self && !other.dead &&
            other.tenantId == tenantId)
            return true;
    return false;
}

void
handleHello(DaemonCtx &ctx, Conn &conn, const WireFrame &frame)
{
    WireTenantHello hello;
    const Status decoded =
        decodeHello(frame.payload.data(), frame.payload.size(), hello);
    if (!decoded.isOk()) {
        sendStatus(conn, ServiceMsg::Reject, decoded, ctx.options);
        conn.dead = true;
        return;
    }
    StatusOr<WireHelloAck> ack = ctx.core.connectTenant(hello);
    if (!ack.isOk()) {
        logLine(ctx.options, "refused tenant '%s': %s",
                hello.tenant.c_str(),
                ack.status().toString().c_str());
        sendStatus(conn, ServiceMsg::Reject, ack.status(),
                   ctx.options);
        return;
    }
    if (tenantAttachedElsewhere(ctx, conn, ack->tenantId)) {
        sendStatus(conn, ServiceMsg::Reject,
                   Status::unavailable(
                       "tenant '" + hello.tenant +
                       "' is already attached to another connection"),
                   ctx.options);
        return;
    }
    conn.tenantId = ack->tenantId;
    if (ctx.state != nullptr)
        ack->bootId = ctx.state->bootId();
    logLine(ctx.options, "tenant '%s' %s as id %llu (priority %u)",
            hello.tenant.c_str(),
            ack->resumed != 0 ? "resumed" : "admitted",
            static_cast<unsigned long long>(ack->tenantId),
            hello.quota.priority);
    ByteBuffer payload;
    encodeHelloAck(payload, *ack);
    sendFrame(conn, ServiceMsg::HelloAck, payload, ctx.options);
}

void
handleEvents(DaemonCtx &ctx, Conn &conn, const WireFrame &frame)
{
    if (conn.tenantId == kNoTenant) {
        sendStatus(conn, ServiceMsg::Reject,
                   Status::failedPrecondition(
                       "Events before a successful Hello"),
                   ctx.options);
        conn.dead = true;
        return;
    }
    WireEvents batch;
    const Status decoded =
        decodeEvents(frame.payload.data(), frame.payload.size(),
                     batch, ctx.maxBatchEvents);
    if (!decoded.isOk()) {
        sendStatus(conn, ServiceMsg::Reject, decoded, ctx.options);
        conn.dead = true;
        return;
    }
    StatusOr<WireEventsAck> ack = ctx.core.ingest(
        conn.tenantId, batch.seq,
        TupleSpan(batch.events.data(), batch.events.size()),
        ctx.nowMs);
    if (!ack.isOk()) {
        sendStatus(conn, ServiceMsg::Reject, ack.status(),
                   ctx.options);
        conn.dead = true;
        return;
    }

    // A tenant no longer Active answers with its terminal state so
    // the client can stop streaming into a void.
    const TenantSession *session =
        ctx.core.registry().byId(conn.tenantId);
    if (session->state() == TenantState::Quarantined) {
        sendStatus(conn, ServiceMsg::Quarantine,
                   Status::unavailable(session->stateReason()),
                   ctx.options);
        return;
    }
    if (session->state() != TenantState::Active) {
        sendStatus(conn, ServiceMsg::Shed,
                   Status::resourceExhausted(session->stateReason()),
                   ctx.options);
        return;
    }
    ByteBuffer payload;
    encodeEventsAck(payload, *ack);
    sendFrame(conn,
              ack->retryAfterMs != 0 ? ServiceMsg::Pushback
                                     : ServiceMsg::EventsAck,
              payload, ctx.options);
}

void
handleQuery(DaemonCtx &ctx, Conn &conn, const WireFrame &frame)
{
    WireQuery request;
    const Status decoded =
        decodeQuery(frame.payload.data(), frame.payload.size(),
                    request);
    if (!decoded.isOk()) {
        sendStatus(conn, ServiceMsg::Reject, decoded, ctx.options);
        conn.dead = true;
        return;
    }

    if (request.what ==
        static_cast<uint8_t>(ServiceQueryWhat::Stats)) {
        ByteBuffer payload;
        encodeStats(payload, ctx.core.stats());
        sendFrame(conn, ServiceMsg::Stats, payload, ctx.options);
        return;
    }

    uint64_t tenantId = conn.tenantId;
    if (!request.tenant.empty()) {
        const TenantSession *session =
            ctx.core.registry().byName(request.tenant);
        tenantId = session != nullptr ? session->id() : kNoTenant;
    }
    if (tenantId == kNoTenant) {
        sendStatus(conn, ServiceMsg::Reject,
                   Status::notFound(
                       "query names no tenant and the connection "
                       "has none attached"),
                   ctx.options);
        return;
    }
    StatusOr<WireSnapshot> snap = ctx.core.query(tenantId, request);
    if (!snap.isOk()) {
        sendStatus(conn, ServiceMsg::Reject, snap.status(),
                   ctx.options);
        return;
    }
    ByteBuffer payload;
    encodeSnapshot(payload, *snap);
    sendFrame(conn, ServiceMsg::Snapshot, payload, ctx.options);
}

void
handleGoodbye(DaemonCtx &ctx, Conn &conn)
{
    ByteBuffer payload;
    if (conn.tenantId != kNoTenant) {
        ctx.core.finishTenant(conn.tenantId);
        const TenantSession *session =
            ctx.core.registry().byId(conn.tenantId);
        encodeGoodbyeAck(payload, ctx.core.statsRow(*session));
    } else {
        encodeGoodbyeAck(payload, TenantStatsRow{});
    }
    sendFrame(conn, ServiceMsg::GoodbyeAck, payload, ctx.options);
    conn.closing = true; // flush the farewell, then close our side
}

void
dispatchFrame(DaemonCtx &ctx, Conn &conn, const WireFrame &frame)
{
    switch (static_cast<ServiceMsg>(frame.type)) {
      case ServiceMsg::Hello:
        handleHello(ctx, conn, frame);
        return;
      case ServiceMsg::Events:
        handleEvents(ctx, conn, frame);
        return;
      case ServiceMsg::Query:
        handleQuery(ctx, conn, frame);
        return;
      case ServiceMsg::Heartbeat:
        return; // activity timestamp already refreshed
      case ServiceMsg::Goodbye:
        handleGoodbye(ctx, conn);
        return;
      default:
        sendStatus(conn, ServiceMsg::Reject,
                   Status::invalidArgument(
                       std::string("unexpected ") +
                       serviceMsgName(frame.type) +
                       " frame from a client"),
                   ctx.options);
        conn.dead = true;
    }
}

void
handleReadable(DaemonCtx &ctx, Conn &conn)
{
    while (!conn.dead && !conn.closing) {
        WireFrame frame;
        Status error = Status::ok();
        const FrameDecode got = conn.wire.poll(frame, error);
        if (got == FrameDecode::NeedMore)
            return;
        if (got == FrameDecode::Corrupt) {
            logLine(ctx.options, "dropping connection: %s",
                    error.toString().c_str());
            conn.dead = true;
            return;
        }
        if (failpointsArmed() && failpointFires("service.read.eio")) {
            logLine(ctx.options,
                    "injected read failure (failpoint "
                    "service.read.eio); dropping connection");
            conn.dead = true;
            return;
        }
        conn.lastActivityMs = ctx.nowMs;
        dispatchFrame(ctx, conn, frame);
    }
}

} // namespace

Status
runDaemon(const ServiceOptions &options, const std::atomic<bool> &stop)
{
    StatusOr<WireListener> bound =
        WireListener::bind(options.socketPath, options.maxFrameBytes);
    if (!bound.isOk())
        return bound.status();
    WireListener listener = std::move(*bound);

    ServiceCore core(options);
    std::vector<Conn> conns;
    const uint64_t maxBatchEvents =
        options.maxFrameBytes / sizeof(Tuple) + 1;

    // Crash recovery: rebuild every tenant from the state directory
    // before the first connection is served. Unrecoverable state
    // (beyond the torn-tail contract) is a refusal to start — better
    // no daemon than one serving a partial rebuild.
    std::unique_ptr<ServiceState> state;
    if (!options.stateDir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(options.stateDir, ec);
        state = std::make_unique<ServiceState>(
            options.stateDir, options.checkpointWalBytes);
        core.attachState(state.get());
        RecoveryReport report;
        const Status recovered = state->recover(core, report);
        if (!recovered.isOk()) {
            std::fprintf(stderr, "mhprofd: unrecoverable state: %s\n",
                         recovered.toString().c_str());
            listener.close();
            return recovered;
        }
        std::fprintf(
            stderr,
            "mhprofd: %s: epoch=%llu tenants=%llu intervals=%llu "
            "wal_records=%llu wal_bytes=%llu replay_ms=%llu\n",
            report.recovered ? "recovery" : "cold start",
            static_cast<unsigned long long>(report.checkpointEpoch),
            static_cast<unsigned long long>(report.tenantsRestored),
            static_cast<unsigned long long>(report.intervalsLoaded),
            static_cast<unsigned long long>(report.walRecordsReplayed),
            static_cast<unsigned long long>(report.walBytesReplayed),
            static_cast<unsigned long long>(report.replayMs));
    }

    while (!stop.load(std::memory_order_relaxed)) {
        std::vector<pollfd> fds;
        fds.reserve(conns.size() + 1);
        pollfd lp{};
        lp.fd = listener.fd();
        lp.events = POLLIN;
        fds.push_back(lp);
        for (const Conn &conn : conns) {
            pollfd p{};
            p.fd = conn.wire.fd();
            p.events = POLLIN;
            fds.push_back(p);
        }
        // With backlog to ingest the loop must not sleep; otherwise
        // wake periodically for idle sweeps and the stop flag.
        ::poll(fds.data(), fds.size(), core.backlog() ? 0 : 50);

        const uint64_t nowMs = monotonicMs();
        DaemonCtx ctx{options,       core,  conns,
                      maxBatchEvents, nowMs, state.get()};

        if ((fds[0].revents & POLLIN) != 0) {
            StatusOr<WireConn> accepted = listener.accept(100);
            if (accepted.isOk()) {
                if (failpointsArmed() &&
                    failpointFires("service.accept.eio")) {
                    logLine(options,
                            "injected accept failure (failpoint "
                            "service.accept.eio); connection "
                            "refused");
                } else {
                    Conn conn;
                    conn.wire = std::move(*accepted);
                    conn.lastActivityMs = nowMs;
                    conns.push_back(std::move(conn));
                }
            }
        }

        // fds[1..] tracks the conns present before this iteration's
        // accept; a just-accepted conn is polled next time around.
        for (size_t i = 0; i + 1 < fds.size() && i < conns.size();
             ++i) {
            const short revents = fds[i + 1].revents;
            if ((revents & (POLLIN | POLLHUP | POLLERR)) != 0)
                handleReadable(ctx, conns[i]);
        }

        core.tick();

        // Relay shed/quarantine decisions to attached clients.
        for (const TenantEvent &event : core.takeEvents()) {
            const TenantSession *session =
                core.registry().byId(event.tenantId);
            logLine(options, "tenant '%s' %s: %s",
                    session->name().c_str(),
                    event.quarantined ? "quarantined" : "shed",
                    event.reason.c_str());
            for (Conn &conn : conns)
                if (conn.tenantId == event.tenantId && !conn.dead)
                    sendStatus(conn,
                               event.quarantined
                                   ? ServiceMsg::Quarantine
                                   : ServiceMsg::Shed,
                               event.quarantined
                                   ? Status::unavailable(event.reason)
                                   : Status::resourceExhausted(
                                         event.reason),
                               options);
        }

        // Idle sweep: a silent connection is closed (its tenant
        // stays resumable by name). Its queue is drained and the
        // final accounting journaled first, so a crash after the
        // sweep still reports the departed client's exact numbers.
        for (Conn &conn : conns)
            if (!conn.dead && options.idleTimeoutMs != 0 &&
                nowMs - conn.lastActivityMs > options.idleTimeoutMs) {
                if (conn.tenantId != kNoTenant)
                    core.finishTenant(conn.tenantId);
                logLine(options,
                        "closing idle connection (tenant id %llu)",
                        static_cast<unsigned long long>(
                            conn.tenantId));
                conn.dead = true;
            }

        // Group commit, then flush: no client observes an ack whose
        // journal record is not yet durable. A commit failure is
        // fatal by design (crash-only — die and recover rather than
        // ack what is not on disk); a checkpoint failure is not (the
        // previous generation is still complete; retry next round).
        if (state != nullptr) {
            const Status committed = state->commit();
            if (!committed.isOk()) {
                std::fprintf(stderr,
                             "mhprofd: journal commit failed: %s\n",
                             committed.toString().c_str());
                listener.close();
                return committed;
            }
            if (state->wantCheckpoint()) {
                const Status cut = state->checkpoint(core);
                if (!cut.isOk())
                    logLine(options,
                            "checkpoint failed (will retry): %s",
                            cut.toString().c_str());
            }
        }
        flushOutboxes(conns, options);

        conns.erase(std::remove_if(conns.begin(), conns.end(),
                                   [](const Conn &conn) {
                                       return conn.dead;
                                   }),
                    conns.end());
    }

    // Clean drain: tell every client, ingest every queue, flush every
    // surviving tenant durably.
    logLine(options, "draining %zu tenants",
            core.registry().activeCount());
    for (Conn &conn : conns)
        sendStatus(conn, ServiceMsg::Goodbye,
                   Status::unavailable("mhprofd is draining"),
                   options);
    flushOutboxes(conns, options);
    const Status drained = core.drainAll(options.snapshotDir);
    if (state != nullptr) {
        // drainAll journaled every tenant's final accounting; make
        // it durable and cut a farewell checkpoint so the next boot
        // recovers instantly instead of replaying the whole segment.
        const Status committed = state->commit();
        if (!committed.isOk()) {
            std::fprintf(stderr,
                         "mhprofd: journal commit failed: %s\n",
                         committed.toString().c_str());
            listener.close();
            return committed;
        }
        const Status cut = state->checkpoint(core);
        if (!cut.isOk())
            logLine(options, "final checkpoint failed: %s",
                    cut.toString().c_str());
    }
    listener.close();
    return drained;
}

} // namespace mhp
