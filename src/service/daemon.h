/**
 * @file
 * The profiling daemon: ServiceCore (the socket-free brain, driven
 * directly by the overload tests) and runDaemon() (the poll loop that
 * serves it over a Unix socket).
 *
 * ServiceCore owns the tenant registry, the admission controller, and
 * the epoch-versioned snapshot store, and exposes exactly the
 * operations a connection handler needs: admit a tenant, ingest a
 * batch, tick the ingest plane, answer queries, and drain everything
 * durably. It takes time as an explicit `nowMs` argument and never
 * spawns a thread, so every overload scenario in
 * tests/service/test_service_overload replays deterministically.
 *
 * runDaemon() is a single-threaded poll loop — one process, one
 * thread, no locks. Isolation between tenants comes from the core's
 * quarantine and shedding, not from process-per-tenant machinery:
 * a poisoned tenant is fenced off while the loop keeps serving
 * everyone else. On SIGTERM (the `stop` flag) the loop notifies every
 * connected client, drains all queues, flushes each tenant's durable
 * snapshot, and returns Ok — the clean-drain exit the soak test
 * asserts.
 *
 * Failpoint sites (all deterministic; see docs/ROBUSTNESS.md):
 * `service.accept.eio`, `service.read.eio`, `service.write.eio`
 * (counter-keyed), `service.tenant.ingest` and
 * `service.snapshot.enospc` (keyed by tenant id).
 */

#ifndef MHP_SERVICE_DAEMON_H
#define MHP_SERVICE_DAEMON_H

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "service/admission.h"
#include "service/registry.h"
#include "service/service_wire.h"
#include "service/snapshot_store.h"
#include "support/status.h"

namespace mhp {

class ServiceState;

/** Everything runDaemon() needs to serve. */
struct ServiceOptions
{
    /** Unix socket path to listen on. */
    std::string socketPath;

    /** Durable snapshot directory; empty = no flush on drain. */
    std::string snapshotDir;

    /**
     * Crash-recovery state directory (WAL + checkpoints, see
     * service/wal.h); empty = run stateless, as before. With a state
     * dir the daemon recovers on start, journals every admission and
     * ingest decision, and flushes client acks only after the journal
     * fsync — exactly-once across a kill -9.
     */
    std::string stateDir;

    /** WAL bytes between checkpoints (recovery-time budget). */
    uint64_t checkpointWalBytes = 4ull << 20;

    /** Global ceilings and budgets. */
    AdmissionLimits limits;

    /**
     * Events ingested across all tenants per loop tick, handed out
     * round-robin in slices of at most one ingest block (256 events)
     * per tenant visit. Per-tenant event order is untouched, so the
     * drained snapshots do not depend on the slicing.
     */
    uint64_t drainBudgetPerTick = 65536;

    /** Disconnect (and evict) tenants idle longer than this. */
    uint64_t idleTimeoutMs = 30'000;

    /** Backoff hint carried in Pushback frames. */
    uint64_t pushbackRetryMs = 20;

    /** Per-endpoint wire frame cap for every connection. */
    uint32_t maxFrameBytes = kServiceFrameCap;

    /** Log admission/shed/quarantine decisions to stderr. */
    bool verbose = false;
};

/** A shed/quarantine decision the socket layer must relay. */
struct TenantEvent
{
    uint64_t tenantId = 0;
    bool quarantined = false; ///< false: shed
    std::string reason;
};

/** The daemon's state machine, free of sockets and wall clocks. */
class ServiceCore
{
  public:
    explicit ServiceCore(const ServiceOptions &options);

    /**
     * Admit the tenant a Hello describes, shedding lower-priority
     * tenants if that is what admission takes; or resume an existing
     * Active tenant of the same name (the reconnect path — the ack
     * carries the last accounted batch seq so the client can dedup).
     * Shed/quarantined/closed tenants are refused with
     * ResourceExhausted/Unavailable.
     */
    StatusOr<WireHelloAck> connectTenant(const WireTenantHello &hello);

    /**
     * Ingest one seq-numbered batch for a tenant. A replayed seq
     * (<= the tenant's last) is acknowledged without re-ingesting —
     * reconnect-safe exactly-once accounting. Returns the exact
     * accepted/dropped split; `retryAfterMs` is set when the tenant
     * should back off.
     */
    StatusOr<WireEventsAck> ingest(uint64_t tenantId, uint64_t seq,
                                   TupleSpan events, uint64_t nowMs);

    /**
     * One ingest tick: round-robin the drain budget over Active
     * tenants, then enforce the global memory budget. Shed and
     * quarantine decisions land in takeEvents().
     *
     * @return Events ingested this tick.
     */
    uint64_t tick();

    /** True while any tenant still has queued events. */
    bool backlog();

    /**
     * Drain one tenant's queue to completion, as when its client
     * says Goodbye: the farewell stats row must be final, not a
     * snapshot of a half-drained queue.
     *
     * @return Events ingested.
     */
    uint64_t finishTenant(uint64_t tenantId);

    /** Answer a Snapshot query from the published read side. */
    StatusOr<WireSnapshot> query(uint64_t tenantId,
                                 const WireQuery &request) const;

    /** The full accounting table, one row per tenant ever admitted. */
    std::vector<TenantStatsRow> stats() const;

    /** One tenant's accounting row. */
    TenantStatsRow statsRow(const TenantSession &session) const;

    /** Shed/quarantine decisions since the last call. */
    std::vector<TenantEvent> takeEvents();

    /**
     * Drain every Active tenant's queue completely and flush each
     * durable snapshot to `dir`. Every tenant is attempted; the
     * first error is returned.
     */
    Status drainAll(const std::string &dir);

    TenantRegistry &registry() { return tenants; }
    AdmissionController &admission() { return controller; }
    const EpochSnapshotStore &store() const { return published; }

    /** Mutable read side, for recovery's republish (service/wal.h). */
    EpochSnapshotStore &publishedStore() { return published; }

    /**
     * Attach the durability layer: every admission, ingest outcome,
     * state change, and final accounting from here on is journaled
     * through `state` (null detaches — the stateless default).
     */
    void attachState(ServiceState *state) { durable = state; }

  private:
    /** Journal a shed/quarantine/close if durability is attached. */
    void recordStateChange(uint64_t tenantId);

    ServiceOptions options;
    TenantRegistry tenants;
    AdmissionController controller;
    EpochSnapshotStore published;
    std::vector<TenantEvent> pending;
    uint64_t nextDrainTenant = 0; ///< round-robin fairness cursor
    ServiceState *durable = nullptr; ///< null: no crash recovery
};

/**
 * Serve ServiceCore over `options.socketPath` until `*stop` becomes
 * true, then drain cleanly. Returns Ok after a clean drain; the
 * first bind or drain-flush error otherwise.
 */
Status runDaemon(const ServiceOptions &options,
                 const std::atomic<bool> &stop);

} // namespace mhp

#endif // MHP_SERVICE_DAEMON_H
