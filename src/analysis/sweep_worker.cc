/**
 * @file
 * Worker side of the distributed sweep (sweep_distributed.h): connect
 * to the coordinator, receive the plan envelope, verify that this
 * binary reproduces the coordinator's world exactly (protocol
 * version, trace fingerprint, recomputed plan fingerprint), then pull
 * cell-range leases and execute each cell through the very same
 * SweepRunner::runCellResilient() retry loop the in-process engine
 * uses — which is the whole determinism argument: a cell computed
 * here is bit-identical to a cell computed anywhere else, successes
 * and quarantines alike.
 *
 * Between cells the worker polls its socket without blocking, so a
 * Trim (work-stealing) or Shutdown lands within one cell's latency;
 * while idle or computing it heartbeats so the coordinator can tell
 * "slow" from "dead". A vanished coordinator (EOF, reset, idle
 * timeout) is an IoError beginning with "lost coordinator", which
 * mhprof_worker maps to exit code 4 (see docs/DISTRIBUTED.md).
 */

#include "analysis/sweep_distributed.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <memory>
#include <string>
#include <thread>

#include <unistd.h>

#include "analysis/sweep_wire.h"
#include "support/failpoint.h"
#include "support/wire.h"
#include "trace/trace_map.h"

namespace mhp {

namespace {

int64_t
steadyNowMs()
{
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

Status
lostCoordinator(const Status &cause)
{
    return Status::ioError("lost coordinator: " + cause.toString());
}

/** Connect, retrying while the coordinator is still binding. */
StatusOr<WireConn>
connectWithRetry(const std::string &path, uint64_t retryMs)
{
    const int64_t deadline = steadyNowMs() + static_cast<int64_t>(retryMs);
    while (true) {
        StatusOr<WireConn> conn = WireConn::connect(path);
        if (conn.isOk() || steadyNowMs() >= deadline)
            return conn;
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
}

/** The worker's view of one granted lease. */
struct ActiveLease
{
    WireLease lease;
    uint64_t nextCell = 0;
};

class Worker
{
  public:
    explicit Worker(const SweepWorkerOptions &options) : opt(options) {}

    Status run();

  private:
    Status handshake(bool &shutdown);
    Status workLoop();
    Status processLease(ActiveLease &active, bool &shutdown);
    Status drainControl(ActiveLease &active, bool &shutdown);
    Status handleTrim(const WireFrame &frame, ActiveLease *active);
    Status sendFrame(SweepMsg type, const ByteBuffer &payload);
    Status sendHeartbeatIfDue();

    const SweepWorkerOptions &opt;
    WireConn conn;
    std::unique_ptr<SweepRunner> runner;
    SweepResilienceOptions resilience;
    uint64_t cellsDone = 0;
    int64_t lastSentMs = 0;
    int64_t lastHeardMs = 0;
};

Status
Worker::run()
{
    if (opt.socketPath.empty())
        return Status::invalidArgument(
            "worker needs a coordinator socket (--connect)");

    StatusOr<WireConn> connected =
        connectWithRetry(opt.socketPath, opt.connectRetryMs);
    if (!connected.isOk())
        return connected.status();
    conn = std::move(*connected);
    lastSentMs = steadyNowMs();
    lastHeardMs = lastSentMs;

    bool shutdown = false;
    MHP_RETURN_IF_ERROR(handshake(shutdown));
    if (shutdown)
        return Status::ok();
    return workLoop();
}

Status
Worker::handshake(bool &shutdown)
{
    WireHello hello;
    hello.protoVersion = kSweepProtoVersion;
    hello.pid = static_cast<uint64_t>(getpid());
    ByteBuffer helloBuf;
    encodeHello(helloBuf, hello);
    MHP_RETURN_IF_ERROR(sendFrame(SweepMsg::Hello, helloBuf));

    WireFrame frame;
    const Status received = conn.recv(frame, opt.ioTimeoutMs);
    if (!received.isOk())
        return lostCoordinator(received);
    if (frame.type == static_cast<uint8_t>(SweepMsg::Shutdown)) {
        // A late worker: the coordinator finished every cell before
        // it served our Hello. There is nothing left to do.
        (void)sendFrame(SweepMsg::Bye, ByteBuffer());
        shutdown = true;
        return Status::ok();
    }
    if (frame.type != static_cast<uint8_t>(SweepMsg::Plan))
        return Status::corruptDataf(
            "coordinator sent %s before Plan",
            sweepMsgName(frame.type));

    WirePlan env;
    MHP_RETURN_IF_ERROR(decodePlan(frame.payload.data(),
                                   frame.payload.size(), env));

    // The failpoint schedule must match the coordinator's exactly,
    // or injected failures (and therefore quarantines) would depend
    // on which process computed the cell.
    if (env.failpointSeed != 0)
        setFailpointSeed(env.failpointSeed);
    if (!env.failpointSpec.empty())
        MHP_RETURN_IF_ERROR(configureFailpoints(env.failpointSpec));

    SweepPlan plan = std::move(env.plan);
    if (!env.tracePath.empty()) {
        StatusOr<std::shared_ptr<const TraceMap>> trace =
            TraceMap::open(env.tracePath);
        if (!trace.isOk())
            return trace.status();
        if ((*trace)->fingerprint() != env.traceFingerprint)
            return Status::corruptDataf(
                "trace %s fingerprint %016" PRIx64
                " does not match the coordinator's %016" PRIx64,
                env.tracePath.c_str(), (*trace)->fingerprint(),
                env.traceFingerprint);
        plan.trace = std::move(*trace);
    }

    runner = std::make_unique<SweepRunner>(std::move(plan));
    if (runner->planFingerprint() != env.planFingerprint)
        return Status::corruptDataf(
            "plan fingerprint drift: coordinator %016" PRIx64
            ", worker %016" PRIx64 " (mixed builds?)",
            env.planFingerprint, runner->planFingerprint());

    resilience.maxAttempts = env.maxAttempts;
    resilience.cellDeadlineMs = env.cellDeadlineMs;
    resilience.backoffBaseMs = env.backoffBaseMs;
    resilience.backoffCapMs = env.backoffCapMs;
    resilience.backoffSeed = env.backoffSeed;
    return Status::ok();
}

Status
Worker::workLoop()
{
    const ByteBuffer empty;
    MHP_RETURN_IF_ERROR(sendFrame(SweepMsg::Ready, empty));

    while (true) {
        WireFrame frame;
        const Status received =
            conn.recv(frame, std::max<uint64_t>(opt.heartbeatMs, 1));
        if (received.code() == StatusCode::DeadlineExceeded) {
            if (steadyNowMs() - lastHeardMs >
                static_cast<int64_t>(opt.ioTimeoutMs))
                return lostCoordinator(Status::deadlineExceeded(
                    "no frame while idle for " +
                    std::to_string(opt.ioTimeoutMs) + " ms"));
            MHP_RETURN_IF_ERROR(sendHeartbeatIfDue());
            continue;
        }
        if (received.code() == StatusCode::IoError)
            return lostCoordinator(received);
        if (!received.isOk())
            return received; // framing corruption: exit 1, not 4
        lastHeardMs = steadyNowMs();

        switch (static_cast<SweepMsg>(frame.type)) {
          case SweepMsg::Grant: {
            ActiveLease active;
            MHP_RETURN_IF_ERROR(decodeLease(frame.payload.data(),
                                            frame.payload.size(),
                                            active.lease));
            active.nextCell = active.lease.begin;
            bool shutdown = false;
            MHP_RETURN_IF_ERROR(processLease(active, shutdown));
            if (shutdown)
                return Status::ok();
            MHP_RETURN_IF_ERROR(sendFrame(SweepMsg::Ready, empty));
            break;
          }
          case SweepMsg::Trim:
            // Raced with our final Result of that lease; decline.
            MHP_RETURN_IF_ERROR(handleTrim(frame, nullptr));
            break;
          case SweepMsg::Shutdown:
            (void)sendFrame(SweepMsg::Bye, empty);
            return Status::ok();
          case SweepMsg::Heartbeat:
            break;
          default:
            return Status::corruptDataf(
                "coordinator sent unexpected %s",
                sweepMsgName(frame.type));
        }
    }
}

Status
Worker::processLease(ActiveLease &active, bool &shutdown)
{
    while (active.nextCell < active.lease.end) {
        MHP_RETURN_IF_ERROR(drainControl(active, shutdown));
        if (shutdown || active.nextCell >= active.lease.end)
            return Status::ok();

        const uint64_t cell = active.nextCell;
        const CellOutcome outcome =
            runner->runCellResilient(cell, resilience);
        if (outcome.status.isOk() && !outcome.cancelled) {
            ByteBuffer payload;
            encodeResult(payload, active.lease.leaseId, cell,
                         outcome.result);
            MHP_RETURN_IF_ERROR(sendFrame(SweepMsg::Result, payload));
            ++cellsDone;
        } else {
            WireQuarantine q;
            q.leaseId = active.lease.leaseId;
            q.cellIndex = cell;
            q.attempts = outcome.attempts;
            q.code = outcome.status.code();
            q.message = outcome.status.message();
            ByteBuffer payload;
            encodeQuarantine(payload, q);
            MHP_RETURN_IF_ERROR(
                sendFrame(SweepMsg::Quarantine, payload));
        }
        ++active.nextCell;
        MHP_RETURN_IF_ERROR(sendHeartbeatIfDue());
    }
    return Status::ok();
}

Status
Worker::drainControl(ActiveLease &active, bool &shutdown)
{
    while (true) {
        WireFrame frame;
        Status error = Status::ok();
        const FrameDecode decode = conn.poll(frame, error);
        if (decode == FrameDecode::NeedMore)
            return Status::ok();
        if (decode == FrameDecode::Corrupt) {
            if (error.code() == StatusCode::IoError)
                return lostCoordinator(error);
            return error;
        }
        lastHeardMs = steadyNowMs();
        switch (static_cast<SweepMsg>(frame.type)) {
          case SweepMsg::Trim:
            MHP_RETURN_IF_ERROR(handleTrim(frame, &active));
            break;
          case SweepMsg::Shutdown: {
            const ByteBuffer empty;
            (void)sendFrame(SweepMsg::Bye, empty);
            shutdown = true;
            return Status::ok();
          }
          case SweepMsg::Heartbeat:
            break;
          default:
            return Status::corruptDataf(
                "coordinator sent unexpected %s mid-lease",
                sweepMsgName(frame.type));
        }
    }
}

Status
Worker::handleTrim(const WireFrame &frame, ActiveLease *active)
{
    WireLease trim;
    MHP_RETURN_IF_ERROR(decodeLease(frame.payload.data(),
                                    frame.payload.size(), trim));

    WireLease ack;
    ack.leaseId = trim.leaseId;
    if (active != nullptr &&
        trim.leaseId == active->lease.leaseId) {
        // Never give back a cell we already started: the new end is
        // at least nextCell, at most our current end.
        const uint64_t newEnd =
            std::max(active->nextCell,
                     std::min(trim.end, active->lease.end));
        active->lease.end = newEnd;
        ack.begin = active->nextCell;
        ack.end = newEnd;
    } else {
        // Stale trim for a lease we already finished: echo it with
        // end = 0 so the coordinator just clears its pending flag.
        ack.begin = 0;
        ack.end = 0;
    }
    ByteBuffer payload;
    encodeLease(payload, ack);
    return sendFrame(SweepMsg::TrimAck, payload);
}

Status
Worker::sendFrame(SweepMsg type, const ByteBuffer &payload)
{
    const Status sent = conn.send(static_cast<uint8_t>(type), payload,
                                  opt.ioTimeoutMs);
    if (!sent.isOk())
        return lostCoordinator(sent);
    lastSentMs = steadyNowMs();
    return Status::ok();
}

Status
Worker::sendHeartbeatIfDue()
{
    if (steadyNowMs() - lastSentMs <
        static_cast<int64_t>(std::max<uint64_t>(opt.heartbeatMs, 1)))
        return Status::ok();
    ByteBuffer payload;
    encodeHeartbeat(payload, cellsDone);
    return sendFrame(SweepMsg::Heartbeat, payload);
}

} // namespace

Status
runSweepWorker(const SweepWorkerOptions &options)
{
    Worker worker(options);
    return worker.run();
}

} // namespace mhp
