/**
 * @file
 * The service pipeline and the service_wal workload: a durable
 * `mhprofd --state-dir --snapshot-dir` fed by closed-loop ingest
 * connections (one tenant each, 4096-event Events frames, the next
 * frame only after the ack) while one more connection issues Snapshot
 * queries against the first tenant.
 */

#include <sys/stat.h>

#include <csignal>
#include <cstdio>
#include <memory>
#include <thread>

#include "analysis/profile_io.h"
#include "analysis/snapshot_text.h"
#include "core/factory.h"
#include "core/perfect_profiler.h"
#include "service/daemon.h"
#include "service/service_wire.h"
#include "service/wal.h"
#include "stages.h"
#include "support/bytes.h"
#include "support/wire.h"
#include "workload/benchmarks.h"

namespace ledger {

namespace {

constexpr int kSetupReps = 5;
constexpr uint64_t kIoTimeoutMs = 30'000;

/** Ingest connections (one tenant each); one more connection queries. */
constexpr size_t kTenants = 3;

ServiceTenants
workloadTenants(uint64_t seed)
{
    ServiceTenants tenants;
    tenants.config = mhp::bestMultiHashConfig(10'000, 0.01);
    for (size_t i = 0; i < kTenants; ++i) {
        tenants.names.push_back("ledger" + std::to_string(i));
        tenants.benchmarks.push_back("gcc");
        tenants.seeds.push_back(seed * kTenants + i + 1);
    }
    return tenants;
}

uint64_t
snapshotDigest(const mhp::IntervalSnapshot &snap)
{
    mhp::ByteBuffer bytes;
    for (const mhp::CandidateCount &c : snap) {
        bytes.u64(c.tuple.first);
        bytes.u64(c.tuple.second);
        bytes.u64(c.count);
    }
    return mhp::fnv1a64(bytes.data(), bytes.size());
}

uint64_t
fileSize(const std::string &path)
{
    struct stat st{};
    return ::stat(path.c_str(), &st) == 0
               ? static_cast<uint64_t>(st.st_size)
               : 0;
}

mhp::WireTenantHello
helloFor(const ServiceTenants &tenants, size_t i)
{
    mhp::WireTenantHello hello;
    hello.tenant = tenants.names[i];
    hello.kind = static_cast<uint8_t>(mhp::ProfileKind::Value);
    hello.config = tenants.config;
    return hello;
}

/** Send one frame and wait for the reply. */
mhp::Status
roundTrip(mhp::WireConn &conn, mhp::ServiceMsg type,
          const mhp::ByteBuffer &payload, mhp::WireFrame &reply)
{
    MHP_RETURN_IF_ERROR(
        conn.send(static_cast<uint8_t>(type), payload, kIoTimeoutMs));
    return conn.recv(reply, kIoTimeoutMs);
}

/** One live mhprofd plus the benchmark's connections to it. */
struct Daemon
{
    int pid = -1;
    std::string dir;
    std::vector<mhp::WireConn> ingest;
    mhp::WireConn query;

    Daemon() = default;
    ~Daemon() { stop(); }
    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    /** Close the connections, SIGTERM, and reap (clean drain). */
    ChildResult
    stop()
    {
        ChildResult exit;
        ingest.clear();
        query.close();
        if (pid > 0) {
            ::kill(pid, SIGTERM);
            reapChild(pid, exit);
            pid = -1;
        }
        return exit;
    }
};

mhp::StatusOr<mhp::WireConn>
connectWithRetry(const std::string &path)
{
    const double deadline = nowS() + 30;
    for (;;) {
        auto conn = mhp::WireConn::connect(path, mhp::kServiceFrameCap);
        if (conn.isOk() || nowS() > deadline)
            return conn;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
}

/**
 * Set-up: spawn the durable daemon (cold recovery), admit every
 * tenant on its own connection, open the query connection, and
 * generate the tenants' event pools.
 */
mhp::Status
startDaemon(const Options &options, ServiceTenants &tenants,
            Daemon &daemon)
{
    daemon.dir = options.workDir + "/svc";
    removeTree(daemon.dir);
    if (!makeDirs(daemon.dir + "/snap"))
        return mhp::Status::ioError("cannot create " + daemon.dir);
    daemon.pid = spawnChild(
        {options.toolsDir + "/mhprofd", "--socket=d.sock",
         "--state-dir=state", "--snapshot-dir=snap"},
        daemon.dir, daemon.dir + "/daemon.out",
        daemon.dir + "/daemon.err");
    if (daemon.pid < 0)
        return mhp::Status::ioError("cannot spawn mhprofd");
    const std::string sock = daemon.dir + "/d.sock";
    for (size_t i = 0; i < tenants.names.size(); ++i) {
        auto conn = connectWithRetry(sock);
        if (!conn.isOk())
            return conn.status();
        mhp::ByteBuffer payload;
        mhp::encodeHello(payload, helloFor(tenants, i));
        mhp::WireFrame reply;
        MHP_RETURN_IF_ERROR(
            roundTrip(*conn, mhp::ServiceMsg::Hello, payload, reply));
        if (reply.type != static_cast<uint8_t>(mhp::ServiceMsg::HelloAck))
            return mhp::Status::unavailable(
                "tenant " + tenants.names[i] + " not admitted: " +
                mhp::serviceMsgName(reply.type));
        daemon.ingest.push_back(std::move(*conn));
    }
    auto query = connectWithRetry(sock);
    if (!query.isOk())
        return query.status();
    daemon.query = std::move(*query);
    tenants.generate(nullptr);
    return mhp::Status::ok();
}

/** Client-side tallies of one ingest connection. */
struct IngestTally
{
    uint64_t frames = 0;
    uint64_t acked = 0;
    uint64_t pushbacks = 0;
    uint64_t errors = 0;
    uint64_t sentEvents = 0;
    uint64_t accepted = 0;
    uint64_t dropped = 0;
    std::vector<double> rttMs;
    mhp::TenantStatsRow farewell;
    bool farewellOk = false;
};

/** Closed loop: send the next frame only after the previous ack. */
void
ingestLoop(mhp::WireConn &conn, const ServiceTenants &tenants, size_t i,
           double until, IngestTally &tally)
{
    mhp::ByteBuffer payload;
    while (nowS() < until) {
        const mhp::TupleSpan events = tenants.frame(i, tally.frames);
        payload = mhp::ByteBuffer();
        mhp::encodeEvents(payload, tally.frames + 1, events);
        mhp::WireFrame reply;
        const double t0 = nowS();
        const mhp::Status st =
            roundTrip(conn, mhp::ServiceMsg::Events, payload, reply);
        const double rtt = nowS() - t0;
        ++tally.frames;
        tally.sentEvents += events.size();
        mhp::WireEventsAck ack;
        const bool isAck =
            reply.type == static_cast<uint8_t>(mhp::ServiceMsg::EventsAck);
        const bool isPushback =
            reply.type == static_cast<uint8_t>(mhp::ServiceMsg::Pushback);
        if (!st.isOk() || !(isAck || isPushback) ||
            !mhp::decodeEventsAck(reply.payload.data(),
                                  reply.payload.size(), ack)
                 .isOk()) {
            ++tally.errors;
            return;
        }
        tally.rttMs.push_back(rtt * 1000.0);
        tally.accepted += ack.accepted;
        tally.dropped += ack.dropped;
        if (isAck) {
            ++tally.acked;
        } else {
            ++tally.pushbacks;
            std::this_thread::sleep_for(
                std::chrono::milliseconds(ack.retryAfterMs));
        }
    }
    // Goodbye drains the tenant's queue; its ack carries the final
    // accounting row.
    mhp::WireFrame reply;
    if (roundTrip(conn, mhp::ServiceMsg::Goodbye, mhp::ByteBuffer(), reply)
            .isOk() &&
        reply.type == static_cast<uint8_t>(mhp::ServiceMsg::GoodbyeAck))
        tally.farewellOk =
            mhp::decodeGoodbyeAck(reply.payload.data(),
                                  reply.payload.size(), tally.farewell)
                .isOk();
}

/** One answered Snapshot query, checked after the run. */
struct QueryAnswer
{
    uint64_t intervals = 0;
    uint64_t digest = 0;
};

/** Closed loop of Snapshot queries against tenant 0 until `done`. */
void
queryLoop(mhp::WireConn &conn, const std::string &tenant,
          const std::atomic<bool> &done, std::vector<double> &rttMs,
          std::vector<QueryAnswer> &answers, uint64_t &errors)
{
    mhp::WireQuery request;
    request.what = static_cast<uint8_t>(mhp::ServiceQueryWhat::Snapshot);
    request.tenant = tenant;
    mhp::ByteBuffer payload;
    mhp::encodeQuery(payload, request);
    while (!done.load(std::memory_order_relaxed)) {
        mhp::WireFrame reply;
        const double t0 = nowS();
        const mhp::Status st =
            roundTrip(conn, mhp::ServiceMsg::Query, payload, reply);
        const double rtt = nowS() - t0;
        mhp::WireSnapshot snap;
        if (!st.isOk() ||
            reply.type != static_cast<uint8_t>(mhp::ServiceMsg::Snapshot) ||
            !mhp::decodeSnapshot(reply.payload.data(),
                                 reply.payload.size(), snap,
                                 mhp::kServiceFrameCap / 24 + 1)
                 .isOk()) {
            ++errors;
            return;
        }
        rttMs.push_back(rtt * 1000.0);
        answers.push_back({snap.intervals, snapshotDigest(snap.candidates)});
    }
}

} // namespace

void
ServiceTenants::generate(Lane *lane)
{
    pools.assign(names.size(), {});
    for (size_t i = 0; i < names.size(); ++i) {
        std::unique_ptr<mhp::EventSource> source =
            mhp::makeValueWorkload(benchmarks[i], seeds[i]);
        mhp::EventSourceCursor cursor(*source, frameEvents);
        for (uint64_t f = 0; f < poolFrames; ++f) {
            Span span(lane, "workload.gen", i, frameEvents);
            const mhp::TupleSpan chunk =
                cursor.take(static_cast<size_t>(frameEvents));
            pools[i].insert(pools[i].end(), chunk.begin(), chunk.end());
        }
    }
}

mhp::TupleSpan
ServiceTenants::frame(size_t i, uint64_t k) const
{
    const uint64_t f = k % poolFrames;
    return mhp::TupleSpan(pools[i].data() + f * frameEvents,
                          static_cast<size_t>(frameEvents));
}

bool
tenantReference(const ServiceTenants &tenants, size_t tenant,
                uint64_t frames, const std::string &outPath,
                std::vector<mhp::IntervalSnapshot> *snapshots)
{
    const mhp::ProfilerConfig &config = tenants.config;
    std::unique_ptr<mhp::HardwareProfiler> profiler =
        mhp::makeProfiler(config);
    mhp::ProfileWriter writer(outPath, mhp::ProfileKind::Value,
                              config.intervalLength,
                              config.thresholdCount());
    bool ok = writer.ok();
    uint64_t inInterval = 0;
    for (uint64_t k = 0; k < frames && ok; ++k) {
        mhp::TupleSpan events = tenants.frame(tenant, k);
        while (!events.empty() && ok) {
            const size_t n = static_cast<size_t>(std::min<uint64_t>(
                events.size(), config.intervalLength - inInterval));
            profiler->onEvents(events.data(), n);
            events = events.subspan(n);
            inInterval += n;
            if (inInterval == config.intervalLength) {
                inInterval = 0;
                mhp::IntervalSnapshot snap = profiler->endInterval();
                ok = writer.writeInterval(snap).isOk();
                if (snapshots != nullptr)
                    snapshots->push_back(std::move(snap));
            }
        }
    }
    return writer.close().isOk() && ok;
}

double
tenantErrorPct(const ServiceTenants &tenants, size_t tenant, Lane *lane)
{
    const mhp::ProfilerConfig &config = tenants.config;
    const uint64_t length = config.intervalLength;
    const uint64_t threshold = config.thresholdCount();
    std::unique_ptr<mhp::HardwareProfiler> profiler =
        mhp::makeProfiler(config);
    mhp::PerfectProfiler oracle(threshold);
    mhp::RunResult run;
    const std::vector<mhp::Tuple> &pool = tenants.pools[tenant];
    for (size_t at = 0; at + length <= pool.size(); at += length) {
        for (size_t c = at; c < at + length; c += 4096) {
            const size_t n = std::min<size_t>(4096, at + length - c);
            {
                Span span(lane, "oracle.ingest", tenant, n);
                oracle.onEvents(pool.data() + c, n);
            }
            Span span(lane, "core.ingest", tenant, n);
            profiler->onEvents(pool.data() + c, n);
        }
        std::unordered_map<mhp::Tuple, uint64_t, mhp::TupleHash> truth;
        {
            Span span(lane, "oracle.take", tenant);
            truth = oracle.takeCounts();
            span.setItems(truth.size());
        }
        mhp::IntervalSnapshot snap;
        {
            Span span(lane, "core.close", tenant);
            snap = profiler->endInterval();
            span.setItems(snap.size());
        }
        Span span(lane, "score.interval", tenant);
        run.intervals.push_back(mhp::scoreInterval(truth, snap, threshold));
    }
    return run.averageErrorPercent();
}

ServicePass
servicePass(const ServiceTenants &tenants, uint64_t rounds,
            const std::string &stateDir, const std::string &snapDir,
            Lane *lane)
{
    ServicePass pass;
    removeTree(stateDir);
    removeTree(snapDir);
    if (!makeDirs(stateDir) || !makeDirs(snapDir))
        return pass;
    const double start = nowS();
    Span passSpan(lane, "service.pass");
    mhp::ServiceOptions serviceOptions;
    serviceOptions.stateDir = stateDir;
    serviceOptions.snapshotDir = snapDir;
    mhp::ServiceCore core(serviceOptions);
    mhp::ServiceState state(stateDir, serviceOptions.checkpointWalBytes);
    core.attachState(&state);
    {
        Span span(lane, "wal.recover");
        mhp::RecoveryReport report;
        if (!state.recover(core, report).isOk())
            return pass;
    }
    std::vector<uint64_t> ids;
    for (size_t i = 0; i < tenants.names.size(); ++i) {
        Span span(lane, "service.admit", i);
        auto ack = core.connectTenant(helloFor(tenants, i));
        if (!ack.isOk())
            return pass;
        ids.push_back(ack->tenantId);
    }
    pass.framesSent.assign(ids.size(), 0);
    const uint64_t maxBatch = serviceOptions.maxFrameBytes / 16 + 1;
    mhp::WireQuery query;
    query.what = static_cast<uint8_t>(mhp::ServiceQueryWhat::Snapshot);
    for (uint64_t r = 0; r < rounds; ++r) {
        Span round(lane, "service.round", r);
        for (size_t i = 0; i < ids.size(); ++i) {
            const mhp::TupleSpan events = tenants.frame(i, r);
            mhp::ByteBuffer payload;
            {
                Span span(lane, "wire.encode", r, events.size());
                mhp::encodeEvents(payload, r + 1, events);
            }
            mhp::WireEvents batch;
            mhp::Status decoded;
            {
                Span span(lane, "wire.decode", r, events.size());
                decoded = mhp::decodeEvents(payload.data(), payload.size(),
                                            batch, maxBatch);
            }
            ++pass.frames;
            ++pass.framesSent[i];
            if (!decoded.isOk()) {
                ++pass.errors;
                continue;
            }
            mhp::StatusOr<mhp::WireEventsAck> ack = [&] {
                Span span(lane, "service.offer", r, events.size());
                return core.ingest(
                    ids[i], r + 1,
                    mhp::TupleSpan(batch.events.data(),
                                   batch.events.size()),
                    static_cast<uint64_t>(nowS() * 1000.0));
            }();
            if (!ack.isOk()) {
                ++pass.errors;
                continue;
            }
            pass.accepted += ack->accepted;
            if (ack->retryAfterMs != 0)
                ++pass.pushbacks;
            else
                ++pass.acked;
        }
        {
            Span span(lane, "service.stats", r);
            for (const mhp::TenantStatsRow &row : core.stats())
                pass.queuedMax = std::max(pass.queuedMax,
                                          row.accepted - row.ingested);
        }
        const std::string wal =
            stateDir + "/wal-" + std::to_string(state.epoch()) + ".log";
        const uint64_t before = fileSize(wal);
        {
            Span span(lane, "wal.commit", r);
            if (!state.commit().isOk())
                ++pass.errors;
        }
        pass.walBytes += fileSize(wal) - before;
        ++pass.commits;
        if (state.wantCheckpoint()) {
            Span span(lane, "wal.checkpoint", r);
            if (!state.checkpoint(core).isOk())
                ++pass.errors;
        }
        {
            Span span(lane, "service.tick", r);
            span.setItems(core.tick());
        }
        {
            Span span(lane, "service.query", r);
            if (!core.query(ids[0], query).isOk())
                ++pass.errors;
        }
    }
    for (size_t i = 0; i < ids.size(); ++i) {
        Span span(lane, "service.finish", i);
        span.setItems(core.finishTenant(ids[i]));
    }

    // Accounting identities: arrived == accepted + dropped per tenant,
    // and every frame answered by an ack or a pushback.
    uint64_t arrived = 0;
    for (const mhp::TenantStatsRow &row : core.stats()) {
        arrived += row.arrived;
        if (row.arrived != row.accepted + row.dropped())
            pass.identityError += "tenant " + row.name +
                                  ": arrived != accepted + dropped; ";
    }
    if (pass.acked + pass.pushbacks + pass.errors != pass.frames)
        pass.identityError += "acked + pushbacks != frames sent; ";
    pass.acceptedFrac = arrived == 0 ? 0
                                     : static_cast<double>(pass.accepted) /
                                           static_cast<double>(arrived);
    {
        Span span(lane, "service.drain_all");
        if (!core.drainAll(snapDir).isOk() || !state.commit().isOk())
            ++pass.errors;
    }
    pass.seconds = nowS() - start;
    pass.ok = pass.errors == 0;
    return pass;
}

Result
runService(const Options &options)
{
    Result result;
    ServiceTenants tenants = workloadTenants(options.seed);

    std::vector<double> setup;
    Daemon daemon;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        if (rep > 0)
            daemon.stop();
        const double t0 = nowS();
        const mhp::Status started = startDaemon(options, tenants, daemon);
        if (!started.isOk()) {
            result.mismatch("daemon set-up failed: " + started.toString());
            return result;
        }
        setup.push_back(nowS() - t0);
    }

    // Timed: the ingest connections stream until the deadline, then
    // say Goodbye (the daemon drains each queue); the query connection
    // runs alongside until every ingest connection is done.
    std::vector<IngestTally> tallies(tenants.names.size());
    std::vector<double> queryMs;
    std::vector<QueryAnswer> answers;
    uint64_t queryErrors = 0;
    std::atomic<bool> ingestDone{false};
    const double start = nowS();
    const double until = start + options.seconds;
    std::thread querier([&] {
        queryLoop(daemon.query, tenants.names[0], ingestDone, queryMs,
                  answers, queryErrors);
    });
    std::vector<std::thread> writers;
    for (size_t i = 0; i < tenants.names.size(); ++i)
        writers.emplace_back([&, i] {
            ingestLoop(daemon.ingest[i], tenants, i, until, tallies[i]);
        });
    for (std::thread &t : writers)
        t.join();
    const double elapsed = nowS() - start;
    ingestDone.store(true);
    querier.join();

    const ChildResult exit = daemon.stop();
    if (exit.exitCode != 0)
        result.mismatch("mhprofd exited " + std::to_string(exit.exitCode));

    // Checks: client-side accounting, the daemon's farewell rows, each
    // drained snapshot against the reference profile, and every query
    // answer against the reference interval it names.
    std::vector<double> ackMs;
    uint64_t accepted = 0;
    for (size_t i = 0; i < tallies.size(); ++i) {
        const IngestTally &t = tallies[i];
        result.attempted += t.frames;
        result.failOps(t.errors, tenants.names[i] + " frames unanswered");
        if (t.accepted != t.sentEvents || t.dropped != 0)
            result.failOps(t.frames, tenants.names[i] +
                                         " accepted != sent events");
        if (t.acked + t.pushbacks + t.errors != t.frames)
            result.mismatch("acked + pushbacks != frames sent");
        const mhp::TenantStatsRow &row = t.farewell;
        if (!t.farewellOk || row.arrived != row.accepted + row.dropped() ||
            row.accepted != t.sentEvents || row.ingested != row.accepted)
            result.mismatch(tenants.names[i] + " farewell accounting");
        accepted += t.accepted;
        ackMs.insert(ackMs.end(), t.rttMs.begin(), t.rttMs.end());

        std::vector<mhp::IntervalSnapshot> snaps;
        const std::string ref =
            options.workDir + "/ref" + std::to_string(i) + ".mhp";
        uint64_t want = 0, got = 1;
        if (!tenantReference(tenants, i, t.frames, ref,
                             i == 0 ? &snaps : nullptr) ||
            !fileDigest(ref, want) ||
            !fileDigest(daemon.dir + "/snap/" + tenants.names[i] + ".mhp",
                        got) ||
            want != got)
            result.failOps(1, tenants.names[i] +
                                  " drained snapshot differs from the "
                                  "reference profile");
        if (i == 0) {
            uint64_t wrong = 0;
            for (const QueryAnswer &a : answers) {
                const uint64_t expect =
                    a.intervals == 0
                        ? snapshotDigest({})
                        : a.intervals <= snaps.size()
                              ? snapshotDigest(mhp::applySnapshotQuery(
                                    snaps[a.intervals - 1], mhp::Query(),
                                    0))
                              : ~a.digest;
                if (expect != a.digest)
                    ++wrong;
            }
            result.failOps(wrong, "snapshot answers differing from the "
                                  "reference interval");
        }
    }
    result.attempted += answers.size() + queryErrors;
    result.failOps(queryErrors, "queries unanswered");

    // The soak-smoke invariant at the tool surface: one pool pass of
    // each tenant, run through mhprof_run, equals the reference
    // profile of the same events; its printed error is this run's
    // profile error.
    double errorSum = 0;
    const uint64_t poolIntervals =
        tenants.frameEvents * tenants.poolFrames /
        tenants.config.intervalLength;
    for (size_t i = 0; i < tenants.names.size(); ++i) {
        const std::string tool =
            options.workDir + "/tool" + std::to_string(i) + ".mhp";
        const std::string ref =
            options.workDir + "/pool" + std::to_string(i) + ".mhp";
        const ChildResult run = runChild(
            {options.toolsDir + "/mhprof_run",
             "--benchmark=" + tenants.benchmarks[i],
             "--seed=" + std::to_string(tenants.seeds[i]),
             "--intervals=" + std::to_string(poolIntervals),
             "--interval-length=10000", "--threshold=1", "--out=" + tool},
            options.workDir + "/tool");
        uint64_t want = 0, got = 1;
        if (run.exitCode != 0 ||
            !tenantReference(tenants, i, tenants.poolFrames, ref,
                             nullptr) ||
            !fileDigest(ref, want) || !fileDigest(tool, got) ||
            want != got)
            result.mismatch(tenants.names[i] +
                            ": mhprof_run differs from the reference");
        errorSum += tenantErrorPct(tenants, i, nullptr);
    }

    result.set("setup_s", median(setup), "s");
    result.set("events_per_s", static_cast<double>(accepted) / elapsed,
               "events/s");
    result.set("peak_rss_mb", exit.maxRssMb, "MB");
    result.set("profile_accuracy_pct",
               100.0 - errorSum /
                           static_cast<double>(tenants.names.size()),
               "%");
    result.set("latency_p50_ms", median(ackMs), "ms");
    result.set("latency_p99_ms", quantile(ackMs, 0.99), "ms");
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.4f", median(queryMs));
    result.info["query_p50_ms"] = buf;
    std::snprintf(buf, sizeof(buf), "%.4f", quantile(queryMs, 0.99));
    result.info["query_p99_ms"] = buf;
    result.info["queries"] = std::to_string(answers.size());
    result.info["frames"] = std::to_string(ackMs.size());
    return result;
}

} // namespace ledger
