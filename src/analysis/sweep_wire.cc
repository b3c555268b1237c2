#include "analysis/sweep_wire.h"

#include "trace/event_class.h"

namespace mhp {

namespace {

/** StatusCode travels as its enum ordinal; reject unknown values. */
bool
statusCodeFromWire(uint8_t v, StatusCode &code)
{
    switch (v) {
      case static_cast<uint8_t>(StatusCode::Ok):
      case static_cast<uint8_t>(StatusCode::InvalidArgument):
      case static_cast<uint8_t>(StatusCode::NotFound):
      case static_cast<uint8_t>(StatusCode::CorruptData):
      case static_cast<uint8_t>(StatusCode::IoError):
      case static_cast<uint8_t>(StatusCode::FailedPrecondition):
      case static_cast<uint8_t>(StatusCode::Cancelled):
      case static_cast<uint8_t>(StatusCode::DeadlineExceeded):
        code = static_cast<StatusCode>(v);
        return true;
      default:
        return false;
    }
}

Status
malformed(const char *what)
{
    return Status::corruptDataf("malformed %s payload", what);
}

} // namespace

const char *
sweepMsgName(uint8_t type)
{
    switch (static_cast<SweepMsg>(type)) {
      case SweepMsg::Hello: return "Hello";
      case SweepMsg::Plan: return "Plan";
      case SweepMsg::Ready: return "Ready";
      case SweepMsg::Grant: return "Grant";
      case SweepMsg::Result: return "Result";
      case SweepMsg::Quarantine: return "Quarantine";
      case SweepMsg::Heartbeat: return "Heartbeat";
      case SweepMsg::Trim: return "Trim";
      case SweepMsg::TrimAck: return "TrimAck";
      case SweepMsg::Shutdown: return "Shutdown";
      case SweepMsg::Bye: return "Bye";
    }
    return "unknown";
}

void
encodeHello(ByteBuffer &out, const WireHello &hello)
{
    out.u32(hello.protoVersion);
    out.u64(hello.pid);
}

Status
decodeHello(const uint8_t *data, size_t size, WireHello &hello)
{
    ByteCursor cursor(data, size);
    if (!cursor.u32(hello.protoVersion) || !cursor.u64(hello.pid) ||
        !cursor.atEnd())
        return malformed("Hello");
    return Status::ok();
}

void
encodePlan(ByteBuffer &out, const WirePlan &plan)
{
    const SweepPlan &p = plan.plan;
    out.str(plan.tracePath);
    out.u64(plan.traceFingerprint);
    out.u64(p.benchmarks.size());
    for (const std::string &name : p.benchmarks)
        out.str(name);
    out.u8(profileKindToByte(p.kind));
    out.u64(p.configs.size());
    for (const SweepConfig &config : p.configs) {
        out.str(config.label);
        encodeProfilerConfig(out, config.config);
    }
    out.u64(p.intervalLengths.size());
    for (uint64_t length : p.intervalLengths)
        out.u64(length);
    out.u64(p.intervals);
    out.u64(p.workloadSeed);
    out.u64(p.batchSize);
    out.u32(plan.maxAttempts);
    out.u64(plan.cellDeadlineMs);
    out.u64(plan.backoffBaseMs);
    out.u64(plan.backoffCapMs);
    out.u64(plan.backoffSeed);
    out.str(plan.failpointSpec);
    out.u64(plan.failpointSeed);
    out.u64(plan.planFingerprint);
}

Status
decodePlan(const uint8_t *data, size_t size, WirePlan &plan)
{
    ByteCursor cursor(data, size);
    SweepPlan &p = plan.plan;
    if (!cursor.str(plan.tracePath) ||
        !cursor.u64(plan.traceFingerprint))
        return malformed("Plan");

    uint64_t benchmarks;
    if (!cursor.u64(benchmarks) ||
        benchmarks > cursor.remaining() / 8)
        return malformed("Plan");
    p.benchmarks.resize(benchmarks);
    for (std::string &name : p.benchmarks) {
        if (!cursor.str(name))
            return malformed("Plan");
    }
    uint8_t kindByte;
    if (!cursor.u8(kindByte))
        return malformed("Plan");
    const std::optional<ProfileKind> kind = profileKindFromByte(kindByte);
    if (!kind)
        return Status::corruptData(
            "Plan payload carries an unknown profile kind");
    p.kind = *kind;

    uint64_t configs;
    if (!cursor.u64(configs) || configs > cursor.remaining() / 8)
        return malformed("Plan");
    p.configs.resize(configs);
    for (SweepConfig &config : p.configs) {
        if (!cursor.str(config.label) ||
            !decodeProfilerConfig(cursor, config.config))
            return malformed("Plan");
    }

    uint64_t lengths;
    if (!cursor.u64(lengths) || lengths > cursor.remaining() / 8)
        return malformed("Plan");
    p.intervalLengths.resize(lengths);
    for (uint64_t &length : p.intervalLengths) {
        if (!cursor.u64(length))
            return malformed("Plan");
    }

    if (!cursor.u64(p.intervals) || !cursor.u64(p.workloadSeed) ||
        !cursor.u64(p.batchSize) || !cursor.u32(plan.maxAttempts) ||
        !cursor.u64(plan.cellDeadlineMs) ||
        !cursor.u64(plan.backoffBaseMs) ||
        !cursor.u64(plan.backoffCapMs) ||
        !cursor.u64(plan.backoffSeed) ||
        !cursor.str(plan.failpointSpec) ||
        !cursor.u64(plan.failpointSeed) ||
        !cursor.u64(plan.planFingerprint) || !cursor.atEnd())
        return malformed("Plan");

    // Sanity bounds the constructor would otherwise abort on.
    if (p.benchmarks.empty() && plan.tracePath.empty())
        return Status::corruptData(
            "Plan payload has neither benchmarks nor a trace");
    if (p.configs.empty())
        return Status::corruptData("Plan payload has no configs");
    if (p.intervals == 0)
        return Status::corruptData("Plan payload has zero intervals");
    if (plan.maxAttempts == 0)
        return Status::corruptData("Plan payload has zero attempts");
    for (const SweepConfig &config : p.configs) {
        if (Status bad = config.config.check(); !bad.isOk()) {
            return Status::corruptData("Plan payload config invalid: " +
                                       bad.message());
        }
    }
    return Status::ok();
}

void
encodeLease(ByteBuffer &out, const WireLease &lease)
{
    out.u64(lease.leaseId);
    out.u64(lease.begin);
    out.u64(lease.end);
}

Status
decodeLease(const uint8_t *data, size_t size, WireLease &lease)
{
    ByteCursor cursor(data, size);
    if (!cursor.u64(lease.leaseId) || !cursor.u64(lease.begin) ||
        !cursor.u64(lease.end) || !cursor.atEnd())
        return malformed("lease");
    if (lease.end < lease.begin)
        return Status::corruptData("lease range is inverted");
    return Status::ok();
}

void
encodeResult(ByteBuffer &out, uint64_t leaseId, uint64_t cellIndex,
             const SweepCellResult &cell)
{
    out.u64(leaseId);
    serializeCellRecord(out, cellIndex, cell);
}

Status
decodeResult(const uint8_t *data, size_t size, uint64_t &leaseId,
             uint64_t &cellIndex, SweepCellResult &cell)
{
    ByteCursor cursor(data, size);
    if (!cursor.u64(leaseId) ||
        !deserializeCellRecord(cursor, cellIndex, cell))
        return malformed("Result");
    return Status::ok();
}

void
encodeQuarantine(ByteBuffer &out, const WireQuarantine &q)
{
    out.u64(q.leaseId);
    out.u64(q.cellIndex);
    out.u32(q.attempts);
    out.u8(static_cast<uint8_t>(q.code));
    out.str(q.message);
}

Status
decodeQuarantine(const uint8_t *data, size_t size, WireQuarantine &q)
{
    ByteCursor cursor(data, size);
    uint8_t code;
    if (!cursor.u64(q.leaseId) || !cursor.u64(q.cellIndex) ||
        !cursor.u32(q.attempts) || !cursor.u8(code) ||
        !cursor.str(q.message) || !cursor.atEnd())
        return malformed("Quarantine");
    if (!statusCodeFromWire(code, q.code) || q.code == StatusCode::Ok)
        return Status::corruptData(
            "Quarantine payload carries an invalid status code");
    return Status::ok();
}

void
encodeHeartbeat(ByteBuffer &out, uint64_t cellsDone)
{
    out.u64(cellsDone);
}

Status
decodeHeartbeat(const uint8_t *data, size_t size, uint64_t &cellsDone)
{
    ByteCursor cursor(data, size);
    if (!cursor.u64(cellsDone) || !cursor.atEnd())
        return malformed("Heartbeat");
    return Status::ok();
}

} // namespace mhp
