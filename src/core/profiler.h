/**
 * @file
 * The abstract hardware-profiler interface and its snapshot type.
 *
 * A profiler consumes one tuple per profiling event; at the end of each
 * profile interval, endInterval() reports the candidate tuples the
 * hardware captured (the contents of its accumulator table that are at
 * or above the candidate threshold) and prepares the structures for the
 * next interval.
 */

#ifndef MHP_CORE_PROFILER_H
#define MHP_CORE_PROFILER_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "support/bytes.h"
#include "support/status.h"
#include "trace/source.h"
#include "trace/tuple.h"

namespace mhp {

class CounterTable;
class AccumulatorTable;

/**
 * Mutable views of a profiler's physical counter state, exposed for
 * soft-error injection (sim/fault_injector). Pointers are owned by the
 * profiler and stay valid for its lifetime.
 */
struct FaultTargets
{
    std::vector<CounterTable *> counterTables;
    AccumulatorTable *accumulator = nullptr;
};

/** One captured candidate: a tuple and its measured frequency. */
struct CandidateCount
{
    Tuple tuple;
    uint64_t count = 0;

    friend bool operator==(const CandidateCount &,
                           const CandidateCount &) = default;
};

/**
 * The candidates a profiler captured in one interval, sorted by
 * descending count (ties broken by tuple members for determinism).
 */
using IntervalSnapshot = std::vector<CandidateCount>;

/** Sort a snapshot into its canonical order. */
void canonicalize(IntervalSnapshot &snapshot);

/** Abstract interval-based hardware profiler. */
class HardwareProfiler : public EventSink
{
  public:
    ~HardwareProfiler() override = default;

    /** Observe one profiling event. */
    virtual void onEvent(const Tuple &t) = 0;

    /**
     * Observe a contiguous batch of profiling events, in array order.
     *
     * Semantically identical to calling onEvent() once per tuple:
     * interval snapshots never depend on how a stream is split into
     * calls. The base implementation is that loop. The hash profilers
     * and the stratified sampler invert it — their one ingest path is
     * an onEvents() block kernel, and onEvent(t) is onEvents(&t, 1);
     * tests/core/test_reference_model.cc checks those kernels at
     * several block sizes against straight-line per-event specs.
     */
    virtual void
    onEvents(const Tuple *events, size_t count)
    {
        for (size_t i = 0; i < count; ++i)
            onEvent(events[i]);
    }

    /** EventSink adapter. */
    void accept(const Tuple &t) final { onEvent(t); }

    /**
     * Close the current interval: report the captured candidates and
     * reset per-interval state (hash tables flushed; accumulator
     * handled per the retaining policy).
     */
    virtual IntervalSnapshot endInterval() = 0;

    /** Discard all state, including anything retained across intervals. */
    virtual void reset() = 0;

    /** Short architecture name for reports (e.g. "mh4-C1R0P1"). */
    virtual std::string name() const = 0;

    /** Total hardware storage this configuration requires, in bytes. */
    virtual uint64_t areaBytes() const = 0;

    /**
     * The profiler's physical state for fault injection; profilers
     * with no injectable hardware state (oracles, software baselines)
     * return the default empty set.
     */
    virtual FaultTargets faultTargets() { return {}; }

    /**
     * Serialize the profiler's mutable mid-stream state (counter
     * values, accumulator entries — everything endInterval() and the
     * ingest path read) into `out`, such that loadState() on a fresh
     * instance built from the same config reproduces bit-identical
     * future behaviour. Configuration is NOT included; the caller
     * persists it separately and rebuilds the instance first.
     *
     * The service checkpointer (src/service/wal.h) relies on this for
     * crash recovery; profilers that never serve as daemon tenants
     * keep the default FailedPrecondition.
     */
    virtual Status
    saveState(ByteBuffer &out) const
    {
        (void)out;
        return Status::failedPrecondition(
            name() + " does not support state serialization");
    }

    /**
     * Restore state captured by saveState() on an identically
     * configured instance. CorruptData when the bytes do not match
     * this configuration's shape.
     */
    virtual Status
    loadState(ByteCursor &in)
    {
        (void)in;
        return Status::failedPrecondition(
            name() + " does not support state serialization");
    }
};

inline void
canonicalize(IntervalSnapshot &snapshot)
{
    std::sort(snapshot.begin(), snapshot.end(),
              [](const CandidateCount &a, const CandidateCount &b) {
                  if (a.count != b.count)
                      return a.count > b.count;
                  if (a.tuple.first != b.tuple.first)
                      return a.tuple.first < b.tuple.first;
                  return a.tuple.second < b.tuple.second;
              });
}

} // namespace mhp

#endif // MHP_CORE_PROFILER_H
