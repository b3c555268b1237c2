/**
 * @file
 * Abstract interfaces for producers and consumers of profiling events.
 *
 * A hardware profiler consumes an EventSource one tuple at a time; the
 * sources are synthetic workload models, trace files, or the mini-CPU
 * simulator's instrumentation probes.
 *
 * Batched consumers pull contiguous blocks through a StreamCursor
 * instead; the cursor is the narrow waist of the streaming data plane
 * (see docs/STREAMING.md). Cursor implementations either hand out
 * views of storage they already hold (TupleSpanSource, TraceMapSource
 * — zero-copy) or stage events into one reused bounded buffer
 * (EventSourceCursor), so memory stays O(chunk) no matter how long the
 * stream runs.
 */

#ifndef MHP_TRACE_SOURCE_H
#define MHP_TRACE_SOURCE_H

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "trace/tuple.h"

namespace mhp {

/** A non-owning view of a contiguous run of profiling events. */
using TupleSpan = std::span<const Tuple>;

/**
 * A pull-style stream of profiling tuples.
 *
 * Sources may be unbounded (synthetic generators) or finite (trace
 * files); consumers must check done() before calling next().
 */
class EventSource
{
  public:
    virtual ~EventSource() = default;

    /** Produce the next tuple. Undefined if done() is true. */
    virtual Tuple next() = 0;

    /** True when the stream is exhausted (always false if unbounded). */
    virtual bool done() const = 0;

    /** What the tuples represent (value vs. edge profiling). */
    virtual ProfileKind kind() const = 0;

    /** A short human-readable identifier for reports. */
    virtual std::string name() const = 0;
};

/** A push-style consumer of profiling tuples. */
class EventSink
{
  public:
    virtual ~EventSink() = default;

    /** Consume one tuple. */
    virtual void accept(const Tuple &t) = 0;
};

/**
 * Pump up to maxEvents tuples from a source into a sink.
 * @return The number of tuples actually transferred (less than
 *         maxEvents only if the source ran dry).
 */
inline uint64_t
pump(EventSource &source, EventSink &sink, uint64_t maxEvents)
{
    uint64_t moved = 0;
    while (moved < maxEvents && !source.done()) {
        sink.accept(source.next());
        ++moved;
    }
    return moved;
}

/**
 * A chunk-pull stream of profiling tuples: the batched counterpart of
 * EventSource and the input side of the streaming data plane.
 *
 * take() hands out contiguous blocks of at most maxEvents tuples. A
 * returned span stays valid only until the next take() call — cursors
 * backed by a reused staging buffer overwrite it — so consumers must
 * finish with one chunk before pulling the next. A short (but
 * non-empty) chunk does not mean the stream is dry; only an empty
 * span does, and take() keeps returning empty once exhausted.
 */
class StreamCursor
{
  public:
    virtual ~StreamCursor() = default;

    /**
     * Pull the next contiguous chunk of at most maxEvents tuples.
     * @return An empty span once the stream is exhausted.
     */
    virtual TupleSpan take(size_t maxEvents) = 0;
};

/**
 * StreamCursor over any per-event EventSource: stages up to `capacity`
 * events into one buffer allocated at construction and reused for
 * every chunk, so an unbounded stream is consumed in O(capacity)
 * memory with no per-chunk allocation.
 */
class EventSourceCursor final : public StreamCursor
{
  public:
    /**
     * @param source The wrapped stream (not owned; consumed).
     * @param capacity Staging-buffer size in events (chunk upper
     *        bound); the default is the runners' default batchSize.
     */
    explicit EventSourceCursor(EventSource &source, size_t capacity = 4096)
        : source(source), buffer(capacity == 0 ? 1 : capacity)
    {
    }

    TupleSpan
    take(size_t maxEvents) override
    {
        const size_t want = std::min(maxEvents, buffer.size());
        size_t n = 0;
        while (n < want && !source.done())
            buffer[n++] = source.next();
        return TupleSpan(buffer.data(), n);
    }

  private:
    EventSource &source;
    std::vector<Tuple> buffer;
};

} // namespace mhp

#endif // MHP_TRACE_SOURCE_H
