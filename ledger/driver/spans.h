/**
 * @file
 * In-memory span recorder for the ledger's traced runs.
 *
 * A span brackets one call into a layer's public function: name,
 * start, end, the enclosing span (parent), a request id shared by the
 * spans of one unit of work (an interval, a sweep cell, a service
 * round), and the number of items (events, bytes, intervals) the call
 * processed. Spans are appended to a per-thread Lane and only merged
 * and written when the run ends, so recording costs two clock reads
 * and a vector append. A null Lane records nothing: the untraced
 * passes run the identical code with every Span a no-op.
 */

#ifndef LEDGER_SPANS_H
#define LEDGER_SPANS_H

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace ledger {

/** One recorded call. */
struct SpanRecord
{
    const char *name = nullptr; ///< string literal, never freed
    uint64_t id = 0;
    uint64_t parent = 0; ///< 0 = root
    uint64_t request = 0;
    int64_t startNs = 0;
    int64_t endNs = 0;
    uint64_t items = 0;
    uint32_t lane = 0;
    uint32_t stage = 0;
};

/** One thread's span buffer and open-span stack. */
class Lane
{
  public:
    Lane(uint32_t index, uint32_t stage) : index(index), stage(stage) {}

    uint64_t open(const char *name, uint64_t request);
    void close(uint64_t id, uint64_t items);

    const std::vector<SpanRecord> &records() const { return spans; }

  private:
    uint32_t index;
    uint32_t stage;
    uint64_t next = 1;
    std::vector<SpanRecord> spans;
    std::vector<size_t> stack; ///< indexes of open spans
};

/** RAII span; a no-op when lane is null. */
class Span
{
  public:
    Span(Lane *lane, const char *name, uint64_t request = 0,
         uint64_t items = 0)
        : lane(lane), items(items)
    {
        if (lane != nullptr)
            id = lane->open(name, request);
    }
    ~Span()
    {
        if (lane != nullptr)
            lane->close(id, items);
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    void setItems(uint64_t n) { items = n; }

  private:
    Lane *lane;
    uint64_t items;
    uint64_t id = 0;
};

/** Aggregate of every span with one name. */
struct LayerTotals
{
    uint64_t calls = 0;
    uint64_t items = 0;
    double totalNs = 0;
    double selfNs = 0;
    std::vector<double> durationsNs;
};

/**
 * Owner of every Lane of a run. Lanes are created per (thread, stage)
 * before the threads start and never move, so a thread may hold its
 * Lane pointer for the whole stage.
 */
class Tracer
{
  public:
    Lane *newLane(uint32_t stage);

    /**
     * Per-name totals with self time (duration minus the time covered
     * by child spans). `stage` selects one stage's spans; a negative
     * value takes all of them.
     */
    std::map<std::string, LayerTotals> totals(int stage) const;

    /** Write every span plus the self-time table as JSON. */
    bool dump(const std::string &path,
              const std::vector<std::string> &stageNames) const;

    /** Print the self-time table (all stages) to stderr. */
    void printSelfTimes(const std::vector<std::string> &stageNames) const;

    size_t spanCount() const;

  private:
    std::vector<std::unique_ptr<Lane>> lanes;
};

/** Monotonic nanoseconds (steady_clock). */
inline int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

} // namespace ledger

#endif // LEDGER_SPANS_H
