/**
 * @file
 * Minimal deterministic work-sharing parallel-for.
 *
 * Bench sweeps evaluate many independent (benchmark x configuration)
 * cells; each cell builds its own workload and profilers, so cells
 * share no mutable state and can run on separate threads. Results are
 * written into caller-owned slots indexed by the loop variable, so the
 * output is bit-identical to the serial run regardless of scheduling.
 *
 * MHP_THREADS overrides the thread count (1 = serial).
 */

#ifndef MHP_SUPPORT_PARALLEL_H
#define MHP_SUPPORT_PARALLEL_H

#include <cstddef>
#include <functional>

namespace mhp {

/**
 * The worker count parallelFor(n, fn, threads) runs with: threads, or
 * min(hardware concurrency, n) when threads is 0 (overridable via
 * MHP_THREADS), never more than n. For loops that keep per-worker
 * state: run parallelFor over this many workers, each claiming items.
 */
unsigned parallelWorkers(size_t n, unsigned threads = 0);

/**
 * Invoke fn(i) for every i in [0, n), possibly concurrently.
 *
 * Work is handed out in contiguous chunks of `grain` iterations per
 * atomic claim rather than one index at a time, so fine-grained loops
 * (thousands of cheap iterations) do not serialize on the shared
 * counter. Scheduling never affects results: bodies write only to
 * their own slots, so the output is bit-identical to the serial run.
 *
 * Chunks are claimed in increasing index order and run at once on the
 * thread that claimed them, so with grain 1 a body may wait on work
 * done by any lower index: that index is already running or done.
 *
 * @param n Number of iterations.
 * @param fn The body; must be safe to call concurrently for distinct
 *        i (typically: writes only to slot i of a preallocated
 *        output).
 * @param threads Worker count; 0 = min(hardware concurrency, n),
 *        overridable via MHP_THREADS.
 * @param grain Iterations claimed per chunk; 0 picks a default that
 *        gives each worker ~8 chunks for load balance. Use 1 for
 *        coarse, unevenly sized cells (e.g. whole sweep cells).
 */
void parallelFor(size_t n, const std::function<void(size_t)> &fn,
                 unsigned threads = 0, size_t grain = 0);

} // namespace mhp

#endif // MHP_SUPPORT_PARALLEL_H
