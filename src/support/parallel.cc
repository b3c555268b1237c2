#include "support/parallel.h"

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "support/env.h"
#include "support/panic.h"

namespace mhp {

unsigned
parallelWorkers(size_t n, unsigned threads)
{
    if (threads == 0) {
        const auto hw = std::thread::hardware_concurrency();
        threads = hw == 0 ? 1 : hw;
        const int64_t env = envInt("MHP_THREADS", 0);
        if (env > 0)
            threads = static_cast<unsigned>(env);
    }
    if (threads > n)
        threads = static_cast<unsigned>(n);
    return threads;
}

void
parallelFor(size_t n, const std::function<void(size_t)> &fn,
            unsigned threads, size_t grain)
{
    MHP_REQUIRE(static_cast<bool>(fn), "parallelFor needs a body");
    if (n == 0)
        return;

    threads = parallelWorkers(n, threads);

    if (threads <= 1) {
        for (size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }

    if (grain == 0) {
        // ~8 chunks per worker: coarse enough that the shared counter
        // is cold, fine enough to absorb uneven iteration costs.
        grain = std::max<size_t>(1, n / (static_cast<size_t>(threads) * 8));
    }

    std::atomic<size_t> next{0};
    auto worker = [&] {
        while (true) {
            const size_t base = next.fetch_add(grain);
            if (base >= n)
                return;
            const size_t end = std::min(base + grain, n);
            for (size_t i = base; i < end; ++i)
                fn(i);
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(threads - 1);
    for (unsigned t = 1; t < threads; ++t)
        pool.emplace_back(worker);
    worker(); // this thread participates
    for (auto &th : pool)
        th.join();
}

} // namespace mhp
