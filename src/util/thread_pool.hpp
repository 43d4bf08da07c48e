// Shared worker pool and data-parallel helpers for the hot placement
// kernels (SpMV, density stamping, FFT passes, the paired CG passes).
//
// Determinism contract: the *arithmetic schedule* of every helper depends
// only on the problem size, never on the thread count. Threads only decide
// which worker executes a chunk; chunk boundaries, slab sizes and merge
// order are fixed, and floating-point reductions always merge partials in
// slab-index order. Consequently every threaded kernel produces bitwise
// identical results for any GPF_THREADS value — the property locked in by
// tests/test_parallel.cpp.
//
// Thread count: GPF_THREADS environment variable, defaulting to
// std::thread::hardware_concurrency(); 1 means the exact serial path (no
// workers are spawned, chunks run inline on the caller).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace gpf {

class thread_pool {
public:
    /// Process-wide pool. Lazily constructed; sized from GPF_THREADS.
    static thread_pool& instance();

    ~thread_pool();
    thread_pool(const thread_pool&) = delete;
    thread_pool& operator=(const thread_pool&) = delete;

    std::size_t num_threads() const { return num_threads_; }

    /// Resize the pool. 0 restores the default (GPF_THREADS or hardware
    /// concurrency). Must not be called from inside a parallel region.
    void set_num_threads(std::size_t n);

    /// True while the calling thread executes inside a parallel region
    /// (worker or participating caller). Nested regions run inline.
    static bool in_parallel_region();

    using chunk_fn = std::function<void(std::size_t chunk, std::size_t begin,
                                        std::size_t end)>;

    /// Run fn(chunk, begin, end) over `chunks` contiguous subranges that
    /// partition [0, n). Blocks until all chunks finish; the first
    /// exception thrown by any chunk is rethrown on the caller. Chunk
    /// boundaries depend only on (n, chunks). Nested calls and the
    /// single-thread pool execute all chunks inline, in chunk order, with
    /// identical boundaries — the arithmetic never changes, only where it
    /// runs.
    void for_chunks(std::size_t n, std::size_t chunks, const chunk_fn& fn);

    /// GPF_THREADS if set to a positive integer, else hardware_concurrency.
    static std::size_t default_thread_count();

private:
    thread_pool();

    struct job;
    void worker_loop();
    void work_on(job& j);
    void spawn_workers();
    void shutdown_workers();

    struct impl;
    impl* impl_;
    std::size_t num_threads_ = 1;
};

/// fn(i) for every i in [0, n), split into at most num_threads() chunks of
/// at least `grain` indices. Safe for any fn whose iterations are
/// independent; `grain` only bounds scheduling overhead and never affects
/// results.
template <class F>
void parallel_for(std::size_t n, F&& fn, std::size_t grain = 1) {
    thread_pool& pool = thread_pool::instance();
    if (grain == 0) grain = 1;
    const std::size_t max_chunks = (n + grain - 1) / grain;
    const std::size_t chunks = std::min(pool.num_threads(), max_chunks);
    pool.for_chunks(n, chunks,
                    [&fn](std::size_t, std::size_t begin, std::size_t end) {
                        for (std::size_t i = begin; i < end; ++i) fn(i);
                    });
}

/// fn(begin, end) over contiguous chunks covering [0, n). For elementwise
/// kernels where each index writes its own slot.
template <class F>
void parallel_for_chunks(std::size_t n, F&& fn, std::size_t grain = 1) {
    thread_pool& pool = thread_pool::instance();
    if (grain == 0) grain = 1;
    const std::size_t max_chunks = (n + grain - 1) / grain;
    const std::size_t chunks = std::min(pool.num_threads(), max_chunks);
    pool.for_chunks(n, chunks,
                    [&fn](std::size_t, std::size_t begin, std::size_t end) {
                        fn(begin, end);
                    });
}

/// Slab size of deterministic_sum: fixed so the reduction tree depends
/// only on n.
inline constexpr std::size_t deterministic_sum_slab = 2048;

/// Thread-count-invariant parallel sum of term(0) + ... + term(n-1):
/// left-to-right partial sums over fixed-size slabs, merged serially in
/// slab order. Bitwise reproducible for any thread count (fixed-order
/// reduction — no atomics on doubles).
template <class F>
double deterministic_sum(std::size_t n, F&& term) {
    if (n == 0) return 0.0;
    const std::size_t slabs =
        (n + deterministic_sum_slab - 1) / deterministic_sum_slab;
    if (slabs == 1) {
        double acc = 0.0;
        for (std::size_t i = 0; i < n; ++i) acc += term(i);
        return acc;
    }
    std::vector<double> partial(slabs, 0.0);
    parallel_for(slabs, [&](std::size_t s) {
        const std::size_t begin = s * deterministic_sum_slab;
        const std::size_t end = std::min(n, begin + deterministic_sum_slab);
        double acc = 0.0;
        for (std::size_t i = begin; i < end; ++i) acc += term(i);
        partial[s] = acc;
    });
    double acc = 0.0;
    for (const double p : partial) acc += p;
    return acc;
}

} // namespace gpf
