#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <thread>

#include "util/check.hpp"

namespace gpf {

namespace {

// Depth of parallel regions on this thread; > 0 means nested helper calls
// must run inline (a worker blocking on its own pool would deadlock).
thread_local int parallel_depth = 0;

std::size_t chunk_bound(std::size_t n, std::size_t chunks, std::size_t c) {
    return n / chunks * c + std::min(c, n % chunks);
}

} // namespace

struct thread_pool::job {
    const chunk_fn* fn = nullptr;
    std::size_t n = 0;
    std::size_t chunks = 0;
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> completed{0};
    std::exception_ptr error;
    std::mutex error_mutex;
};

struct thread_pool::impl {
    std::vector<std::thread> workers;
    std::mutex mutex;
    std::condition_variable work_cv; // new job published / stopping
    std::condition_variable done_cv; // a job completed its last chunk
    std::mutex region_mutex;         // serializes top-level parallel regions
    std::shared_ptr<job> current;
    std::uint64_t job_seq = 0;
    bool stop = false;
};

thread_pool::thread_pool() : impl_(new impl) {
    num_threads_ = default_thread_count();
    spawn_workers();
}

thread_pool::~thread_pool() {
    shutdown_workers();
    delete impl_;
}

thread_pool& thread_pool::instance() {
    static thread_pool pool;
    return pool;
}

std::size_t thread_pool::default_thread_count() {
    if (const char* env = std::getenv("GPF_THREADS")) {
        char* end = nullptr;
        const unsigned long v = std::strtoul(env, &end, 10);
        if (end != env && *end == '\0' && v >= 1) return static_cast<std::size_t>(v);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<std::size_t>(hw) : 1;
}

bool thread_pool::in_parallel_region() { return parallel_depth > 0; }

void thread_pool::set_num_threads(std::size_t n) {
    GPF_CHECK_MSG(!in_parallel_region(),
                  "set_num_threads may not be called inside a parallel region");
    if (n == 0) n = default_thread_count();
    std::lock_guard<std::mutex> region(impl_->region_mutex);
    if (n == num_threads_) return;
    shutdown_workers();
    num_threads_ = n;
    spawn_workers();
}

void thread_pool::spawn_workers() {
    impl_->stop = false;
    impl_->workers.reserve(num_threads_ - 1);
    for (std::size_t t = 1; t < num_threads_; ++t) {
        impl_->workers.emplace_back([this] { worker_loop(); });
    }
}

void thread_pool::shutdown_workers() {
    {
        std::lock_guard<std::mutex> lock(impl_->mutex);
        impl_->stop = true;
        impl_->work_cv.notify_all();
    }
    for (std::thread& w : impl_->workers) w.join();
    impl_->workers.clear();
    impl_->stop = false;
}

void thread_pool::worker_loop() {
    std::uint64_t seen = 0;
    for (;;) {
        std::shared_ptr<job> j;
        {
            std::unique_lock<std::mutex> lock(impl_->mutex);
            impl_->work_cv.wait(lock, [&] {
                return impl_->stop || (impl_->current && impl_->job_seq != seen);
            });
            if (impl_->stop) return;
            seen = impl_->job_seq;
            j = impl_->current;
        }
        work_on(*j);
    }
}

void thread_pool::work_on(job& j) {
    ++parallel_depth;
    for (;;) {
        const std::size_t c = j.next.fetch_add(1, std::memory_order_relaxed);
        if (c >= j.chunks) break;
        try {
            (*j.fn)(c, chunk_bound(j.n, j.chunks, c), chunk_bound(j.n, j.chunks, c + 1));
        } catch (...) {
            std::lock_guard<std::mutex> lock(j.error_mutex);
            if (!j.error) j.error = std::current_exception();
        }
        if (j.completed.fetch_add(1, std::memory_order_acq_rel) + 1 == j.chunks) {
            std::lock_guard<std::mutex> lock(impl_->mutex);
            impl_->done_cv.notify_all();
        }
    }
    --parallel_depth;
}

void thread_pool::for_chunks(std::size_t n, std::size_t chunks, const chunk_fn& fn) {
    if (n == 0) return;
    chunks = std::clamp<std::size_t>(chunks, 1, n);

    // Serial path: same chunk boundaries, same order, run inline. Used for
    // single-chunk work, a pool of one, and nested regions.
    if (chunks == 1 || num_threads_ == 1 || in_parallel_region()) {
        ++parallel_depth;
        try {
            for (std::size_t c = 0; c < chunks; ++c) {
                fn(c, chunk_bound(n, chunks, c), chunk_bound(n, chunks, c + 1));
            }
        } catch (...) {
            --parallel_depth;
            throw;
        }
        --parallel_depth;
        return;
    }

    std::lock_guard<std::mutex> region(impl_->region_mutex);
    auto j = std::make_shared<job>();
    j->fn = &fn;
    j->n = n;
    j->chunks = chunks;
    {
        std::lock_guard<std::mutex> lock(impl_->mutex);
        impl_->current = j;
        ++impl_->job_seq;
        impl_->work_cv.notify_all();
    }
    work_on(*j); // the caller participates
    {
        std::unique_lock<std::mutex> lock(impl_->mutex);
        impl_->done_cv.wait(
            lock, [&] { return j->completed.load(std::memory_order_acquire) == j->chunks; });
        impl_->current.reset();
    }
    if (j->error) std::rethrow_exception(j->error);
}

} // namespace gpf
