// Unit tests for the worker pool and the data-parallel helpers — the
// execution-layer contracts (coverage, exceptions, nesting) that the
// kernel equivalence tests in test_parallel.cpp build on.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "util/thread_pool.hpp"

namespace gpf {
namespace {

/// Restores the pool size on scope exit so tests cannot leak a thread
/// count into the rest of the suite.
class scoped_threads {
public:
    explicit scoped_threads(std::size_t n)
        : previous_(thread_pool::instance().num_threads()) {
        thread_pool::instance().set_num_threads(n);
    }
    ~scoped_threads() { thread_pool::instance().set_num_threads(previous_); }

private:
    std::size_t previous_;
};

TEST(ThreadPool, DefaultThreadCountIsPositive) {
    EXPECT_GE(thread_pool::default_thread_count(), 1u);
    EXPECT_GE(thread_pool::instance().num_threads(), 1u);
}

TEST(ThreadPool, SetNumThreadsZeroRestoresDefault) {
    scoped_threads guard(3);
    EXPECT_EQ(thread_pool::instance().num_threads(), 3u);
    thread_pool::instance().set_num_threads(0);
    EXPECT_EQ(thread_pool::instance().num_threads(),
              thread_pool::default_thread_count());
}

TEST(ThreadPool, EmptyRangeNeverInvokesBody) {
    scoped_threads guard(4);
    std::atomic<int> calls{0};
    parallel_for(0, [&](std::size_t) { calls.fetch_add(1); });
    parallel_for_chunks(0, [&](std::size_t, std::size_t) { calls.fetch_add(1); });
    thread_pool::instance().for_chunks(
        0, 4, [&](std::size_t, std::size_t, std::size_t) { calls.fetch_add(1); });
    EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPool, RangeSmallerThanThreadCountCoversEveryIndexOnce) {
    scoped_threads guard(8);
    std::vector<std::atomic<int>> visits(3);
    parallel_for(3, [&](std::size_t i) { visits[i].fetch_add(1); });
    for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
}

TEST(ThreadPool, LargeRangeCoversEveryIndexExactlyOnce) {
    scoped_threads guard(4);
    constexpr std::size_t n = 10000;
    std::vector<int> visits(n, 0);
    // Disjoint chunks: each index written by exactly one worker.
    parallel_for(n, [&](std::size_t i) { visits[i] += 1; });
    EXPECT_EQ(std::accumulate(visits.begin(), visits.end(), 0),
              static_cast<int>(n));
    EXPECT_EQ(*std::min_element(visits.begin(), visits.end()), 1);
    EXPECT_EQ(*std::max_element(visits.begin(), visits.end()), 1);
}

TEST(ThreadPool, ChunksPartitionTheRange) {
    scoped_threads guard(4);
    std::vector<std::pair<std::size_t, std::size_t>> ranges(7);
    thread_pool::instance().for_chunks(
        100, 7, [&](std::size_t c, std::size_t b, std::size_t e) {
            ranges[c] = {b, e};
        });
    std::size_t expected_begin = 0;
    for (const auto& [b, e] : ranges) {
        EXPECT_EQ(b, expected_begin);
        EXPECT_LT(b, e);
        expected_begin = e;
    }
    EXPECT_EQ(expected_begin, 100u);
}

TEST(ThreadPool, ExceptionPropagatesOutOfWorker) {
    scoped_threads guard(4);
    EXPECT_THROW(
        parallel_for(100,
                     [&](std::size_t i) {
                         if (i == 57) throw std::runtime_error("worker boom");
                     }),
        std::runtime_error);
    // The pool must stay usable after a failed region.
    std::atomic<int> ok{0};
    parallel_for(10, [&](std::size_t) { ok.fetch_add(1); });
    EXPECT_EQ(ok.load(), 10);
}

TEST(ThreadPool, ExceptionMessageIsPreserved) {
    scoped_threads guard(2);
    try {
        parallel_for(4, [&](std::size_t) { throw std::runtime_error("specific"); });
        FAIL() << "expected an exception";
    } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "specific");
    }
}

TEST(ThreadPool, NestedCallsRunInlineAndComplete) {
    scoped_threads guard(4);
    constexpr std::size_t outer = 16;
    constexpr std::size_t inner = 32;
    std::vector<std::atomic<int>> counts(outer);
    parallel_for(outer, [&](std::size_t i) {
        EXPECT_TRUE(thread_pool::in_parallel_region());
        // A nested region must not deadlock; it runs inline on this thread.
        parallel_for(inner, [&](std::size_t) { counts[i].fetch_add(1); });
    });
    for (const auto& c : counts) EXPECT_EQ(c.load(), static_cast<int>(inner));
    EXPECT_FALSE(thread_pool::in_parallel_region());
}

TEST(ThreadPool, DeterministicSumMatchesAcrossThreadCounts) {
    // The reduction tree depends only on n, so any two pool sizes must
    // produce the same bits — including sizes larger than the range.
    std::vector<double> data(10000);
    for (std::size_t i = 0; i < data.size(); ++i) {
        data[i] = 1.0 / (1.0 + static_cast<double>(i) * 0.7);
    }
    const auto sum_with = [&](std::size_t threads) {
        scoped_threads guard(threads);
        return deterministic_sum(data.size(), [&](std::size_t i) { return data[i]; });
    };
    const double serial = sum_with(1);
    for (const std::size_t t : {2u, 3u, 4u, 8u}) {
        EXPECT_EQ(serial, sum_with(t)) << "threads=" << t;
    }
}

TEST(ThreadPool, GrainLimitsChunkCountButNotCoverage) {
    scoped_threads guard(8);
    std::atomic<int> total{0};
    parallel_for(100, [&](std::size_t) { total.fetch_add(1); }, /*grain=*/64);
    EXPECT_EQ(total.load(), 100);
}

} // namespace
} // namespace gpf
