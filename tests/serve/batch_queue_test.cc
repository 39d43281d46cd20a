#include "serve/batch_queue.h"

#include <chrono>
#include <future>
#include <limits>
#include <mutex>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/clock.h"
#include "common/rng.h"
#include "serve/embedding_store.h"
#include "serve/stats.h"
#include "serve/topk.h"

namespace desalign::serve {
namespace {

std::vector<float> RandomRows(int64_t rows, int64_t dim, uint64_t seed) {
  common::Rng rng(seed);
  std::vector<float> data(static_cast<size_t>(rows * dim));
  for (auto& v : data) v = rng.UniformF(-1.0f, 1.0f);
  return data;
}

TEST(BatchQueueTest, SingleQueryMatchesDirectRetrieval) {
  const int64_t dim = 8;
  const auto data = RandomRows(40, dim, 5);
  const auto store = EmbeddingStore::FromRows(40, dim, data);
  TopKRetriever retriever(&store);
  BatchQueueOptions options;
  options.k = 4;
  BatchQueue queue(&retriever, options);

  const auto query = RandomRows(1, dim, 9);
  auto result = queue.Submit(query).get();
  const auto direct = retriever.Retrieve(query.data(), 1, 4);
  EXPECT_EQ(result.ids, direct[0].ids);
  EXPECT_EQ(result.scores, direct[0].scores);
}

TEST(BatchQueueTest, ConcurrentSubmittersGetTheirOwnResults) {
  const int64_t dim = 10;
  const int64_t num_entities = 64;
  const auto data = RandomRows(num_entities, dim, 21);
  const auto store = EmbeddingStore::FromRows(num_entities, dim, data);
  TopKRetriever retriever(&store);
  BatchQueueOptions options;
  options.k = 1;
  options.max_batch = 8;
  options.max_wait_ms = 0.5;
  ServeStats stats;
  BatchQueue queue(&retriever, options, &stats);

  // Each submitter replays stored (already normalized) rows; the rank-1
  // result must be the row's own id, proving results are never swapped
  // between interleaved requests from different threads.
  constexpr int kThreads = 6;
  constexpr int kPerThread = 50;
  std::vector<std::thread> submitters;
  std::vector<int> failures(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      common::Rng rng(100 + static_cast<uint64_t>(t));
      for (int i = 0; i < kPerThread; ++i) {
        const int64_t id = rng.UniformInt(num_entities);
        const float* row = store.row(id);
        auto result =
            queue.Submit(std::vector<float>(row, row + dim)).get();
        if (result.ids.size() != 1 || result.ids[0] != id) ++failures[t];
      }
    });
  }
  for (auto& s : submitters) s.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(failures[t], 0);

  const auto snap = stats.Snapshot();
  EXPECT_EQ(snap.queries, kThreads * kPerThread);
  EXPECT_GT(snap.batches, 0);
  EXPECT_GT(snap.p95_latency_ms, 0.0);
}

TEST(BatchQueueTest, BacklogIsCoBatched) {
  const int64_t dim = 4;
  const auto data = RandomRows(32, dim, 2);
  const auto store = EmbeddingStore::FromRows(32, dim, data);
  TopKRetriever retriever(&store);
  common::ManualClock clock;
  BatchQueueOptions options;
  options.k = 2;
  options.max_batch = 16;
  options.max_wait_ms = 20.0;
  options.clock = &clock;  // frozen: the window never expires, so the
                           // worker may only ever drain FULL batches
  BatchQueue queue(&retriever, options);

  std::vector<std::future<TopKResult>> futures;
  for (int i = 0; i < 64; ++i) {
    futures.push_back(queue.Submit(RandomRows(1, dim, 50 + i)));
  }
  for (auto& f : futures) EXPECT_EQ(f.get().ids.size(), 2u);
  // Exactly 64 / 16 drains — deterministic, not a timing-dependent range.
  queue.Shutdown();
  EXPECT_EQ(queue.batches_processed(), 4);
}

// A query with one NaN or +-Inf coordinate normalizes to all-NaN, which
// scoring cannot rank; admission must reject it as malformed. The finite
// queries submitted between them form one full batch (frozen clock,
// max_batch = their count) and are answered byte-identically to direct
// retrieval.
TEST(BatchQueueTest, NonFiniteQueriesAreRejectedAsInvalid) {
  const int64_t dim = 6;
  const auto data = RandomRows(48, dim, 31);
  const auto store = EmbeddingStore::FromRows(48, dim, data);
  TopKRetriever retriever(&store);
  common::ManualClock clock;
  ServeStats stats;
  BatchQueueOptions options;
  options.k = 5;
  options.max_batch = 4;
  options.max_wait_ms = 20.0;
  options.clock = &clock;
  BatchQueue queue(&retriever, options, &stats);

  const float kBad[] = {std::numeric_limits<float>::quiet_NaN(),
                        std::numeric_limits<float>::infinity(),
                        -std::numeric_limits<float>::infinity()};
  std::vector<std::vector<float>> finite;
  std::vector<std::future<TopKResult>> good;
  std::vector<std::future<TopKResult>> bad;
  for (int i = 0; i < 4; ++i) {
    finite.push_back(RandomRows(1, dim, 70 + static_cast<uint64_t>(i)));
    good.push_back(queue.Submit(finite.back()));
    if (i < 3) {
      std::vector<float> query =
          RandomRows(1, dim, 80 + static_cast<uint64_t>(i));
      query[static_cast<size_t>(i)] = kBad[i];
      bad.push_back(queue.Submit(std::move(query)));
    }
  }
  for (auto& f : bad) {
    const TopKResult result = f.get();
    EXPECT_EQ(result.status, ServeStatus::kInvalidQuery);
    EXPECT_TRUE(result.ids.empty());
  }
  for (size_t i = 0; i < good.size(); ++i) {
    const TopKResult result = good[i].get();
    const auto direct = retriever.Retrieve(finite[i].data(), 1, 5);
    EXPECT_EQ(result.status, ServeStatus::kOk);
    EXPECT_EQ(result.ids, direct[0].ids) << "query " << i;
    EXPECT_EQ(result.scores, direct[0].scores) << "query " << i;
  }
  queue.Shutdown();
  EXPECT_EQ(queue.batches_processed(), 1);
  EXPECT_EQ(stats.Snapshot().rejected_invalid, 3);
}

// The max_wait_ms contract on a ManualClock, with no real sleeps: a
// partial batch is held while the co-batch window is open and dispatched
// the moment the clock reaches (oldest enqueued + max_wait_ms).
TEST(BatchQueueTest, PartialBatchDispatchesWhenWindowExpires) {
  const int64_t dim = 4;
  const auto data = RandomRows(32, dim, 12);
  const auto store = EmbeddingStore::FromRows(32, dim, data);
  TopKRetriever retriever(&store);
  common::ManualClock clock;
  BatchQueueOptions options;
  options.k = 2;
  options.max_batch = 16;
  options.max_wait_ms = 20.0;
  options.clock = &clock;
  BatchQueue queue(&retriever, options);

  std::vector<std::future<TopKResult>> futures;
  for (int i = 0; i < 3; ++i) {
    futures.push_back(queue.Submit(RandomRows(1, dim, 60 + i)));
  }
  // Window open (clock frozen, 3 < max_batch): the worker must hold the
  // partial batch, however long we wait in wall time.
  while (clock.wait_calls() == 0) std::this_thread::yield();
  for (auto& f : futures) {
    EXPECT_EQ(f.wait_for(std::chrono::milliseconds(0)),
              std::future_status::timeout);
  }
  // One tick short of the window still holds...
  clock.AdvanceBy(common::Clock::FromMillis(19.0));
  EXPECT_EQ(futures[0].wait_for(std::chrono::milliseconds(0)),
            std::future_status::timeout);
  // ...reaching it releases the partial batch of 3 as one drain.
  clock.AdvanceBy(common::Clock::FromMillis(1.0));
  for (auto& f : futures) EXPECT_EQ(f.get().ids.size(), 2u);
  queue.Shutdown();
  EXPECT_EQ(queue.batches_processed(), 1);
}

TEST(BatchQueueTest, ShutdownDrainsPendingAndRejectsNewWork) {
  const int64_t dim = 4;
  const auto data = RandomRows(16, dim, 3);
  const auto store = EmbeddingStore::FromRows(16, dim, data);
  TopKRetriever retriever(&store);
  BatchQueueOptions options;
  options.k = 3;
  options.max_wait_ms = 50.0;
  BatchQueue queue(&retriever, options);

  std::vector<std::future<TopKResult>> futures;
  for (int i = 0; i < 10; ++i) {
    futures.push_back(queue.Submit(RandomRows(1, dim, 70 + i)));
  }
  queue.Shutdown();
  for (auto& f : futures) {
    const auto result = f.get();
    EXPECT_EQ(result.status, ServeStatus::kOk);
    EXPECT_EQ(result.ids.size(), 3u);
  }
  // After shutdown, submissions resolve immediately with a typed status —
  // not an empty result a caller could mistake for a legitimate top-k.
  const auto late = queue.Submit(RandomRows(1, dim, 99)).get();
  EXPECT_EQ(late.status, ServeStatus::kShutdown);
  EXPECT_TRUE(late.ids.empty());
}

TEST(BatchQueueTest, SubmittersRacingShutdownAlwaysGetAFulfilledFuture) {
  // Stress the Submit/Shutdown race under TSan: submitters hammer the
  // queue while another thread tears it down. Every future must become
  // ready — either with k results (accepted before shutdown) or empty
  // (rejected after) — and no future may throw broken_promise or hang.
  const int64_t dim = 4;
  const auto data = RandomRows(16, dim, 6);
  const auto store = EmbeddingStore::FromRows(16, dim, data);
  TopKRetriever retriever(&store);
  for (int round = 0; round < 8; ++round) {
    BatchQueueOptions options;
    options.k = 2;
    options.max_batch = 4;
    options.max_wait_ms = 0.1;
    BatchQueue queue(&retriever, options);

    constexpr int kThreads = 4;
    constexpr int kPerThread = 25;
    std::vector<std::thread> submitters;
    std::vector<std::vector<std::future<TopKResult>>> futures(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      submitters.emplace_back([&, t] {
        for (int i = 0; i < kPerThread; ++i) {
          futures[t].push_back(
              queue.Submit(RandomRows(1, dim, 200 + t * kPerThread + i)));
        }
      });
    }
    // Shut down while submissions are still in flight.
    std::thread closer([&] { queue.Shutdown(); });
    for (auto& s : submitters) s.join();
    closer.join();

    for (auto& per_thread : futures) {
      for (auto& f : per_thread) {
        ASSERT_TRUE(f.valid());
        TopKResult result;
        ASSERT_NO_THROW(result = f.get());
        EXPECT_TRUE(
            (result.status == ServeStatus::kOk && result.ids.size() == 2u) ||
            (result.status == ServeStatus::kShutdown && result.ids.empty()));
      }
    }
  }
}

TEST(BatchQueueTest, DestructionRacingSubmittersLeavesNoBrokenPromise) {
  const int64_t dim = 4;
  const auto data = RandomRows(16, dim, 7);
  const auto store = EmbeddingStore::FromRows(16, dim, data);
  TopKRetriever retriever(&store);
  for (int round = 0; round < 8; ++round) {
    std::vector<std::future<TopKResult>> futures;
    std::mutex futures_mu;
    std::vector<std::thread> submitters;
    {
      BatchQueueOptions options;
      options.k = 1;
      options.max_wait_ms = 0.1;
      BatchQueue queue(&retriever, options);
      for (int t = 0; t < 3; ++t) {
        submitters.emplace_back([&, t] {
          for (int i = 0; i < 20; ++i) {
            auto f = queue.Submit(RandomRows(1, dim, 300 + t * 20 + i));
            std::lock_guard<std::mutex> lock(futures_mu);
            futures.push_back(std::move(f));
          }
        });
      }
      for (auto& s : submitters) s.join();
      // ~BatchQueue runs here with every future already issued.
    }
    for (auto& f : futures) {
      ASSERT_TRUE(f.valid());
      ASSERT_NO_THROW(f.get());
    }
  }
}

TEST(BatchQueueTest, DestructorCompletesOutstandingFutures) {
  const int64_t dim = 4;
  const auto data = RandomRows(16, dim, 4);
  const auto store = EmbeddingStore::FromRows(16, dim, data);
  TopKRetriever retriever(&store);
  std::future<TopKResult> future;
  {
    BatchQueueOptions options;
    options.k = 1;
    options.max_wait_ms = 100.0;
    BatchQueue queue(&retriever, options);
    future = queue.Submit(RandomRows(1, dim, 8));
  }
  EXPECT_EQ(future.get().ids.size(), 1u);
}

}  // namespace
}  // namespace desalign::serve
