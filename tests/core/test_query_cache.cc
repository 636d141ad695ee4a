/** @file Tests for the similarity-based Query Cache (Algorithm 1). */

#include <algorithm>
#include <functional>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "core/query_cache.h"
#include "workloads/query_universe.h"

namespace deepstore::core {
namespace {

/** A batched ScoreFn that loops a pairwise score. */
template <typename Pair>
QueryCache::ScoreFn
batched(Pair pair)
{
    return [pair](std::uint64_t q, const std::uint64_t *cached,
                  std::size_t n, double *out) {
        for (std::size_t i = 0; i < n; ++i)
            out[i] = pair(q, cached[i]);
    };
}

/** Exact-match score function: 1 for identical ids, 0 otherwise. */
const QueryCache::ScoreFn exactScore =
    batched([](std::uint64_t a, std::uint64_t b) {
        return a == b ? 1.0 : 0.0;
    });

QueryCacheConfig
config(std::size_t cap, double thr, double acc = 1.0)
{
    QueryCacheConfig c;
    c.capacity = cap;
    c.threshold = thr;
    c.qcnAccuracy = acc;
    return c;
}

TEST(QueryCache, RejectsBadConfig)
{
    EXPECT_THROW(QueryCache(config(0, 0.1), exactScore), FatalError);
    EXPECT_THROW(QueryCache(config(4, 1.5), exactScore), FatalError);
    EXPECT_THROW(QueryCache(config(4, -0.1), exactScore), FatalError);
    EXPECT_THROW(QueryCache(config(4, 0.1, 0.0), exactScore),
                 FatalError);
    EXPECT_THROW(QueryCache(config(4, 0.1), nullptr), FatalError);
}

TEST(QueryCache, MissOnEmptyThenHitAfterInsert)
{
    QueryCache qc(config(4, 0.0), exactScore);
    auto miss = qc.lookup(7);
    EXPECT_FALSE(miss.hit);
    qc.insert(7, {{1, 10, 0.9f}});
    auto hit = qc.lookup(7);
    EXPECT_TRUE(hit.hit);
    EXPECT_EQ(hit.matchedQuery, 7u);
    ASSERT_EQ(hit.cachedResults.size(), 1u);
    EXPECT_EQ(hit.cachedResults[0].featureId, 1u);
    EXPECT_EQ(qc.hits(), 1u);
    EXPECT_EQ(qc.misses(), 1u);
    EXPECT_DOUBLE_EQ(qc.missRate(), 0.5);
}

TEST(QueryCache, ScansEveryEntry)
{
    QueryCache qc(config(8, 0.0), exactScore);
    for (std::uint64_t q = 0; q < 5; ++q)
        qc.insert(q, {});
    auto out = qc.lookup(2);
    EXPECT_EQ(out.entriesScanned, 5u);
}

TEST(QueryCache, ProbeScoresEveryChunk)
{
    // 40 entries span three probe chunks; the match sits in the last.
    std::size_t calls = 0, widest = 0;
    const QueryCache::ScoreFn counted =
        [&](std::uint64_t q, const std::uint64_t *cached, std::size_t n,
            double *out) {
            ++calls;
            widest = std::max(widest, n);
            exactScore(q, cached, n, out);
        };
    QueryCache qc(config(40, 0.0), counted);
    for (std::uint64_t q = 0; q < 40; ++q)
        qc.insert(q, {});
    auto out = qc.lookup(3);
    EXPECT_TRUE(out.hit);
    EXPECT_EQ(out.matchedQuery, 3u);
    EXPECT_EQ(out.entriesScanned, 40u);
    EXPECT_EQ(calls, 3u);
    EXPECT_EQ(widest, QueryCache::kProbeChunk);
}

TEST(QueryCache, AccuracyGatesHits)
{
    // With QCN accuracy 0.9, even an exact match scores 0.9; a 5%
    // threshold rejects it while a 15% threshold accepts it.
    QueryCache strict(config(4, 0.05, 0.9), exactScore);
    strict.insert(1, {});
    EXPECT_FALSE(strict.lookup(1).hit);

    QueryCache loose(config(4, 0.15, 0.9), exactScore);
    loose.insert(1, {});
    EXPECT_TRUE(loose.lookup(1).hit);
}

TEST(QueryCache, SemanticSimilarityHits)
{
    // Same-topic queries hit under a relaxed threshold even though
    // the ids differ (the paper's "brown dog" example).
    workloads::QueryUniverseConfig ucfg;
    ucfg.numQueries = 500;
    ucfg.numTopics = 10;
    workloads::QueryUniverse u(ucfg);
    QueryCache qc(config(64, 0.15, 0.97),
                  std::bind_front(&workloads::QueryUniverse::qcnScores,
                                  &u));
    // Find two distinct same-topic queries.
    std::uint64_t a = 0, b = 1;
    bool found = false;
    for (a = 0; a < 100 && !found; ++a) {
        for (b = a + 1; b < 200; ++b) {
            if (u.topicOf(a) == u.topicOf(b)) {
                found = true;
                break;
            }
        }
        if (found)
            break;
    }
    ASSERT_TRUE(found);
    qc.insert(a, {{42, 0, 0.8f}});
    auto out = qc.lookup(b);
    EXPECT_TRUE(out.hit);
    EXPECT_EQ(out.matchedQuery, a);
}

TEST(QueryCache, LruEvictsOldest)
{
    QueryCache qc(config(2, 0.0), exactScore);
    qc.insert(1, {});
    qc.insert(2, {});
    qc.insert(3, {}); // evicts 1
    EXPECT_EQ(qc.size(), 2u);
    EXPECT_FALSE(qc.lookup(1).hit);
    EXPECT_TRUE(qc.lookup(2).hit);
    EXPECT_TRUE(qc.lookup(3).hit);
}

TEST(QueryCache, HitPromotesEntry)
{
    QueryCache qc(config(2, 0.0), exactScore);
    qc.insert(1, {});
    qc.insert(2, {});
    EXPECT_TRUE(qc.lookup(1).hit); // promote 1 to MRU
    qc.insert(3, {});              // evicts 2, not 1
    EXPECT_TRUE(qc.lookup(1).hit);
    EXPECT_FALSE(qc.lookup(2).hit);
}

TEST(QueryCache, ReinsertRefreshesWithoutGrowth)
{
    QueryCache qc(config(2, 0.0), exactScore);
    qc.insert(1, {{5, 0, 0.1f}});
    qc.insert(1, {{6, 0, 0.2f}});
    EXPECT_EQ(qc.size(), 1u);
    auto out = qc.lookup(1);
    ASSERT_TRUE(out.hit);
    EXPECT_EQ(out.cachedResults[0].featureId, 6u);
}

TEST(QueryCache, InvalidateAllEmptiesCache)
{
    QueryCache qc(config(4, 0.0), exactScore);
    qc.insert(1, {});
    qc.invalidateAll();
    EXPECT_EQ(qc.size(), 0u);
    EXPECT_FALSE(qc.lookup(1).hit);
}

TEST(QueryCache, ThresholdCanBeRetuned)
{
    QueryCache qc(config(4, 0.0, 0.9), exactScore);
    qc.insert(1, {});
    EXPECT_FALSE(qc.lookup(1).hit);
    qc.setThreshold(0.2); // deployment-time tuning (§4.6)
    EXPECT_TRUE(qc.lookup(1).hit);
    EXPECT_THROW(qc.setThreshold(1.0), FatalError);
}

TEST(QueryCache, BestOfMultipleCandidatesWins)
{
    // Algorithm 1 keeps the max-scoring entry.
    auto scores = [](std::uint64_t a, std::uint64_t b) {
        if (a == 100 && b == 2)
            return 0.99;
        if (a == 100 && b == 1)
            return 0.95;
        return 0.1;
    };
    QueryCache qc(config(4, 0.1, 1.0), batched(scores));
    qc.insert(1, {{11, 0, 0.0f}});
    qc.insert(2, {{22, 0, 0.0f}});
    auto out = qc.lookup(100);
    ASSERT_TRUE(out.hit);
    EXPECT_EQ(out.matchedQuery, 2u);
    EXPECT_NEAR(out.bestScore, 0.99, 1e-12);
}

TEST(QueryCache, ZipfTraceHasLowerMissRateThanUniform)
{
    // The Fig. 13 mechanism in miniature.
    workloads::QueryUniverseConfig ucfg;
    ucfg.numQueries = 2000;
    ucfg.numTopics = 400;
    workloads::QueryUniverse u(ucfg);
    const auto score =
        std::bind_front(&workloads::QueryUniverse::qcnScores, &u);
    auto run = [&](workloads::Popularity pop) {
        QueryCache qc(config(100, 0.10, 0.97), score);
        auto trace = u.trace(3000, pop, 0.9, 77);
        for (auto q : trace) {
            auto out = qc.lookup(q);
            if (!out.hit)
                qc.insert(q, {});
        }
        return qc.missRate();
    };
    double uniform = run(workloads::Popularity::Uniform);
    double zipf = run(workloads::Popularity::Zipf);
    EXPECT_LT(zipf, uniform);
}

} // namespace
} // namespace deepstore::core
