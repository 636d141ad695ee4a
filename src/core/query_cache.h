/**
 * @file
 * Similarity-based in-storage Query Cache (paper §4.6, Algorithm 1).
 *
 * Unlike an exact-match cache, a lookup scores the incoming query
 * against *every* cached query with the Query Comparison Network
 * (QCN) and accepts the best match when
 *
 *     (1 - qcn_score * QCN_Acc) <= threshold
 *
 * exploiting the error tolerance inherent to intelligent queries. On
 * a hit the engine re-runs the SCN against only the cached entry's
 * top-K features; on a miss the whole database is scanned and the
 * query is inserted with LRU replacement.
 *
 * The QCN scoring function is injected: the runtime path uses the
 * functional QCN executor over real feature vectors, while the large
 * cache sweeps (Figs. 13-14) use the closed-form latent-topic score,
 * which the test suite shows is order-equivalent.
 */

#ifndef DEEPSTORE_CORE_QUERY_CACHE_H
#define DEEPSTORE_CORE_QUERY_CACHE_H

#include <cstdint>
#include <functional>
#include <list>
#include <unordered_map>
#include <vector>

#include "core/topk.h"

namespace deepstore::core {

/** Static query-cache configuration (setQC, Table 2). */
struct QueryCacheConfig
{
    /** Number of cached queries (1 K entries in §6.5). */
    std::size_t capacity = 1000;

    /** Published accuracy of the QCN model (QCN_Acc). */
    double qcnAccuracy = 0.97;

    /** Error threshold: a hit needs (1 - score) <= threshold. */
    double threshold = 0.10;
};

/** Result of a cache lookup. */
struct CacheLookup
{
    bool hit = false;
    std::uint64_t matchedQuery = 0; ///< valid when hit
    double bestScore = 0.0;         ///< qcn_score x QCN_Acc of best
    std::size_t entriesScanned = 0; ///< QCN evaluations performed
    /** Cached top-K of the matched entry (hit only). */
    std::vector<ScoredResult> cachedResults;
};

/** LRU query cache with QCN-similarity lookup. */
class QueryCache
{
  public:
    /** QCN similarity in [0, 1] of query `query` against each of `n`
     *  cached query ids: out[i] scores cached[i]. A lookup passes the
     *  cache in chunks of at most kProbeChunk ids. */
    using ScoreFn =
        std::function<void(std::uint64_t query,
                           const std::uint64_t *cached, std::size_t n,
                           double *out)>;
    static constexpr std::size_t kProbeChunk = 16;

    QueryCache(QueryCacheConfig config, ScoreFn score);

    /** Algorithm 1 lookup; promotes the matched entry on a hit. */
    CacheLookup lookup(std::uint64_t query_id);

    /** Insert a query and its scan results (Algorithm 1 line 16),
     *  evicting the LRU entry when full. Re-inserting an existing
     *  query refreshes its results and promotes it. */
    void insert(std::uint64_t query_id,
                std::vector<ScoredResult> results);

    /** Invalidate every entry (e.g., after a database update). */
    void invalidateAll();

    std::size_t size() const { return entries_.size(); }
    std::size_t capacity() const { return config_.capacity; }

    void setThreshold(double threshold);
    const QueryCacheConfig &config() const { return config_; }

    // Statistics.
    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    double
    missRate() const
    {
        std::uint64_t total = hits_ + misses_;
        return total ? static_cast<double>(misses_) /
                           static_cast<double>(total)
                     : 0.0;
    }
    void resetStats();

  private:
    struct Entry
    {
        std::uint64_t queryId;
        std::vector<ScoredResult> results;
    };

    QueryCacheConfig config_;
    ScoreFn score_;
    /** MRU-first list; LRU eviction pops the back. */
    std::list<Entry> entries_;
    std::unordered_map<std::uint64_t, std::list<Entry>::iterator>
        index_;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

} // namespace deepstore::core

#endif // DEEPSTORE_CORE_QUERY_CACHE_H
