#include "core/query_cache.h"

#include "common/logging.h"

namespace deepstore::core {

QueryCache::QueryCache(QueryCacheConfig config, ScoreFn score)
    : config_(config), score_(std::move(score))
{
    if (config_.capacity == 0)
        fatal("query cache capacity must be positive");
    if (config_.qcnAccuracy <= 0.0 || config_.qcnAccuracy > 1.0)
        fatal("QCN accuracy must be in (0, 1]");
    setThreshold(config_.threshold);
    if (!score_)
        fatal("query cache needs a QCN scoring function");
}

void
QueryCache::setThreshold(double threshold)
{
    if (threshold < 0.0 || threshold >= 1.0)
        fatal("threshold must be in [0, 1) (got %g)", threshold);
    config_.threshold = threshold;
}

CacheLookup
QueryCache::lookup(std::uint64_t query_id)
{
    CacheLookup out;
    auto best = entries_.end();
    // Algorithm 1: scan every valid entry, keep the max score. The
    // QCN scores a chunk of entries per call.
    std::uint64_t ids[kProbeChunk];
    double scores[kProbeChunk];
    for (auto it = entries_.begin(); it != entries_.end();) {
        auto chunk = it;
        std::size_t n = 0;
        for (; it != entries_.end() && n < kProbeChunk; ++it)
            ids[n++] = it->queryId;
        score_(query_id, ids, n, scores);
        for (std::size_t i = 0; i < n; ++i, ++chunk) {
            double s = scores[i] * config_.qcnAccuracy;
            ++out.entriesScanned;
            if (s > out.bestScore) {
                out.bestScore = s;
                best = chunk;
            }
        }
    }
    if (best != entries_.end() &&
        (1.0 - out.bestScore) <= config_.threshold) {
        out.hit = true;
        out.matchedQuery = best->queryId;
        out.cachedResults = best->results;
        // QC.promote(max_index): move to MRU position.
        entries_.splice(entries_.begin(), entries_, best);
        ++hits_;
    } else {
        ++misses_;
    }
    return out;
}

void
QueryCache::insert(std::uint64_t query_id,
                   std::vector<ScoredResult> results)
{
    auto it = index_.find(query_id);
    if (it != index_.end()) {
        it->second->results = std::move(results);
        entries_.splice(entries_.begin(), entries_, it->second);
        return;
    }
    if (entries_.size() == config_.capacity) {
        index_.erase(entries_.back().queryId);
        entries_.pop_back();
    }
    entries_.push_front(Entry{query_id, std::move(results)});
    index_[query_id] = entries_.begin();
}

void
QueryCache::invalidateAll()
{
    entries_.clear();
    index_.clear();
}

void
QueryCache::resetStats()
{
    hits_ = 0;
    misses_ = 0;
}

} // namespace deepstore::core
