#include "workloads/query_universe.h"

#include <algorithm>

#include "common/logging.h"

namespace deepstore::workloads {

namespace {

std::uint64_t
mix(std::uint64_t x)
{
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

} // namespace

QueryUniverse::QueryUniverse(QueryUniverseConfig config)
    : config_(config)
{
    if (config_.numQueries == 0 || config_.numTopics == 0)
        fatal("query universe needs queries and topics");
}

std::uint64_t
QueryUniverse::topicOf(std::uint64_t query_id) const
{
    return mix(query_id + config_.seed * 0x9E3779B97F4A7C15ULL) %
           config_.numTopics;
}

double
QueryUniverse::qcnScore(std::uint64_t a, std::uint64_t b) const
{
    if (a > b)
        std::swap(a, b); // symmetry
    double base, noise;
    if (a == b) {
        base = config_.sameQueryScore;
        noise = config_.sameQueryNoise;
    } else if (topicOf(a) == topicOf(b)) {
        base = config_.sameTopicScore;
        noise = config_.sameTopicNoise;
    } else {
        base = config_.diffTopicScore;
        noise = config_.diffTopicNoise;
    }
    // Deterministic per-pair jitter.
    Rng rng(mix(a * 0x100000001B3ULL + b) ^ config_.seed);
    double s = rng.gaussian(base, noise);
    return std::clamp(s, 0.0, 1.0);
}

void
QueryUniverse::qcnScores(std::uint64_t query, const std::uint64_t *cached,
                         std::size_t n, double *out) const
{
    for (std::size_t i = 0; i < n; ++i)
        out[i] = qcnScore(query, cached[i]);
}

std::vector<float>
QueryUniverse::featureOf(std::uint64_t query_id, std::int64_t dim) const
{
    FeatureGenerator gen(dim, config_.numTopics, config_.seed,
                         /*noise=*/0.15);
    return gen.featureForTopic(topicOf(query_id),
                               query_id * 2654435761ULL + 7);
}

std::vector<std::uint64_t>
QueryUniverse::trace(std::uint64_t count, Popularity popularity,
                     double zipf_alpha, std::uint64_t seed) const
{
    std::vector<std::uint64_t> out;
    out.reserve(count);
    Rng rng(seed);
    if (popularity == Popularity::Uniform) {
        for (std::uint64_t i = 0; i < count; ++i)
            out.push_back(rng.uniformInt(config_.numQueries));
        return out;
    }
    ZipfSampler zipf(config_.numQueries, zipf_alpha);
    // Permute ranks -> query ids so popular queries are spread over
    // the id (and hence topic) space.
    for (std::uint64_t i = 0; i < count; ++i) {
        std::uint64_t rank = zipf.sample(rng);
        out.push_back(mix(rank + config_.seed) % config_.numQueries);
    }
    return out;
}

} // namespace deepstore::workloads
