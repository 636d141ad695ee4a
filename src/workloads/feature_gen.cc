#include "workloads/feature_gen.h"

#include "common/logging.h"
#include "common/rng.h"

namespace deepstore::workloads {

FeatureGenerator::FeatureGenerator(std::int64_t dim,
                                   std::uint64_t num_topics,
                                   std::uint64_t seed, double noise)
    : dim_(dim), numTopics_(num_topics), seed_(seed), noise_(noise)
{
    if (dim <= 0)
        fatal("feature dimension must be positive");
    if (num_topics == 0)
        fatal("need at least one topic");
}

std::uint64_t
FeatureGenerator::topicOf(std::uint64_t index) const
{
    // Topic assignment via a splitmix-style hash of the index so the
    // database interleaves topics (matching the striped layout).
    std::uint64_t x = index + seed_ * 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return (x ^ (x >> 31)) % numTopics_;
}

std::vector<float>
FeatureGenerator::centroid(std::uint64_t topic) const
{
    Rng rng(seed_ * 1315423911ULL + topic);
    std::vector<float> c(static_cast<std::size_t>(dim_));
    for (auto &v : c)
        v = static_cast<float>(rng.uniform(-1.0, 1.0));
    return c;
}

std::vector<float>
FeatureGenerator::featureForTopic(std::uint64_t topic,
                                  std::uint64_t jitter_seed) const
{
    std::vector<float> f = centroid(topic);
    addJitter(jitter_seed, f.data());
    return f;
}

void
FeatureGenerator::addJitter(std::uint64_t jitter_seed, float *f) const
{
    Rng rng(seed_ ^ (jitter_seed * 0x2545F4914F6CDD1DULL + 17));
    for (std::int64_t i = 0; i < dim_; ++i)
        f[i] += static_cast<float>(rng.gaussian(0.0, noise_));
}

std::vector<float>
FeatureGenerator::featureAt(std::uint64_t index) const
{
    return featureForTopic(topicOf(index), index);
}

} // namespace deepstore::workloads
