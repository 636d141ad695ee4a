/**
 * @file
 * Synthetic feature-database generator.
 *
 * Stands in for the paper's trained-model feature extraction
 * (DESIGN.md substitutions): features are drawn around latent topic
 * centroids so that semantic structure exists (same-topic features
 * score higher under the SCN/QCN than cross-topic ones), which is the
 * property the Query Cache experiments depend on. Generation is
 * deterministic per (seed, index) and computed on demand, so
 * billion-entry databases never need to be materialized.
 */

#ifndef DEEPSTORE_WORKLOADS_FEATURE_GEN_H
#define DEEPSTORE_WORKLOADS_FEATURE_GEN_H

#include <cstdint>
#include <vector>

namespace deepstore::workloads {

/** Deterministic latent-topic feature generator. */
class FeatureGenerator
{
  public:
    /**
     * @param dim feature vector length (floats)
     * @param num_topics latent topic count (>= 1)
     * @param seed stream seed; different seeds give disjoint datasets
     * @param noise std-dev of per-feature jitter around the centroid
     */
    FeatureGenerator(std::int64_t dim, std::uint64_t num_topics,
                     std::uint64_t seed, double noise = 0.25);

    /** Topic of the index-th database item. */
    std::uint64_t topicOf(std::uint64_t index) const;

    /** The index-th database feature vector. */
    std::vector<float> featureAt(std::uint64_t index) const;

    /** A fresh feature near the given topic's centroid (for queries). */
    std::vector<float> featureForTopic(std::uint64_t topic,
                                       std::uint64_t jitter_seed) const;

    /** The raw centroid of a topic. */
    std::vector<float> centroid(std::uint64_t topic) const;

    /** Add featureForTopic's jitter for `jitter_seed` to the dim()
     *  floats at `f`, in place (the centroid plus this is the
     *  feature). */
    void addJitter(std::uint64_t jitter_seed, float *f) const;

    std::int64_t dim() const { return dim_; }
    std::uint64_t numTopics() const { return numTopics_; }

  private:
    std::int64_t dim_;
    std::uint64_t numTopics_;
    std::uint64_t seed_;
    double noise_;
};

} // namespace deepstore::workloads

#endif // DEEPSTORE_WORKLOADS_FEATURE_GEN_H
