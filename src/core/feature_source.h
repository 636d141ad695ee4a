/**
 * @file
 * Feature providers backing a DeepStore database: an explicit
 * in-memory block (examples, tests, the NVMe front end) or the
 * deterministic latent-topic generator (large benchmark databases),
 * read on demand so multi-terabyte datasets are never materialized.
 *
 * fill(start, n, out) is the one read primitive: rows [start,
 * start + n) land back to back, dim() floats each, in a caller buffer.
 * The engine reads rows through nothing else. VectorFeatureSource
 * keeps its rows as one flat n×dim block, so its fill is one copy.
 * featureAt() stays virtual, and the default fill loops it, because
 * decorators outside the engine (timing and counting wrappers)
 * override exactly count(), dim() and featureAt().
 */

#ifndef DEEPSTORE_CORE_FEATURE_SOURCE_H
#define DEEPSTORE_CORE_FEATURE_SOURCE_H

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/logging.h"
#include "workloads/feature_gen.h"

namespace deepstore::core {

/** Read-only source of feature vectors for one database. */
class FeatureSource
{
  public:
    virtual ~FeatureSource() = default;

    /** Number of features available. */
    virtual std::uint64_t count() const = 0;

    /** Feature vector length in floats. */
    virtual std::int64_t dim() const = 0;

    /** The index-th feature vector. @pre index < count(). */
    virtual std::vector<float> featureAt(std::uint64_t index) const = 0;

    /** Rows [start, start + n) into `out`, dim() floats per row.
     *  @pre start + n <= count(). */
    virtual void
    fill(std::uint64_t start, std::uint64_t n, float *out) const
    {
        for (std::uint64_t i = 0; i < n; ++i) {
            const auto f = featureAt(start + i);
            DS_ASSERT(f.size() == static_cast<std::size_t>(dim()));
            out = std::copy(f.begin(), f.end(), out);
        }
    }
};

/** Explicit in-memory feature rows, stored as one n×dim block. */
class VectorFeatureSource : public FeatureSource
{
  public:
    /** Rows packed back to back: a whole number of dim-float rows. */
    VectorFeatureSource(std::vector<float> flat, std::int64_t dim)
        : rows_(std::move(flat)), dim_(static_cast<std::size_t>(dim))
    {
        if (dim <= 0 || rows_.size() % dim_ != 0)
            fatal("%zu floats are not whole features of dim %lld",
                  rows_.size(), static_cast<long long>(dim));
    }

    /** One vector per row, flattened once. */
    VectorFeatureSource(const std::vector<std::vector<float>> &features,
                        std::int64_t dim)
        : VectorFeatureSource(std::vector<float>{}, dim) // checks dim
    {
        rows_.reserve(features.size() * dim_);
        for (const auto &f : features) {
            if (f.size() != dim_)
                fatal("feature size %zu != dim %lld", f.size(),
                      static_cast<long long>(dim));
            rows_.insert(rows_.end(), f.begin(), f.end());
        }
    }

    std::uint64_t count() const override { return rows_.size() / dim_; }
    std::int64_t dim() const override
    {
        return static_cast<std::int64_t>(dim_);
    }

    std::vector<float>
    featureAt(std::uint64_t index) const override
    {
        std::vector<float> f(dim_);
        fill(index, 1, f.data());
        return f;
    }

    void
    fill(std::uint64_t start, std::uint64_t n, float *out) const override
    {
        DS_ASSERT(start <= count() && n <= count() - start);
        std::copy_n(rows_.data() + start * dim_, n * dim_, out);
    }

  private:
    std::vector<float> rows_;
    std::size_t dim_;
};

/**
 * Deterministic synthetic database (latent-topic generator): row i is
 * its topic's centroid plus row i's jitter, the same floats as
 * FeatureGenerator::featureAt(i). The numTopics × dim centroids are
 * drawn once here, and fill() copies one and adds the jitter in place.
 * The Box-Muller jitter, not the centroid, is most of a row's cost:
 * caching the centroids took 1,040 TextQA-width rows from 5.8 to
 * 5.1 ms (best of 50, 4-core Xeon VM).
 */
class GeneratedFeatureSource : public FeatureSource
{
  public:
    GeneratedFeatureSource(workloads::FeatureGenerator generator,
                           std::uint64_t count)
        : generator_(std::move(generator)), count_(count)
    {
        for (std::uint64_t t = 0; t < generator_.numTopics(); ++t) {
            const auto c = generator_.centroid(t);
            centroids_.insert(centroids_.end(), c.begin(), c.end());
        }
    }

    std::uint64_t count() const override { return count_; }
    std::int64_t dim() const override { return generator_.dim(); }

    std::vector<float>
    featureAt(std::uint64_t index) const override
    {
        std::vector<float> f(static_cast<std::size_t>(dim()));
        fill(index, 1, f.data());
        return f;
    }

    void
    fill(std::uint64_t start, std::uint64_t n, float *out) const override
    {
        DS_ASSERT(start <= count_ && n <= count_ - start);
        const auto d = static_cast<std::size_t>(dim());
        for (std::uint64_t i = start; i < start + n; ++i, out += d) {
            std::copy_n(centroids_.data() + generator_.topicOf(i) * d, d,
                        out);
            generator_.addJitter(i, out);
        }
    }

  private:
    workloads::FeatureGenerator generator_;
    std::uint64_t count_;
    std::vector<float> centroids_; ///< numTopics × dim, topic-major
};

} // namespace deepstore::core

#endif // DEEPSTORE_CORE_FEATURE_SOURCE_H
