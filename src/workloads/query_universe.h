/**
 * @file
 * Query universe and trace generation for the Query Cache study
 * (paper §6.5).
 *
 * The paper generates 100 K queries against a 100 M-image TIR dataset
 * and samples them with uniform and Zipfian popularity. Queries have
 * semantic structure (their example: "a brown dog is running in the
 * sand" vs "a brown dog plays at the beach"), which the QCN scores.
 *
 * We model a universe of distinct queries, each attached to a latent
 * topic. The pairwise QCN score is generated deterministically from
 * the pair identity: repeats of the same query score near 1, distinct
 * same-topic queries (semantic near-duplicates) score high, and
 * cross-topic queries score low. The test suite verifies that a real
 * (functional) QCN over the synthetic features produces the same
 * ordering, which justifies using the closed-form score in the large
 * cache sweeps.
 */

#ifndef DEEPSTORE_WORKLOADS_QUERY_UNIVERSE_H
#define DEEPSTORE_WORKLOADS_QUERY_UNIVERSE_H

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "workloads/feature_gen.h"

namespace deepstore::workloads {

/** Configuration of the query universe. */
struct QueryUniverseConfig
{
    std::uint64_t numQueries = 100'000;
    std::uint64_t numTopics = 3'000;
    std::uint64_t seed = 42;

    // Deterministic pairwise QCN score parameters.
    double sameQueryScore = 0.99;
    double sameQueryNoise = 0.005;
    double sameTopicScore = 0.92;
    double sameTopicNoise = 0.04;
    double diffTopicScore = 0.35;
    double diffTopicNoise = 0.12;
};

/** Popularity distribution over the query universe. */
enum class Popularity
{
    Uniform,
    Zipf,
};

/** A fixed universe of distinct intelligent queries. */
class QueryUniverse
{
  public:
    explicit QueryUniverse(QueryUniverseConfig config);

    const QueryUniverseConfig &config() const { return config_; }

    /** Latent topic of a query. */
    std::uint64_t topicOf(std::uint64_t query_id) const;

    /**
     * Deterministic, symmetric QCN similarity score in [0, 1] for a
     * pair of queries.
     */
    double qcnScore(std::uint64_t a, std::uint64_t b) const;

    /** out[i] = qcnScore(query, cached[i]) for i < n: the Query
     *  Cache's batched scoring signature. */
    void qcnScores(std::uint64_t query, const std::uint64_t *cached,
                   std::size_t n, double *out) const;

    /** Query feature vector (for the functional execution path). */
    std::vector<float> featureOf(std::uint64_t query_id,
                                 std::int64_t dim) const;

    /**
     * Generate a trace of `count` query ids with the given
     * popularity. Zipf uses the provided alpha (0.7 / 0.8 in the
     * paper's Figs. 13-14).
     */
    std::vector<std::uint64_t> trace(std::uint64_t count,
                                     Popularity popularity,
                                     double zipf_alpha,
                                     std::uint64_t seed) const;

  private:
    QueryUniverseConfig config_;
};

} // namespace deepstore::workloads

#endif // DEEPSTORE_WORKLOADS_QUERY_UNIVERSE_H
