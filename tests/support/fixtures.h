/**
 * @file
 * Shared models and databases for the engine tests and benches (both
 * build trees put tests/ on the include path):
 *
 *  - dotModel: a pure dot-product SCN, so top-K by score is top-K by
 *    inner product and results can be checked against brute force;
 *  - mlpModel: a pair combiner plus `layers` square FC layers
 *    (compute-heavy; fully resident at dim 512);
 *  - randomDb: `count` generated features of width `dim`;
 *  - homogeneous: n identical node geometries for an array config;
 *  - drainAll: run an engine's event queue dry.
 *
 * Weights are seeded, so every caller sees the same model bits.
 */

#ifndef DEEPSTORE_TESTS_SUPPORT_FIXTURES_H
#define DEEPSTORE_TESTS_SUPPORT_FIXTURES_H

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/deepstore.h"
#include "core/feature_source.h"
#include "nn/serialize.h"
#include "workloads/feature_gen.h"

namespace deepstore {

inline nn::ModelBundle
dotModel(std::int64_t dim)
{
    nn::Model m("dot-scn", dim, false);
    m.addLayer(nn::Layer::elementWise("dot", nn::EwOp::DotProduct,
                                      dim));
    auto w = nn::ModelWeights::random(m, 1);
    return nn::ModelBundle{std::move(m), std::move(w)};
}

inline nn::ModelBundle
mlpModel(std::int64_t dim, int layers)
{
    nn::Model m("mlp-scn", dim, false);
    m.addLayer(nn::Layer::elementWise("fuse", nn::EwOp::Multiply,
                                      dim));
    for (int i = 0; i < layers; ++i)
        m.addLayer(nn::Layer::fc("fc" + std::to_string(i), dim, dim));
    auto w = nn::ModelWeights::random(m, 1);
    return nn::ModelBundle{std::move(m), std::move(w)};
}

inline std::shared_ptr<core::FeatureSource>
randomDb(std::int64_t dim, std::uint64_t count, std::uint64_t seed)
{
    workloads::FeatureGenerator gen(dim, 16, seed);
    return std::make_shared<core::GeneratedFeatureSource>(gen, count);
}

/** n identical default-geometry nodes. */
inline std::vector<ssd::FlashParams>
homogeneous(std::size_t n, const ssd::FlashParams &flash = {})
{
    return std::vector<ssd::FlashParams>(n, flash);
}

/** Run the event queue dry (background scrub/repair included). */
inline void
drainAll(core::DeepStore &ds)
{
    while (ds.step()) {
    }
}

} // namespace deepstore

#endif // DEEPSTORE_TESTS_SUPPORT_FIXTURES_H
