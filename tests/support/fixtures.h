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
 *  - drainAll: run an engine's event queue dry;
 *  - scanOneChannel: one channel-level scan on a one-channel engine,
 *    submitted straight to node 0's QueryScheduler (the FLASH_DFV
 *    pipeline of Fig. 5 in isolation).
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

#include "common/logging.h"
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

/** What scanOneChannel measured. */
struct ChannelScanRun
{
    /** Completion tick - submit tick of the scan. */
    Tick ticks = 0;
    core::QueryRunStats stats;
    /** Features scanned from good pages. */
    std::uint64_t features = 0;
    std::uint64_t pagesStreamed = 0;
    double readRetries = 0.0;
};

/**
 * Scan `features` generated features of `feature_bytes` each at
 * channel level on a one-channel DeepStore over `flash`, with a
 * `depth`-page FLASH_DFV queue and `layer_bursts` of compute per
 * feature. The scan goes straight to node 0's QueryScheduler with
 * weights held resident and a free reduce, so its ticks are the
 * flash/compute pipeline alone.
 */
inline ChannelScanRun
scanOneChannel(ssd::FlashParams flash, std::uint64_t features,
               std::uint64_t feature_bytes,
               std::vector<Tick> layer_bursts, std::uint32_t depth)
{
    flash.channels = 1;
    core::DeepStoreConfig cfg;
    cfg.flash = flash;
    core::DeepStore ds(cfg);
    const std::uint64_t db = ds.writeDB(randomDb(
        static_cast<std::int64_t>(feature_bytes / kBytesPerFloat),
        features, 1));
    core::SsdNode &node = ds.array().node(0);
    const core::SubTarget t =
        ds.array().shardMap().overlap(db, 0, features).targets.at(0);
    core::Placement placement =
        core::makePlacement(core::Level::ChannelLevel, node.flash());
    placement.dfvQueueDepthPages = depth;

    core::QuerySubmission sub;
    sub.queryId = 1;
    sub.plan = node.resolvePlan(placement, t.localMd, t.localStart,
                                t.localEnd);
    sub.layerBurstTicksPerFeature = std::move(layer_bursts);
    sub.weightBytesPerSlot = 0; // resident: isolate flash + compute
    bool done = false;
    sub.finalize = [&done] { done = true; };
    core::QueryScheduler &sched = node.scheduler();
    sched.submit(std::move(sub));
    while (!done && ds.step()) {
    }
    if (!done)
        panic("one-channel scan stalled");

    return {sched.completeTick(1) - sched.submitTick(1),
            sched.runStats(1), sched.coveredFeatures(1),
            static_cast<std::uint64_t>(
                node.stats().get("dfv.pagesStreamed").value()),
            node.stats().get("flash.readRetries").value()};
}

} // namespace deepstore

#endif // DEEPSTORE_TESTS_SUPPORT_FIXTURES_H
