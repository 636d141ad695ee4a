/** @file Tests for the trace-replay queueing model. */

#include <functional>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "core/trace_replay.h"
#include "support/fixtures.h"

namespace deepstore::core {
namespace {

workloads::QueryUniverse
universe()
{
    workloads::QueryUniverseConfig cfg;
    cfg.numQueries = 400;
    cfg.numTopics = 20;
    return workloads::QueryUniverse(cfg);
}

TEST(TraceReplay, RejectsZeroScanTime)
{
    auto u = universe();
    auto trace = workloads::QueryTrace::generate(
        u, 10, 5.0, workloads::Popularity::Uniform, 0.0, 1);
    ReplayService s;
    EXPECT_THROW(replayTraceClosedForm(trace, s, nullptr), FatalError);
}

TEST(TraceReplay, EmptyTraceYieldsZeroStats)
{
    ReplayService s;
    s.scanSeconds = 1e-3;
    auto stats =
        replayTraceClosedForm(workloads::QueryTrace{}, s, nullptr);
    EXPECT_EQ(stats.queries, 0u);
}

TEST(TraceReplay, LightLoadResponseEqualsServiceTime)
{
    // Arrivals far apart: no queueing, every response = scan time.
    auto u = universe();
    auto trace = workloads::QueryTrace::generate(
        u, 100, 1.0, workloads::Popularity::Uniform, 0.0, 2);
    ReplayService s;
    s.scanSeconds = 1e-3; // 1 ms scan vs 1 s inter-arrival
    auto stats = replayTraceClosedForm(trace, s, nullptr);
    EXPECT_NEAR(stats.p50Seconds, 1e-3, 1e-9);
    // Rare arrival coincidences add a little queueing at the tail.
    EXPECT_NEAR(stats.p99Seconds, 1e-3, 1e-4);
    EXPECT_DOUBLE_EQ(stats.missRate, 1.0);
    EXPECT_LT(stats.utilization, 0.01);
}

TEST(TraceReplay, OverloadGrowsQueueingDelay)
{
    // Offered load > capacity: tail latencies blow past the mean
    // service time.
    auto u = universe();
    auto trace = workloads::QueryTrace::generate(
        u, 500, 100.0, workloads::Popularity::Uniform, 0.0, 3);
    ReplayService s;
    s.scanSeconds = 50e-3; // capacity 20/s << offered 100/s
    auto stats = replayTraceClosedForm(trace, s, nullptr);
    EXPECT_GT(stats.p99Seconds, 20 * s.scanSeconds);
    EXPECT_GT(stats.utilization, 0.95);
    EXPECT_GT(stats.p99Seconds, stats.p50Seconds);
}

TEST(TraceReplay, CacheReducesLatencyUnderLocality)
{
    auto u = universe();
    auto trace = workloads::QueryTrace::generate(
        u, 2000, 50.0, workloads::Popularity::Zipf, 0.8, 4);
    ReplayService s;
    s.scanSeconds = 10e-3;
    s.lookupSeconds = 50e-6;
    s.hitExtraSeconds = 20e-6;

    auto uncached = replayTraceClosedForm(trace, s, nullptr);

    QueryCacheConfig cfg;
    cfg.capacity = 100;
    cfg.threshold = 0.12;
    cfg.qcnAccuracy = 0.97;
    QueryCache cache(
        cfg, std::bind_front(&workloads::QueryUniverse::qcnScores, &u));
    auto cached = replayTraceClosedForm(trace, s, &cache);

    EXPECT_LT(cached.missRate, 0.9);
    EXPECT_LT(cached.meanSeconds, uncached.meanSeconds);
    EXPECT_LT(cached.utilization, uncached.utilization);
}

namespace engine_replay {

struct EngineRig
{
    static constexpr std::int64_t kDim = 16;
    DeepStore ds{DeepStoreConfig{}};
    std::uint64_t db = 0;
    std::uint64_t scn = 0;

    EngineRig()
    {
        workloads::FeatureGenerator gen(kDim, 8, 11);
        db = ds.writeDB(std::make_shared<GeneratedFeatureSource>(
            gen, 100));
        scn = ds.loadModel(dotModel(kDim));
    }

    EngineReplayConfig
    config(const workloads::QueryUniverse &u) const
    {
        EngineReplayConfig cfg;
        cfg.k = 3;
        cfg.modelId = scn;
        cfg.dbId = db;
        cfg.featureDim = kDim;
        cfg.universe = &u;
        return cfg;
    }
};

} // namespace engine_replay

TEST(TraceReplay, EngineReplayCompletesEveryQuery)
{
    using engine_replay::EngineRig;
    auto u = universe();
    EngineRig rig;
    auto trace = workloads::QueryTrace::generate(
        u, 30, 200.0, workloads::Popularity::Uniform, 0.0, 6);
    auto stats =
        replayTrace(rig.ds, trace, rig.config(u));
    EXPECT_EQ(stats.queries, 30u);
    EXPECT_DOUBLE_EQ(stats.missRate, 1.0); // no QC configured
    EXPECT_LE(stats.p50Seconds, stats.p95Seconds);
    EXPECT_LE(stats.p95Seconds, stats.p99Seconds);
    EXPECT_LE(stats.p99Seconds, stats.maxSeconds);
    EXPECT_GT(stats.throughput, 0.0);
    EXPECT_EQ(rig.ds.inFlight(), 0u);
}

TEST(TraceReplay, EngineReplayOverlapBeatsSerialService)
{
    // A burst of same-database queries overlaps on the accelerator
    // complex: throughput clears 2x what serial service of the
    // single-query latency would allow.
    using engine_replay::EngineRig;
    auto u = universe();
    EngineRig rig;

    double single =
        rig.ds
            .getResults(rig.ds.querySync(
                u.featureOf(0, EngineRig::kDim), 3, rig.scn, rig.db,
                0, 0))
            .latencySeconds;

    std::vector<workloads::TraceRecord> recs;
    for (int i = 0; i < 16; ++i)
        recs.push_back(workloads::TraceRecord{
            0.0, static_cast<std::uint64_t>(i + 1)});
    workloads::QueryTrace burst(std::move(recs));
    auto stats =
        replayTrace(rig.ds, burst, rig.config(u));
    EXPECT_EQ(stats.queries, 16u);
    EXPECT_GT(stats.throughput, 2.0 / single);
    // Interleaving is visible as >1 accelerator-time occupancy.
    EXPECT_GT(stats.utilization, 1.0);
}

TEST(TraceReplay, EngineReplayUsesTheEngineQueryCache)
{
    using engine_replay::EngineRig;
    auto u = universe();
    EngineRig rig;
    std::uint64_t qcn = rig.ds.loadModel(dotModel(EngineRig::kDim));
    rig.ds.setQC(qcn, 0.25, 0.99, 16);

    // Ten distinct queries, each repeated once: repeats hit.
    std::vector<workloads::TraceRecord> recs;
    for (int i = 0; i < 20; ++i)
        recs.push_back(workloads::TraceRecord{
            1e-3 * static_cast<double>(i),
            static_cast<std::uint64_t>(i % 10)});
    workloads::QueryTrace trace(std::move(recs));
    auto stats =
        replayTrace(rig.ds, trace, rig.config(u));
    EXPECT_EQ(stats.queries, 20u);
    EXPECT_LT(stats.missRate, 1.0);
    EXPECT_GT(rig.ds.queryCache()->hits(), 0u);
}

TEST(TraceReplay, EngineReplayValidatesConfig)
{
    using engine_replay::EngineRig;
    auto u = universe();
    EngineRig rig;
    workloads::QueryTrace trace(std::vector<workloads::TraceRecord>{
        workloads::TraceRecord{0.0, 1}});
    EngineReplayConfig bad = rig.config(u);
    bad.universe = nullptr;
    EXPECT_THROW(replayTrace(rig.ds, trace, bad),
                 FatalError);
    bad = rig.config(u);
    bad.featureDim = 0;
    EXPECT_THROW(replayTrace(rig.ds, trace, bad),
                 FatalError);
}

TEST(TraceReplay, PercentilesAreOrdered)
{
    auto u = universe();
    auto trace = workloads::QueryTrace::generate(
        u, 1000, 30.0, workloads::Popularity::Zipf, 0.7, 5);
    ReplayService s;
    s.scanSeconds = 20e-3;
    auto stats = replayTraceClosedForm(trace, s, nullptr);
    EXPECT_LE(stats.p50Seconds, stats.p95Seconds);
    EXPECT_LE(stats.p95Seconds, stats.p99Seconds);
    EXPECT_LE(stats.p99Seconds, stats.maxSeconds);
    EXPECT_GT(stats.throughput, 0.0);
}

} // namespace
} // namespace deepstore::core
