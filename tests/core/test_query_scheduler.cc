/**
 * @file
 * Tests for the asynchronous query scheduler: multi-query in-flight
 * execution, latency parity with the analytic model, event-clock time
 * accounting, cross-run determinism, and the FLASH_DFV pipeline of a
 * single channel scan (queue depth, flash- vs compute-bound, read
 * retries).
 */

#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "core/deepstore.h"
#include "sim/clock.h"
#include "ssd/throughput.h"
#include "support/fixtures.h"

namespace deepstore::core {
namespace {

TEST(AsyncQuery, SubmitReturnsImmediatelyAndDrainCompletes)
{
    DeepStore ds{DeepStoreConfig{}};
    auto src = randomDb(32, 120, 1);
    std::uint64_t db = ds.writeDB(src);
    std::uint64_t model = ds.loadModel(dotModel(32));

    double t0 = ds.simulatedSeconds();
    std::uint64_t qid =
        ds.query(src->featureAt(7), 4, model, db, 0, 0);
    // No simulated time passed during submission.
    EXPECT_EQ(ds.simulatedSeconds(), t0);
    EXPECT_EQ(ds.inFlight(), 1u);
    auto st = ds.poll(qid);
    ASSERT_TRUE(st.has_value());
    EXPECT_NE(*st, QueryState::Complete);

    ds.drain();
    EXPECT_EQ(ds.inFlight(), 0u);
    EXPECT_EQ(ds.poll(qid), QueryState::Complete);
    EXPECT_EQ(ds.getResults(qid).topK.size(), 4u);
    EXPECT_GT(ds.simulatedSeconds(), t0);
}

TEST(AsyncQuery, GetResultsWhileInFlightIsFatal)
{
    DeepStore ds{DeepStoreConfig{}};
    auto src = randomDb(16, 60, 2);
    std::uint64_t db = ds.writeDB(src);
    std::uint64_t model = ds.loadModel(dotModel(16));
    std::uint64_t qid =
        ds.query(src->featureAt(0), 3, model, db, 0, 0);
    EXPECT_THROW(ds.getResults(qid), FatalError);
    ds.waitFor(qid);
    EXPECT_NO_THROW(ds.getResults(qid));
    // Unknown ids still fatal after the refactor.
    EXPECT_THROW(ds.getResults(777), FatalError);
    EXPECT_FALSE(ds.poll(777).has_value());
}

TEST(AsyncQuery, OnCompleteFiresOnceInOrder)
{
    DeepStore ds{DeepStoreConfig{}};
    auto src = randomDb(16, 40, 4);
    std::uint64_t db = ds.writeDB(src);
    std::uint64_t model = ds.loadModel(dotModel(16));
    std::uint64_t qid =
        ds.query(src->featureAt(2), 3, model, db, 0, 0);

    std::vector<int> calls;
    ds.onComplete(qid, [&](const QueryResult &r) {
        EXPECT_EQ(r.queryId, qid);
        calls.push_back(1);
    });
    ds.onComplete(qid, [&](const QueryResult &) {
        calls.push_back(2);
    });
    ds.drain();
    EXPECT_EQ(calls, (std::vector<int>{1, 2}));
    // Registering after completion fires immediately.
    ds.onComplete(qid, [&](const QueryResult &) {
        calls.push_back(3);
    });
    EXPECT_EQ(calls, (std::vector<int>{1, 2, 3}));
}

TEST(AsyncQuery, WaitForAdvancesOnlyToThatQuery)
{
    // Large enough that channel striping parallelizes the scan: 64
    // pages -> 2 per channel, so the SSD-level unit computes 32x the
    // features of any channel unit.
    DeepStore ds{DeepStoreConfig{}};
    auto src = randomDb(32, 8192, 5);
    std::uint64_t db = ds.writeDB(src);
    std::uint64_t model = ds.loadModel(dotModel(32));

    // Slow SSD-level scan first, fast channel-level scan second.
    std::uint64_t slow = ds.query(src->featureAt(0), 3, model, db, 0,
                                  0, Level::SsdLevel);
    std::uint64_t fast = ds.query(src->featureAt(1), 3, model, db, 0,
                                  0, Level::ChannelLevel);
    ds.waitFor(fast);
    EXPECT_EQ(ds.poll(fast), QueryState::Complete);
    EXPECT_NE(ds.poll(slow), QueryState::Complete);
    EXPECT_EQ(ds.inFlight(), 1u);
    ds.drain();
    EXPECT_GT(ds.getResults(slow).latencySeconds,
              ds.getResults(fast).latencySeconds);
}

TEST(AsyncQuery, ConcurrentSameDbQueriesInterleave)
{
    // N concurrent channel-level scans of one database share the
    // flash stream, so the makespan is far below N x single-query
    // latency (this is where multi-query throughput comes from).
    const std::int64_t dim = 32;
    const std::uint64_t features = 300;
    const int n = 8;

    DeepStore base{DeepStoreConfig{}};
    auto src = randomDb(dim, features, 6);
    std::uint64_t db = base.writeDB(src);
    std::uint64_t model = base.loadModel(dotModel(dim));
    double single =
        base.getResults(
                base.querySync(src->featureAt(0), 3, model, db, 0, 0))
            .latencySeconds;

    DeepStore ds{DeepStoreConfig{}};
    std::uint64_t db2 = ds.writeDB(randomDb(dim, features, 6));
    std::uint64_t model2 = ds.loadModel(dotModel(dim));
    double t0 = ds.simulatedSeconds();
    std::vector<std::uint64_t> qids;
    for (int i = 0; i < n; ++i)
        qids.push_back(ds.query(src->featureAt(
                                    static_cast<std::uint64_t>(i)),
                                3, model2, db2, 0, 0));
    EXPECT_EQ(ds.inFlight(), static_cast<std::size_t>(n));
    // Shards stripe onto the units once their probe events fire.
    while (ds.poll(qids.front()) != QueryState::Scanning && ds.step()) {
    }
    EXPECT_EQ(ds.poll(qids.front()), QueryState::Scanning);
    ds.drain();
    double makespan = ds.simulatedSeconds() - t0;
    double speedup = static_cast<double>(n) * single / makespan;
    EXPECT_GE(speedup, 2.0)
        << "makespan " << makespan << " single " << single;
    // Every query still returns the correct result set size.
    for (std::uint64_t qid : qids)
        EXPECT_EQ(ds.getResults(qid).topK.size(), 3u);
    // No query finished faster than a lone scan could.
    for (std::uint64_t qid : qids)
        EXPECT_GE(ds.getResults(qid).latencySeconds, single * 0.99);
}

TEST(AsyncQuery, SimulatedTimeEqualsEventClockOnMixedWorkload)
{
    // Regression guard for the cache-hit double-accounting hazard:
    // whatever mix of hits and misses runs, the engine's reported
    // simulated time must equal the event-queue clock exactly, and
    // the ledger must label every attributed second.
    DeepStore ds{DeepStoreConfig{}};
    const std::int64_t dim = 32;
    auto src = randomDb(dim, 150, 7);
    std::uint64_t db = ds.writeDB(src);
    std::uint64_t scn = ds.loadModel(dotModel(dim));
    std::uint64_t qcn = ds.loadModel(dotModel(dim));
    ds.setQC(qcn, 0.25, 0.99, 16);

    // Misses, repeats (hits), async overlap, sync waits.
    std::uint64_t a = ds.querySync(src->featureAt(3), 5, scn, db, 0, 0);
    std::uint64_t b = ds.query(src->featureAt(3), 5, scn, db, 0, 0);
    std::uint64_t c = ds.query(src->featureAt(9), 5, scn, db, 0, 0);
    ds.drain();
    std::uint64_t d = ds.querySync(src->featureAt(9), 5, scn, db, 0, 0);

    EXPECT_FALSE(ds.getResults(a).cacheHit);
    EXPECT_TRUE(ds.getResults(b).cacheHit);
    EXPECT_FALSE(ds.getResults(c).cacheHit);
    EXPECT_TRUE(ds.getResults(d).cacheHit);
    EXPECT_LT(ds.getResults(d).latencySeconds,
              ds.getResults(c).latencySeconds);

    // Simulated time is the event clock, by definition and in fact.
    EXPECT_DOUBLE_EQ(ds.simulatedSeconds(),
                     ticksToSeconds(ds.events().now()));
    EXPECT_EQ(ds.ledger().nowTick(), ds.events().now());

    // The hit path attributed QcLookup + CacheHit (not Scan) time.
    EXPECT_GT(ds.ledger().componentSeconds(TimeComponent::QcLookup),
              0.0);
    EXPECT_GT(ds.ledger().componentSeconds(TimeComponent::CacheHit),
              0.0);
    EXPECT_GT(ds.ledger().componentSeconds(TimeComponent::Scan), 0.0);
    // Attribution is complete: per-component seconds sum to at least
    // the wall clock minus nothing unlabeled going negative.
    EXPECT_GT(ds.ledger().attributedSeconds(), 0.0);
}

TEST(AsyncQuery, DeterministicAcrossIdenticalRuns)
{
    // Two identical async runs must agree byte-for-byte: same stats
    // dump, same top-K, same completion ticks.
    auto run = [](std::string &stats,
                  std::vector<ScoredResult> &topk) {
        DeepStore ds{DeepStoreConfig{}};
        const std::int64_t dim = 32;
        auto src = randomDb(dim, 100, 8);
        std::uint64_t db = ds.writeDB(src);
        std::uint64_t scn = ds.loadModel(dotModel(dim));
        std::uint64_t qcn = ds.loadModel(dotModel(dim));
        ds.setQC(qcn, 0.25, 0.99, 8);
        std::vector<std::uint64_t> qids;
        for (int i = 0; i < 6; ++i)
            qids.push_back(ds.query(
                src->featureAt(static_cast<std::uint64_t>(i % 3)), 4,
                scn, db, 0, 0,
                i % 2 == 0 ? Level::ChannelLevel : Level::ChipLevel));
        ds.drain();
        std::ostringstream os;
        ds.dumpStats(os);
        stats = os.str();
        topk = ds.getResults(qids.back()).topK;
    };
    std::string s1, s2;
    std::vector<ScoredResult> k1, k2;
    run(s1, k1);
    run(s2, k2);
    EXPECT_EQ(s1, s2);
    EXPECT_EQ(k1, k2);
}

TEST(AsyncQuery, SchedulerQueuesBeyondResidencyLimit)
{
    // More concurrent scans than recovery.maxResidentScans:
    // the excess waits FIFO instead of being dropped or serialized
    // incorrectly.
    DeepStoreConfig cfg;
    cfg.recovery.maxResidentScans = 2;
    DeepStore ds(cfg);
    auto src = randomDb(16, 100, 9);
    std::uint64_t db = ds.writeDB(src);
    std::uint64_t model = ds.loadModel(dotModel(16));
    std::vector<std::uint64_t> qids;
    for (int i = 0; i < 5; ++i)
        qids.push_back(ds.query(
            src->featureAt(static_cast<std::uint64_t>(i)), 2, model,
            db, 0, 0));
    // Two shards per unit at a time: the five queries finish in
    // three FIFO waves, each a full scan after the one before.
    ds.drain();
    std::vector<double> latency;
    for (std::uint64_t qid : qids) {
        EXPECT_EQ(ds.poll(qid), QueryState::Complete);
        latency.push_back(ds.getResults(qid).latencySeconds);
    }
    EXPECT_LT(latency[1], 1.1 * latency[0]);
    EXPECT_GT(latency[2], 1.5 * latency[1]);
    EXPECT_LT(latency[3], 1.1 * latency[2]);
    EXPECT_GT(latency[4], 1.2 * latency[3]);
}

// ---- one channel scan: the FLASH_DFV pipeline (Fig. 5) ----------

/** One per-feature compute burst of `cycles` on an 800 MHz array. */
std::vector<Tick>
burstOf(Cycles cycles)
{
    return {sim::Clock(800e6).cyclesToTicks(cycles)};
}

TEST(DfvPipeline, ProcessesEveryFeature)
{
    // 2 KiB features: 8 per page.
    ChannelScanRun run =
        scanOneChannel({}, 500, 2048, burstOf(2000), 32);
    EXPECT_EQ(run.features, 500u);
    EXPECT_EQ(run.pagesStreamed, (500u + 7) / 8);
    EXPECT_GT(run.ticks, 0u);
}

TEST(DfvPipeline, ComputeBoundRunApproachesComputeTime)
{
    // 20000 cycles = 25 us/feature at 800 MHz.
    ChannelScanRun run =
        scanOneChannel({}, 2000, 2048, burstOf(20000), 32);
    const double total = ticksToSeconds(run.ticks);
    const double compute_only = 2000 * 25e-6;
    EXPECT_NEAR(total, compute_only, 0.03 * compute_only);
    // Flash hides almost entirely behind compute.
    EXPECT_LT(ticksToSeconds(run.stats.computeStallTicks),
              0.02 * total);
}

TEST(DfvPipeline, FlashBoundRunMatchesChannelRate)
{
    // One full page per feature, trivially cheap compute.
    ssd::FlashParams flash;
    ChannelScanRun run =
        scanOneChannel(flash, 2000, 16384, burstOf(100), 32);
    const double total = ticksToSeconds(run.ticks);
    const double flash_only =
        2000 / ssd::channelFeatureRate(flash, 16384);
    EXPECT_NEAR(total, flash_only, 0.10 * flash_only);
    EXPECT_GT(ticksToSeconds(run.stats.computeStallTicks),
              0.5 * total);
}

TEST(DfvPipeline, DeeperQueueNeverHurts)
{
    double prev = 1e9;
    for (std::uint32_t depth : {1u, 4u, 16u, 64u}) {
        ChannelScanRun run =
            scanOneChannel({}, 1000, 16384, burstOf(15000), depth);
        const double total = ticksToSeconds(run.ticks);
        EXPECT_LE(total, prev * 1.001) << depth;
        prev = total;
    }
}

TEST(DfvPipeline, RetryInjectionSlowsTheScan)
{
    ssd::FlashParams faulty;
    faulty.readRetryProbability = 0.05;
    faulty.readRetryPenalty = 4.0;
    ChannelScanRun base =
        scanOneChannel({}, 1500, 16384, burstOf(500), 32);
    ChannelScanRun slow =
        scanOneChannel(faulty, 1500, 16384, burstOf(500), 32);
    EXPECT_GT(slow.ticks, base.ticks);
    EXPECT_GT(slow.readRetries, 0.0);
    // A deep queue largely hides sparse retries.
    EXPECT_LT(static_cast<double>(slow.ticks),
              1.30 * static_cast<double>(base.ticks));
}

} // namespace
} // namespace deepstore::core
