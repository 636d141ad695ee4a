/**
 * @file
 * Seed-sweep determinism for the fault + FTL-lifecycle subsystem.
 *
 * The whole fault stack — flat uncorrectable draws, correlated
 * die/plane bursts, wear-induced (RBER-driven) errors, background
 * relocation, and block retirement — must be a pure function of
 * (seed, workload):
 *
 *  - the same seed replayed twice produces a bit-identical
 *    fingerprint (every completion tick and the full stats dump,
 *    fault/relocation/retirement counters included);
 *  - distinct seeds produce distinct schedules (no accidental
 *    seed-independence anywhere in the draw plumbing).
 *
 * Registered with the `fault` ctest label so CI can run the fault
 * suite selectively (`ctest -L fault`).
 */

#include <set>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "core/deepstore.h"
#include "support/fixtures.h"

namespace deepstore::core {
namespace {

/**
 * One fixed workload under the full fault stack, parameterized only
 * by the injector seed. Returns the run fingerprint: per-query
 * outcome/coverage/completion ticks plus the complete stats dump.
 */
std::string
fingerprint(std::uint64_t seed)
{
    DeepStoreConfig cfg;
    // Small geometry so wear accumulates quickly.
    cfg.flash.channels = 4;
    cfg.flash.chipsPerChannel = 2;
    cfg.flash.planesPerChip = 2;
    cfg.flash.blocksPerPlane = 8;
    cfg.flash.pagesPerBlock = 4;

    cfg.flash.faults.seed = seed;
    // Flat per-page layer (Domain::FlashUncorrectable). Moderate
    // rates: high enough that every run degrades, low enough that
    // the per-seed failure *pattern* stays distinctive.
    cfg.flash.faults.uncorrectableReadProbability = 0.1;
    // Correlated burst on channel 0 (Domain::CorrelatedBurst),
    // active across the whole run.
    BurstDomain burst;
    burst.channel = 0;
    burst.fromTick = 0;
    burst.untilTick = secondsToTicks(10.0);
    burst.uncorrectableProbability = 0.3;
    cfg.flash.faults.bursts.push_back(burst);
    cfg.maxPageRetries = 1; // per-attempt re-rolls add a second draw

    // Wear-induced layer (Domain::WearInduced) with thresholds low
    // enough that observed errors push blocks into relocation.
    cfg.flash.wear.enabled = true;
    cfg.flash.wear.baseRber = 1e-3;
    cfg.flash.wear.rberPerUncorrectable = 2e-2;
    cfg.flash.wear.relocateRberThreshold = 0.05;
    cfg.flash.wear.retireRberThreshold = 0.3;
    cfg.flash.wear.maxEraseCount = 64;

    DeepStore ds(cfg);
    auto src = randomDb(32, 2000, 11); // 16 pages across 4 channels
    std::uint64_t db = ds.writeDB(src);
    std::uint64_t model = ds.loadModel(dotModel(32));
    std::uint64_t q1 = ds.query(src->featureAt(1), 4, model, db, 0,
                                1000, Level::ChannelLevel);
    std::uint64_t q2 = ds.query(src->featureAt(7), 4, model, db,
                                1000, 2000, Level::ChipLevel);
    ds.drain();
    std::uint64_t q3 = ds.query(src->featureAt(3), 4, model, db, 0,
                                0, Level::SsdLevel);
    ds.drain();

    std::ostringstream os;
    for (std::uint64_t q : {q1, q2, q3}) {
        const QueryResult &r = ds.getResults(q);
        os << q << ":" << toString(r.outcome) << ":"
           << r.featuresScanned << ":"
           << ds.array().node(0).scheduler().completeTick(q) << "\n";
    }
    ds.dumpStats(os);
    return os.str();
}

TEST(FaultSeedSweep, SameSeedReplaysBitIdentically)
{
    for (std::uint64_t seed : {7ull, 2024ull, 0xDEADBEEFull}) {
        std::string a = fingerprint(seed);
        std::string b = fingerprint(seed);
        EXPECT_EQ(a, b) << "seed " << seed;
    }
}

TEST(FaultSeedSweep, SixteenSeedsProduceSixteenSchedules)
{
    std::set<std::string> prints;
    bool any_failed_pages = false;
    for (std::uint64_t seed = 1; seed <= 16; ++seed) {
        std::string fp = fingerprint(seed);
        EXPECT_TRUE(prints.insert(fp).second)
            << "seed " << seed
            << " collided with an earlier schedule";
        any_failed_pages |=
            fp.find("dfv.pagesFailed") != std::string::npos;
    }
    EXPECT_EQ(prints.size(), 16u);
    // The sweep exercised the fault path, not 16 clean runs.
    EXPECT_TRUE(any_failed_pages);
}

} // namespace
} // namespace deepstore::core
