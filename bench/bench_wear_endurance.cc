/**
 * @file
 * Wear / endurance sweep: what an aging drive does to intelligent
 * queries. One simulated device lives through successive aging
 * phases (host write/trim churn that consumes program/erase cycles)
 * with a batch of fixed queries after each phase. As the per-block
 * RBER climbs — erase wear from the churn, read disturb and observed
 * uncorrectables from the scans themselves — the FTL lifecycle
 * machinery kicks in: background relocations (real flash copies that
 * contend with the scans), then block retirement. The sweep reports,
 * per drive age:
 *
 *   - write amplification (logical writes + migration + relocation
 *     copies, over logical writes),
 *   - cumulative relocations and retired superblocks,
 *   - query p50/p99 latency and mean result coverage.
 *
 * The expected shape: latency and amplification stay flat while the
 * drive is young, then relocations appear (latency ticks up as copy
 * traffic shares the channels), and late in life blocks retire while
 * coverage stays honest. Everything is seeded and event-driven, so
 * the whole life story replays bit-identically.
 */

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/table.h"
#include "core/deepstore.h"
#include "support/fixtures.h"
#include "workloads/feature_gen.h"

using namespace deepstore;

namespace {

constexpr std::int64_t kDim = 32;
constexpr std::uint64_t kFeatures = 2'000; // 16 pages (superblock 0)
constexpr std::uint64_t kQueriesPerPhase = 16;
constexpr int kPhases = 6;
constexpr int kAgingCyclesPerPhase = 7;
/** The last aging phase is closed-loop: churn continues until this
 *  many superblocks have retired (the endurance cascade fires only
 *  near total P/E budget exhaustion because greedy least-worn
 *  allocation keeps the spare pool balanced until then). */
constexpr std::uint64_t kTargetRetired = 2;
/** Safety floor: stop churning before the free pool empties so the
 *  drive never goes device-full mid-benchmark. */
constexpr std::uint64_t kMinFreeSuperblocks = 3;
constexpr int kEndOfLifeCycleCap = 200;
constexpr std::uint64_t kFaultSeed = 20'260'806;

/** Scratch LPN region the aging churn cycles through (superblock 1
 *  of the small geometry; the database lives in superblock 0). */
constexpr std::uint64_t kScratchLpn = 64;
constexpr std::uint64_t kScratchPages = 64;

core::DeepStoreConfig
agedDriveConfig()
{
    core::DeepStoreConfig cfg;
    cfg.defaultLevel = core::Level::ChannelLevel;
    // Small geometry so wear accumulates within a tractable run:
    // 4ch x 2chip x 2plane x 8blk x 4pg -> 8 superblocks, 64 pages
    // each.
    cfg.flash.channels = 4;
    cfg.flash.chipsPerChannel = 2;
    cfg.flash.planesPerChip = 2;
    cfg.flash.blocksPerPlane = 8;
    cfg.flash.pagesPerBlock = 4;

    cfg.flash.faults.seed = kFaultSeed;
    cfg.flash.wear.enabled = true;
    cfg.flash.wear.baseRber = 1e-4;
    cfg.flash.wear.rberPerErase = 1e-3;  // erase wear
    cfg.flash.wear.rberPerRead = 1.3e-4; // read disturb
    cfg.flash.wear.rberPerUncorrectable = 1e-2;
    // Read disturb on the database block drives *relocations*;
    // *retirement* comes from the endurance cap — the aging churn
    // spends the P/E budget of the spare pool, and blocks that hit
    // maxEraseCount leave service for good.
    cfg.flash.wear.relocateRberThreshold = 0.04;
    cfg.flash.wear.retireRberThreshold = 0.12;
    cfg.flash.wear.maxEraseCount = 8;
    cfg.flash.wear.relocationBatchPages = 16;
    cfg.maxPageRetries = 2;
    return cfg;
}

double
stat(const core::DeepStore &ds, const std::string &name)
{
    auto &dev = const_cast<core::DeepStore &>(ds).array().node(0).device();
    const Stat *s = dev.stats().find(name);
    return s ? s->value() : 0.0;
}

} // namespace

int
main()
{
    bench::banner(
        "wear / endurance sweep",
        "write amplification, relocations, retired blocks, and query\n"
        "latency/coverage as one drive ages through P/E churn (seed " +
            std::to_string(kFaultSeed) + ")");

    core::DeepStoreConfig cfg = agedDriveConfig();
    core::DeepStore ds(cfg);
    workloads::FeatureGenerator gen(kDim, 32, 7);
    std::uint64_t db = ds.writeDB(
        std::make_shared<core::GeneratedFeatureSource>(gen,
                                                       kFeatures));
    std::uint64_t model = ds.loadModel(dotModel(kDim));

    bench::JsonReport report("wear_endurance");
    report.meta("dim", static_cast<double>(kDim))
        .meta("features", static_cast<double>(kFeatures))
        .meta("queriesPerPhase",
              static_cast<double>(kQueriesPerPhase))
        .meta("agingCyclesPerPhase",
              static_cast<double>(kAgingCyclesPerPhase))
        .meta("maxEraseCount",
              static_cast<double>(cfg.flash.wear.maxEraseCount))
        .meta("faultSeed", static_cast<double>(kFaultSeed));

    TextTable t({"age (P/E cycles)", "write amp", "relocations",
                 "retired blocks", "p50 lat (ms)", "p99 lat (ms)",
                 "mean coverage", "degraded"});

    // One program/erase cycle of churn on the least-worn free
    // superblock.
    auto churn_cycle = [&]() {
        bool done = false;
        ds.array().node(0).device().hostWrite(kScratchLpn, kScratchPages,
                           [&](Tick) { done = true; });
        while (!done && ds.step()) {
        }
        done = false;
        ds.array().node(0).device().hostTrim(kScratchLpn, kScratchPages,
                          [&](Tick) { done = true; });
        while (!done && ds.step()) {
        }
    };

    int age_cycles = 0;
    for (int phase = 0; phase < kPhases; ++phase) {
        if (phase > 0 && phase < kPhases - 1) {
            // Mid-life aging: a fixed dose of churn per phase.
            for (int cyc = 0; cyc < kAgingCyclesPerPhase; ++cyc) {
                churn_cycle();
                ++age_cycles;
            }
        } else if (phase == kPhases - 1) {
            // End of life is closed-loop: greedy least-worn
            // allocation keeps the spare pool balanced, so blocks
            // only start hitting maxEraseCount when the whole P/E
            // budget is nearly spent — and then they retire in a
            // cascade. Churn until the cascade has visibly started,
            // with a floor on the free pool so the drive never goes
            // device-full.
            int cyc = 0;
            while (ds.array().node(0).device().ftl().retiredSuperblocks() <
                       kTargetRetired &&
                   ds.array().node(0).device().ftl().freeSuperblocks() >
                       kMinFreeSuperblocks &&
                   cyc < kEndOfLifeCycleCap) {
                churn_cycle();
                ++age_cycles;
                ++cyc;
            }
        }

        // Fixed query batch against the (possibly relocated)
        // database.
        std::vector<double> lat;
        double cov_sum = 0.0;
        std::uint64_t degraded = 0;
        for (std::uint64_t q = 0; q < kQueriesPerPhase; ++q) {
            std::uint64_t qid = ds.querySync(
                gen.featureAt(q % kFeatures), 5, model, db, 0, 0);
            const core::QueryResult &res = ds.getResults(qid);
            lat.push_back(res.latencySeconds);
            cov_sum += res.coverageFraction;
            if (res.outcome != core::QueryOutcome::Success)
                ++degraded;
        }
        ds.drain(); // let background relocations finish

        double writes = stat(ds, "ftl.pageWrites");
        double amp =
            (writes + stat(ds, "ftl.migratedPages") +
             stat(ds, "ftl.relocatedPages")) /
            std::max(writes, 1.0);
        double relocations = stat(ds, "ftl.relocations");
        double retired = stat(ds, "ftl.retiredSuperblocks");
        double p50 = bench::percentile(lat, 0.50);
        double p99 = bench::percentile(lat, 0.99);
        double cov =
            cov_sum / static_cast<double>(kQueriesPerPhase);

        t.addRow({std::to_string(age_cycles),
                  TextTable::num(amp, 3),
                  TextTable::num(relocations, 0),
                  TextTable::num(retired, 0),
                  TextTable::num(p50 * 1e3, 3),
                  TextTable::num(p99 * 1e3, 3),
                  TextTable::num(cov, 4),
                  std::to_string(degraded)});
        report.beginRow()
            .col("ageCycles", static_cast<double>(age_cycles))
            .col("writeAmplification", amp)
            .col("relocations", relocations)
            .col("retiredBlocks", retired)
            .col("p50LatencySeconds", p50)
            .col("p99LatencySeconds", p99)
            .col("meanCoverageFraction", cov)
            .col("degradedQueries", static_cast<double>(degraded));
    }

    t.print(std::cout);

    // The life story must actually unfold: an aged drive that never
    // relocates or retires anything means the lifecycle machinery is
    // disconnected from the datapath.
    if (stat(ds, "ftl.relocations") < 1.0)
        fatal("aged drive triggered no relocations");
    if (stat(ds, "ftl.retiredSuperblocks") < 1.0)
        fatal("aged drive retired no blocks");

    report.write();
    return 0;
}
