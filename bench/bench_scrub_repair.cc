/**
 * @file
 * Self-healing cost sweep: foreground query latency (p50/p99) and
 * time-to-full-replication as a function of the repair-bandwidth cap
 * and the injected fault rate (DESIGN.md §12).
 *
 * Every cell replays the same closed-loop workload on a 4-node R=2
 * array, kills node 1 at the start of the query phase, and lets the
 * background scrub + repair engines run concurrently with the
 * foreground scan. Repair traffic crosses the shared host fabric
 * behind the configured cap, so the sweep exposes the classic
 * durability trade-off: a generous cap restores replication fast but
 * steals fabric bandwidth from query scatter/merge legs; a stingy cap
 * keeps foreground p99 flat while stretching the re-replication
 * window (the interval a second death would lose data).
 *
 * The no-kill, no-fault baseline anchors the regression gates CI
 * applies to the emitted JSON (JsonReport -> BENCH_scrub_repair.json):
 * time-to-repair must be finite in every kill cell, and foreground
 * p99 at the default cap must stay within 2x the baseline.
 */

#include <cstdio>
#include <iostream>
#include <memory>
#include <vector>

#include "bench_common.h"
#include "common/table.h"
#include "core/deepstore.h"
#include "support/fixtures.h"
#include "workloads/feature_gen.h"

using namespace deepstore;

namespace {

constexpr std::int64_t kDim = 64;
constexpr std::uint64_t kFeatures = 8'000;
constexpr std::uint64_t kQueriesPerCell = 48;
constexpr std::uint64_t kFaultSeed = 20'260'808;
constexpr double kDefaultCap = 1.6e9; // RepairConfig default

struct CellResult
{
    std::vector<double> latencies; // seconds, one per query
    double coverage_sum = 0.0;
    double timeToRepairSeconds = 0.0; // 0 in the baseline cell
    std::uint64_t repairPages = 0;
    std::uint64_t scrubScanned = 0;
    std::uint64_t scrubFound = 0;
    std::uint64_t scrubRepaired = 0;
};

/** One closed-loop cell; cap <= 0 means "healthy baseline" (no kill,
 *  no scrub/repair). fault_rate is the latent per-sector corruption
 *  probability the scrub pass is expected to surface. */
CellResult
runCell(double repair_cap, double fault_rate)
{
    const bool heal = repair_cap > 0.0;
    core::DeepStoreConfig cfg;
    cfg.defaultLevel = core::Level::ChannelLevel;
    for (std::uint64_t i = 0; i < 4; ++i) {
        ssd::FlashParams node;
        // Distinct per-node seeds: latent damage must be independent
        // across replicas, as it is on real hardware.
        node.faults.seed = kFaultSeed + i;
        node.faults.partialPageCorruptionProbability = fault_rate;
        node.faults.sectorsPerPage = fault_rate > 0.0 ? 8 : 0;
        cfg.array.nodes.push_back(node);
    }
    cfg.array.replication = 2;
    if (heal) {
        cfg.array.repair.enabled = true;
        cfg.array.repair.bandwidthBytesPerSecond = repair_cap;
        cfg.array.scrub.enabled = true;
        cfg.array.scrub.pagesPerSecond = 20'000.0;
        // After ingest settles, so the single pass walks real shards.
        cfg.array.scrub.startDelaySeconds = 50e-3;
    }
    core::DeepStore ds(cfg);
    workloads::FeatureGenerator gen(kDim, 32, 7);
    std::uint64_t db = ds.writeDB(
        std::make_shared<core::GeneratedFeatureSource>(gen,
                                                       kFeatures));
    std::uint64_t model = ds.loadModel(dotModel(kDim));

    Tick kill_tick = 0;
    if (heal) {
        kill_tick = ds.events().now();
        if (ds.killNode(1) != core::KillNodeResult::Killed)
            fatal("node 1 must be alive at the kill point");
    }

    CellResult out;
    bench::closedLoop(
        ds, 4, kQueriesPerCell,
        [&](std::uint64_t i) {
            return ds.query(gen.featureAt(i % kFeatures), 5, model, db,
                            0, 0);
        },
        [&](const core::QueryResult &res) {
            out.latencies.push_back(res.latencySeconds);
            out.coverage_sum += res.coverageFraction;
        });
    ds.drain();
    // Let the background engines finish (repair queue + scrub pass).
    while (ds.step()) {
    }

    const auto &upkeep = ds.array().maintenance();
    const auto &st = upkeep.stats();
    if (heal) {
        if (!upkeep.repairIdle() || st.lastRepairCompleteTick == 0)
            fatal("repair never reached full replication");
        out.timeToRepairSeconds =
            ticksToSeconds(st.lastRepairCompleteTick - kill_tick);
        out.repairPages = st.repairPagesCopied;
        out.scrubScanned = st.scrubPagesScanned;
        out.scrubFound = st.scrubUncorrectableFound;
        out.scrubRepaired = st.scrubLatentRepaired;
    }
    return out;
}

} // namespace

int
main()
{
    bench::banner(
        "scrub/repair cost sweep",
        "foreground p50/p99 and time-to-full-replication vs the\n"
        "repair-bandwidth cap and injected fault rate (4 nodes, R=2,\n"
        "node 1 killed at query start; seed " +
            std::to_string(kFaultSeed) + ", " +
            std::to_string(kQueriesPerCell) + " queries/cell)");

    CellResult base = runCell(0.0, 0.0);
    const double base_p99 = bench::percentile(base.latencies, 0.99);

    bench::JsonReport report("scrub_repair");
    report.meta("dim", static_cast<double>(kDim))
        .meta("features", static_cast<double>(kFeatures))
        .meta("queriesPerCell", static_cast<double>(kQueriesPerCell))
        .meta("faultSeed", static_cast<double>(kFaultSeed))
        .meta("defaultCapBytesPerSecond", kDefaultCap)
        .meta("baselineP50Seconds",
              bench::percentile(base.latencies, 0.50))
        .meta("baselineP99Seconds", base_p99);

    TextTable t({"cap (GB/s)", "fault rate", "p50 (ms)", "p99 (ms)",
                 "p99/base", "repair (ms)", "pages", "scrub found"});
    for (double cap : {0.4e9, kDefaultCap, 6.4e9}) {
        for (double rate : {0.0, 0.005}) {
            CellResult cell = runCell(cap, rate);
            double p50 = bench::percentile(cell.latencies, 0.50);
            double p99 = bench::percentile(cell.latencies, 0.99);
            double mean_cov =
                cell.coverage_sum /
                static_cast<double>(cell.latencies.size());
            t.addRow({TextTable::num(cap / 1e9, 2),
                      TextTable::num(rate, 4),
                      TextTable::num(p50 * 1e3, 3),
                      TextTable::num(p99 * 1e3, 3),
                      TextTable::num(p99 / base_p99, 3),
                      TextTable::num(cell.timeToRepairSeconds * 1e3,
                                     3),
                      std::to_string(cell.repairPages),
                      std::to_string(cell.scrubFound)});
            report.beginRow()
                .col("repairCapBytesPerSecond", cap)
                .col("faultRate", rate)
                .col("p50LatencySeconds", p50)
                .col("p99LatencySeconds", p99)
                .col("meanCoverageFraction", mean_cov)
                .col("timeToFullReplicationSeconds",
                     cell.timeToRepairSeconds)
                .col("repairPagesCopied",
                     static_cast<double>(cell.repairPages))
                .col("scrubPagesScanned",
                     static_cast<double>(cell.scrubScanned))
                .col("scrubUncorrectableFound",
                     static_cast<double>(cell.scrubFound))
                .col("scrubLatentRepaired",
                     static_cast<double>(cell.scrubRepaired));
            // R=2 over a single death: with no latent damage the
            // surviving replica must keep coverage at 1.0.
            if (rate == 0.0 &&
                cell.coverage_sum <
                    static_cast<double>(cell.latencies.size()))
                fatal("replicated array lost coverage on one death");
        }
    }
    t.print(std::cout);
    report.write();
    return 0;
}
