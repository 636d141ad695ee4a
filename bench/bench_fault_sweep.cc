/**
 * @file
 * Fault-injection sweep: query latency (p50/p99) and mean result
 * coverage as a function of the injected uncorrectable-read rate and
 * the number of queries kept in flight. Every cell replays the same
 * closed-loop workload under the same seed, so the sweep is exactly
 * reproducible run to run; the zero-fault column doubles as a
 * regression anchor (coverage must be 1.0 and its latencies must
 * match the fault-free engine bit for bit).
 *
 * The interesting shape: mild fault rates cost latency (retry ladder,
 * page reissue) but not coverage — the recovery machinery absorbs
 * them. Only when the per-page failure probability overwhelms the
 * retry budget does mean coverage drop below 1, and it degrades
 * smoothly rather than collapsing, which is the graceful-degradation
 * property the scheduler is designed for.
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
constexpr std::uint64_t kQueriesPerCell = 64;
constexpr std::uint64_t kFaultSeed = 20'260'806;

struct CellResult {
    std::vector<double> latencies; // seconds, one per query
    double coverage_sum = 0.0;
    std::uint64_t degraded = 0;
};

/** Closed-loop run of one (fault rate, depth) cell. */
CellResult
runCell(double fault_rate, int depth)
{
    core::DeepStoreConfig cfg;
    cfg.defaultLevel = core::Level::ChannelLevel;
    cfg.flash.faults.seed = kFaultSeed;
    cfg.flash.faults.uncorrectableReadProbability = fault_rate;
    core::DeepStore ds(cfg);
    workloads::FeatureGenerator gen(kDim, 32, 7);
    std::uint64_t db = ds.writeDB(
        std::make_shared<core::GeneratedFeatureSource>(gen,
                                                       kFeatures));
    std::uint64_t model = ds.loadModel(dotModel(kDim));

    CellResult out;
    bench::closedLoop(
        ds, depth, kQueriesPerCell,
        [&](std::uint64_t i) {
            return ds.query(gen.featureAt(i % kFeatures), 5, model, db,
                            0, 0);
        },
        [&](const core::QueryResult &res) {
            out.latencies.push_back(res.latencySeconds);
            out.coverage_sum += res.coverageFraction;
            if (res.outcome != core::QueryOutcome::Success)
                ++out.degraded;
        });
    ds.drain();
    return out;
}

} // namespace

int
main()
{
    bench::banner(
        "fault-injection sweep",
        "p50/p99 query latency and mean coverage vs injected\n"
        "uncorrectable-read rate and in-flight depth (seed " +
            std::to_string(kFaultSeed) + ", " +
            std::to_string(kQueriesPerCell) + " queries/cell)");

    bench::JsonReport report("fault_sweep");
    report.meta("dim", static_cast<double>(kDim))
        .meta("features", static_cast<double>(kFeatures))
        .meta("queriesPerCell",
              static_cast<double>(kQueriesPerCell))
        .meta("faultSeed", static_cast<double>(kFaultSeed));

    TextTable t({"fault rate", "depth", "p50 lat (ms)",
                 "p99 lat (ms)", "mean coverage", "degraded"});
    for (double rate : {0.0, 1e-4, 1e-3, 1e-2, 5e-2, 0.25}) {
        for (int depth : {1, 4, 16}) {
            CellResult cell = runCell(rate, depth);
            double p50 = bench::percentile(cell.latencies, 0.50);
            double p99 = bench::percentile(cell.latencies, 0.99);
            double cov = cell.coverage_sum /
                         static_cast<double>(cell.latencies.size());
            t.addRow({TextTable::num(rate, 4),
                      std::to_string(depth),
                      TextTable::num(p50 * 1e3, 3),
                      TextTable::num(p99 * 1e3, 3),
                      TextTable::num(cov, 4),
                      std::to_string(cell.degraded)});
            report.beginRow()
                .col("faultRate", rate)
                .col("depth", static_cast<double>(depth))
                .col("p50LatencySeconds", p50)
                .col("p99LatencySeconds", p99)
                .col("meanCoverageFraction", cov)
                .col("degradedQueries",
                     static_cast<double>(cell.degraded));
            if (rate == 0.0 && cov != 1.0)
                fatal("fault-free cell must have full coverage");
        }
    }
    t.print(std::cout);
    report.write();
    return 0;
}
