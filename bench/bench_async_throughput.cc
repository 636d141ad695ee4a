/**
 * @file
 * Async multi-query throughput: simulated queries/second at the
 * channel level as a function of the number of queries kept in flight
 * (closed loop, depths 1/4/16/64). With one query in flight the
 * engine behaves exactly like the blocking pre-refactor path; deeper
 * pipelines interleave scans on the accelerator complex, sharing the
 * per-database flash stream, so a flash-bound workload gains nearly
 * the residency limit in throughput.
 *
 * Also cross-checks the zero-interleaving invariant: the depth-1
 * latency must match the analytic steady-state model.
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

constexpr std::int64_t kDim = 128;
constexpr std::uint64_t kFeatures = 20'000;
constexpr std::uint64_t kQueriesPerDepth = 256;

/** Closed-loop run: keep `depth` queries in flight until `total`
 *  have completed. @return simulated queries/second. */
double
runDepth(int depth, std::uint64_t total, double *mean_latency)
{
    core::DeepStoreConfig cfg;
    cfg.defaultLevel = core::Level::ChannelLevel;
    core::DeepStore ds(cfg);
    workloads::FeatureGenerator gen(kDim, 32, 7);
    std::uint64_t db = ds.writeDB(
        std::make_shared<core::GeneratedFeatureSource>(gen,
                                                       kFeatures));
    std::uint64_t model = ds.loadModel(dotModel(kDim));

    std::uint64_t completed = 0;
    double latency_sum = 0.0;

    double t0 = ds.simulatedSeconds();
    bench::closedLoop(
        ds, depth, total,
        [&](std::uint64_t i) {
            return ds.query(gen.featureAt(i % kFeatures), 5, model, db,
                            0, 0);
        },
        [&](const core::QueryResult &res) {
            latency_sum += res.latencySeconds;
            ++completed;
        });
    ds.drain();
    double span = ds.simulatedSeconds() - t0;
    if (mean_latency)
        *mean_latency =
            latency_sum / static_cast<double>(completed);
    return static_cast<double>(completed) / span;
}

} // namespace

int
main()
{
    bench::banner(
        "async query throughput",
        "closed-loop simulated QPS vs in-flight depth, channel "
        "level,\ndot-product SCN over a " +
            std::to_string(kFeatures) + "-feature db (dim " +
            std::to_string(kDim) + ")");

    // Analytic single-query latency for the invariant check.
    core::DeepStoreModel model{ssd::FlashParams{}};
    auto bundle = dotModel(kDim);
    core::LevelPerf perf = model.evaluateModel(
        core::Level::ChannelLevel, bundle.model,
        static_cast<std::uint64_t>(kDim) * kBytesPerFloat);
    double analytic =
        perf.aggregateSeconds * static_cast<double>(kFeatures);

    bench::JsonReport report("async_throughput");
    report.meta("dim", static_cast<double>(kDim))
        .meta("features", static_cast<double>(kFeatures))
        .meta("queriesPerDepth",
              static_cast<double>(kQueriesPerDepth))
        .meta("analyticDepth1LatencySeconds", analytic);

    TextTable t({"in-flight", "sim QPS", "mean lat (ms)",
                 "speedup vs 1"});
    double base_qps = 0.0;
    for (int depth : {1, 4, 16, 64}) {
        double mean_latency = 0.0;
        double qps =
            runDepth(depth, kQueriesPerDepth, &mean_latency);
        if (depth == 1) {
            base_qps = qps;
            double err =
                (mean_latency - analytic) / analytic * 100.0;
            std::printf("depth-1 latency %.6f ms vs analytic "
                        "%.6f ms (%+.4f%%)\n",
                        mean_latency * 1e3, analytic * 1e3, err);
        }
        t.addRow({std::to_string(depth), TextTable::num(qps, 0),
                  TextTable::num(mean_latency * 1e3, 3),
                  TextTable::num(qps / base_qps, 2) + "x"});
        report.beginRow()
            .col("depth", static_cast<double>(depth))
            .col("simQps", qps)
            .col("meanLatencySeconds", mean_latency)
            .col("speedupVsDepth1", qps / base_qps);
    }
    t.print(std::cout);
    report.write();
    return 0;
}
