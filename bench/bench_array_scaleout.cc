/**
 * @file
 * Scale-out throughput of the sharded multi-SSD array: closed-loop
 * simulated QPS for node counts 1/2/4/8 at in-flight depths 1 and
 * 16. Every node holds 1/N of the feature database, so an N-node
 * array runs N concurrent 1/N-size scans per query plus the host
 * fabric's scatter/merge legs; a flash-bound workload should scale
 * near-linearly until the fabric or the merge serialization bites.
 *
 * Reported per cell: simulated QPS, p50/p99 query latency, the mean
 * merge-leg seconds, and total inter-node fabric bytes — the honest
 * cost of the scatter/merge plumbing, not just the speedup. CI's
 * smoke gate asserts the 4-node depth-16 cell clears 3x the 1-node
 * depth-16 throughput.
 */

#include <algorithm>
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
constexpr std::uint64_t kFeatures = 16'384;
constexpr std::uint64_t kQueriesPerCell = 96;

/** Per-node drive geometry: an 8-channel slice keeps the event count
 *  per cell small while leaving every node flash-bound. */
ssd::FlashParams
nodeFlash()
{
    ssd::FlashParams p;
    p.channels = 8;
    return p;
}

struct CellResult
{
    double qps = 0.0;
    double p50 = 0.0;
    double p99 = 0.0;
    double meanMergeSeconds = 0.0;
    double interNodeBytes = 0.0;
};

/** Closed-loop run: keep `depth` queries in flight on an
 *  `nodes`-node array until kQueriesPerCell have completed. */
CellResult
runCell(std::size_t nodes, int depth)
{
    core::DeepStoreConfig cfg;
    cfg.defaultLevel = core::Level::ChannelLevel;
    cfg.flash = nodeFlash();
    cfg.array.nodes.assign(nodes, nodeFlash());
    core::DeepStore ds(cfg);
    workloads::FeatureGenerator gen(kDim, 32, 7);
    std::uint64_t db = ds.writeDB(
        std::make_shared<core::GeneratedFeatureSource>(gen,
                                                       kFeatures));
    std::uint64_t model = ds.loadModel(dotModel(kDim));

    std::uint64_t completed = 0;
    std::vector<double> latencies;
    double merge_sum = 0.0;
    double bytes_sum = 0.0;

    double t0 = ds.simulatedSeconds();
    bench::closedLoop(
        ds, depth, kQueriesPerCell,
        [&](std::uint64_t i) {
            return ds.query(gen.featureAt(i % kFeatures), 5, model, db,
                            0, 0);
        },
        [&](const core::QueryResult &res) {
            latencies.push_back(res.latencySeconds);
            merge_sum += res.mergeSeconds;
            bytes_sum += static_cast<double>(res.interNodeBytes);
            ++completed;
        });
    ds.drain();
    double span = ds.simulatedSeconds() - t0;

    std::sort(latencies.begin(), latencies.end());
    auto pct = [&](double p) {
        if (latencies.empty())
            return 0.0;
        auto idx = static_cast<std::size_t>(
            p * static_cast<double>(latencies.size() - 1));
        return latencies[idx];
    };
    CellResult r;
    r.qps = static_cast<double>(completed) / span;
    r.p50 = pct(0.50);
    r.p99 = pct(0.99);
    r.meanMergeSeconds =
        merge_sum / static_cast<double>(completed);
    r.interNodeBytes = bytes_sum;
    return r;
}

} // namespace

int
main()
{
    bench::banner(
        "array scale-out throughput",
        "closed-loop simulated QPS vs node count x in-flight "
        "depth,\nchannel level, dot-product SCN over a " +
            std::to_string(kFeatures) +
            "-feature db striped across the array");

    bench::JsonReport report("array_scaleout");
    report.meta("dim", static_cast<double>(kDim))
        .meta("features", static_cast<double>(kFeatures))
        .meta("queriesPerCell",
              static_cast<double>(kQueriesPerCell))
        .meta("nodeChannels",
              static_cast<double>(nodeFlash().channels));

    TextTable t({"nodes", "depth", "sim QPS", "p50 (ms)", "p99 (ms)",
                 "merge (us)", "fabric MiB", "speedup vs 1-node"});
    for (int depth : {1, 16}) {
        double base_qps = 0.0;
        for (std::size_t nodes : {1u, 2u, 4u, 8u}) {
            CellResult r = runCell(nodes, depth);
            if (nodes == 1)
                base_qps = r.qps;
            t.addRow({std::to_string(nodes), std::to_string(depth),
                      TextTable::num(r.qps, 0),
                      TextTable::num(r.p50 * 1e3, 3),
                      TextTable::num(r.p99 * 1e3, 3),
                      TextTable::num(r.meanMergeSeconds * 1e6, 3),
                      TextTable::num(r.interNodeBytes / (1 << 20),
                                     2),
                      TextTable::num(r.qps / base_qps, 2) + "x"});
            report.beginRow()
                .col("nodes", static_cast<double>(nodes))
                .col("depth", static_cast<double>(depth))
                .col("simQps", r.qps)
                .col("p50LatencySeconds", r.p50)
                .col("p99LatencySeconds", r.p99)
                .col("meanMergeSeconds", r.meanMergeSeconds)
                .col("interNodeBytes", r.interNodeBytes)
                .col("speedupVsOneNode", r.qps / base_qps);
        }
    }
    t.print(std::cout);
    report.write();
    return 0;
}
