/**
 * @file
 * Mixed ingest/query workload: simulated query latency and QPS while
 * appendDB writes stream into the same SSD, at in-flight depths
 * 1/4/16. With the unified flash datapath the programs and the scan
 * streams execute on the *same* per-channel FlashControllers, so the
 * degradation measured here is physical plane/bus contention, not a
 * modeled penalty: host programs occupy planes for programLatency
 * while scan reads queue behind them.
 *
 * Each depth runs twice — queries alone, then queries with a
 * closed-loop ingest stream — and reports the latency/QPS ratio.
 * Results are also written to BENCH_mixed_ingest_query.json.
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

constexpr std::int64_t kDim = 128;        // 512 B features
constexpr std::uint64_t kFeatures = 20'000;
constexpr std::uint64_t kQueries = 64;
constexpr std::uint64_t kIngestBatch = 1'024; // 32 pages per append

struct RunResult
{
    double qps = 0.0;
    double meanLatency = 0.0;
    double maxLatency = 0.0;
    double ingestFeaturesPerSec = 0.0;
    // Contention counters summed over completed queries: compute
    // stalls (flash/weight starvation), DFV backpressure, and shared
    // channel-bus (NoC) arbitration waits. Under ingest the NoC term
    // is the physical signal of programs contending with scans.
    double computeStallSum = 0.0;
    double backpressureSum = 0.0;
    double nocWaitSum = 0.0;
};

/**
 * Closed-loop queries at `depth` in flight until kQueries complete;
 * when `ingest` is set, appendDB batches stream into the queried
 * database for the whole span (each append advances simulated time,
 * so query completions interleave with the program traffic).
 */
RunResult
runMixed(int depth, bool ingest)
{
    core::DeepStoreConfig cfg;
    cfg.defaultLevel = core::Level::ChannelLevel;
    core::DeepStore ds(cfg);
    workloads::FeatureGenerator gen(kDim, 32, 21);
    std::uint64_t db = ds.writeDB(
        std::make_shared<core::GeneratedFeatureSource>(gen,
                                                       kFeatures));
    std::uint64_t model = ds.loadModel(dotModel(kDim));

    RunResult r;
    std::uint64_t completed = 0;
    double latency_sum = 0.0;
    double t_last = 0.0;

    const double t0 = ds.simulatedSeconds();
    bench::closedLoop(
        ds, depth, kQueries,
        [&](std::uint64_t i) {
            // Query the original range only, so the scan work stays
            // constant while the database grows underneath it.
            return ds.query(gen.featureAt(i % kFeatures), 5, model, db,
                            0, kFeatures);
        },
        [&](const core::QueryResult &res) {
            latency_sum += res.latencySeconds;
            r.maxLatency = std::max(r.maxLatency,
                                    res.latencySeconds);
            r.computeStallSum += res.computeStallSeconds;
            r.backpressureSum += res.backpressureSeconds;
            r.nocWaitSum += res.nocWaitSeconds;
            ++completed;
            t_last = ds.simulatedSeconds();
        });

    std::uint64_t appended = 0;
    while (completed < kQueries) {
        if (ingest) {
            // One ingest batch: 32 full-page programs through the
            // host path, contending with every in-flight scan.
            ds.appendDB(db,
                        std::make_shared<core::GeneratedFeatureSource>(
                            gen, kIngestBatch));
            appended += kIngestBatch;
        } else {
            ds.drain();
        }
    }

    const double span = t_last - t0;
    r.qps = static_cast<double>(completed) / span;
    r.meanLatency = latency_sum / static_cast<double>(completed);
    r.ingestFeaturesPerSec =
        ingest ? static_cast<double>(appended) / span : 0.0;
    return r;
}

} // namespace

int
main()
{
    bench::banner(
        "mixed ingest + query",
        "closed-loop channel-level queries vs concurrent appendDB "
        "ingest\n(unified datapath: programs and scans share the "
        "flash controllers)");

    bench::JsonReport report("mixed_ingest_query");
    report.meta("dim", static_cast<double>(kDim))
        .meta("features", static_cast<double>(kFeatures))
        .meta("queries", static_cast<double>(kQueries))
        .meta("ingestBatchFeatures",
              static_cast<double>(kIngestBatch));

    TextTable t({"in-flight", "ingest", "sim QPS", "mean lat (ms)",
                 "max lat (ms)", "lat vs idle", "ingest MF/s",
                 "stall (ms)", "backpr (ms)", "NoC wait (ms)"});
    for (int depth : {1, 4, 16}) {
        RunResult idle = runMixed(depth, false);
        RunResult mixed = runMixed(depth, true);
        const double slowdown = mixed.meanLatency / idle.meanLatency;
        for (const auto *p : {&idle, &mixed}) {
            const bool ingest = p == &mixed;
            t.addRow({std::to_string(depth), ingest ? "yes" : "no",
                      TextTable::num(p->qps, 0),
                      TextTable::num(p->meanLatency * 1e3, 3),
                      TextTable::num(p->maxLatency * 1e3, 3),
                      ingest ? TextTable::num(slowdown, 2) + "x"
                             : "1.00x",
                      TextTable::num(
                          p->ingestFeaturesPerSec / 1e6, 2),
                      TextTable::num(p->computeStallSum * 1e3, 3),
                      TextTable::num(p->backpressureSum * 1e3, 3),
                      TextTable::num(p->nocWaitSum * 1e3, 3)});
            report.beginRow()
                .col("depth", static_cast<double>(depth))
                .col("ingest", ingest ? 1.0 : 0.0)
                .col("simQps", p->qps)
                .col("meanLatencySeconds", p->meanLatency)
                .col("maxLatencySeconds", p->maxLatency)
                .col("latencyVsIdle", ingest ? slowdown : 1.0)
                .col("ingestFeaturesPerSecond",
                     p->ingestFeaturesPerSec)
                .col("computeStallSeconds", p->computeStallSum)
                .col("backpressureSeconds", p->backpressureSum)
                .col("nocWaitSeconds", p->nocWaitSum);
        }
    }
    t.print(std::cout);
    report.write();
    return 0;
}
