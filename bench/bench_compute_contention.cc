/**
 * @file
 * Contention regimes of the event-native accelerator datapath. Three
 * channel-level workloads pin the three bottlenecks the unified
 * resource model can produce, and the new QueryResult counters must
 * tell them apart:
 *
 *  - flash-bound:   a dot-product scan over full-page features. The
 *    array reads dominate, the bounded station FIFO never fills, and
 *    a lone query sees zero shared-bus (NoC) arbitration wait.
 *  - compute-bound: a 3-layer square MLP whose weights stay resident
 *    in L2. Compute falls behind the stream, the DFV queues sit
 *    fully delivered, and backpressure accrues.
 *  - NoC-bound:     the flash-bound scan with a closed-loop appendDB
 *    ingest stream on the same SSD. Programs and scans arbitrate for
 *    the same channel buses, so NoC wait becomes nonzero.
 *
 * Single-query rows also carry the analytic model's per-leg
 * prediction so the bottleneck attribution can be cross-checked.
 * Results go to BENCH_compute_contention.json; CI asserts the
 * flash-bound row has zero NoC wait and the contended rows have
 * nonzero counters.
 */

#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/table.h"
#include "core/deepstore.h"
#include "core/query_model.h"
#include "support/fixtures.h"
#include "workloads/feature_gen.h"

using namespace deepstore;

namespace {

struct RegimeResult
{
    double latencySeconds = 0.0;
    double computeStallSeconds = 0.0;
    double backpressureSeconds = 0.0;
    double nocWaitSeconds = 0.0;
    // Analytic legs for the single-query regimes (0 when the regime
    // has concurrent ingest and the closed form does not apply).
    double computeLeg = 0.0, flashLeg = 0.0, weightLeg = 0.0;
};

/** One query over `features` fresh features; when `ingest` is set, a
 *  closed-loop appendDB stream runs until the query completes. */
RegimeResult
runRegime(const nn::ModelBundle &bundle, std::int64_t dim,
          std::uint64_t features, bool ingest)
{
    core::DeepStoreConfig cfg;
    cfg.defaultLevel = core::Level::ChannelLevel;
    core::DeepStore ds(cfg);
    workloads::FeatureGenerator gen(dim, 32, 7);
    std::uint64_t db = ds.writeDB(
        std::make_shared<core::GeneratedFeatureSource>(gen,
                                                       features));
    std::uint64_t model = ds.loadModel(bundle);

    RegimeResult r;
    if (!ingest) {
        core::LevelPerf perf = ds.model().evaluateModel(
            core::Level::ChannelLevel, bundle.model,
            ds.databaseInfo(db).featureBytes);
        if (perf.supported) {
            r.computeLeg = perf.computeSeconds;
            r.flashLeg = perf.flashSeconds;
            r.weightLeg = perf.weightStreamSeconds;
        }
    }

    bool done = false;
    std::uint64_t qid = ds.query(gen.featureAt(1), 5, model, db, 0,
                                 features);
    ds.onComplete(qid, [&](const core::QueryResult &res) {
        r.latencySeconds = res.latencySeconds;
        r.computeStallSeconds = res.computeStallSeconds;
        r.backpressureSeconds = res.backpressureSeconds;
        r.nocWaitSeconds = res.nocWaitSeconds;
        done = true;
    });
    while (!done) {
        if (ingest)
            ds.appendDB(db,
                        std::make_shared<core::GeneratedFeatureSource>(
                            gen, 1024));
        else
            ds.drain();
    }
    return r;
}

} // namespace

int
main()
{
    bench::banner(
        "compute contention sweep",
        "flash-, compute-, and NoC-bound regimes on the event-native "
        "datapath;\ncontention counters must attribute each "
        "bottleneck correctly");

    struct Regime
    {
        const char *name;
        nn::ModelBundle bundle;
        std::int64_t dim;
        std::uint64_t features;
        bool ingest;
    };
    // Geometries mirror the parity suite: dim 4096 is one feature
    // per page (array-read bound); the dim-512 MLP keeps its 3 MiB
    // of weights L2-resident while compute dominates, and 9216
    // features (288 per channel unit) overrun the 256-feature
    // station FIFO so backpressure engages.
    std::vector<Regime> regimes;
    regimes.push_back(
        {"flash-bound", dotModel(4096), 4096, 8192, false});
    regimes.push_back(
        {"compute-bound", mlpModel(512, 3), 512, 9216, false});
    regimes.push_back(
        {"noc-bound", dotModel(4096), 4096, 8192, true});

    bench::JsonReport report("compute_contention");
    TextTable t({"regime", "latency (ms)", "stall (ms)",
                 "backpr (ms)", "NoC wait (ms)", "compute leg (us)",
                 "flash leg (us)", "weight leg (us)"});
    for (const auto &rg : regimes) {
        RegimeResult r =
            runRegime(rg.bundle, rg.dim, rg.features, rg.ingest);
        t.addRow({rg.name, TextTable::num(r.latencySeconds * 1e3, 3),
                  TextTable::num(r.computeStallSeconds * 1e3, 3),
                  TextTable::num(r.backpressureSeconds * 1e3, 3),
                  TextTable::num(r.nocWaitSeconds * 1e3, 3),
                  TextTable::num(r.computeLeg * 1e6, 3),
                  TextTable::num(r.flashLeg * 1e6, 3),
                  TextTable::num(r.weightLeg * 1e6, 3)});
        report.beginRow()
            .col("regime", std::string(rg.name))
            .col("ingest", rg.ingest ? 1.0 : 0.0)
            .col("latencySeconds", r.latencySeconds)
            .col("computeStallSeconds", r.computeStallSeconds)
            .col("backpressureSeconds", r.backpressureSeconds)
            .col("nocWaitSeconds", r.nocWaitSeconds)
            .col("computeLegSeconds", r.computeLeg)
            .col("flashLegSeconds", r.flashLeg)
            .col("weightLegSeconds", r.weightLeg);
    }
    t.print(std::cout);
    report.write();

    std::printf("\nA lone flash-bound scan must see zero NoC wait; "
                "the contended regimes\nmust light up their "
                "counters (checked by the CI smoke step).\n");
    return 0;
}
