/**
 * @file
 * Ablation: FLASH_DFV prefetch-queue depth (§4.4, Fig. 5), on the
 * live engine: one channel-level scan on a one-channel DeepStore,
 * submitted straight to the node's QueryScheduler over its real
 * flash controller — with and without read-retry failure injection.
 * Weights are held resident so the flash/compute pipeline is
 * isolated. A depth-1 queue serializes flash and compute on every
 * burst; a modest queue hides both the steady latency and injected
 * retry outliers.
 */

#include <iostream>

#include "bench_common.h"
#include "common/table.h"
#include "core/query_model.h"
#include "sim/clock.h"
#include "support/fixtures.h"
#include "workloads/apps.h"

using namespace deepstore;

namespace {

double
runDepth(const workloads::AppInfo &app, std::uint32_t depth,
         double retry_probability)
{
    core::DeepStoreModel model{ssd::FlashParams{}};
    auto perf = model.evaluate(core::Level::ChannelLevel, app);
    const Tick burst =
        sim::Clock(perf.placement.array.frequencyHz)
            .cyclesToTicks(perf.modelRun.totalCycles());

    ssd::FlashParams params;
    params.readRetryProbability = retry_probability;
    const std::uint64_t features = 3000;
    ChannelScanRun run = scanOneChannel(params, features,
                                        app.featureBytes(), {burst},
                                        depth);
    return ticksToSeconds(run.ticks) / static_cast<double>(features);
}

} // namespace

int
main()
{
    bench::banner("Ablation: FLASH_DFV queue depth",
                  "Event-driven channel-accelerator pipeline, per-"
                  "feature time vs queue depth\n(clean flash and 5% "
                  "read-retry injection at 4x latency)");

    bench::JsonReport report("ablation_queue_depth");

    for (auto id : {workloads::AppId::ESTP, workloads::AppId::MIR}) {
        auto app = workloads::makeApp(id);
        bench::section(app.name);
        TextTable t({"DepthPages", "Clean(us/feat)",
                     "Retries(us/feat)", "RetryOverhead"});
        double clean_deep = 0;
        for (std::uint32_t depth : {1u, 2u, 4u, 8u, 16u, 32u, 64u}) {
            double clean = runDepth(app, depth, 0.0);
            double faulty = runDepth(app, depth, 0.05);
            if (depth == 64)
                clean_deep = clean;
            t.addRow({std::to_string(depth),
                      TextTable::num(clean * 1e6, 3),
                      TextTable::num(faulty * 1e6, 3),
                      TextTable::num((faulty / clean - 1) * 100, 1) +
                          "%"});
        }
        t.print(std::cout);
        report.table(t, app.name);
        double shallow = runDepth(app, 1, 0.0);
        std::printf("\ndepth 1 -> 64 improves per-feature time "
                    "%.2fx; the Table 3 design uses 32 pages.\n",
                    shallow / clean_deep);
    }
    report.write();
    return 0;
}
