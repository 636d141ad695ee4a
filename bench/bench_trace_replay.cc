/**
 * @file
 * Trace replay under load (§5's trace-driven evaluation, extended to
 * response-time distributions): a Poisson query stream served by
 * DeepStore's channel level, with and without the Query Cache.
 *
 * Default backend: the **live engine** (replayTrace) — arrivals are
 * event-queue events, queries overlap on the accelerator complex,
 * and response times come from real completion ticks.
 *
 * `--closed-form` switches to the validator-only single-server FIFO
 * model (replayTraceClosedForm) at the paper-scale 1M-feature TIR
 * workload, which also covers the GPU+SSD baseline (a system with no
 * event-driven engine). Its numbers are analytic cross-checks, not
 * engine timing.
 */

#include <cstring>
#include <functional>
#include <iostream>
#include <memory>

#include "bench_common.h"
#include "common/table.h"
#include "core/query_model.h"
#include "core/trace_replay.h"
#include "host/baseline.h"
#include "support/fixtures.h"

using namespace deepstore;

namespace {

core::ReplayService
makeService(bool deepstore, const workloads::AppInfo &app,
            std::uint64_t features, std::size_t entries)
{
    core::ReplayService s;
    core::DeepStoreModel ds{ssd::FlashParams{}};
    host::GpuSsdSystem gpu(host::voltaSpec());
    if (deepstore) {
        s.scanSeconds =
            ds.scanSeconds(core::Level::ChannelLevel, app, features);
        auto qcn = ds.evaluateModel(
            core::Level::ChannelLevel, app.qcn,
            static_cast<std::uint64_t>(app.qcn.featureDim()) * 4);
        s.lookupSeconds = qcn.computeSeconds *
                          static_cast<double>(entries) /
                          qcn.placement.numAccelerators;
        s.hitExtraSeconds =
            ds.evaluate(core::Level::ChannelLevel, app)
                .computeSeconds *
            10;
    } else {
        s.scanSeconds = gpu.scanSeconds(app, features);
        s.lookupSeconds =
            static_cast<double>(app.qcn.totalFlops()) *
            static_cast<double>(entries) /
            host::voltaSpec().effectiveFlops;
        s.hitExtraSeconds =
            static_cast<double>(app.scn.totalFlops()) * 10 /
            host::voltaSpec().effectiveFlops;
    }
    return s;
}

void
addStatsRow(TextTable &t, const char *name,
            const core::ReplayStats &stats)
{
    t.addRow({name, TextTable::num(stats.missRate * 100, 0),
              TextTable::num(stats.utilization * 100, 0),
              TextTable::num(stats.p50Seconds * 1e3, 1),
              TextTable::num(stats.p95Seconds * 1e3, 1),
              TextTable::num(stats.p99Seconds * 1e3, 1)});
}

/** Validator-only: the pre-event-native closed-form comparison at
 *  paper scale, including the GPU+SSD baseline. */
void
runClosedForm(bench::JsonReport &report)
{
    auto app = workloads::makeApp(workloads::AppId::TIR);
    const std::uint64_t features = 1'000'000;
    const std::size_t entries = 1000;

    workloads::QueryUniverseConfig ucfg;
    ucfg.numQueries = 50'000;
    ucfg.numTopics = 2'000;
    workloads::QueryUniverse universe(ucfg);

    struct System
    {
        const char *name;
        bool deepstore;
        bool cached;
    };
    const System systems[] = {
        {"GPU+SSD", false, false},
        {"GPU+SSD + QCache", false, true},
        {"DeepStore (channel)", true, false},
        {"DeepStore + QCache", true, true},
    };

    for (double rate : {0.2, 1.0, 3.0}) {
        bench::section("arrival rate " + TextTable::num(rate, 1) +
                       " queries/s (closed form)");
        auto trace = workloads::QueryTrace::generate(
            universe, 1500, rate, workloads::Popularity::Zipf, 0.7,
            77);
        TextTable t({"System", "Miss%", "Util%", "p50(ms)",
                     "p95(ms)", "p99(ms)"});
        for (const auto &sys : systems) {
            auto service =
                makeService(sys.deepstore, app, features, entries);
            std::unique_ptr<core::QueryCache> cache;
            if (sys.cached) {
                core::QueryCacheConfig cfg;
                cfg.capacity = entries;
                cfg.threshold = 0.12;
                cfg.qcnAccuracy = 0.97;
                cache = std::make_unique<core::QueryCache>(
                    cfg,
                    std::bind_front(&workloads::QueryUniverse::qcnScores,
                                    &universe));
            }
            auto stats = core::replayTraceClosedForm(trace, service,
                                                     cache.get());
            addStatsRow(t, sys.name, stats);
        }
        t.print(std::cout);
        report.table(t, TextTable::num(rate, 1) +
                            " q/s closed-form");
    }

    std::printf(
        "\nClosed-form validator view (single-server FIFO): the GPU "
        "baseline saturates\nfirst; DeepStore sustains an order of "
        "magnitude higher arrival rate at bounded\nlatency, and the "
        "Query Cache extends that further.\n");
}

/** Default: replay on a live engine — real flash reads, slot-
 *  scheduled compute, overlapping queries. */
void
runOnEngine(bench::JsonReport &report)
{
    constexpr std::int64_t kDim = 64;
    constexpr std::uint64_t kFeatures = 8'000;

    workloads::QueryUniverseConfig ucfg;
    ucfg.numQueries = 4'000;
    ucfg.numTopics = 200;
    workloads::QueryUniverse universe(ucfg);

    for (double rate : {10.0, 50.0}) {
        bench::section("arrival rate " + TextTable::num(rate, 1) +
                       " queries/s (live engine)");
        auto trace = workloads::QueryTrace::generate(
            universe, 200, rate, workloads::Popularity::Zipf, 0.7,
            77);
        TextTable t({"System", "Miss%", "Util%", "p50(ms)",
                     "p95(ms)", "p99(ms)"});
        for (bool cached : {false, true}) {
            core::DeepStore ds{core::DeepStoreConfig{}};
            workloads::FeatureGenerator gen(kDim, 32, 11);
            std::uint64_t db = ds.writeDB(
                std::make_shared<core::GeneratedFeatureSource>(
                    gen, kFeatures));
            std::uint64_t scn = ds.loadModel(dotModel(kDim));
            if (cached) {
                std::uint64_t qcn = ds.loadModel(dotModel(kDim));
                ds.setQC(qcn, 0.25, 0.97, 256);
            }
            core::EngineReplayConfig cfg;
            cfg.k = 5;
            cfg.modelId = scn;
            cfg.dbId = db;
            cfg.featureDim = kDim;
            cfg.universe = &universe;
            auto stats = core::replayTrace(ds, trace, cfg);
            addStatsRow(t,
                        cached ? "DeepStore + QCache"
                               : "DeepStore (channel)",
                        stats);
        }
        t.print(std::cout);
        report.table(t, TextTable::num(rate, 1) + " q/s engine");
    }

    std::printf(
        "\nLive-engine replay: every response time is a completion "
        "tick of the\nevent-native datapath (flash reads, slot-"
        "scheduled compute, shared DRAM).\nRun with --closed-form "
        "for the validator-only analytic comparison\n(including the "
        "GPU+SSD baseline).\n");
}

} // namespace

int
main(int argc, char **argv)
{
    bool closed_form = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--closed-form") == 0) {
            closed_form = true;
        } else {
            std::fprintf(stderr,
                         "unknown argument '%s'\nusage: %s "
                         "[--closed-form]\n",
                         argv[i], argv[0]);
            return 2;
        }
    }

    bench::banner("Trace replay (§5)",
                  closed_form
                      ? "Poisson query stream, closed-form validator "
                        "backend (single-server FIFO)"
                      : "Poisson query stream on the live engine: "
                        "throughput and tail latency");

    bench::JsonReport report("trace_replay");
    report.meta("backend", closed_form ? "closed-form" : "engine");
    if (closed_form)
        runClosedForm(report);
    else
        runOnEngine(report);
    report.write();
    return 0;
}
