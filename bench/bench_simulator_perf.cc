/**
 * @file
 * google-benchmark microbenchmarks of the simulator itself: these
 * guard the wall-clock cost of the building blocks the paper-figure
 * harnesses lean on (event kernel, systolic evaluation, flash
 * streaming, top-K, cache lookups, feature lookups in an appended
 * database, SCN scoring one feature at a time and in batches).
 *
 * Besides the usual console table, the harness writes
 * BENCH_simulator_perf.json with every run's items/second and a
 * top-level eventsPerSecond scalar (the event kernel's sustained
 * rate — the baseline number the parallel-DES work is measured
 * against).
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"

#include "core/deepstore.h"
#include "core/feature_source.h"
#include "core/query_cache.h"
#include "core/query_model.h"
#include "core/topk.h"
#include "nn/executor.h"
#include "nn/semantic.h"
#include "sim/event_queue.h"
#include "ssd/ssd.h"
#include "workloads/apps.h"
#include "workloads/feature_gen.h"
#include "workloads/query_universe.h"

using namespace deepstore;

namespace {

void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    const auto n = static_cast<std::uint64_t>(state.range(0));
    for (auto _ : state) {
        sim::EventQueue q;
        std::uint64_t sum = 0;
        for (std::uint64_t i = 0; i < n; ++i)
            q.schedule((i * 7919) % 100000, [&sum] { ++sum; });
        q.run();
        benchmark::DoNotOptimize(sum);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(n) *
                            state.iterations());
}
BENCHMARK(BM_EventQueueScheduleRun)->Arg(1000)->Arg(100000);

void
BM_LevelPerfEvaluation(benchmark::State &state)
{
    core::DeepStoreModel ds{ssd::FlashParams{}};
    auto app = workloads::makeApp(workloads::AppId::ReId);
    for (auto _ : state) {
        auto p = ds.evaluate(core::Level::ChannelLevel, app);
        benchmark::DoNotOptimize(p.aggregateSeconds);
    }
}
BENCHMARK(BM_LevelPerfEvaluation);

void
BM_FlashStreamEventSim(benchmark::State &state)
{
    const auto pages = static_cast<std::uint64_t>(state.range(0));
    for (auto _ : state) {
        sim::EventQueue events;
        StatGroup stats("bench");
        ssd::FlashParams p;
        p.channels = 1;
        ssd::FlashController ctrl(events, p, 0, stats);
        ssd::Geometry g(p);
        for (std::uint64_t i = 0; i < pages; ++i) {
            ssd::FlashCommand cmd;
            cmd.op = ssd::FlashOp::Read;
            cmd.addr = g.decode(i);
            cmd.transferBytes = p.pageBytes;
            ctrl.issue(std::move(cmd));
        }
        events.run();
        benchmark::DoNotOptimize(events.now());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(pages) *
                            state.iterations());
}
BENCHMARK(BM_FlashStreamEventSim)->Arg(10000);

void
BM_TopKInsert(benchmark::State &state)
{
    const auto k = static_cast<std::size_t>(state.range(0));
    Rng rng(5);
    std::vector<float> scores(100000);
    for (auto &s : scores)
        s = static_cast<float>(rng.uniform());
    for (auto _ : state) {
        core::TopK topk(k);
        for (std::size_t i = 0; i < scores.size(); ++i)
            topk.insert({i, i, scores[i]});
        benchmark::DoNotOptimize(topk.kthScore());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(scores.size()) *
        state.iterations());
}
BENCHMARK(BM_TopKInsert)->Arg(10)->Arg(100);

void
BM_QueryCacheLookup(benchmark::State &state)
{
    workloads::QueryUniverseConfig cfg;
    cfg.numQueries = 100000;
    workloads::QueryUniverse u(cfg);
    core::QueryCacheConfig qcfg;
    qcfg.capacity = static_cast<std::size_t>(state.range(0));
    qcfg.threshold = 0.10;
    qcfg.qcnAccuracy = 0.97;
    core::QueryCache qc(
        qcfg, std::bind_front(&workloads::QueryUniverse::qcnScores, &u));
    for (std::uint64_t q = 0; q < qcfg.capacity; ++q)
        qc.insert(q, {});
    std::uint64_t next = 0;
    for (auto _ : state) {
        auto out = qc.lookup(next++ % 100000);
        benchmark::DoNotOptimize(out.bestScore);
    }
}
BENCHMARK(BM_QueryCacheLookup)->Arg(100)->Arg(1000);

/** TextQA SCN (semantic weights) over 1,024 generated features. */
struct TextQaScoring
{
    static constexpr std::size_t kFeatures = 1024;
    workloads::AppInfo app = workloads::makeApp(workloads::AppId::TextQA);
    nn::ModelWeights weights = nn::semanticWeights(app.scn);
    nn::Executor executor{app.scn, weights};
    std::vector<float> query;
    std::vector<std::vector<float>> features;
    std::vector<float> rows; ///< `features` back to back

    TextQaScoring()
    {
        workloads::FeatureGenerator gen(app.scn.featureDim(), 64, 3);
        query = gen.featureForTopic(5, 1u << 20);
        for (std::uint64_t i = 0; i < kFeatures; ++i) {
            features.push_back(gen.featureAt(i));
            rows.insert(rows.end(), features.back().begin(),
                        features.back().end());
        }
    }
};

/** The scalar reference: one score() per feature. */
void
BM_ExecutorScore(benchmark::State &state)
{
    TextQaScoring t;
    for (auto _ : state)
        for (const auto &f : t.features)
            benchmark::DoNotOptimize(t.executor.score(t.query, f));
    state.SetItemsProcessed(
        static_cast<std::int64_t>(TextQaScoring::kFeatures) *
        state.iterations());
}
BENCHMARK(BM_ExecutorScore);

/** The batched path over the same features, bit-identical scores. */
void
BM_ExecutorScoreBatch(benchmark::State &state)
{
    TextQaScoring t;
    std::vector<float> scores(TextQaScoring::kFeatures);
    for (auto _ : state) {
        t.executor.scoreBatch(t.query, t.rows.data(), scores.size(),
                              scores.data());
        benchmark::DoNotOptimize(scores.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(TextQaScoring::kFeatures) *
        state.iterations());
}
BENCHMARK(BM_ExecutorScoreBatch);

/** readDB of row 0 after a 4-row writeDB and `appends` one-row
 *  appendDBs: the extent lookup must not grow with the append
 *  count. */
void
BM_FeatureLookupAfterAppends(benchmark::State &state)
{
    const auto appends = static_cast<std::uint64_t>(state.range(0));
    const std::int64_t dim = 4;
    core::DeepStore ds(core::DeepStoreConfig{});
    std::uint64_t db =
        ds.writeDB(std::make_shared<core::VectorFeatureSource>(
            std::vector<float>(4 * dim, 1.0f), dim));
    for (std::uint64_t i = 0; i < appends; ++i)
        ds.appendDB(db, std::make_shared<core::VectorFeatureSource>(
                            std::vector<float>(dim, 2.0f), dim));
    for (auto _ : state) {
        auto rows = ds.readDB(db, 0, 1);
        benchmark::DoNotOptimize(rows.front().front());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FeatureLookupAfterAppends)->Arg(1)->Arg(1000);

/**
 * Console output plus a machine-readable summary: every run's
 * items/second lands in BENCH_simulator_perf.json, and the event
 * kernel's sustained events/second is promoted to a top-level
 * scalar so CI can assert on it without parsing run names.
 */
class EventsPerSecondReporter : public benchmark::ConsoleReporter
{
  public:
    void
    ReportRuns(const std::vector<Run> &runs) override
    {
        for (const Run &run : runs) {
            if (run.run_type != Run::RT_Iteration ||
                run.error_occurred)
                continue;
            auto it = run.counters.find("items_per_second");
            if (it == run.counters.end())
                continue;
            rates_.emplace_back(run.benchmark_name(),
                                static_cast<double>(it->second));
        }
        ConsoleReporter::ReportRuns(runs);
    }

    void
    writeJson() const
    {
        bench::JsonReport report("simulator_perf");
        double events_per_second = 0;
        for (const auto &[name, rate] : rates_)
            if (name.rfind("BM_EventQueueScheduleRun", 0) == 0)
                events_per_second =
                    std::max(events_per_second, rate);
        report.meta("eventsPerSecond", events_per_second);
        for (const auto &[name, rate] : rates_)
            report.beginRow()
                .col("name", name)
                .col("itemsPerSecond", rate);
        report.write();
    }

  private:
    std::vector<std::pair<std::string, double>> rates_;
};

} // namespace

int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    EventsPerSecondReporter reporter;
    benchmark::RunSpecifiedBenchmarks(&reporter);
    benchmark::Shutdown();
    reporter.writeJson();
    return 0;
}
