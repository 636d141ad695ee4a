/**
 * @file
 * Regenerates Fig. 14: Query Cache miss rate as a function of the
 * number of cache entries (100 -> 1000) for uniform, Zipf(0.7), and
 * Zipf(0.8) query popularity at a 10% comparison threshold. Paper
 * finding: larger caches reduce the miss rate, but for distributions
 * with locality (Zipf) the benefit flattens — a small (~22 MB for
 * TIR) in-DRAM cache suffices.
 */

#include <cstdlib>
#include <functional>
#include <iostream>

#include "bench_common.h"
#include "common/table.h"
#include "core/query_cache.h"
#include "workloads/query_universe.h"

using namespace deepstore;

namespace {

double
runMissRate(const workloads::QueryUniverse &universe,
            workloads::Popularity pop, double alpha,
            std::size_t entries, std::uint64_t warm,
            std::uint64_t measured)
{
    core::QueryCacheConfig cfg;
    cfg.capacity = entries;
    cfg.threshold = 0.10;
    cfg.qcnAccuracy = 0.97;
    core::QueryCache qc(
        cfg, std::bind_front(&workloads::QueryUniverse::qcnScores,
                             &universe));
    auto trace = universe.trace(warm + measured, pop, alpha, 4242);
    for (std::uint64_t i = 0; i < trace.size(); ++i) {
        if (i == warm)
            qc.resetStats();
        auto out = qc.lookup(trace[i]);
        if (!out.hit)
            qc.insert(trace[i], {});
    }
    return qc.missRate();
}

} // namespace

int
main()
{
    bench::banner("Figure 14",
                  "Query Cache miss rate vs cache size (threshold "
                  "10%)");

    std::uint64_t warm = 4000, measured = 12000;
    if (const char *env = std::getenv("DS_FIG14_QUERIES"))
        measured = std::strtoull(env, nullptr, 10);

    workloads::QueryUniverseConfig ucfg;
    ucfg.numQueries = 100'000;
    ucfg.numTopics = 3'000;
    workloads::QueryUniverse universe(ucfg);

    TextTable t({"Entries", "Uniform%", "Zipf(0.7)%", "Zipf(0.8)%"});
    double first_z7 = 0, last_z7 = 0, first_u = 0, last_u = 0;
    for (std::size_t entries = 100; entries <= 1000; entries += 100) {
        double u = runMissRate(universe, workloads::Popularity::Uniform,
                               0.0, entries, warm, measured);
        double z7 = runMissRate(universe, workloads::Popularity::Zipf,
                                0.7, entries, warm, measured);
        double z8 = runMissRate(universe, workloads::Popularity::Zipf,
                                0.8, entries, warm, measured);
        if (entries == 100) {
            first_u = u;
            first_z7 = z7;
        }
        if (entries == 1000) {
            last_u = u;
            last_z7 = z7;
        }
        t.addRow({std::to_string(entries), TextTable::num(u * 100, 1),
                  TextTable::num(z7 * 100, 1),
                  TextTable::num(z8 * 100, 1)});
    }
    t.print(std::cout);

    bench::JsonReport report("fig14_qc_size");
    report.table(t);
    report.write();

    bench::section("Headlines (paper §6.5)");
    std::printf("Uniform miss rate drop 100->1000 entries: %.1f -> "
                "%.1f points\n",
                first_u * 100, last_u * 100);
    std::printf("Zipf(0.7) miss rate drop 100->1000 entries: %.1f -> "
                "%.1f points\n",
                first_z7 * 100, last_z7 * 100);
    std::printf("A 1K-entry TIR cache (top-K=10) occupies ~%.0f MB "
                "of SSD DRAM (paper: ~22 MB).\n",
                1000 * (2048.0 * (1 + 10) + 8 * 10) / 1e6);
    return 0;
}
