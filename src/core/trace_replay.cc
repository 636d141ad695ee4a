#include "core/trace_replay.h"

#include <algorithm>
#include <vector>

#include "common/logging.h"

namespace deepstore::core {

namespace {

/** Fill the response-time summary of `stats` (mean, nearest-rank
 *  p50/p95/p99, max) and its miss rate from the per-query response
 *  times of a non-empty replay; sorts `response`. */
void
summarize(std::vector<double> &response, std::uint64_t misses,
          ReplayStats &stats)
{
    std::sort(response.begin(), response.end());
    auto pct = [&](double p) {
        auto idx = static_cast<std::size_t>(
            p * static_cast<double>(response.size() - 1));
        return response[idx];
    };
    double sum = 0.0;
    for (double r : response)
        sum += r;
    stats.meanSeconds = sum / static_cast<double>(response.size());
    stats.p50Seconds = pct(0.50);
    stats.p95Seconds = pct(0.95);
    stats.p99Seconds = pct(0.99);
    stats.maxSeconds = response.back();
    stats.missRate = static_cast<double>(misses) /
                     static_cast<double>(response.size());
}

} // namespace

ReplayStats
replayTraceClosedForm(const workloads::QueryTrace &trace,
                      const ReplayService &service, QueryCache *cache)
{
    if (service.scanSeconds <= 0.0)
        fatal("replay needs a positive scan time");
    ReplayStats stats;
    stats.queries = trace.size();
    if (trace.size() == 0)
        return stats;

    std::vector<double> response;
    response.reserve(trace.size());
    double server_free = 0.0;
    double busy = 0.0;
    std::uint64_t misses = 0;

    for (const auto &rec : trace.records()) {
        double service_time;
        if (cache) {
            CacheLookup out = cache->lookup(rec.queryId);
            if (out.hit) {
                service_time =
                    service.lookupSeconds + service.hitExtraSeconds;
            } else {
                cache->insert(rec.queryId, {});
                service_time =
                    service.lookupSeconds + service.scanSeconds;
                ++misses;
            }
        } else {
            service_time = service.scanSeconds;
            ++misses;
        }
        double start = std::max(rec.arrivalSeconds, server_free);
        double finish = start + service_time;
        server_free = finish;
        busy += service_time;
        response.push_back(finish - rec.arrivalSeconds);
    }

    summarize(response, misses, stats);
    double span = std::max(trace.durationSeconds(), server_free);
    stats.utilization = span > 0.0 ? busy / span : 0.0;
    stats.throughput =
        span > 0.0 ? static_cast<double>(trace.size()) / span : 0.0;
    return stats;
}

ReplayStats
replayTrace(DeepStore &store, const workloads::QueryTrace &trace,
            const EngineReplayConfig &config)
{
    if (!config.universe)
        fatal("engine replay needs a query universe");
    if (config.featureDim <= 0)
        fatal("engine replay needs a positive feature dim");

    ReplayStats stats;
    stats.queries = trace.size();
    if (trace.size() == 0)
        return stats;

    const DbMetadata &db = store.databaseInfo(config.dbId);
    std::uint64_t db_end =
        config.dbEnd != 0 ? config.dbEnd : db.numFeatures;

    std::vector<double> response;
    response.reserve(trace.size());
    std::uint64_t misses = 0;
    std::size_t completed = 0;

    sim::EventQueue &events = store.events();
    const Tick start_tick = events.now();
    double busy_before =
        store.ledger().componentSeconds(TimeComponent::Scan) +
        store.ledger().componentSeconds(TimeComponent::CacheHit) +
        store.ledger().componentSeconds(TimeComponent::QcLookup);

    // Arrivals become event-queue events: each submits its query at
    // the trace timestamp, so concurrent queries genuinely overlap.
    for (const auto &rec : trace.records()) {
        Tick at = start_tick + secondsToTicks(rec.arrivalSeconds);
        // lint:allow(D12: the replay loop below drains the queue until every query completes, so these locals outlive every scheduled callback)
        events.schedule(at, [&store, &config, &response, &misses,
                             &completed, db_end, rec] {
            std::vector<float> qfv = config.universe->featureOf(
                rec.queryId, config.featureDim);
            std::uint64_t qid = store.query(
                qfv, config.k, config.modelId, config.dbId,
                config.dbStart, db_end, config.level);
            // lint:allow(D12: completion fires inside the same drained replay loop; response/misses/completed live until it exits)
            store.onComplete(qid, [&response, &misses, &completed](
                                      const QueryResult &res) {
                response.push_back(res.latencySeconds);
                if (!res.cacheHit)
                    ++misses;
                ++completed;
            });
        });
    }

    while (completed < trace.size()) {
        if (!store.step())
            panic("engine replay stalled with %zu of %llu queries "
                  "complete",
                  completed,
                  static_cast<unsigned long long>(trace.size()));
    }

    summarize(response, misses, stats);

    double busy_after =
        store.ledger().componentSeconds(TimeComponent::Scan) +
        store.ledger().componentSeconds(TimeComponent::CacheHit) +
        store.ledger().componentSeconds(TimeComponent::QcLookup);
    double span = ticksToSeconds(events.now() - start_tick);
    stats.utilization =
        span > 0.0 ? (busy_after - busy_before) / span : 0.0;
    stats.throughput =
        span > 0.0 ? static_cast<double>(trace.size()) / span : 0.0;
    return stats;
}

} // namespace deepstore::core
