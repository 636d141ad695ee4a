/**
 * @file
 * Fault injection & graceful degradation across the unified datapath:
 *
 *  - tick-identity regression: with an empty fault schedule the
 *    engine reproduces pre-fault-subsystem golden completion ticks
 *    exactly (the "injection disabled == fault-free build" contract);
 *  - deterministic degradation: a seeded schedule yields the same
 *    coverageFraction and the same stats dump on every run, while the
 *    identical no-fault run returns full coverage;
 *  - the shard recovery machine: unit deaths re-stripe onto siblings
 *    (full coverage via re-reads), watchdogs snatch slow shards,
 *    retry budgets bound the recovery;
 *  - deadlines, cancellation, tryGetResults, and the NVMe vendor
 *    statuses for degraded completions.
 */

#include <algorithm>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "core/deepstore.h"
#include "core/nvme_front.h"
#include "support/fixtures.h"

namespace deepstore::core {
namespace {

/** One full run under `cfg`: writeDB + loadModel + one sync query.
 *  Returns the query id; `ds` is left drained. */
struct RunResult
{
    double coverage = 0.0;
    QueryOutcome outcome = QueryOutcome::Success;
    Tick completeTick = 0;
    std::uint64_t featuresScanned = 0;
    std::size_t topK = 0;
    std::string stats;
};

RunResult
runOne(const DeepStoreConfig &cfg, std::int64_t dim,
       std::uint64_t features, std::uint64_t db_seed)
{
    DeepStore ds(cfg);
    auto src = randomDb(dim, features, db_seed);
    std::uint64_t db = ds.writeDB(src);
    std::uint64_t model = ds.loadModel(dotModel(dim));
    std::uint64_t qid =
        ds.querySync(src->featureAt(1), 4, model, db, 0, 0);
    const QueryResult &res = ds.getResults(qid);
    RunResult r;
    r.coverage = res.coverageFraction;
    r.outcome = res.outcome;
    r.completeTick = ds.array().node(0).scheduler().completeTick(qid);
    r.featuresScanned = res.featuresScanned;
    r.topK = res.topK.size();
    std::ostringstream os;
    ds.dumpStats(os);
    r.stats = os.str();
    return r;
}

/** Value of counter `name` in a stats dump (-1 when absent). */
double
counter(const std::string &stats, const std::string &name)
{
    auto pos = stats.find(name);
    if (pos == std::string::npos)
        return -1.0;
    pos = stats.find('=', pos);
    return std::stod(stats.substr(pos + 1));
}

// ---- tick-identity regression ----------------------------------

TEST(FaultFree, TickIdenticalToGoldenPrePRRun)
{
    // Golden completion ticks re-pinned on the event-native
    // datapath (scheduled QC probe + top-K reduce). An empty fault
    // schedule must reproduce them bit-exactly: the injection hooks
    // cost a branch, never a tick.
    {
        DeepStore ds{DeepStoreConfig{}};
        auto src = randomDb(32, 500, 42);
        std::uint64_t db = ds.writeDB(src);
        std::uint64_t model = ds.loadModel(dotModel(32));
        auto q = randomDb(32, 1, 99)->featureAt(0);
        std::uint64_t qid = ds.querySync(q, 4, model, db, 0, 0);
        EXPECT_EQ(ds.array().node(0).scheduler().submitTick(qid), 522480000u);
        EXPECT_EQ(ds.array().node(0).scheduler().completeTick(qid),
                  598859200u);
        EXPECT_EQ(ds.getResults(qid).outcome, QueryOutcome::Success);
        EXPECT_DOUBLE_EQ(ds.getResults(qid).coverageFraction, 1.0);
    }
    {
        DeepStore ds{DeepStoreConfig{}};
        auto src = randomDb(64, 900, 7);
        std::uint64_t db = ds.writeDB(src);
        std::uint64_t model = ds.loadModel(dotModel(64));
        std::uint64_t a =
            ds.query(randomDb(64, 1, 101)->featureAt(0), 4, model,
                     db, 0, 0, Level::ChannelLevel);
        std::uint64_t b =
            ds.query(randomDb(64, 1, 102)->featureAt(0), 4, model,
                     db, 0, 0, Level::ChipLevel);
        std::uint64_t c =
            ds.query(randomDb(64, 1, 103)->featureAt(0), 4, model,
                     db, 0, 0, Level::SsdLevel);
        ds.drain();
        EXPECT_EQ(ds.array().node(0).scheduler().completeTick(a), 597632000u);
        EXPECT_EQ(ds.array().node(0).scheduler().completeTick(b), 631752000u);
        EXPECT_EQ(ds.array().node(0).scheduler().completeTick(c), 740214800u);
        EXPECT_EQ(ds.events().now(), 740214800u);
    }
}

// ---- deterministic degradation (the acceptance criterion) -------

TEST(Degradation, SeededFaultsDegradeCoverageDeterministically)
{
    const std::int64_t dim = 32;
    const std::uint64_t features = 2000; // 16 pages, 16 channels

    DeepStoreConfig fault_cfg;
    fault_cfg.flash.faults.seed = 2024;
    fault_cfg.flash.faults.uncorrectableReadProbability = 0.4;
    fault_cfg.maxPageRetries = 0; // failures are permanent

    RunResult f1 = runOne(fault_cfg, dim, features, 11);
    RunResult f2 = runOne(fault_cfg, dim, features, 11);

    // Degraded, with partial-but-nonzero coverage.
    EXPECT_EQ(f1.outcome, QueryOutcome::Degraded);
    EXPECT_LT(f1.coverage, 1.0);
    EXPECT_GT(f1.coverage, 0.0);
    EXPECT_LT(f1.featuresScanned, features);
    EXPECT_GT(f1.topK, 0u);

    // Bit-identical replay: coverage, ticks, and the whole stats
    // dump (sched.* and dfv.* fault counters included).
    EXPECT_DOUBLE_EQ(f1.coverage, f2.coverage);
    EXPECT_EQ(f1.completeTick, f2.completeTick);
    EXPECT_EQ(f1.stats, f2.stats);
    EXPECT_NE(f1.stats.find("dfv.pagesFailed"), std::string::npos);

    // The identical run without the schedule returns full coverage.
    RunResult clean = runOne(DeepStoreConfig{}, dim, features, 11);
    EXPECT_EQ(clean.outcome, QueryOutcome::Success);
    EXPECT_DOUBLE_EQ(clean.coverage, 1.0);
    EXPECT_EQ(clean.featuresScanned, features);

    // A different seed yields a different (still deterministic)
    // degradation pattern.
    DeepStoreConfig other = fault_cfg;
    other.flash.faults.seed = 2025;
    RunResult f3 = runOne(other, dim, features, 11);
    EXPECT_NE(f3.coverage, f1.coverage);
}

TEST(Degradation, PageRetriesRecoverTransientFaults)
{
    // Per-attempt re-rolls: with a retry budget most transiently
    // uncorrectable pages recover, so coverage improves (strictly)
    // over the no-retry run and retry work shows up in the stats.
    const std::int64_t dim = 32;
    const std::uint64_t features = 2000;

    DeepStoreConfig no_retry;
    no_retry.flash.faults.seed = 5;
    no_retry.flash.faults.uncorrectableReadProbability = 0.4;
    no_retry.maxPageRetries = 0;

    DeepStoreConfig with_retry = no_retry;
    with_retry.maxPageRetries = 4;

    RunResult a = runOne(no_retry, dim, features, 11);
    RunResult b = runOne(with_retry, dim, features, 11);
    EXPECT_GT(b.coverage, a.coverage);
    EXPECT_NE(b.stats.find("dfv.pageRetries"), std::string::npos);
}

TEST(Degradation, BlacklistedPageCostsExactlyItsFeatures)
{
    // Target one physical page: coverage drops by exactly that
    // page's feature payload. The page address is learned from a
    // probe run (the FTL mapping is deterministic).
    const std::int64_t dim = 32; // 128 features per 16 KiB page
    const std::uint64_t features = 2000;

    std::uint64_t key = 0;
    {
        DeepStore probe{DeepStoreConfig{}};
        std::uint64_t db = probe.writeDB(randomDb(dim, features, 11));
        key = ssd::faultKey(probe.array().node(0).device().physicalAddress(
            probe.databaseInfo(db).startLpn));
    }

    DeepStoreConfig cfg;
    cfg.flash.faults.pageBlacklist = {key};
    cfg.maxPageRetries = 2; // blacklisted pages fail every attempt
    RunResult r = runOne(cfg, dim, features, 11);
    EXPECT_EQ(r.outcome, QueryOutcome::Degraded);
    EXPECT_DOUBLE_EQ(r.coverage,
                     static_cast<double>(features - 128) /
                         static_cast<double>(features));
}

// ---- the shard recovery machine ---------------------------------

TEST(Recovery, UnitDeathRestripesOntoSiblingWithFullCoverage)
{
    // Kill channel-accelerator 0 mid-scan: its shard's remaining
    // range re-stripes onto an alive sibling, which re-reads the
    // remnant pages through the real flash path. The query still
    // reaches full coverage — slower, not smaller.
    const std::int64_t dim = 32;
    const std::uint64_t features = 500;

    RunResult clean = runOne(DeepStoreConfig{}, dim, features, 42);
    ASSERT_EQ(clean.outcome, QueryOutcome::Success);
    EXPECT_EQ(clean.completeTick, 598859200u);

    DeepStoreConfig cfg;
    cfg.flash.faults.unitFailures = {
        UnitFailure{static_cast<std::uint32_t>(Level::ChannelLevel),
                    0, 552480000}}; // 30 us after golden submit
    RunResult r1 = runOne(cfg, dim, features, 42);
    EXPECT_EQ(r1.outcome, QueryOutcome::Success);
    EXPECT_DOUBLE_EQ(r1.coverage, 1.0);
    EXPECT_GT(r1.completeTick, clean.completeTick);
    EXPECT_EQ(r1.completeTick, 728859200u);
    EXPECT_NE(r1.stats.find("sched.unitFailures"), std::string::npos);
    EXPECT_NE(r1.stats.find("sched.shardReassignments"),
              std::string::npos);

    // Deterministic replay of the recovery itself.
    RunResult r2 = runOne(cfg, dim, features, 42);
    EXPECT_EQ(r1.completeTick, r2.completeTick);
    EXPECT_EQ(r1.stats, r2.stats);
}

TEST(Recovery, ExhaustedRetryBudgetDegrades)
{
    // Same unit death, but no retry budget: the killed shard's
    // remainder is abandoned and the query terminates Degraded with
    // the surviving shards' coverage.
    DeepStoreConfig cfg;
    cfg.recovery.maxShardRetries = 0;
    cfg.flash.faults.unitFailures = {
        UnitFailure{static_cast<std::uint32_t>(Level::ChannelLevel),
                    0, 552480000}};
    RunResult r = runOne(cfg, 32, 500, 42);
    EXPECT_EQ(r.outcome, QueryOutcome::Degraded);
    EXPECT_LT(r.coverage, 1.0);
    EXPECT_NE(r.stats.find("sched.shardsLost"), std::string::npos);
}

TEST(Recovery, WatchdogSnatchesSlowShards)
{
    // A watchdog shorter than the first flash delivery snatches
    // every shard before it can make progress; after the retry
    // budget the query degrades. Every firing is deterministic.
    DeepStoreConfig cfg;
    cfg.recovery.shardWatchdogSeconds = 30e-6; // < 53 us array read
    cfg.recovery.maxShardRetries = 1;
    RunResult r1 = runOne(cfg, 32, 500, 42);
    EXPECT_EQ(r1.outcome, QueryOutcome::Degraded);
    EXPECT_LT(r1.coverage, 1.0);
    EXPECT_NE(r1.stats.find("sched.watchdogFires"),
              std::string::npos);
    EXPECT_EQ(r1.completeTick, 682499200u);
    EXPECT_EQ(counter(r1.stats, "sched.shardsLost"), 4.0);
    RunResult r2 = runOne(cfg, 32, 500, 42);
    EXPECT_EQ(r1.completeTick, r2.completeTick);
    EXPECT_EQ(r1.stats, r2.stats);
}

TEST(Recovery, WholeLevelDeathFallsBackToTheParentLevel)
{
    // Every unit at the scan's level dies mid-scan, so no sibling is
    // alive: each remnant re-stripes one level up (channel -> SSD,
    // chip -> channel) and the query still reaches full coverage.
    DeepStoreConfig channel;
    for (std::uint32_t u = 0; u < channel.flash.channels; ++u)
        channel.flash.faults.unitFailures.push_back(UnitFailure{
            static_cast<std::uint32_t>(Level::ChannelLevel), u,
            552480000});
    RunResult r = runOne(channel, 32, 500, 42);
    EXPECT_EQ(r.outcome, QueryOutcome::Success);
    EXPECT_DOUBLE_EQ(r.coverage, 1.0);
    EXPECT_EQ(r.completeTick, 937229200u);
    EXPECT_EQ(counter(r.stats, "sched.shardReassignments"), 8.0);

    DeepStoreConfig chip;
    chip.defaultLevel = Level::ChipLevel;
    for (std::uint32_t u = 0; u < chip.flash.totalChips(); ++u)
        chip.flash.faults.unitFailures.push_back(UnitFailure{
            static_cast<std::uint32_t>(Level::ChipLevel), u,
            560000000});
    RunResult c = runOne(chip, 32, 500, 42);
    EXPECT_EQ(c.outcome, QueryOutcome::Success);
    EXPECT_DOUBLE_EQ(c.coverage, 1.0);
    EXPECT_EQ(c.completeTick, 928019200u);
}

// ---- deadlines & cancellation -----------------------------------

TEST(Deadline, FiresBeforeCompletionAndReportsPartialCoverage)
{
    DeepStore ds{DeepStoreConfig{}};
    auto src = randomDb(32, 500, 42);
    std::uint64_t db = ds.writeDB(src);
    std::uint64_t model = ds.loadModel(dotModel(32));
    // The golden scan takes ~76 us; a 20 us deadline fires first.
    std::uint64_t qid = ds.query(src->featureAt(1), 4, model, db, 0,
                                 0, std::nullopt, 20e-6);
    ds.waitFor(qid);
    EXPECT_EQ(ds.poll(qid), QueryState::Degraded);
    const QueryResult &res = ds.getResults(qid);
    EXPECT_EQ(res.outcome, QueryOutcome::DeadlineExceeded);
    EXPECT_LT(res.coverageFraction, 1.0);
    // Latency == the deadline, by definition of the terminal tick.
    EXPECT_NEAR(res.latencySeconds, 20e-6, 1e-12);

    // A generous deadline never fires.
    std::uint64_t ok = ds.query(src->featureAt(2), 4, model, db, 0,
                                0, std::nullopt, 1.0);
    ds.waitFor(ok);
    EXPECT_EQ(ds.getResults(ok).outcome, QueryOutcome::Success);
    EXPECT_DOUBLE_EQ(ds.getResults(ok).coverageFraction, 1.0);
}

TEST(Cancel, AbortsInFlightAndLeavesPeerTickIdentical)
{
    // Baseline: query A alone.
    Tick baseline = 0;
    {
        DeepStore ds{DeepStoreConfig{}};
        auto src = randomDb(32, 500, 42);
        std::uint64_t db = ds.writeDB(src);
        std::uint64_t model = ds.loadModel(dotModel(32));
        std::uint64_t a =
            ds.querySync(src->featureAt(1), 4, model, db, 0, 0);
        baseline = ds.array().node(0).scheduler().completeTick(a);
    }
    // A plus a cancelled B: A's completion tick must not move at
    // all — cancellation detaches B before it touches the shared
    // datapath state A depends on.
    DeepStore ds{DeepStoreConfig{}};
    auto src = randomDb(32, 500, 42);
    std::uint64_t db = ds.writeDB(src);
    std::uint64_t model = ds.loadModel(dotModel(32));
    std::uint64_t a = ds.query(src->featureAt(1), 4, model, db, 0, 0);
    std::uint64_t b = ds.query(src->featureAt(3), 4, model, db, 0, 0);
    EXPECT_TRUE(ds.cancel(b));
    EXPECT_EQ(ds.poll(b), QueryState::Degraded);
    ds.drain();
    EXPECT_EQ(ds.array().node(0).scheduler().completeTick(a), baseline);
    EXPECT_EQ(ds.getResults(a).outcome, QueryOutcome::Success);

    const QueryResult &rb = ds.getResults(b);
    EXPECT_EQ(rb.outcome, QueryOutcome::Aborted);
    EXPECT_DOUBLE_EQ(rb.coverageFraction, 0.0);
    EXPECT_EQ(rb.topK.size(), 0u);

    // Cancel is single-shot and id-checked.
    EXPECT_FALSE(ds.cancel(b));   // already terminal
    EXPECT_FALSE(ds.cancel(a));   // already complete
    EXPECT_FALSE(ds.cancel(777)); // unknown
}

TEST(Cancel, PeerDegradationDoesNotCorruptSurvivor)
{
    // B (chip level) loses its units with no retry budget and
    // degrades; A (channel level) still completes with full
    // coverage and correct results.
    DeepStoreConfig cfg;
    cfg.recovery.maxShardRetries = 0;
    for (std::uint32_t chip = 0; chip < 128; ++chip)
        cfg.flash.faults.unitFailures.push_back(UnitFailure{
            static_cast<std::uint32_t>(Level::ChipLevel), chip,
            560000000});
    DeepStore ds(cfg);
    auto src = randomDb(32, 500, 42);
    std::uint64_t db = ds.writeDB(src);
    std::uint64_t model = ds.loadModel(dotModel(32));
    std::uint64_t a = ds.query(src->featureAt(1), 4, model, db, 0, 0,
                               Level::ChannelLevel);
    std::uint64_t b = ds.query(src->featureAt(3), 4, model, db, 0, 0,
                               Level::ChipLevel);
    ds.drain();
    EXPECT_EQ(ds.getResults(a).outcome, QueryOutcome::Success);
    EXPECT_DOUBLE_EQ(ds.getResults(a).coverageFraction, 1.0);
    EXPECT_EQ(ds.getResults(a).topK.size(), 4u);
    EXPECT_EQ(ds.getResults(b).outcome, QueryOutcome::Degraded);
    EXPECT_LT(ds.getResults(b).coverageFraction, 1.0);
}

// ---- tryGetResults & NVMe statuses ------------------------------

TEST(TryGetResults, TypedRetryableOutcome)
{
    DeepStore ds{DeepStoreConfig{}};
    auto src = randomDb(16, 60, 2);
    std::uint64_t db = ds.writeDB(src);
    std::uint64_t model = ds.loadModel(dotModel(16));
    std::uint64_t qid =
        ds.query(src->featureAt(0), 3, model, db, 0, 0);

    FetchResult fr = ds.tryGetResults(qid);
    EXPECT_EQ(fr.status, FetchStatus::InFlight);
    EXPECT_EQ(fr.result, nullptr);
    EXPECT_EQ(ds.tryGetResults(777).status, FetchStatus::Unknown);

    ds.waitFor(qid);
    fr = ds.tryGetResults(qid);
    ASSERT_EQ(fr.status, FetchStatus::Ready);
    ASSERT_NE(fr.result, nullptr);
    EXPECT_EQ(fr.result->topK.size(), 3u);

    // getResults stays fatal for in-flight/unknown ids (the
    // non-retryable strict path).
    EXPECT_THROW(ds.getResults(777), FatalError);
}

TEST(NvmeFault, DegradedStatusesSurfaceOnTheWire)
{
    DeepStoreConfig cfg;
    DeepStore store(cfg);
    NvmeFrontEnd nvme(store, 16);
    auto src = randomDb(16, 200, 3);
    std::uint64_t db = store.writeDB(src);
    std::uint64_t model = store.loadModel(dotModel(16));

    // Deadline in cdw5's high 32 bits (microseconds): 20 us fires
    // before the ~76 us scan -> DeadlineExceeded on the wire.
    NvmeCommand q;
    q.opcode = NvmeOpcode::Query;
    q.cid = 1;
    q.prp = nvme.buffers().add(src->featureAt(0));
    q.cdw[0] = 3;
    q.cdw[1] = model;
    q.cdw[2] = db;
    q.cdw[5] = (20ull << 32); // level = engine default, deadline 20us
    ASSERT_TRUE(nvme.submit(q));
    nvme.process();
    ASSERT_TRUE(nvme.pump());
    auto done = nvme.pollCompletion();
    ASSERT_TRUE(done.has_value());
    EXPECT_EQ(done->status, NvmeStatus::DeadlineExceeded);

    // GetResults on the degraded query: DegradedSuccess-class
    // status (not an error, not InProgress), partial payload.
    NvmeCommand g;
    g.opcode = NvmeOpcode::GetResults;
    g.cid = 2;
    g.prp = nvme.buffers().add({});
    g.cdw[0] = done->result;
    ASSERT_TRUE(nvme.submit(g));
    nvme.process();
    auto gdone = nvme.pollCompletion();
    ASSERT_TRUE(gdone.has_value());
    EXPECT_EQ(gdone->status, NvmeStatus::DeadlineExceeded);

    // AbortQuery: submit, abort, completion posts Aborted.
    NvmeCommand q2 = q;
    q2.cid = 3;
    q2.cdw[5] = 0; // no deadline
    q2.prp = nvme.buffers().add(src->featureAt(1));
    ASSERT_TRUE(nvme.submit(q2));
    nvme.process();
    auto qid2 = nvme.queryIdForCid(3);
    ASSERT_TRUE(qid2.has_value());

    NvmeCommand abort;
    abort.opcode = NvmeOpcode::AbortQuery;
    abort.cid = 4;
    abort.cdw[0] = *qid2;
    ASSERT_TRUE(nvme.submit(abort));
    nvme.process();
    // Both the abort ack and the query completion are in the queue.
    bool saw_abort_ack = false, saw_aborted_query = false;
    while (auto c = nvme.pollCompletion()) {
        if (c->cid == 4) {
            saw_abort_ack = true;
            EXPECT_EQ(c->status, NvmeStatus::Success);
        }
        if (c->cid == 3) {
            saw_aborted_query = true;
            EXPECT_EQ(c->status, NvmeStatus::Aborted);
        }
    }
    EXPECT_TRUE(saw_abort_ack);
    EXPECT_TRUE(saw_aborted_query);

    // Aborting an unknown query id is an InvalidField error.
    NvmeCommand bad = abort;
    bad.cid = 5;
    bad.cdw[0] = 424242;
    ASSERT_TRUE(nvme.submit(bad));
    nvme.process();
    auto bdone = nvme.pollCompletion();
    ASSERT_TRUE(bdone.has_value());
    EXPECT_EQ(bdone->status, NvmeStatus::InvalidField);
}

// ---- GC-active golden replay ------------------------------------

namespace {

/** Tiny geometry so superblock churn fits in the event simulator:
 *  4ch x 2chip x 2plane x 8blocks x 4pages -> 64-page superblocks,
 *  8 superblocks, 512 pages total. */
ssd::FlashParams
tinyFlash()
{
    ssd::FlashParams p;
    p.channels = 4;
    p.chipsPerChannel = 2;
    p.planesPerChip = 2;
    p.blocksPerPlane = 8;
    p.pagesPerBlock = 4;
    return p;
}

} // namespace

TEST(FaultFree, GcActiveGoldenReplay)
{
    // A mixed ingest+query workload that churns the FTL — overwrite
    // migrations, a trim-erase, an appendDB grow, and two metadata
    // persists — while two queries scan and a third lands mid-churn.
    // With injection disabled and wear thresholds at defaults, the
    // lifecycle machinery must reproduce these ticks bit-exactly
    // (captured on the pre-lifecycle tree).
    DeepStoreConfig cfg;
    cfg.flash = tinyFlash();
    DeepStore ds(cfg);

    auto db1src = randomDb(32, 3000, 42); // 24 pages, LPN 0..23
    std::uint64_t db1 = ds.writeDB(db1src);
    std::uint64_t model = ds.loadModel(dotModel(32));
    ds.persistMetadata(); // reserved LPN 448 (superblock 7)

    std::uint64_t q1 = ds.query(db1src->featureAt(1), 4, model, db1,
                                0, 1500, Level::ChannelLevel);
    std::uint64_t q2 = ds.query(db1src->featureAt(7), 4, model, db1,
                                1500, 3000, Level::ChipLevel);

    // Ingest while both queries are in flight: a second database...
    auto db2src = randomDb(32, 2000, 7); // 16 pages, LPN 24..39
    std::uint64_t db2 = ds.writeDB(db2src);

    // ...then two raw host-write passes over superblock 1. The first
    // fills it; the second overwrites every page, forcing 64
    // read-modify-write migrations (63 pages each) and 64 erases.
    for (int pass = 0; pass < 2; ++pass) {
        bool done = false;
        ds.array().node(0).device().hostWrite(
            64, 64, [&](Tick) { done = true; });
        while (!done)
            ASSERT_TRUE(ds.step());
    }

    // Trim the now-redundant superblock: fully invalid, so the FTL
    // frees it and the SSD issues real block erases on every plane.
    {
        bool done = false;
        ds.array().node(0).device().hostTrim(
            64, 64, [&](Tick) { done = true; });
        while (!done)
            ASSERT_TRUE(ds.step());
    }

    // Grow db2 in place (2000 -> 2500 features, 4 new pages) and
    // query it while the metadata table is being re-persisted.
    ds.appendDB(db2, randomDb(32, 500, 8));
    std::uint64_t q3 = ds.query(db2src->featureAt(3), 4, model, db2,
                                0, 0, Level::SsdLevel);
    ds.persistMetadata(); // trims + rewrites the reserved block
    ds.drain();

    EXPECT_EQ(ds.getResults(q1).outcome, QueryOutcome::Success);
    EXPECT_EQ(ds.getResults(q2).outcome, QueryOutcome::Success);
    EXPECT_EQ(ds.getResults(q3).outcome, QueryOutcome::Success);
    EXPECT_DOUBLE_EQ(ds.getResults(q3).coverageFraction, 1.0);

    std::ostringstream os;
    ds.dumpStats(os);
    std::string stats = os.str();

    // FTL churn actually happened (this is what makes the pin cover
    // the GC paths, not just the scan path).
    EXPECT_EQ(counter(stats, "ftl.migratedPages"), 4032.0);
    EXPECT_EQ(counter(stats, "ftl.superblockErases"), 66.0);
    EXPECT_EQ(counter(stats, "flash.blockErases"), 16.0);

    // Golden ticks (re-pinned on the event-native datapath).
    EXPECT_EQ(ds.array().node(0).scheduler().completeTick(q1), 2382739200u);
    EXPECT_EQ(ds.array().node(0).scheduler().completeTick(q2), 2363238400u);
    EXPECT_EQ(ds.array().node(0).scheduler().completeTick(q3), 11298489800u);
    EXPECT_EQ(ds.events().now(), 11298489800u);
}

// ---- power-loss recovery matrix ---------------------------------

namespace {

constexpr std::int64_t kPlDim = 32;
constexpr std::uint64_t kPlFeatures = 500;

/** The standard power-loss workload: one persisted database, a
 *  query-cache-enabled model, and one submitted query. */
struct PlRig
{
    std::unique_ptr<DeepStore> ds;
    std::shared_ptr<FeatureSource> src;
    std::uint64_t db = 0;
    std::uint64_t model = 0;
    std::uint64_t qid = 0;
};

PlRig
plSetup(const DeepStoreConfig &cfg)
{
    PlRig rig;
    rig.ds = std::make_unique<DeepStore>(cfg);
    rig.src = randomDb(kPlDim, kPlFeatures, 42);
    rig.db = rig.ds->writeDB(rig.src);
    rig.model = rig.ds->loadModel(dotModel(kPlDim));
    // A query cache gives the CacheProbe stage nonzero duration (the
    // cold cache always misses, so the scan still runs).
    rig.ds->setQC(rig.model, 0.5, 0.9, 8);
    rig.ds->persistMetadata();
    rig.qid = rig.ds->query(rig.src->featureAt(1), 4, rig.model,
                            rig.db, 0, 0);
    return rig;
}

/** Post-loss contract, asserted for every matrix cell: the lost
 *  query is terminal with honest coverage, the event queue drains,
 *  metadata matches the persisted table, and a fresh query runs at
 *  full coverage against the recovered mapping. */
void
assertRecovered(PlRig &rig, const char *cell)
{
    DeepStore &ds = *rig.ds;
    SCOPED_TRACE(cell);
    ASSERT_TRUE(ds.poll(rig.qid).has_value());
    EXPECT_TRUE(isTerminal(*ds.poll(rig.qid)));
    ds.drain(); // must terminate: no zombie events may survive
    EXPECT_EQ(ds.array().node(0).scheduler().inFlight(), 0u);

    const QueryResult &res = ds.getResults(rig.qid);
    EXPECT_EQ(res.outcome, QueryOutcome::PowerLoss);
    // Honest accounting: the reported fraction is exactly the
    // scanned/requested ratio at the instant the power died.
    EXPECT_NEAR(res.coverageFraction,
                static_cast<double>(res.featuresScanned) /
                    static_cast<double>(kPlFeatures),
                1e-12);
    EXPECT_LE(res.coverageFraction, 1.0);

    // Metadata was replayed from the reserved flash block.
    EXPECT_EQ(ds.databaseInfo(rig.db).numFeatures, kPlFeatures);

    // The device is alive after recovery.
    std::uint64_t q2 = ds.querySync(rig.src->featureAt(2), 4,
                                    rig.model, rig.db, 0, 0);
    EXPECT_EQ(ds.getResults(q2).outcome, QueryOutcome::Success);
    EXPECT_DOUBLE_EQ(ds.getResults(q2).coverageFraction, 1.0);

    std::ostringstream os;
    ds.dumpStats(os);
    EXPECT_NE(os.str().find("powerLosses"), std::string::npos);
    EXPECT_NE(os.str().find("sched.powerLossKills"),
              std::string::npos);
}

} // namespace

TEST(PowerLoss, MatrixAcrossSchedulerStates)
{
    // Record which lifecycle states are observable at event
    // boundaries on the standard workload (determinism makes the
    // trajectory replayable cell by cell).
    std::vector<QueryState> observable;
    {
        PlRig rig = plSetup(DeepStoreConfig{});
        QueryState last = *rig.ds->poll(rig.qid);
        observable.push_back(last);
        while (!isTerminal(*rig.ds->poll(rig.qid))) {
            ASSERT_TRUE(rig.ds->step());
            QueryState s = *rig.ds->poll(rig.qid);
            if (s != last && !isTerminal(s))
                observable.push_back(s);
            last = s;
        }
    }
    auto seen = [&](QueryState s) {
        return std::find(observable.begin(), observable.end(), s) !=
               observable.end();
    };
    // The durable stages must all be visible. Parsed and Striped are
    // synchronous transients (submit() advances straight into
    // CacheProbe; striping schedules the scan in the same event) —
    // the post-submit cell below and the scheduled-tick sweep cover
    // those instants.
    EXPECT_TRUE(seen(QueryState::CacheProbe));
    EXPECT_TRUE(seen(QueryState::Scanning));
    EXPECT_TRUE(seen(QueryState::Reduce));

    // Cell 0: power dies immediately after submission, before any
    // event has run (the freshly-parsed query instant).
    {
        PlRig rig = plSetup(DeepStoreConfig{});
        rig.ds->powerLoss();
        assertRecovered(rig, "post-submit");
        EXPECT_DOUBLE_EQ(
            rig.ds->getResults(rig.qid).coverageFraction, 0.0);
    }

    // One loss cell per observable state: replay the trajectory to
    // the target state, cut the power there, assert recovery.
    for (QueryState target : observable) {
        PlRig rig = plSetup(DeepStoreConfig{});
        while (*rig.ds->poll(rig.qid) != target) {
            ASSERT_TRUE(rig.ds->step());
            ASSERT_FALSE(isTerminal(*rig.ds->poll(rig.qid)))
                << "state " << toString(target)
                << " vanished from the replayed trajectory";
        }
        rig.ds->powerLoss();
        assertRecovered(rig, toString(target));
    }
}

TEST(PowerLoss, ScheduledTickSweepKillsMidScanDeterministically)
{
    // The FaultConfig::powerLossAtTick domain: the loss fires from
    // inside the event loop (mid-drain), sweeping the whole
    // submit..complete interval so transient states are hit too.
    Tick submit = 0, complete = 0;
    {
        PlRig rig = plSetup(DeepStoreConfig{});
        rig.ds->drain();
        submit = rig.ds->array().node(0).scheduler().submitTick(rig.qid);
        complete = rig.ds->array().node(0).scheduler().completeTick(rig.qid);
        ASSERT_LT(submit, complete);
    }
    const Tick span = complete - submit;
    // Strictly inside (submit, complete): at exactly `submit` the
    // ctor-scheduled loss event would fire inside the setup's
    // persistMetadata stepping (same-tick FIFO ordering), i.e.
    // before the query exists — a different scenario than mid-query
    // loss.
    const Tick cells[] = {submit + 1, submit + span / 4,
                          submit + span / 2, submit + 3 * span / 4,
                          complete - 1};
    double prev_coverage = -1.0;
    bool coverage_moved = false;
    int partial_cells = 0;
    for (Tick loss_tick : cells) {
        DeepStoreConfig cfg;
        cfg.flash.faults.powerLossAtTick = loss_tick;
        PlRig rig = plSetup(cfg);
        rig.ds->drain(); // the scheduled event cuts the power
        assertRecovered(rig, "tick sweep");
        const QueryResult &res = rig.ds->getResults(rig.qid);
        // Power died strictly before completion, so the outcome is
        // PowerLoss — but the *coverage* may legitimately be 1.0
        // when the loss lands in the scheduled reduce/probe tail,
        // after the last feature was scanned. Honest accounting is
        // scanned/requested, not success/failure.
        EXPECT_LE(res.coverageFraction, 1.0);
        if (res.coverageFraction < 1.0)
            ++partial_cells;
        // The loss instant is the terminal tick.
        EXPECT_EQ(rig.ds->array().node(0).scheduler().completeTick(rig.qid),
                  loss_tick);
        if (prev_coverage >= 0.0 &&
            res.coverageFraction != prev_coverage)
            coverage_moved = true;
        EXPECT_GE(res.coverageFraction, prev_coverage)
            << "coverage must grow with later loss instants";
        prev_coverage = res.coverageFraction;
    }
    // Later losses credit more scanned features: the sweep is not
    // degenerate (all-zero coverage would hide a broken remnant
    // accounting), and at least one cell must land mid-scan with
    // genuinely partial coverage.
    EXPECT_TRUE(coverage_moved);
    EXPECT_GE(partial_cells, 1);
}

} // namespace
} // namespace deepstore::core
