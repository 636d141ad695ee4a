/**
 * @file
 * DeepStore benchmark driver: one pass of one workload against the
 * live core::DeepStore engine, printed as one JSON object of raw
 * measurements on stdout.
 *
 *   perfbench_driver --workload scan|qc_zipf|ingest --seed N
 *                    [--traced] [--oracle] [--spans FILE]
 *
 * perfbench/run.py runs several passes per benchmark run and turns
 * them into the reported metrics; perfbench/NOTES.md says why each
 * workload exists and which layer it loads.
 *
 * Every input is generated here from --seed; the engine only ever
 * sees the generated sources, models and query vectors. Clocks:
 * "host" numbers are wall time of this process (steady_clock), raw
 * and normalised to a reference machine speed by a speed probe (see
 * SpeedProbe); "sim" numbers come from event-queue ticks and repeat
 * exactly for a fixed seed.
 *
 * --traced wraps every feature source in a timing decorator and
 * drives the event loop with DeepStore::step() in place of drain(),
 * recording a span around each call into the engine (query, step,
 * appendDB, writeDB, loadModel, setQC) and each featureAt. The
 * untraced pass hands the engine the plain sources.
 *
 * --oracle brute-forces a seeded sample of measured queries with the
 * driver's own nn::Executor over its own copy of the inputs, after
 * the measured phase; a full-scan mismatch exits with status 3.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/deepstore.h"
#include "nn/semantic.h"
#include "workloads/apps.h"
#include "workloads/feature_gen.h"

using namespace deepstore;

namespace {

using WallClock = std::chrono::steady_clock;

/** Top-K depth of every query. */
constexpr std::size_t kTopK = 10;

// ---- scan: TextQA full scans, closed loop, one node, no QC --------
constexpr std::uint64_t kScanTopics = 64;
constexpr std::uint64_t kScanFeatures = 1024; ///< + seed jitter < 32
constexpr int kScanDepth = 8; ///< one client per resident scan slot
constexpr std::uint64_t kScanQueries = 96;

// ---- qc_zipf: TIR + semantic QCN, open loop, Zipf topics ----------
constexpr std::uint64_t kQcTopics = 128;
constexpr double kQcZipfAlpha = 0.8;
constexpr std::uint64_t kQcFeatures = 96; ///< + seed jitter < 8
constexpr std::size_t kQcCapacity = 128;
constexpr double kQcThreshold = 0.15;
constexpr double kQcAccuracy = 0.97;
constexpr std::uint64_t kQcWarmupQueries = 192;
constexpr std::uint64_t kQcQueries = 256;
/** Offered load (simulated queries/s): about half the no-cache
 *  saturation point of this database (~12,300/s). */
constexpr double kQcRateQps = 6'000.0;

// ---- ingest: 2-node dot-product array, reads beside appends -------
constexpr std::int64_t kIngestDim = 128;
constexpr std::uint64_t kIngestTopics = 32;
constexpr std::uint64_t kIngestFeatures = 2048; ///< + seed jitter < 32
constexpr int kIngestDepth = 4;
constexpr std::uint64_t kIngestQueries = 320;
constexpr std::uint64_t kIngestBatch = 1024; ///< features per appendDB

/** Closed-loop client think time, uniform in [0, this) simulated
 *  seconds: short against a query, so the loops stay saturated, yet
 *  each seed gets its own interleaving of the clients. */
constexpr double kThinkSeconds = 2e-6;

/** Oracle sample sizes (full-scan exactness, cache-hit recall). */
constexpr std::size_t kOracleScans = 8;
constexpr std::size_t kOracleHits = 8;

/** Set-up repeats until this much host time has been spent (the pass
 *  reports the median repeat). */
constexpr double kSetupBudgetSeconds = 0.1;
constexpr int kMaxSetupReps = 500;

/** Each timed phase is cut into at most this many segments of equal
 *  query-completion counts (see segmentsOf), with a speed probe at
 *  every boundary. */
constexpr std::size_t kSegments = 32;

/** Speed probe (see SpeedProbe): GEMV rounds over a kProbeDim-square
 *  matrix, then splitmix64 steps on each of four lanes. */
constexpr std::size_t kProbeDim = 256;
constexpr int kProbeRounds = 4;
constexpr int kProbeHashSteps = 20'000;
/** The probe's host time on an idle core of the 4-core Xeon VM the
 *  benchmark was tuned on: normalised host times are expressed at the
 *  speed at which the probe takes this long. */
constexpr double kProbeReferenceSeconds = 250e-6;

[[noreturn]] void
die(int status, const char *what)
{
    std::fprintf(stderr, "perfbench_driver: %s\n", what);
    std::exit(status);
}

double
secondsSince(WallClock::time_point t0)
{
    return std::chrono::duration<double>(WallClock::now() - t0).count();
}

/** splitmix64: derives independent input streams from the seed. */
std::uint64_t
mix(std::uint64_t x)
{
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

double
currentRssKb()
{
    std::ifstream statm("/proc/self/statm");
    double size = 0, resident = 0;
    statm >> size >> resident;
    return resident * static_cast<double>(sysconf(_SC_PAGESIZE)) /
           1024.0;
}

double
peakRssKb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss);
}

/** Calibration input: the first (q, d) pairs of a workload. */
constexpr std::size_t kCalibrationPairs = 16;

std::vector<std::vector<float>>
sample(const std::vector<std::vector<float>> &v, std::size_t from = 0)
{
    return {v.begin() + static_cast<std::ptrdiff_t>(from),
            v.begin() + static_cast<std::ptrdiff_t>(from +
                                                     kCalibrationPairs)};
}

std::vector<std::vector<float>>
sample(const workloads::FeatureGenerator &gen)
{
    std::vector<std::vector<float>> out;
    for (std::uint64_t i = 0; i < kCalibrationPairs; ++i)
        out.push_back(gen.featureAt(i));
    return out;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Completions per segment of a phase of `expected` completions. */
std::size_t
segmentStride(std::size_t expected)
{
    return expected ? (expected + kSegments - 1) / kSegments : 0;
}

/**
 * Cut a timed phase of `total` host seconds into segments that end at
 * fixed query completions: `marks` holds the host time of each
 * completion since the phase began, and a segment ends at every
 * `stride`-th completion before the last one (the last segment ends at
 * `total`). For a fixed seed every pass runs the same work in each
 * segment.
 */
std::vector<double>
segmentsOf(const std::vector<double> &marks, std::size_t stride,
           double total)
{
    std::vector<double> out;
    double prev = 0.0;
    for (std::size_t c = stride; stride && c < marks.size(); c += stride) {
        out.push_back(marks[c - 1] - prev);
        prev = marks[c - 1];
    }
    out.push_back(total - prev);
    return out;
}

/**
 * Host-speed probe. Other tenants of a shared machine slow this
 * process by a third or more, for a fraction of a second up to minutes
 * at a time. The probe times a fixed piece of the benchmark's own code
 * (compiled here, never from src/, so no engine change moves it): a
 * scalar float GEMV chain like the executor's fully connected layers,
 * then integer hashing like the feature generator's random streams.
 * Timed at every segment boundary, it tells how fast the machine ran
 * during each segment. On the machine the benchmark was tuned on, the
 * probe's slowdown per segment correlated with the workloads' at 0.5
 * (qc_zipf) to 0.85, and normalising by it cut the spread of a pass's
 * host time from 13-18% to 2-6%.
 */
class SpeedProbe
{
  public:
    SpeedProbe() : w_(kProbeDim * kProbeDim), x_(kProbeDim), y_(kProbeDim)
    {
        std::uint64_t s = 0x5EEDULL;
        for (auto &v : w_)
            v = static_cast<float>((s = mix(s)) % 2001) * 1e-3f - 1.0f;
        for (auto &v : x_)
            v = static_cast<float>((s = mix(s)) % 2001) * 1e-3f - 1.0f;
    }

    /** Host seconds of one probe. */
    double
    run()
    {
        const auto t0 = WallClock::now();
        float acc = 0.0f;
        for (int r = 0; r < kProbeRounds; ++r) {
            for (std::size_t o = 0; o < kProbeDim; ++o) {
                float sum = 0.0f;
                const float *row = &w_[o * kProbeDim];
                for (std::size_t i = 0; i < kProbeDim; ++i)
                    sum += row[i] * x_[i];
                y_[o] = sum;
            }
            // Perturb the input so no round repeats the last one.
            x_[static_cast<std::size_t>(r)] += 1e-3f;
            acc += y_[static_cast<std::size_t>(r)];
        }
        std::uint64_t h[4] = {1, 2, 3, 4};
        for (int i = 0; i < kProbeHashSteps; ++i)
            for (auto &v : h)
                v = mix(v);
        sink_ = acc + static_cast<float>(h[0] ^ h[1] ^ h[2] ^ h[3]);
        return secondsSince(t0);
    }

  private:
    std::vector<float> w_, x_, y_;
    volatile float sink_ = 0.0f;
};

// ---- spans ----------------------------------------------------------

enum class SpanKind : std::uint8_t
{
    Query,
    Step,
    Append,
    WriteDb,
    LoadModel,
    SetQc,
    FeatureAt,
};

constexpr const char *kSpanNames[] = {"query",      "step",
                                      "append",     "write_db",
                                      "load_model", "set_qc",
                                      "feature_at"};

struct Span
{
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    std::int32_t parent = -1;
    SpanKind kind = SpanKind::Query;
    /** A query completed inside this span (step / append). */
    bool completed = false;
    /** Submitted (query) or first completed (step / append) id. */
    std::uint64_t qid = 0;
};

/**
 * In-memory span recorder around the driver's calls into the engine.
 * Spans nest (the simulator is single-threaded), so a span's self
 * time is its duration minus its direct children's.
 */
class Tracer
{
  public:
    static constexpr std::int32_t kOff = -1;

    explicit Tracer(bool enabled) : enabled_(enabled)
    {
        if (enabled_)
            spans_.reserve(1u << 20);
    }

    bool enabled() const { return enabled_; }

    std::int32_t
    open(SpanKind kind)
    {
        if (!enabled_)
            return kOff;
        Span s;
        s.kind = kind;
        s.parent = stack_.empty() ? -1 : stack_.back();
        s.startNs = nowNs();
        spans_.push_back(s);
        const auto idx = static_cast<std::int32_t>(spans_.size() - 1);
        stack_.push_back(idx);
        return idx;
    }

    void
    close(std::int32_t idx, std::uint64_t qid = 0)
    {
        if (idx == kOff)
            return;
        Span &s = spans_[static_cast<std::size_t>(idx)];
        s.endNs = nowNs();
        if (qid)
            s.qid = qid;
        stack_.pop_back();
    }

    /** Mark the innermost open step/append span as having completed
     *  query `qid`. */
    void
    noteCompletion(std::uint64_t qid)
    {
        for (auto it = stack_.rbegin(); it != stack_.rend(); ++it) {
            Span &s = spans_[static_cast<std::size_t>(*it)];
            if (s.kind == SpanKind::Step || s.kind == SpanKind::Append) {
                if (!s.completed)
                    s.qid = qid;
                s.completed = true;
                return;
            }
        }
    }

    std::int64_t
    nowNs() const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   WallClock::now() - epoch_)
            .count();
    }

    const std::vector<Span> &spans() const { return spans_; }

  private:
    bool enabled_;
    WallClock::time_point epoch_ = WallClock::now();
    std::vector<Span> spans_;
    std::vector<std::int32_t> stack_;
};

/** Timing decorator handed to writeDB/appendDB in traced passes. */
class TracedSource : public core::FeatureSource
{
  public:
    TracedSource(std::shared_ptr<core::FeatureSource> inner,
                 Tracer &tracer)
        : inner_(std::move(inner)), tracer_(tracer)
    {
    }

    std::uint64_t count() const override { return inner_->count(); }
    std::int64_t dim() const override { return inner_->dim(); }

    std::vector<float>
    featureAt(std::uint64_t index) const override
    {
        const auto span = tracer_.open(SpanKind::FeatureAt);
        auto f = inner_->featureAt(index);
        tracer_.close(span);
        return f;
    }

  private:
    std::shared_ptr<core::FeatureSource> inner_;
    Tracer &tracer_;
};

// ---- one pass -------------------------------------------------------

/** One measured completion. */
struct Record
{
    std::size_t input = 0; ///< index into the pass's query vectors
    Tick submitTick = 0;
    Tick completeTick = 0;
    core::QueryResult res;
};

/** Engine counters from dumpStats, summed over array nodes. */
using Counters = std::map<std::string, double>;

Counters
engineCounters(const core::DeepStore &ds)
{
    std::ostringstream os;
    ds.dumpStats(os);
    Counters out;
    std::istringstream in(os.str());
    std::string line;
    while (std::getline(in, line)) {
        const auto eq = line.find(" = ");
        if (eq == std::string::npos)
            continue;
        std::string key = line.substr(0, eq);
        // Node 0 prints unprefixed, node i as "node<i>.".
        if (key.rfind("node", 0) == 0) {
            const auto dot = key.find('.');
            if (dot != std::string::npos &&
                key.find_first_not_of("0123456789", 4) == dot)
                key = key.substr(dot + 1);
        }
        if (key.rfind("array.array.", 0) == 0)
            key = key.substr(6);
        out[key] += std::strtod(line.c_str() + eq + 3, nullptr);
    }
    return out;
}

class Pass
{
  public:
    Pass(std::string workload, std::uint64_t seed, bool traced,
         bool oracle)
        : workload_(std::move(workload)), seed_(seed),
          oracle_(oracle), tracer_(traced)
    {
    }

    int run();
    void writeSpans(const std::string &path) const;

  private:
    // workload bodies
    void runScan();
    void runQcZipf();
    void runIngest();

    /** Wrap a source for the engine (decorated in traced passes). */
    std::shared_ptr<core::FeatureSource>
    engineSource(std::shared_ptr<core::FeatureSource> src)
    {
        if (!tracer_.enabled())
            return src;
        return std::make_shared<TracedSource>(std::move(src), tracer_);
    }

    /** Time `setup` repeatedly (at least once, until the set-up
     *  budget is spent) and keep the last engine it built. */
    std::unique_ptr<core::DeepStore>
    timedSetup(std::size_t completions,
               const std::function<std::unique_ptr<core::DeepStore>()>
                   &setup);

    /** Timed phases: `expected` query completions cut into segments,
     *  with a speed probe (untraced passes only) at the start, at
     *  every segment boundary and at the end. Probe time is excluded
     *  from the phase's host time. */
    void beginPhase(std::size_t expected);
    double endPhase();
    double phaseSeconds() const;
    void probe();

    std::uint64_t submit(core::DeepStore &ds, std::size_t input,
                         std::uint64_t model, std::uint64_t db,
                         std::uint64_t begin, std::uint64_t end,
                         const std::function<void()> &after);
    void closedLoop(core::DeepStore &ds, int depth, std::size_t count,
                    std::uint64_t model, std::uint64_t db,
                    std::uint64_t begin, std::uint64_t end, Rng &rng);
    void step(core::DeepStore &ds);
    void runUntil(core::DeepStore &ds, const std::function<bool()> &done);
    void beginMeasure(core::DeepStore &ds, std::size_t completions);
    void endMeasure(core::DeepStore &ds);

    /** Brute-force top-K over [begin, end) with the driver's
     *  executor; `scores` receives every score in the range. */
    std::vector<core::ScoredResult>
    bruteForce(const nn::Executor &ex, const std::vector<float> &q,
               std::uint64_t begin, std::uint64_t end,
               std::vector<float> &scores) const;
    void checkOracle(const nn::Executor &ex, std::uint64_t begin,
                     std::uint64_t end);
    double calibrate(const nn::Executor &ex,
                     const std::vector<std::vector<float>> &a,
                     const std::vector<std::vector<float>> &b) const;

    void print() const;

    std::string workload_;
    std::uint64_t seed_;
    bool oracle_;
    Tracer tracer_;

    // inputs
    std::vector<std::vector<float>> queries_;
    std::function<std::vector<float>(std::uint64_t)> oracleFeature_;

    // measurement
    /** Host seconds of each set-up repeat, raw and normalised. */
    std::vector<double> setupSeconds_, setupNorm_;
    /** Host time of each completion since the current phase began. */
    WallClock::time_point phaseStart_;
    std::vector<double> marks_;
    std::size_t expected_ = 0, stride_ = 0;
    /** Probe time inside the phase, excluded from its host time. */
    double paused_ = 0.0;
    SpeedProbe speed_;
    std::vector<double> probes_;
    /** The last phase's normalised host seconds (NaN unprobed). */
    double phaseNorm_ = 0.0;
    std::int64_t measureStartNs_ = 0;
    double measuredHostSeconds_ = 0.0, measuredNormSeconds_ = 0.0;
    double measuredProbeSeconds_ = 0.0;
    Tick measureStartTick_ = 0;
    Tick lastCompleteTick_ = 0;
    bool measuring_ = false;
    std::uint64_t submitted_ = 0;
    std::size_t nextInput_ = 0;
    std::function<void()> more_;
    std::vector<Record> records_;
    Counters before_, after_;
    std::uint64_t eventsBefore_ = 0, eventsAfter_ = 0;
    double rssStartKb_ = 0.0, rssEndKb_ = 0.0, peakRssKb_ = 0.0;
    std::uint64_t qcHits_ = 0, qcMisses_ = 0, qcEntries_ = 0;
    double ledgerQcLookup_ = 0, ledgerCacheHit_ = 0, ledgerScan_ = 0;

    // workload extras
    double parityErrPct_ = -1.0;
    double appendedBytes_ = 0.0;
    std::uint64_t appends_ = 0;
    double scoreNs_ = 0.0, qcnScoreNs_ = 0.0;

    // oracle
    std::size_t oracleScans_ = 0, oracleExact_ = 0;
    std::size_t oracleHits_ = 0;
    double hitRecallSum_ = 0.0;
};

std::unique_ptr<core::DeepStore>
Pass::timedSetup(
    std::size_t completions,
    const std::function<std::unique_ptr<core::DeepStore>()> &setup)
{
    std::unique_ptr<core::DeepStore> ds;
    double spent = 0.0;
    do {
        ds.reset();
        beginPhase(completions);
        ds = setup();
        const double s = endPhase();
        setupSeconds_.push_back(s);
        setupNorm_.push_back(phaseNorm_);
        spent += s;
    } while (spent < kSetupBudgetSeconds &&
             static_cast<int>(setupSeconds_.size()) < kMaxSetupReps);
    return ds;
}

void
Pass::beginPhase(std::size_t expected)
{
    marks_.clear();
    probes_.clear();
    expected_ = expected;
    stride_ = segmentStride(expected);
    paused_ = 0.0;
    phaseStart_ = WallClock::now();
    probe();
}

double
Pass::endPhase()
{
    const double total = phaseSeconds();
    probe();
    // Scale each segment to the reference speed by the mean of the
    // probes at its two ends.
    phaseNorm_ = std::nan("");
    if (probes_.empty())
        return total;
    const auto segs = segmentsOf(marks_, stride_, total);
    if (probes_.size() != segs.size() + 1)
        die(4, "speed probes out of step with the phase's segments");
    phaseNorm_ = 0.0;
    for (std::size_t i = 0; i < segs.size(); ++i)
        phaseNorm_ += segs[i] * 2.0 * kProbeReferenceSeconds /
                      (probes_[i] + probes_[i + 1]);
    return total;
}

double
Pass::phaseSeconds() const
{
    return secondsSince(phaseStart_) - paused_;
}

void
Pass::probe()
{
    if (tracer_.enabled())
        return;
    const auto t0 = WallClock::now();
    probes_.push_back(speed_.run());
    paused_ += secondsSince(t0);
}

std::uint64_t
Pass::submit(core::DeepStore &ds, std::size_t input, std::uint64_t model,
             std::uint64_t db, std::uint64_t begin, std::uint64_t end,
             const std::function<void()> &after)
{
    const auto span = tracer_.open(SpanKind::Query);
    const std::uint64_t qid =
        ds.query(queries_[input], kTopK, model, db, begin, end);
    tracer_.close(span, qid);
    if (measuring_)
        ++submitted_;
    const bool measured = measuring_;
    const Tick submitted = ds.events().now();
    ds.onComplete(qid, [this, &ds, input, measured, submitted,
                        after](const core::QueryResult &res) {
        tracer_.noteCompletion(res.queryId);
        marks_.push_back(phaseSeconds());
        if (stride_ && marks_.size() % stride_ == 0 &&
            marks_.size() < expected_)
            probe();
        if (measured) {
            records_.push_back(
                Record{input, submitted, ds.events().now(), res});
            lastCompleteTick_ = ds.events().now();
        }
        if (after)
            after();
    });
    return qid;
}

/** Arm a closed loop over queries_[0, count): `depth` clients, each
 *  submitting its next query one seeded think time after its previous
 *  one completed. */
void
Pass::closedLoop(core::DeepStore &ds, int depth, std::size_t count,
                 std::uint64_t model, std::uint64_t db,
                 std::uint64_t begin, std::uint64_t end, Rng &rng)
{
    more_ = [this, &ds, count, model, db, begin, end, &rng] {
        if (nextInput_ >= count)
            return;
        const std::size_t input = nextInput_++;
        ds.events().scheduleAfter(
            secondsToTicks(rng.uniform() * kThinkSeconds),
            [this, &ds, input, model, db, begin, end] {
                submit(ds, input, model, db, begin, end, more_);
            });
    };
    for (int i = 0; i < depth; ++i)
        more_();
}

void
Pass::step(core::DeepStore &ds)
{
    const auto span = tracer_.open(SpanKind::Step);
    const bool ran = ds.step();
    tracer_.close(span);
    if (!ran)
        die(4, "event queue drained with work outstanding");
}

/** Run the engine until `done()`: drain() plus one step() over idle
 *  gaps in untraced passes, single traced step() calls otherwise. */
void
Pass::runUntil(core::DeepStore &ds, const std::function<bool()> &done)
{
    while (!done()) {
        if (tracer_.enabled()) {
            step(ds);
            continue;
        }
        ds.drain();
        if (!done() && !ds.step())
            die(4, "event queue drained with work outstanding");
    }
}

void
Pass::beginMeasure(core::DeepStore &ds, std::size_t completions)
{
    before_ = engineCounters(ds);
    eventsBefore_ = ds.events().executed();
    if (auto *qc = ds.queryCache()) {
        qcHits_ = qc->hits();
        qcMisses_ = qc->misses();
    }
    ledgerQcLookup_ =
        ds.ledger().componentSeconds(core::TimeComponent::QcLookup);
    ledgerCacheHit_ =
        ds.ledger().componentSeconds(core::TimeComponent::CacheHit);
    ledgerScan_ = ds.ledger().componentSeconds(core::TimeComponent::Scan);
    rssStartKb_ = currentRssKb();
    measureStartTick_ = ds.events().now();
    measuring_ = true;
    measureStartNs_ = tracer_.nowNs();
    beginPhase(completions);
}

void
Pass::endMeasure(core::DeepStore &ds)
{
    measuredHostSeconds_ = endPhase();
    measuredNormSeconds_ = phaseNorm_;
    measuredProbeSeconds_ = probes_.empty() ? std::nan("") : median(probes_);
    measuring_ = false;
    rssEndKb_ = currentRssKb();
    peakRssKb_ = peakRssKb();
    after_ = engineCounters(ds);
    eventsAfter_ = ds.events().executed();
    if (auto *qc = ds.queryCache()) {
        qcHits_ = qc->hits() - qcHits_;
        qcMisses_ = qc->misses() - qcMisses_;
        qcEntries_ = qc->size();
    }
    ledgerQcLookup_ =
        ds.ledger().componentSeconds(core::TimeComponent::QcLookup) -
        ledgerQcLookup_;
    ledgerCacheHit_ =
        ds.ledger().componentSeconds(core::TimeComponent::CacheHit) -
        ledgerCacheHit_;
    ledgerScan_ =
        ds.ledger().componentSeconds(core::TimeComponent::Scan) -
        ledgerScan_;
}

// ---- scan -----------------------------------------------------------

void
Pass::runScan()
{
    const auto app = workloads::makeApp(workloads::AppId::TextQA);
    const nn::ModelBundle bundle{app.scn, nn::semanticWeights(app.scn)};
    const nn::Executor ex(bundle.model, bundle.weights);
    const std::uint64_t n = kScanFeatures + mix(seed_ ^ 1) % 32;
    const workloads::FeatureGenerator gen(app.scn.featureDim(),
                                          kScanTopics, mix(seed_ ^ 2));
    Rng rng(mix(seed_ ^ 3));
    for (std::uint64_t i = 0; i < kScanQueries + 1; ++i)
        queries_.push_back(
            gen.featureForTopic(rng.uniformInt(kScanTopics), rng.next()));
    oracleFeature_ = [gen](std::uint64_t i) { return gen.featureAt(i); };
    const auto src = std::make_shared<core::GeneratedFeatureSource>(gen, n);

    std::uint64_t db = 0, model = 0;
    auto ds = timedSetup(0, [&] {
        auto e = std::make_unique<core::DeepStore>(core::DeepStoreConfig{});
        auto span = tracer_.open(SpanKind::WriteDb);
        db = e->writeDB(engineSource(src));
        tracer_.close(span);
        span = tracer_.open(SpanKind::LoadModel);
        model = e->loadModel(bundle);
        tracer_.close(span);
        return e;
    });

    // Lone-query parity probe against the analytic model.
    const std::uint64_t lone_id =
        submit(*ds, kScanQueries, model, db, 0, 0, nullptr);
    ds->drain();
    const double lone = ds->getResults(lone_id).latencySeconds;
    const double analytic =
        ds->model()
            .evaluateModel(core::Level::ChannelLevel, bundle.model,
                           static_cast<std::uint64_t>(gen.dim()) *
                               kBytesPerFloat)
            .aggregateSeconds *
        static_cast<double>(n);
    parityErrPct_ = std::fabs(lone - analytic) / analytic * 100.0;

    beginMeasure(*ds, kScanQueries);
    closedLoop(*ds, kScanDepth, kScanQueries, model, db, 0, n, rng);
    runUntil(*ds, [&] { return records_.size() >= kScanQueries; });
    endMeasure(*ds);

    if (tracer_.enabled())
        scoreNs_ = calibrate(ex, sample(queries_), sample(gen));
    if (oracle_)
        checkOracle(ex, 0, n);
}

// ---- qc_zipf --------------------------------------------------------

void
Pass::runQcZipf()
{
    const auto app = workloads::makeApp(workloads::AppId::TIR);
    const nn::ModelBundle scn{app.scn, nn::semanticWeights(app.scn)};
    const nn::ModelBundle qcn{app.qcn, nn::semanticWeights(app.qcn)};
    const nn::Executor ex(scn.model, scn.weights);
    const nn::Executor qex(qcn.model, qcn.weights);
    const std::uint64_t n = kQcFeatures + mix(seed_ ^ 1) % 8;
    const workloads::FeatureGenerator gen(app.scn.featureDim(), kQcTopics,
                                          mix(seed_ ^ 2));
    Rng rng(mix(seed_ ^ 3));
    const ZipfSampler zipf(kQcTopics, kQcZipfAlpha);
    const std::uint64_t total = kQcWarmupQueries + kQcQueries;
    for (std::uint64_t i = 0; i < total; ++i)
        queries_.push_back(gen.featureForTopic(zipf.sample(rng), rng.next()));
    oracleFeature_ = [gen](std::uint64_t i) { return gen.featureAt(i); };
    const auto src = std::make_shared<core::GeneratedFeatureSource>(gen, n);

    // Poisson arrivals conditioned on their count: each phase's
    // arrival times are sorted uniform draws over count / rate
    // simulated seconds, so the offered load is exactly the rate.
    auto arrivals = [&rng](std::uint64_t count) {
        std::vector<double> t(count);
        const double window = static_cast<double>(count) / kQcRateQps;
        for (auto &v : t)
            v = rng.uniform() * window;
        std::sort(t.begin(), t.end());
        return t;
    };
    const auto warmArrivals = arrivals(kQcWarmupQueries);
    const auto measuredArrivals = arrivals(kQcQueries);

    std::uint64_t db = 0, model = 0;
    // Open loop in simulated time: arrivals are events on the
    // engine's queue, so each query is submitted exactly when due.
    auto openLoop = [&](core::DeepStore &ds, std::size_t first,
                        const std::vector<double> &at) {
        const Tick t0 = ds.events().now();
        std::size_t done = 0;
        for (std::size_t i = 0; i < at.size(); ++i)
            ds.events().schedule(t0 + secondsToTicks(at[i]), [&, i] {
                submit(ds, first + i, model, db, 0, 0, [&] { ++done; });
            });
        runUntil(ds, [&] { return done == at.size(); });
    };

    auto ds = timedSetup(kQcWarmupQueries, [&] {
        auto e = std::make_unique<core::DeepStore>(core::DeepStoreConfig{});
        auto span = tracer_.open(SpanKind::WriteDb);
        db = e->writeDB(engineSource(src));
        tracer_.close(span);
        span = tracer_.open(SpanKind::LoadModel);
        model = e->loadModel(scn);
        tracer_.close(span);
        span = tracer_.open(SpanKind::LoadModel);
        const std::uint64_t qcn_id = e->loadModel(qcn);
        tracer_.close(span);
        span = tracer_.open(SpanKind::SetQc);
        e->setQC(qcn_id, kQcThreshold, kQcAccuracy, kQcCapacity);
        tracer_.close(span);
        // Warm-up prefix: brings the cache to its working set;
        // excluded from measurement.
        openLoop(*e, 0, warmArrivals);
        return e;
    });

    beginMeasure(*ds, kQcQueries);
    openLoop(*ds, kQcWarmupQueries, measuredArrivals);
    endMeasure(*ds);

    if (tracer_.enabled()) {
        scoreNs_ = calibrate(ex, sample(queries_), sample(gen));
        qcnScoreNs_ = calibrate(qex, sample(queries_),
                                sample(queries_, kCalibrationPairs));
    }
    if (oracle_)
        checkOracle(ex, 0, n);
}

// ---- ingest ---------------------------------------------------------

void
Pass::runIngest()
{
    nn::Model m("dot-scn", kIngestDim, false);
    m.addLayer(
        nn::Layer::elementWise("dot", nn::EwOp::DotProduct, kIngestDim));
    auto weights = nn::ModelWeights::random(m, mix(seed_ ^ 4));
    const nn::ModelBundle bundle{std::move(m), std::move(weights)};
    const nn::Executor ex(bundle.model, bundle.weights);
    const std::uint64_t n = kIngestFeatures + mix(seed_ ^ 1) % 32;
    const workloads::FeatureGenerator gen(kIngestDim, kIngestTopics,
                                          mix(seed_ ^ 2));
    const workloads::FeatureGenerator appended(kIngestDim, kIngestTopics,
                                               mix(seed_ ^ 5));
    auto base = std::make_shared<std::vector<std::vector<float>>>();
    for (std::uint64_t i = 0; i < n; ++i)
        base->push_back(gen.featureAt(i));
    Rng rng(mix(seed_ ^ 3));
    for (std::uint64_t i = 0; i < kIngestQueries; ++i)
        queries_.push_back(
            gen.featureForTopic(rng.uniformInt(kIngestTopics), rng.next()));
    oracleFeature_ = [base](std::uint64_t i) { return (*base)[i]; };
    const auto src =
        std::make_shared<core::VectorFeatureSource>(*base, kIngestDim);
    // The scanned sub-range straddles both nodes' stripes.
    const std::uint64_t begin = n / 8, end = n - n / 8;

    core::DeepStoreConfig cfg;
    ssd::FlashParams flash;
    flash.channels = 8;
    cfg.flash = flash;
    cfg.array.nodes.assign(2, flash);

    std::uint64_t db = 0, model = 0;
    auto ds = timedSetup(0, [&] {
        auto e = std::make_unique<core::DeepStore>(cfg);
        auto span = tracer_.open(SpanKind::WriteDb);
        db = e->writeDB(engineSource(src));
        tracer_.close(span);
        span = tracer_.open(SpanKind::LoadModel);
        model = e->loadModel(bundle);
        tracer_.close(span);
        return e;
    });

    beginMeasure(*ds, kIngestQueries);
    closedLoop(*ds, kIngestDepth, kIngestQueries, model, db, begin, end,
               rng);
    // Back-to-back appends; query completions fire inside them.
    while (records_.size() < kIngestQueries) {
        auto batch = std::make_shared<core::GeneratedFeatureSource>(
            appended, kIngestBatch);
        const auto span = tracer_.open(SpanKind::Append);
        ds->appendDB(db, engineSource(std::move(batch)));
        tracer_.close(span);
        ++appends_;
    }
    appendedBytes_ = static_cast<double>(appends_ * kIngestBatch *
                                         kIngestDim * kBytesPerFloat);
    endMeasure(*ds);

    if (tracer_.enabled())
        scoreNs_ = calibrate(ex, sample(queries_), sample(*base));
    if (oracle_)
        checkOracle(ex, begin, end);
}

// ---- oracle, calibration -------------------------------------------

/** Keeps calibration scores observable so the calls are not elided. */
volatile float gScoreSink = 0.0f;

std::vector<core::ScoredResult>
Pass::bruteForce(const nn::Executor &ex, const std::vector<float> &q,
                 std::uint64_t begin, std::uint64_t end,
                 std::vector<float> &scores) const
{
    scores.clear();
    std::vector<core::ScoredResult> all;
    for (std::uint64_t i = begin; i < end; ++i) {
        const float s = ex.score(q, oracleFeature_(i));
        scores.push_back(s);
        all.push_back(core::ScoredResult{i, 0, s});
    }
    std::stable_sort(all.begin(), all.end(),
                     [](const auto &a, const auto &b) {
                         return a.score > b.score;
                     });
    all.resize(std::min(all.size(), kTopK));
    return all;
}

void
Pass::checkOracle(const nn::Executor &ex, std::uint64_t begin,
                  std::uint64_t end)
{
    // Seeded sample: up to kOracleScans full scans and kOracleHits
    // cache hits among the measured completions.
    std::vector<std::size_t> order(records_.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    Rng rng(mix(seed_ ^ 6));
    for (std::size_t i = order.size(); i > 1; --i)
        std::swap(order[i - 1], order[rng.uniformInt(i)]);

    std::vector<float> scores;
    for (std::size_t idx : order) {
        const Record &r = records_[idx];
        if (r.res.outcome != core::QueryOutcome::Success)
            continue;
        const bool hit = r.res.cacheHit;
        if ((hit ? oracleHits_ : oracleScans_) >=
            (hit ? kOracleHits : kOracleScans))
            continue;
        const auto want =
            bruteForce(ex, queries_[r.input], begin, end, scores);
        const auto &got = r.res.topK;
        if (hit) {
            std::size_t found = 0;
            for (const auto &w : want)
                for (const auto &g : got)
                    found += g.featureId == w.featureId;
            hitRecallSum_ += static_cast<double>(found) /
                             static_cast<double>(want.size());
            ++oracleHits_;
            continue;
        }
        // Exact up to ties: the same score sequence, and every
        // returned id is distinct, in range and carries its own
        // oracle score.
        bool exact = got.size() == want.size();
        for (std::size_t i = 0; exact && i < got.size(); ++i) {
            const auto id = got[i].featureId;
            exact = got[i].score == want[i].score && id >= begin &&
                    id < end && scores[id - begin] == got[i].score;
            for (std::size_t j = 0; exact && j < i; ++j)
                exact = got[j].featureId != id;
        }
        ++oracleScans_;
        oracleExact_ += exact;
        if (!exact)
            std::fprintf(stderr,
                         "perfbench_driver: query %llu top-K differs "
                         "from the brute-force oracle\n",
                         static_cast<unsigned long long>(r.res.queryId));
    }
}

double
Pass::calibrate(const nn::Executor &ex,
                const std::vector<std::vector<float>> &a,
                const std::vector<std::vector<float>> &b) const
{
    // Median of five timed sweeps over the fixed (a[i], b[i]) pairs.
    std::vector<double> ns;
    for (int rep = 0; rep < 5; ++rep) {
        const auto t0 = WallClock::now();
        for (std::size_t i = 0; i < a.size(); ++i)
            gScoreSink = ex.score(a[i], b[i]);
        ns.push_back(secondsSince(t0) * 1e9 /
                     static_cast<double>(a.size()));
    }
    return median(ns);
}

// ---- output ---------------------------------------------------------

/** FNV-1a over every measured query's id, outcome, completion tick
 *  and top-K ids and scores, in completion order. */
std::uint64_t
digest(const std::vector<Record> &records)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    auto add = [&h](const void *p, std::size_t n) {
        const auto *b = static_cast<const unsigned char *>(p);
        for (std::size_t i = 0; i < n; ++i)
            h = (h ^ b[i]) * 0x100000001b3ULL;
    };
    for (const auto &r : records) {
        const std::uint64_t qid = r.res.queryId;
        const auto outcome = static_cast<std::int32_t>(r.res.outcome);
        add(&qid, sizeof qid);
        add(&outcome, sizeof outcome);
        add(&r.completeTick, sizeof r.completeTick);
        for (const auto &s : r.res.topK) {
            add(&s.featureId, sizeof s.featureId);
            add(&s.score, sizeof s.score);
        }
    }
    return h;
}

class JsonOut
{
  public:
    void
    num(const std::string &key, double v)
    {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g", v);
        field(key, std::isfinite(v) ? buf : "null");
    }
    void
    str(const std::string &key, const std::string &v)
    {
        field(key, "\"" + v + "\"");
    }
    void
    obj(const std::string &key, const JsonOut &o)
    {
        field(key, o.text());
    }
    std::string text() const { return "{" + body_ + "}"; }

  private:
    void
    field(const std::string &key, const std::string &raw)
    {
        body_ += (body_.empty() ? "\"" : ", \"") + key + "\": " + raw;
    }
    std::string body_;
};

void
Pass::print() const
{
    // Simulated metrics over the measured completions.
    std::vector<double> lat;
    std::uint64_t failed = 0, scanned = 0;
    double stall = 0, backpressure = 0, noc = 0, merge = 0, probe = 0;
    for (const auto &r : records_) {
        lat.push_back(r.res.latencySeconds * 1e3);
        failed += r.res.outcome != core::QueryOutcome::Success;
        scanned += r.res.featuresScanned;
        stall += r.res.computeStallSeconds;
        backpressure += r.res.backpressureSeconds;
        noc += r.res.nocWaitSeconds;
        merge += r.res.mergeSeconds;
        probe += r.res.qcProbeSeconds;
    }
    std::sort(lat.begin(), lat.end());
    const double n = static_cast<double>(lat.size());
    // Highest listed percentile with at least ten samples beyond it
    // (nearest-rank).
    double tail_pct = 50.0, tail_ms = 0.0, tail_beyond = 0.0;
    for (double p : {50.0, 75.0, 80.0, 85.0, 90.0, 95.0, 98.0, 99.0,
                     99.9}) {
        const double rank = std::ceil(p / 100.0 * n);
        if (n - rank < 10.0)
            break;
        tail_pct = p;
        tail_ms = lat[static_cast<std::size_t>(rank) - 1];
        tail_beyond = n - rank;
    }
    const double span_s =
        ticksToSeconds(lastCompleteTick_ - measureStartTick_);
    // Simulated time during which at least one measured query was in
    // flight. A closed loop keeps the engine busy for its whole span;
    // in the open loop, where arrivals are fixed, the busy time is what
    // a faster engine shortens.
    std::vector<std::pair<Tick, Tick>> flights;
    for (const auto &r : records_)
        flights.emplace_back(r.submitTick, r.completeTick);
    std::sort(flights.begin(), flights.end());
    Tick busy = 0, covered = 0;
    for (const auto &[from, to] : flights) {
        const Tick start = std::max(from, covered);
        if (to > start)
            busy += to - start;
        covered = std::max(covered, to);
    }

    JsonOut sim;
    sim.num("qps", n / ticksToSeconds(busy));
    sim.num("busy_s", ticksToSeconds(busy));
    sim.num("lat_p50_ms",
            lat[static_cast<std::size_t>(std::ceil(0.5 * n)) - 1]);
    sim.num("lat_tail_ms", tail_ms);
    sim.num("tail_pct", tail_pct);
    sim.num("tail_beyond", tail_beyond);
    sim.num("span_s", span_s);
    sim.num("parity_err_pct", parityErrPct_);
    sim.num("ingest_mb_per_sim_s", appendedBytes_ / 1e6 / span_s);

    auto delta = [this](const std::string &key) {
        auto get = [&key](const Counters &c) {
            auto it = c.find(key);
            return it == c.end() ? 0.0 : it->second;
        };
        return get(after_) - get(before_);
    };
    JsonOut ctr;
    ctr.num("sim.events",
            static_cast<double>(eventsAfter_ - eventsBefore_));
    ctr.num("core.features_scanned", static_cast<double>(scanned));
    ctr.num("core.qc.hits", static_cast<double>(qcHits_));
    ctr.num("core.qc.misses", static_cast<double>(qcMisses_));
    ctr.num("core.qc.hit_rate",
            qcHits_ + qcMisses_
                ? static_cast<double>(qcHits_) /
                      static_cast<double>(qcHits_ + qcMisses_)
                : 0.0);
    ctr.num("core.qc.entries", static_cast<double>(qcEntries_));
    ctr.num("core.qc.probe_s", probe);
    ctr.num("core.time.qcLookup_s", ledgerQcLookup_);
    ctr.num("core.time.cacheHit_s", ledgerCacheHit_);
    ctr.num("core.time.scan_s", ledgerScan_);
    ctr.num("core.sched.compute_stall_s", stall);
    ctr.num("core.sched.backpressure_s", backpressure);
    ctr.num("core.sched.noc_wait_s", noc);
    ctr.num("core.merge_s", merge);
    for (const char *k :
         {"ssd.flash.pageReads", "ssd.flash.pagePrograms",
          "ssd.flash.channelStalls", "ssd.dfv.pagesStreamed",
          "ssd.dfv.backpressureTicks", "ssd.dram.waitTicks",
          "ssd.noc.waitTicks", "ssd.ftl.pageWrites",
          "ssd.ftl.relocations", "array.subQueriesRemote",
          "array.fabric.bytes", "array.fabric.waitTicks"})
        ctr.num(k, delta(k));
    ctr.num("core.append.calls", static_cast<double>(appends_));

    JsonOut out;
    out.str("workload", workload_);
    out.num("seed", static_cast<double>(seed_));
    out.num("traced", tracer_.enabled() ? 1 : 0);
    char hex[32];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(digest(records_)));
    out.str("digest", hex);
    out.num("setup_s", median(setupSeconds_));
    out.num("setup_reps", static_cast<double>(setupSeconds_.size()));
    out.num("setup_norm_s",
            tracer_.enabled() ? std::nan("") : median(setupNorm_));
    out.num("measured_host_s", measuredHostSeconds_);
    out.num("measured_norm_s", measuredNormSeconds_);
    out.num("probe_s", measuredProbeSeconds_);
    out.num("submitted", static_cast<double>(submitted_));
    out.num("completed", n);
    out.num("failed", static_cast<double>(failed));
    out.num("peak_rss_kb", peakRssKb_);
    out.num("rss_growth_kb_per_query", (rssEndKb_ - rssStartKb_) / n);
    out.obj("sim", sim);
    out.obj("counters", ctr);

    if (oracle_) {
        JsonOut o;
        o.num("scans_checked", static_cast<double>(oracleScans_));
        o.num("scans_exact", static_cast<double>(oracleExact_));
        o.num("hits_checked", static_cast<double>(oracleHits_));
        o.num("hit_recall",
              oracleHits_ ? hitRecallSum_ /
                                static_cast<double>(oracleHits_)
                          : -1.0);
        out.obj("oracle", o);
    }

    if (tracer_.enabled()) {
        // Per-kind totals over spans that start in the measured phase.
        const auto &spans = tracer_.spans();
        std::vector<std::int64_t> child(spans.size(), 0);
        for (const auto &s : spans)
            if (s.parent >= 0)
                child[static_cast<std::size_t>(s.parent)] +=
                    s.endNs - s.startNs;
        double feat_s = 0, feat_calls = 0, query_s = 0, query_calls = 0;
        double cstep_s = 0, cstep_self = 0, idle_s = 0, idle_calls = 0;
        double append_s = 0, append_self = 0, top_s = 0;
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const Span &s = spans[i];
            if (s.startNs < measureStartNs_)
                continue;
            const double d = static_cast<double>(s.endNs - s.startNs) / 1e9;
            const double self = d - static_cast<double>(child[i]) / 1e9;
            if (s.parent < 0)
                top_s += d;
            switch (s.kind) {
              case SpanKind::FeatureAt:
                feat_s += d;
                ++feat_calls;
                break;
              case SpanKind::Query:
                query_s += d;
                ++query_calls;
                break;
              case SpanKind::Step:
                if (s.completed) {
                    cstep_s += d;
                    cstep_self += self;
                } else {
                    idle_s += self;
                    ++idle_calls;
                }
                break;
              case SpanKind::Append:
                append_s += d;
                append_self += self;
                break;
              default:
                break;
            }
        }
        JsonOut t;
        t.num("workloads.feature_at.calls", feat_calls);
        t.num("workloads.feature_at.host_s", feat_s);
        t.num("workloads.feature_at.ns_per_call",
              feat_calls ? feat_s / feat_calls * 1e9 : 0.0);
        t.num("core.complete_step.host_s", cstep_s);
        t.num("core.complete_step.self_host_s", cstep_self);
        t.num("nn.score.ns_per_call", scoreNs_);
        t.num("nn.qcn_score.ns_per_call", qcnScoreNs_);
        t.num("core.query_submit.host_s", query_s);
        t.num("core.query_submit.us_per_call",
              query_calls ? query_s / query_calls * 1e6 : 0.0);
        t.num("core.append.host_s", append_s);
        t.num("core.append.self_host_s", append_self);
        t.num("sim.step.host_s", idle_s);
        t.num("sim.host_ns_per_event",
              idle_calls ? idle_s / idle_calls * 1e9 : 0.0);
        t.num("trace.span_coverage_pct",
              top_s / measuredHostSeconds_ * 100.0);
        t.num("spans", static_cast<double>(spans.size()));
        out.obj("trace", t);
    }
    std::printf("%s\n", out.text().c_str());
}

void
Pass::writeSpans(const std::string &path) const
{
    // One CSV row per span: index, parent, kind, start/end ns (since
    // the pass began), query id, whether a query completed inside.
    std::ofstream f(path);
    if (!f)
        die(2, "cannot write the span file");
    f << "index,parent,kind,start_ns,end_ns,qid,completed\n";
    const auto &spans = tracer_.spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        f << i << ',' << s.parent << ','
          << kSpanNames[static_cast<int>(s.kind)] << ',' << s.startNs
          << ',' << s.endNs << ',' << s.qid << ',' << s.completed
          << '\n';
    }
    if (!f)
        die(2, "short write to the span file");
}

int
Pass::run()
{
    if (workload_ == "scan")
        runScan();
    else if (workload_ == "qc_zipf")
        runQcZipf();
    else if (workload_ == "ingest")
        runIngest();
    else
        die(2, "unknown workload (scan, qc_zipf, ingest)");
    if (records_.empty())
        die(4, "no measured query completed");
    print();
    return oracle_ && oracleExact_ != oracleScans_ ? 3 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload, spans;
    std::uint64_t seed = 0;
    bool traced = false, oracle = false, have_seed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--workload" && i + 1 < argc) {
            workload = argv[++i];
        } else if (a == "--seed" && i + 1 < argc) {
            char *end = nullptr;
            seed = std::strtoull(argv[++i], &end, 10);
            have_seed = end && *end == '\0';
        } else if (a == "--spans" && i + 1 < argc) {
            spans = argv[++i];
        } else if (a == "--traced") {
            traced = true;
        } else if (a == "--oracle") {
            oracle = true;
        } else {
            die(2, "usage: perfbench_driver --workload W --seed N "
                   "[--traced] [--oracle] [--spans FILE]");
        }
    }
    if (workload.empty() || !have_seed)
        die(2, "--workload and a numeric --seed are required");
    Pass pass(workload, seed, traced, oracle);
    const int status = pass.run();
    if (traced && !spans.empty())
        pass.writeSpans(spans);
    return status;
}
