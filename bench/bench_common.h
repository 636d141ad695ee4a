/**
 * @file
 * Shared helpers for the benchmark harnesses. Every bench binary
 * regenerates one table or figure from the paper's evaluation and
 * prints the same rows/series the paper reports, with the published
 * values alongside for comparison where available.
 */

#ifndef DEEPSTORE_BENCH_BENCH_COMMON_H
#define DEEPSTORE_BENCH_BENCH_COMMON_H

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/table.h"
#include "core/deepstore.h"

namespace deepstore::bench {

/** Print the standard bench banner. */
inline void
banner(const std::string &experiment, const std::string &description)
{
    std::printf("\n================================================="
                "=============\n");
    std::printf("DeepStore reproduction — %s\n", experiment.c_str());
    std::printf("%s\n", description.c_str());
    std::printf("==================================================="
                "===========\n\n");
}

/** Print a section sub-header. */
inline void
section(const std::string &title)
{
    std::printf("\n--- %s ---\n", title.c_str());
}

/** Percentile `p` in [0, 1] of `v`, interpolated linearly between
 *  the two closest ranks (0 for an empty sample). */
inline double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    double idx = p * static_cast<double>(v.size() - 1);
    auto lo = static_cast<std::size_t>(idx);
    std::size_t hi = std::min(lo + 1, v.size() - 1);
    double frac = idx - static_cast<double>(lo);
    return v[lo] * (1.0 - frac) + v[hi] * frac;
}

/**
 * Closed-loop load generator in simulated time: submits `depth`
 * queries, then every completion runs `on_result` and submits the
 * next query until `total` have been submitted. `submit(i)` issues
 * the i-th query and returns its id. Only callbacks are armed here;
 * the caller advances simulated time (drain(), step(), appendDB()),
 * so whatever the two callables capture must outlive that stepping.
 */
inline void
closedLoop(core::DeepStore &ds, int depth, std::uint64_t total,
           std::function<std::uint64_t(std::uint64_t)> submit,
           std::function<void(const core::QueryResult &)> on_result)
{
    struct Loop
    {
        core::DeepStore &ds;
        std::uint64_t total;
        std::function<std::uint64_t(std::uint64_t)> submit;
        std::function<void(const core::QueryResult &)> onResult;
        std::uint64_t submitted = 0;

        static void
        next(const std::shared_ptr<Loop> &loop)
        {
            std::uint64_t qid = loop->submit(loop->submitted);
            ++loop->submitted;
            loop->ds.onComplete(
                qid, [loop](const core::QueryResult &res) {
                    loop->onResult(res);
                    if (loop->submitted < loop->total)
                        next(loop);
                });
        }
    };
    auto loop = std::make_shared<Loop>(
        Loop{ds, total, std::move(submit), std::move(on_result)});
    for (int i = 0; i < depth && loop->submitted < total; ++i)
        Loop::next(loop);
}

/**
 * Machine-readable bench output: collects named scalars plus a list
 * of uniform rows and writes them as `BENCH_<name>.json` in the
 * working directory, so CI and plotting scripts can consume bench
 * results without scraping the text tables.
 *
 *     JsonReport report("async_throughput");
 *     report.meta("features", 20000.0);
 *     report.beginRow().col("depth", 4.0).col("qps", qps);
 *     report.write();
 */
class JsonReport
{
  public:
    explicit JsonReport(std::string name) : name_(std::move(name)) {}

    /** Top-level scalar (numeric). */
    JsonReport &
    meta(const std::string &key, double value)
    {
        meta_.push_back(quote(key) + ": " + num(value));
        return *this;
    }

    /** Top-level scalar (string). */
    JsonReport &
    meta(const std::string &key, const std::string &value)
    {
        meta_.push_back(quote(key) + ": " + quote(value));
        return *this;
    }

    /** Start a new entry in the "rows" array. */
    JsonReport &
    beginRow()
    {
        rows_.emplace_back();
        return *this;
    }

    /** Numeric column of the current row. */
    JsonReport &
    col(const std::string &key, double value)
    {
        DS_ASSERT(!rows_.empty());
        rows_.back().push_back(quote(key) + ": " + num(value));
        return *this;
    }

    /** String column of the current row. */
    JsonReport &
    col(const std::string &key, const std::string &value)
    {
        DS_ASSERT(!rows_.empty());
        rows_.back().push_back(quote(key) + ": " + quote(value));
        return *this;
    }

    /**
     * Re-emit a printed TextTable as JSON rows (one row per table
     * row, keyed by the column headers; cells stay strings). A
     * non-empty @p tag adds a "table" discriminator column so one
     * report can carry several tables.
     */
    JsonReport &
    table(const TextTable &t, const std::string &tag = "")
    {
        for (const auto &cells : t.data()) {
            beginRow();
            if (!tag.empty())
                col("table", tag);
            for (std::size_t j = 0;
                 j < t.headers().size() && j < cells.size(); ++j)
                col(t.headers()[j], cells[j]);
        }
        return *this;
    }

    /** Output path: BENCH_<name>.json in the working directory. */
    std::string path() const { return "BENCH_" + name_ + ".json"; }

    /** Serialize and write the report; fatal() on I/O failure. */
    void
    write() const
    {
        std::FILE *f = std::fopen(path().c_str(), "w");
        if (!f)
            fatal("cannot write %s", path().c_str());
        std::string out = "{\n  " + quote("bench") + ": " +
                          quote(name_);
        for (const auto &m : meta_)
            out += ",\n  " + m;
        out += ",\n  " + quote("rows") + ": [";
        for (std::size_t i = 0; i < rows_.size(); ++i) {
            out += i ? ",\n    {" : "\n    {";
            for (std::size_t j = 0; j < rows_[i].size(); ++j)
                out += (j ? ", " : "") + rows_[i][j];
            out += "}";
        }
        out += rows_.empty() ? "]\n}\n" : "\n  ]\n}\n";
        if (std::fwrite(out.data(), 1, out.size(), f) != out.size()) {
            std::fclose(f);
            fatal("short write to %s", path().c_str());
        }
        std::fclose(f);
        std::printf("\nwrote %s\n", path().c_str());
    }

  private:
    static std::string
    num(double v)
    {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.12g", v);
        return buf;
    }

    static std::string
    quote(const std::string &s)
    {
        std::string out = "\"";
        for (char c : s) {
            if (c == '"' || c == '\\')
                out += '\\';
            if (static_cast<unsigned char>(c) < 0x20) {
                char esc[8];
                std::snprintf(esc, sizeof esc, "\\u%04x", c);
                out += esc;
                continue;
            }
            out += c;
        }
        return out + "\"";
    }

    std::string name_;
    std::vector<std::string> meta_;
    std::vector<std::vector<std::string>> rows_;
};

} // namespace deepstore::bench

#endif // DEEPSTORE_BENCH_BENCH_COMMON_H
