/** @file Tests for the NVMe-style command front end (§4.7.2). */

#include <cstring>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "core/nvme_front.h"
#include "nn/serialize.h"
#include "workloads/apps.h"

namespace deepstore::core {
namespace {

struct Rig
{
    DeepStore store{DeepStoreConfig{}};
    NvmeFrontEnd nvme{store, 16};

    /** Submit, process, pump until a completion posts, pop it. */
    NvmeCompletion
    run(const NvmeCommand &cmd)
    {
        EXPECT_TRUE(nvme.submit(cmd));
        nvme.process();
        nvme.pump();
        auto done = nvme.pollCompletion();
        EXPECT_TRUE(done.has_value());
        return *done;
    }

    /** LoadModel of a serialized model blob. */
    NvmeCompletion
    loadBlob(const std::vector<std::uint8_t> &blob)
    {
        std::vector<float> packed((blob.size() + 3) / 4, 0.0f);
        std::memcpy(packed.data(), blob.data(), blob.size());
        NvmeCommand cmd;
        cmd.opcode = NvmeOpcode::LoadModel;
        cmd.prp = nvme.buffers().add(std::move(packed));
        cmd.cdw[0] = blob.size();
        return run(cmd);
    }

    std::uint64_t
    loadDotModel(std::int64_t dim)
    {
        nn::Model m("dot", dim, false);
        m.addLayer(nn::Layer::elementWise("dot",
                                          nn::EwOp::DotProduct, dim));
        auto done = loadBlob(
            nn::serializeModel(m, nn::ModelWeights::random(m, 1)));
        EXPECT_EQ(done.status, NvmeStatus::Success);
        return done.result;
    }

    std::uint64_t
    writeDb(std::int64_t dim, int count)
    {
        std::vector<float> flat;
        for (int i = 0; i < count; ++i)
            for (std::int64_t d = 0; d < dim; ++d)
                flat.push_back(static_cast<float>((i * 31 + d) % 7) -
                               3.0f);
        NvmeCommand cmd;
        cmd.opcode = NvmeOpcode::WriteDB;
        cmd.prp = nvme.buffers().add(std::move(flat));
        cmd.cdw[0] = static_cast<std::uint64_t>(dim);
        auto done = run(cmd);
        EXPECT_EQ(done.status, NvmeStatus::Success);
        return done.result;
    }
};

TEST(NvmeFront, FullCommandFlow)
{
    Rig rig;
    std::uint64_t db = rig.writeDb(8, 50);
    std::uint64_t model = rig.loadDotModel(8);

    // Query via the vendor opcode.
    NvmeCommand q;
    q.opcode = NvmeOpcode::Query;
    q.cid = 7;
    q.prp = rig.nvme.buffers().add(
        std::vector<float>(8, 1.0f));
    q.cdw[0] = 5; // k
    q.cdw[1] = model;
    q.cdw[2] = db;
    auto qdone = rig.run(q);
    ASSERT_EQ(qdone.status, NvmeStatus::Success);
    EXPECT_EQ(qdone.cid, 7);

    // Fetch results into a host buffer.
    NvmeCommand g;
    g.opcode = NvmeOpcode::GetResults;
    g.prp = rig.nvme.buffers().add({});
    g.cdw[0] = qdone.result;
    auto gdone = rig.run(g);
    ASSERT_EQ(gdone.status, NvmeStatus::Success);
    EXPECT_EQ(gdone.result, 5u);
    const auto *out = rig.nvme.buffers().find(g.prp);
    ASSERT_NE(out, nullptr);
    EXPECT_EQ(out->size(), 10u); // (id, score) pairs
}

TEST(NvmeFront, ReadDbReturnsFlattenedFeatures)
{
    Rig rig;
    std::uint64_t db = rig.writeDb(4, 10);
    NvmeCommand r;
    r.opcode = NvmeOpcode::ReadDB;
    r.prp = rig.nvme.buffers().add({});
    r.cdw[0] = db;
    r.cdw[1] = 2;
    r.cdw[2] = 3;
    auto done = rig.run(r);
    ASSERT_EQ(done.status, NvmeStatus::Success);
    EXPECT_EQ(done.result, 3u);
    EXPECT_EQ(rig.nvme.buffers().find(r.prp)->size(), 12u);
}

TEST(NvmeFront, AppendDbGrowsDatabase)
{
    Rig rig;
    std::uint64_t db = rig.writeDb(4, 10);
    NvmeCommand a;
    a.opcode = NvmeOpcode::AppendDB;
    a.prp = rig.nvme.buffers().add(std::vector<float>(8, 0.5f));
    a.cdw[0] = db;
    auto done = rig.run(a);
    ASSERT_EQ(done.status, NvmeStatus::Success);
    EXPECT_EQ(rig.store.databaseInfo(db).numFeatures, 12u);
}

TEST(NvmeFront, HostErrorsSurfaceAsStatusNotExceptions)
{
    Rig rig;
    // Query against a nonexistent model: InvalidField, no throw.
    NvmeCommand q;
    q.opcode = NvmeOpcode::Query;
    q.prp = rig.nvme.buffers().add(std::vector<float>(8, 0.0f));
    q.cdw[1] = 999;
    q.cdw[2] = 999;
    auto done = rig.run(q);
    EXPECT_EQ(done.status, NvmeStatus::InvalidField);

    // Bad PRP handle.
    NvmeCommand r;
    r.opcode = NvmeOpcode::ReadDB;
    r.prp = 0xDEAD;
    EXPECT_EQ(rig.run(r).status, NvmeStatus::InvalidField);

    // ReadDB whose start + num wraps past 2^64 back into range.
    NvmeCommand wrap;
    wrap.opcode = NvmeOpcode::ReadDB;
    wrap.prp = rig.nvme.buffers().add({});
    wrap.cdw[0] = rig.writeDb(4, 10);
    wrap.cdw[1] = 1;
    wrap.cdw[2] = ~0ULL;
    EXPECT_EQ(rig.run(wrap).status, NvmeStatus::InvalidField);

    // LoadModel claiming a blob far larger than its 8-float buffer.
    NvmeCommand big;
    big.opcode = NvmeOpcode::LoadModel;
    big.prp = rig.nvme.buffers().add(std::vector<float>(8, 0.0f));
    big.cdw[0] = 1ULL << 62;
    EXPECT_EQ(rig.run(big).status, NvmeStatus::InvalidField);

    // LoadModel whose TextQA fc1 kernel is {1,4}, not {200,200}:
    // scoring would read past it.
    const auto app = workloads::makeApp(workloads::AppId::TextQA);
    auto w = nn::ModelWeights::random(app.scn, 1);
    w.kernel(1) = nn::Tensor({1, 4}, {1.0f, 2.0f, 3.0f, 4.0f});
    const auto blob = nn::serializeModel(app.scn, w);
    EXPECT_EQ(rig.loadBlob(blob).status, NvmeStatus::InvalidField);
    EXPECT_THROW(rig.store.loadModel(blob), FatalError);
}

TEST(NvmeFront, StandardIoOpcodesWork)
{
    Rig rig;
    NvmeCommand w;
    w.opcode = NvmeOpcode::Write;
    w.cdw[0] = 0;
    w.cdw[1] = 4;
    EXPECT_EQ(rig.run(w).status, NvmeStatus::Success);
    NvmeCommand r;
    r.opcode = NvmeOpcode::Read;
    r.cdw[0] = 0;
    r.cdw[1] = 4;
    EXPECT_EQ(rig.run(r).status, NvmeStatus::Success);
    NvmeCommand t;
    t.opcode = NvmeOpcode::Dsm;
    t.cdw[0] = 0;
    t.cdw[1] = 4;
    EXPECT_EQ(rig.run(t).status, NvmeStatus::Success);
}

TEST(NvmeFront, SubmissionQueueBackpressure)
{
    DeepStore store{DeepStoreConfig{}};
    NvmeFrontEnd nvme(store, 2);
    NvmeCommand nop;
    nop.opcode = NvmeOpcode::GetResults;
    nop.prp = nvme.buffers().add({});
    EXPECT_TRUE(nvme.submit(nop));
    EXPECT_TRUE(nvme.submit(nop));
    EXPECT_FALSE(nvme.submit(nop)); // full
    nvme.process();
    EXPECT_EQ(nvme.pending(), 0u);
    EXPECT_TRUE(nvme.submit(nop)); // drained
}

TEST(NvmeFront, SetQcEnablesTheCache)
{
    Rig rig;
    std::uint64_t db = rig.writeDb(8, 30);
    std::uint64_t scn = rig.loadDotModel(8);
    std::uint64_t qcn = rig.loadDotModel(8);

    NvmeCommand s;
    s.opcode = NvmeOpcode::SetQC;
    s.cdw[0] = qcn;
    s.cdw[1] = 2000; // threshold 0.20
    s.cdw[2] = 9900; // accuracy 0.99
    s.cdw[3] = 8;
    EXPECT_EQ(rig.run(s).status, NvmeStatus::Success);
    ASSERT_NE(rig.store.queryCache(), nullptr);
    EXPECT_EQ(rig.store.queryCache()->capacity(), 8u);

    // Same query twice through the wire: second one hits.
    for (int i = 0; i < 2; ++i) {
        NvmeCommand q;
        q.opcode = NvmeOpcode::Query;
        q.prp = rig.nvme.buffers().add(
            std::vector<float>(8, 2.0f));
        q.cdw[0] = 3;
        q.cdw[1] = scn;
        q.cdw[2] = db;
        EXPECT_EQ(rig.run(q).status, NvmeStatus::Success);
    }
    EXPECT_EQ(rig.store.queryCache()->hits(), 1u);
}

TEST(NvmeFront, RejectsZeroDepthQueue)
{
    DeepStore store{DeepStoreConfig{}};
    EXPECT_THROW(NvmeFrontEnd(store, 0), FatalError);
}

TEST(NvmeFront, QueryCompletionsArriveOutOfOrder)
{
    // Two queries over the same database: a slow SSD-level scan
    // submitted first and a fast channel-level scan second. Their
    // completion entries must post in simulated-latency order (fast
    // first), not submission order. The database must span enough
    // flash pages that channel striping actually parallelizes the
    // scan (a one-page database runs on a single unit at any level).
    Rig rig;
    std::uint64_t db = rig.writeDb(8, 20000);
    std::uint64_t model = rig.loadDotModel(8);

    auto make_query = [&](std::uint16_t cid, Level level) {
        NvmeCommand q;
        q.opcode = NvmeOpcode::Query;
        q.cid = cid;
        q.prp =
            rig.nvme.buffers().add(std::vector<float>(8, 1.0f));
        q.cdw[0] = 3;
        q.cdw[1] = model;
        q.cdw[2] = db;
        q.cdw[5] = static_cast<std::uint64_t>(level) + 1;
        return q;
    };
    NvmeCommand slow = make_query(100, Level::SsdLevel);
    NvmeCommand fast = make_query(101, Level::ChannelLevel);
    ASSERT_TRUE(rig.nvme.submit(slow));
    ASSERT_TRUE(rig.nvme.submit(fast));
    rig.nvme.process();

    // Both accepted: no completions yet, both engine queries known.
    EXPECT_FALSE(rig.nvme.pollCompletion().has_value());
    auto slow_qid = rig.nvme.queryIdForCid(100);
    auto fast_qid = rig.nvme.queryIdForCid(101);
    ASSERT_TRUE(slow_qid.has_value());
    ASSERT_TRUE(fast_qid.has_value());

    // GetResults on an in-flight query: retryable InProgress.
    NvmeCommand g;
    g.opcode = NvmeOpcode::GetResults;
    g.cid = 102;
    g.prp = rig.nvme.buffers().add({});
    g.cdw[0] = *slow_qid;
    ASSERT_TRUE(rig.nvme.submit(g));
    rig.nvme.process();
    auto early = rig.nvme.pollCompletion();
    ASSERT_TRUE(early.has_value());
    EXPECT_EQ(early->status, NvmeStatus::InProgress);
    EXPECT_EQ(early->result, *slow_qid);

    // First interrupt: the channel-level query (submitted second).
    ASSERT_TRUE(rig.nvme.pump());
    auto first = rig.nvme.pollCompletion();
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(first->cid, 101);
    EXPECT_EQ(first->status, NvmeStatus::Success);
    EXPECT_EQ(first->result, *fast_qid);

    // Second interrupt: the SSD-level query.
    ASSERT_TRUE(rig.nvme.pump());
    auto second = rig.nvme.pollCompletion();
    ASSERT_TRUE(second.has_value());
    EXPECT_EQ(second->cid, 100);
    EXPECT_EQ(second->result, *slow_qid);

    // GetResults now succeeds for both.
    g.cid = 103;
    auto gdone = rig.run(g);
    EXPECT_EQ(gdone.status, NvmeStatus::Success);
    EXPECT_EQ(gdone.result, 3u);

    // Latencies reflect the levels.
    EXPECT_GT(rig.store.getResults(*slow_qid).latencySeconds,
              rig.store.getResults(*fast_qid).latencySeconds);
}

} // namespace
} // namespace deepstore::core
