/** @file Unit tests for the reference executor. */

#include <cmath>
#include <cstring>
#include <string>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/rng.h"
#include "nn/executor.h"
#include "nn/semantic.h"
#include "workloads/apps.h"

namespace deepstore::nn {
namespace {

/** Hand-built 2->1 FC so the expected output is computable by hand. */
TEST(Executor, FcMatMulByHand)
{
    Model m("toy", 1, true); // concat of two 1-d features -> 2 inputs
    m.addLayer(Layer::fc("fc", 2, 1, Activation::None));
    ModelWeights w;
    w.append(Tensor({1, 2}, {2.0f, 3.0f}), Tensor({1}, {0.5f}));
    Executor ex(m, w);
    auto out = ex.run({10.0f}, {100.0f});
    ASSERT_EQ(out.size(), 1u);
    EXPECT_FLOAT_EQ(out[0], 2.0f * 10.0f + 3.0f * 100.0f + 0.5f);
}

TEST(Executor, ReluClampsNegative)
{
    Model m("toy", 1, true);
    m.addLayer(Layer::fc("fc", 2, 1, Activation::ReLU));
    ModelWeights w;
    w.append(Tensor({1, 2}, {-1.0f, -1.0f}), Tensor({1}, {0.0f}));
    Executor ex(m, w);
    EXPECT_FLOAT_EQ(ex.run({1.0f}, {1.0f})[0], 0.0f);
}

TEST(Executor, ElementWiseCombiners)
{
    for (EwOp op : {EwOp::Add, EwOp::Subtract, EwOp::Multiply}) {
        Model m("toy", 2, false);
        m.addLayer(Layer::elementWise("fuse", op, 2));
        m.addLayer(Layer::fc("fc", 2, 1, Activation::None, false));
        ModelWeights w;
        w.append(Tensor(), Tensor());
        w.append(Tensor({1, 2}, {1.0f, 1.0f}), Tensor());
        Executor ex(m, w);
        float out = ex.run({3.0f, 4.0f}, {2.0f, 5.0f})[0];
        switch (op) {
          case EwOp::Add: EXPECT_FLOAT_EQ(out, 5.0f + 9.0f); break;
          case EwOp::Subtract: EXPECT_FLOAT_EQ(out, 1.0f - 1.0f); break;
          case EwOp::Multiply: EXPECT_FLOAT_EQ(out, 6.0f + 20.0f); break;
          default: FAIL();
        }
    }
}

TEST(Executor, DotProductCombiner)
{
    Model m("dot", 3, false);
    m.addLayer(Layer::elementWise("dot", EwOp::DotProduct, 3));
    ModelWeights w;
    w.append(Tensor(), Tensor());
    Executor ex(m, w);
    auto out = ex.run({1.0f, 2.0f, 3.0f}, {4.0f, 5.0f, 6.0f});
    ASSERT_EQ(out.size(), 1u);
    EXPECT_FLOAT_EQ(out[0], 4.0f + 10.0f + 18.0f);
}

TEST(Executor, ConvIdentityKernel)
{
    // 1x1 kernel with weight 1: convolution is identity.
    Model m("conv", 2, true); // concat -> 4 scalars = 2x2x1 image
    m.addLayer(Layer::conv2d("c", 2, 2, 1, 1, 1, 1, 1, 0,
                             Activation::None));
    ModelWeights w;
    w.append(Tensor({1, 1, 1, 1}, {1.0f}), Tensor({1}, {0.0f}));
    Executor ex(m, w);
    auto out = ex.run({1.0f, 2.0f}, {3.0f, 4.0f});
    ASSERT_EQ(out.size(), 4u);
    EXPECT_FLOAT_EQ(out[0], 1.0f);
    EXPECT_FLOAT_EQ(out[3], 4.0f);
}

TEST(Executor, ConvSumKernelWithPadding)
{
    // 3x3 all-ones kernel, pad 1: each output = sum of 3x3 neighborhood.
    Model m("conv", 2, true);
    m.addLayer(Layer::conv2d("c", 2, 2, 1, 3, 3, 1, 1, 1,
                             Activation::None));
    ModelWeights w;
    w.append(Tensor({3, 3, 1, 1},
                    std::vector<float>(9, 1.0f)),
             Tensor({1}, {0.0f}));
    Executor ex(m, w);
    auto out = ex.run({1.0f, 2.0f}, {3.0f, 4.0f});
    ASSERT_EQ(out.size(), 4u);
    // Input image [[1,2],[3,4]]; with zero padding every output is the
    // sum of the in-bounds neighbors.
    EXPECT_FLOAT_EQ(out[0], 1 + 2 + 3 + 4);
    EXPECT_FLOAT_EQ(out[1], 1 + 2 + 3 + 4);
}

TEST(Executor, ScoreSigmoidFor1d)
{
    std::vector<float> out{0.0f};
    EXPECT_FLOAT_EQ(Executor::scoreFromOutput(out), 0.5f);
    out[0] = 100.0f;
    EXPECT_NEAR(Executor::scoreFromOutput(out), 1.0f, 1e-6);
}

TEST(Executor, ScoreSoftmaxFor2d)
{
    EXPECT_FLOAT_EQ(Executor::scoreFromOutput({1.0f, 1.0f}), 0.5f);
    EXPECT_GT(Executor::scoreFromOutput({0.0f, 5.0f}), 0.99f);
    EXPECT_LT(Executor::scoreFromOutput({5.0f, 0.0f}), 0.01f);
}

TEST(Executor, ScoreIsBounded)
{
    // Property: any output vector maps into [0, 1].
    for (float v : {-100.0f, -1.0f, 0.0f, 3.5f, 80.0f}) {
        float s = Executor::scoreFromOutput({v, v / 2, -v});
        EXPECT_GE(s, 0.0f);
        EXPECT_LE(s, 1.0f);
    }
}

TEST(Executor, RejectsWrongFeatureSize)
{
    Model m("toy", 4, true);
    m.addLayer(Layer::fc("fc", 8, 1));
    auto w = ModelWeights::random(m, 1);
    Executor ex(m, w);
    EXPECT_THROW(ex.run({1.0f}, {1.0f, 2.0f, 3.0f, 4.0f}), FatalError);
}

TEST(Executor, RejectsMismatchedWeights)
{
    Model m("toy", 4, true);
    m.addLayer(Layer::fc("fc", 8, 1));
    ModelWeights w; // empty
    EXPECT_THROW(Executor(m, w), FatalError);
}

TEST(Executor, DeterministicAcrossRuns)
{
    Model m("tir", 512, false);
    m.addLayer(Layer::elementWise("fuse", EwOp::Multiply, 512));
    m.addLayer(Layer::fc("fc1", 512, 64));
    m.addLayer(Layer::fc("fc2", 64, 2, Activation::None));
    auto w = ModelWeights::random(m, 99);
    Executor ex(m, w);
    std::vector<float> q(512), d(512);
    for (int i = 0; i < 512; ++i) {
        q[static_cast<size_t>(i)] = 0.01f * static_cast<float>(i % 17);
        d[static_cast<size_t>(i)] = 0.02f * static_cast<float>(i % 13);
    }
    EXPECT_FLOAT_EQ(ex.score(q, d), ex.score(q, d));
}

/** scoreBatch over n rows equals n scalar score() calls, bit for bit. */
void
expectBatchMatchesScalar(const Model &m, const ModelWeights &w,
                         std::size_t n, std::uint64_t seed)
{
    SCOPED_TRACE(m.name() + " n=" + std::to_string(n));
    const auto dim = static_cast<std::size_t>(m.featureDim());
    Rng rng(seed);
    std::vector<float> q(dim), rows(n * dim);
    for (auto &v : q)
        v = static_cast<float>(rng.uniform(-1.0, 1.0));
    for (auto &v : rows)
        v = static_cast<float>(rng.uniform(-1.0, 1.0));
    Executor ex(m, w);
    std::vector<float> want(n), got(n);
    for (std::size_t r = 0; r < n; ++r)
        want[r] = ex.score(
            q, std::vector<float>(rows.begin() + r * dim,
                                  rows.begin() + (r + 1) * dim));
    ex.scoreBatch(q, rows.data(), n, got.data());
    EXPECT_EQ(std::memcmp(want.data(), got.data(), n * sizeof(float)), 0);
}

TEST(Executor, ScoreBatchMatchesScoreBitForBit)
{
    // Partial, exact, just-past and many blocks of 16.
    const std::vector<std::size_t> sizes{1, 15, 16, 17, 100};
    std::vector<std::pair<Model, ModelWeights>> models;
    auto add = [&](const Model &m) {
        models.emplace_back(m, ModelWeights::random(m, 7));
    };
    for (const auto &app : workloads::allApps()) {
        if (app.id == workloads::AppId::ReId) {
            // Conv2D: evaluated one feature at a time; keep it short.
            for (std::size_t n : {1, 17})
                expectBatchMatchesScalar(
                    app.scn, ModelWeights::random(app.scn, 7), n, 11);
        } else {
            add(app.scn);
        }
        add(app.qcn);
    }
    // The semantic weights perfbench scores with.
    const auto textqa = workloads::makeApp(workloads::AppId::TextQA);
    const auto tir = workloads::makeApp(workloads::AppId::TIR);
    models.emplace_back(textqa.scn, semanticWeights(textqa.scn));
    models.emplace_back(tir.qcn, semanticWeights(tir.qcn));

    Model dot("dot-scn", 128, false);
    dot.addLayer(Layer::elementWise("dot", EwOp::DotProduct, 128));
    add(dot);
    for (EwOp op : {EwOp::Add, EwOp::Subtract, EwOp::Multiply}) {
        Model m(std::string("ew-") + toString(op), 24, false);
        m.addLayer(Layer::elementWise("fuse", op, 24));
        m.addLayer(Layer::fc("fc", 24, 5, Activation::Sigmoid));
        add(m);
    }
    // FC straight on the DFV and on concat(QFV, DFV); odd widths and
    // every output collapse (1: sigmoid, 2: softmax, 3: mean).
    std::int64_t outs = 1;
    for (bool concat : {false, true}) {
        for (bool bias : {false, true}) {
            for (Activation act : {Activation::None, Activation::ReLU,
                                   Activation::Sigmoid}) {
                Model m(std::string("fc-") + toString(act) +
                            (bias ? "-bias" : "") +
                            (concat ? "-concat" : ""),
                        24, concat);
                m.addLayer(Layer::fc("fc1", concat ? 48 : 24, 7, act,
                                     bias));
                m.addLayer(Layer::fc("fc2", 7, outs, act, bias));
                add(m);
                outs = outs % 3 + 1;
            }
        }
    }
    std::uint64_t seed = 100;
    for (const auto &[m, w] : models)
        for (std::size_t n : sizes)
            expectBatchMatchesScalar(m, w, n, ++seed);
}

} // namespace
} // namespace deepstore::nn
