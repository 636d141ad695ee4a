#include "nn/executor.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <utility>

#include "common/logging.h"

namespace deepstore::nn {

namespace {

using Shape = std::vector<std::int64_t>;

/** The kernel and bias shapes a layer's weights must have. */
std::pair<Shape, Shape>
weightShapes(const Layer &l)
{
    switch (l.kind) {
      case LayerKind::FullyConnected:
        return {{l.fcOut, l.fcIn}, l.fcBias ? Shape{l.fcOut} : Shape{}};
      case LayerKind::Conv2D:
        return {{l.kH, l.kW, l.inC, l.outC}, {l.outC}};
      case LayerKind::ElementWise:
        break;
    }
    return {};
}

std::string
shapeString(const Shape &shape)
{
    std::string s = "{";
    for (std::size_t i = 0; i < shape.size(); ++i) {
        if (i)
            s += ',';
        s += std::to_string(shape[i]);
    }
    return s + "}";
}

float
applyActivation(Activation act, float x)
{
    switch (act) {
      case Activation::None:
        return x;
      case Activation::ReLU:
        return x > 0.0f ? x : 0.0f;
      case Activation::Sigmoid:
        return 1.0f / (1.0f + std::exp(-x));
    }
    return x;
}

} // namespace

Executor::Executor(const Model &model, const ModelWeights &weights)
    : model_(model), weights_(weights)
{
    model_.validate();
    if (weights_.numLayers() != model_.numLayers())
        fatal("executor: weights have %zu layers, model has %zu",
              weights_.numLayers(), model_.numLayers());
    // Both paths index the tensors by layer shape alone, so a
    // mismatched tensor would be read out of bounds.
    blockWidth_ = static_cast<std::size_t>(model_.featureDim());
    for (std::size_t i = 0; i < model_.numLayers(); ++i) {
        const Layer &l = model_.layers()[i];
        const auto [kernel, bias] = weightShapes(l);
        if (weights_.kernel(i).shape() != kernel ||
            weights_.bias(i).shape() != bias)
            fatal("executor: layer %zu '%s' has weights %s + %s, want "
                  "%s + %s",
                  i, l.name.c_str(),
                  shapeString(weights_.kernel(i).shape()).c_str(),
                  shapeString(weights_.bias(i).shape()).c_str(),
                  shapeString(kernel).c_str(), shapeString(bias).c_str());
        hasConv_ = hasConv_ || l.kind == LayerKind::Conv2D;
        blockWidth_ = std::max(blockWidth_,
                               static_cast<std::size_t>(l.outputCount()));
    }
}

std::vector<float>
Executor::run(const std::vector<float> &qfv,
              const std::vector<float> &dfv) const
{
    auto dim = static_cast<std::size_t>(model_.featureDim());
    if (qfv.size() != dim || dfv.size() != dim)
        fatal("executor: feature size mismatch (got %zu/%zu, want %zu)",
              qfv.size(), dfv.size(), dim);

    std::vector<float> cur;
    const auto &layers = model_.layers();
    if (layers[0].kind == LayerKind::ElementWise) {
        cur = runLayer(0, qfv, dfv);
    } else if (model_.concatInputs()) {
        cur = qfv;
        cur.insert(cur.end(), dfv.begin(), dfv.end());
        cur = runLayer(0, cur, {});
    } else {
        cur = runLayer(0, dfv, {});
    }
    for (std::size_t i = 1; i < layers.size(); ++i)
        cur = runLayer(i, cur, {});
    return cur;
}

float
Executor::scoreFromOutput(const std::vector<float> &out)
{
    DS_ASSERT(!out.empty());
    if (out.size() == 1)
        return applyActivation(Activation::Sigmoid, out[0]);
    if (out.size() == 2) {
        // Numerically stable 2-way softmax; index 1 is "match".
        float m = std::max(out[0], out[1]);
        float e0 = std::exp(out[0] - m);
        float e1 = std::exp(out[1] - m);
        return e1 / (e0 + e1);
    }
    float mean = 0.0f;
    for (float v : out)
        mean += v;
    mean /= static_cast<float>(out.size());
    return applyActivation(Activation::Sigmoid, mean);
}

float
Executor::score(const std::vector<float> &qfv,
                const std::vector<float> &dfv) const
{
    return scoreFromOutput(run(qfv, dfv));
}

// Cache-line aligned so the kernel loops below keep their offset
// from 32-byte fetch windows wherever the linker places this object:
// a 16-byte shift caused by unrelated code elsewhere in the engine
// slowed host scoring by ~15% on a 4-core Xeon VM.
[[gnu::aligned(64)]] std::vector<float>
Executor::runLayer(std::size_t idx, const std::vector<float> &in,
                   const std::vector<float> &aux) const
{
    const Layer &l = model_.layers()[idx];
    std::vector<float> out;
    switch (l.kind) {
      case LayerKind::FullyConnected: {
        auto n_in = static_cast<std::size_t>(l.fcIn);
        auto n_out = static_cast<std::size_t>(l.fcOut);
        DS_ASSERT(in.size() == n_in);
        const Tensor &w = weights_.kernel(idx);
        const Tensor &b = weights_.bias(idx);
        out.assign(n_out, 0.0f);
        for (std::size_t o = 0; o < n_out; ++o) {
            float acc = l.fcBias ? b[o] : 0.0f;
            const float *row = w.data() + o * n_in;
            for (std::size_t i = 0; i < n_in; ++i)
                acc += row[i] * in[i];
            out[o] = applyActivation(l.activation, acc);
        }
        break;
      }
      case LayerKind::Conv2D: {
        DS_ASSERT(in.size() ==
                  static_cast<std::size_t>(l.inH * l.inW * l.inC));
        const Tensor &w = weights_.kernel(idx);
        const Tensor &b = weights_.bias(idx);
        std::int64_t oh = l.outH(), ow = l.outW();
        out.assign(static_cast<std::size_t>(oh * ow * l.outC), 0.0f);
        auto in_at = [&](std::int64_t h, std::int64_t wx,
                         std::int64_t c) -> float {
            if (h < 0 || h >= l.inH || wx < 0 || wx >= l.inW)
                return 0.0f;
            return in[static_cast<std::size_t>(
                (h * l.inW + wx) * l.inC + c)];
        };
        // Kernel layout: (kH, kW, inC, outC).
        for (std::int64_t y = 0; y < oh; ++y) {
            for (std::int64_t x = 0; x < ow; ++x) {
                for (std::int64_t oc = 0; oc < l.outC; ++oc) {
                    float acc = b[static_cast<std::size_t>(oc)];
                    for (std::int64_t ky = 0; ky < l.kH; ++ky) {
                        for (std::int64_t kx = 0; kx < l.kW; ++kx) {
                            for (std::int64_t ic = 0; ic < l.inC; ++ic) {
                                float iv = in_at(
                                    y * l.stride + ky - l.pad,
                                    x * l.stride + kx - l.pad, ic);
                                float wv = w[static_cast<std::size_t>(
                                    ((ky * l.kW + kx) * l.inC + ic) *
                                        l.outC +
                                    oc)];
                                acc += iv * wv;
                            }
                        }
                    }
                    out[static_cast<std::size_t>(
                        (y * ow + x) * l.outC + oc)] =
                        applyActivation(l.activation, acc);
                }
            }
        }
        break;
      }
      case LayerKind::ElementWise: {
        auto n = static_cast<std::size_t>(l.ewSize);
        DS_ASSERT(in.size() == n && aux.size() == n);
        switch (l.ewOp) {
          case EwOp::Add:
            out.resize(n);
            for (std::size_t i = 0; i < n; ++i)
                out[i] = in[i] + aux[i];
            break;
          case EwOp::Subtract:
            out.resize(n);
            for (std::size_t i = 0; i < n; ++i)
                out[i] = in[i] - aux[i];
            break;
          case EwOp::Multiply:
            out.resize(n);
            for (std::size_t i = 0; i < n; ++i)
                out[i] = in[i] * aux[i];
            break;
          case EwOp::DotProduct: {
            float acc = 0.0f;
            for (std::size_t i = 0; i < n; ++i)
                acc += in[i] * aux[i];
            out.assign(1, acc);
            break;
          }
        }
        break;
      }
    }
    return out;
}

// ---- batched path ----------------------------------------------------

namespace {

/** Features per block; SIMD runs across them. */
constexpr std::size_t kBlock = 16;

/** Four float lanes: baseline x86-64 (SSE2) needs no -march. */
typedef float Lanes __attribute__((vector_size(16)));

Lanes
load(const float *p)
{
    Lanes v;
    std::memcpy(&v, p, sizeof v);
    return v;
}

void
store(float *p, Lanes v)
{
    std::memcpy(p, &v, sizeof v);
}

Lanes
splat(float x)
{
    return Lanes{x, x, x, x};
}

/**
 * Outputs o and p of an FC layer over one block (`in[i * kBlock + f]`
 * holds input i of feature f). Each output's 16 lanes start from its
 * seed and add `w[i] * in[i]` for i = 0, 1, ...: the scalar loop's
 * order, feature by feature. Two outputs at a time keep eight
 * independent add chains in flight.
 */
void
fcPair(const float *wo, const float *wp, float seed_o, float seed_p,
       std::size_t n_in, const float *in, float *out_o, float *out_p)
{
    Lanes o0 = splat(seed_o), o1 = o0, o2 = o0, o3 = o0;
    Lanes p0 = splat(seed_p), p1 = p0, p2 = p0, p3 = p0;
    for (std::size_t i = 0; i < n_in; ++i, in += kBlock) {
        const Lanes x0 = load(in), x1 = load(in + 4), x2 = load(in + 8),
                    x3 = load(in + 12);
        const Lanes wo_i = splat(wo[i]), wp_i = splat(wp[i]);
        o0 += wo_i * x0;
        o1 += wo_i * x1;
        o2 += wo_i * x2;
        o3 += wo_i * x3;
        p0 += wp_i * x0;
        p1 += wp_i * x1;
        p2 += wp_i * x2;
        p3 += wp_i * x3;
    }
    store(out_o, o0);
    store(out_o + 4, o1);
    store(out_o + 8, o2);
    store(out_o + 12, o3);
    store(out_p, p0);
    store(out_p + 4, p1);
    store(out_p + 8, p2);
    store(out_p + 12, p3);
}

/** An FC layer over one block: kernel rows `w_stride` apart, output o
 *  seeded with seed[o] (0 when `seed` is null). Cache-line aligned
 *  for the reason given at runLayer. */
[[gnu::aligned(64)]] void
fcBlock(const float *w, std::size_t w_stride, const float *seed,
        std::size_t n_in, std::size_t n_out, Activation act,
        const float *in, float *out)
{
    for (std::size_t o = 0; o < n_out; o += 2) {
        const std::size_t p = o + 1 < n_out ? o + 1 : o; // odd tail
        fcPair(w + o * w_stride, w + p * w_stride, seed ? seed[o] : 0.0f,
               seed ? seed[p] : 0.0f, n_in, in, out + o * kBlock,
               out + p * kBlock);
    }
    if (act != Activation::None)
        for (std::size_t j = 0; j < n_out * kBlock; ++j)
            out[j] = applyActivation(act, out[j]);
}

/** The element-wise combiner over one block, in place: x = q op x. */
template <typename Op>
void
combineBlock(const float *q, std::size_t dim, float *x, Op op)
{
    for (std::size_t i = 0; i < dim; ++i, x += kBlock) {
        const Lanes qi = splat(q[i]);
        for (std::size_t v = 0; v < kBlock; v += 4)
            store(x + v, op(qi, load(x + v)));
    }
}

} // namespace

void
Executor::scoreBatch(const std::vector<float> &qfv, const float *rows,
                     std::size_t n, float *out) const
{
    const auto dim = static_cast<std::size_t>(model_.featureDim());
    if (qfv.size() != dim)
        fatal("executor: query size %zu != feature dim %zu", qfv.size(),
              dim);
    if (hasConv_) {
        std::vector<float> dfv(dim);
        for (std::size_t r = 0; r < n; ++r) {
            std::copy_n(rows + r * dim, dim, dfv.begin());
            out[r] = score(qfv, dfv);
        }
        return;
    }
    // Concat models: the scalar FC accumulates bias, q[0..dim), then
    // d[0..dim), so the partial sum after the query half is a
    // per-query constant. Hoist it, in the same order.
    std::vector<float> head;
    const Layer &l0 = model_.layers()[0];
    if (l0.kind == LayerKind::FullyConnected && model_.concatInputs()) {
        const auto n_in = static_cast<std::size_t>(l0.fcIn);
        const Tensor &w = weights_.kernel(0);
        head.resize(static_cast<std::size_t>(l0.fcOut));
        for (std::size_t o = 0; o < head.size(); ++o) {
            float acc = l0.fcBias ? weights_.bias(0)[o] : 0.0f;
            const float *row = w.data() + o * n_in;
            for (std::size_t i = 0; i < dim; ++i)
                acc += row[i] * qfv[i];
            head[o] = acc;
        }
    }
    std::vector<float> a(kBlock * blockWidth_), b(kBlock * blockWidth_);
    for (std::size_t r = 0; r < n; r += kBlock)
        scoreBlock(qfv, head, rows + r * dim, std::min(kBlock, n - r),
                   a.data(), b.data(), out + r);
}

void
Executor::scoreBlock(const std::vector<float> &qfv,
                     const std::vector<float> &head, const float *rows,
                     std::size_t n, float *a, float *b, float *out) const
{
    const auto dim = static_cast<std::size_t>(model_.featureDim());
    // The block's database features, index-major; lanes past n are 0.
    for (std::size_t f = 0; f < n; ++f)
        for (std::size_t i = 0; i < dim; ++i)
            a[i * kBlock + f] = rows[f * dim + i];
    for (std::size_t f = n; f < kBlock; ++f)
        for (std::size_t i = 0; i < dim; ++i)
            a[i * kBlock + f] = 0.0f;

    const auto &layers = model_.layers();
    std::size_t width = dim; // values per feature in `a`
    std::size_t next = 0;    // first layer still to run
    if (layers[0].kind == LayerKind::ElementWise) {
        const float *q = qfv.data();
        switch (layers[0].ewOp) {
          case EwOp::Add:
            combineBlock(q, dim, a, [](Lanes x, Lanes y) { return x + y; });
            break;
          case EwOp::Subtract:
            combineBlock(q, dim, a, [](Lanes x, Lanes y) { return x - y; });
            break;
          case EwOp::Multiply:
            combineBlock(q, dim, a, [](Lanes x, Lanes y) { return x * y; });
            break;
          case EwOp::DotProduct:
            // 0 + q[0]·d[0] + q[1]·d[1] + ...: a one-output FC with
            // weights q and no bias, in the scalar order.
            fcBlock(q, dim, nullptr, dim, 1, Activation::None, a, b);
            std::swap(a, b);
            width = 1;
            break;
        }
        next = 1;
    } else if (!head.empty()) {
        // Concat: only the database half of the first FC is left.
        const Layer &l = layers[0];
        fcBlock(weights_.kernel(0).data() + dim,
                static_cast<std::size_t>(l.fcIn), head.data(), dim,
                head.size(), l.activation, a, b);
        std::swap(a, b);
        width = head.size();
        next = 1;
    }
    for (std::size_t i = next; i < layers.size(); ++i) {
        const Layer &l = layers[i];
        const auto n_in = static_cast<std::size_t>(l.fcIn);
        const auto n_out = static_cast<std::size_t>(l.fcOut);
        DS_ASSERT(l.kind == LayerKind::FullyConnected && n_in == width);
        fcBlock(weights_.kernel(i).data(), n_in,
                l.fcBias ? weights_.bias(i).data() : nullptr, n_in, n_out,
                l.activation, a, b);
        std::swap(a, b);
        width = n_out;
    }

    std::vector<float> y(width);
    for (std::size_t f = 0; f < n; ++f) {
        for (std::size_t o = 0; o < width; ++o)
            y[o] = a[o * kBlock + f];
        out[f] = scoreFromOutput(y);
    }
}

} // namespace deepstore::nn
