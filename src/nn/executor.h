/**
 * @file
 * Reference (functional) executor for SCN/QCN models.
 *
 * This is the ground-truth math: examples use it to produce real
 * similarity scores, the test suite uses it to cross-check the layer
 * shape arithmetic, and the engine uses it for every real score it
 * returns. The architecture paper's performance claims come from the
 * timing models, not from this code.
 *
 * Two paths compute the same numbers:
 *  - run()/score() evaluate one (QFV, DFV) pair with a plain scalar
 *    loop. They are the reference: tests and benchmark oracles check
 *    everything else against them.
 *  - scoreBatch() is the fast path the engine uses (scan, cache-hit
 *    rescore, QCN probe). It evaluates blocks of 16 features, stored
 *    index-major, with SIMD across the features.
 *
 * Contract: scoreBatch() returns exactly score() for every row, bit
 * for bit. Each feature keeps its own accumulator per output, seeded
 * with the bias and fed `in[0], in[1], ...` in the scalar order, so no
 * sum is reassociated. Fusing a multiply and an add (FP contraction)
 * rounds once instead of twice, and a compiler may fuse the two paths
 * differently, so src/nn/CMakeLists.txt builds executor.cc with
 * -ffp-contract=off.
 */

#ifndef DEEPSTORE_NN_EXECUTOR_H
#define DEEPSTORE_NN_EXECUTOR_H

#include <vector>

#include "nn/model.h"
#include "nn/weights.h"

namespace deepstore::nn {

/** Evaluates a Model functionally on (QFV, DFV) pairs. */
class Executor
{
  public:
    /** Bind an executor to a validated model and weights whose
     *  tensor shapes match each layer exactly; fatal() otherwise. */
    Executor(const Model &model, const ModelWeights &weights);

    /**
     * Run the full pipeline on one (query, database) feature pair.
     * @return the raw output vector of the last layer.
     */
    std::vector<float> run(const std::vector<float> &qfv,
                           const std::vector<float> &dfv) const;

    /**
     * Similarity score in [0, 1]: sigmoid of a 1-d output, softmax
     * "match" probability (index 1) of a 2-d output, and sigmoid of
     * the mean otherwise.
     */
    float score(const std::vector<float> &qfv,
                const std::vector<float> &dfv) const;

    /**
     * out[r] = score(qfv, row r) for `n` database features stored back
     * to back in `rows` (featureDim() floats each), bit-identical to
     * score(). Scratch is bounded by one 16-feature block of the
     * widest layer, whatever `n` is. Models with a Conv2D layer are
     * evaluated one feature at a time through the scalar path.
     */
    void scoreBatch(const std::vector<float> &qfv, const float *rows,
                    std::size_t n, float *out) const;

    /** Collapse a raw output vector to a score as described above. */
    static float scoreFromOutput(const std::vector<float> &out);

    const Model &model() const { return model_; }

  private:
    std::vector<float> runLayer(std::size_t idx,
                                const std::vector<float> &in,
                                const std::vector<float> &aux) const;

    /** scoreBatch on at most one block of rows. */
    void scoreBlock(const std::vector<float> &qfv,
                    const std::vector<float> &head, const float *rows,
                    std::size_t n, float *a, float *b,
                    float *out) const;

    const Model &model_;
    const ModelWeights &weights_;
    /** Widest block-path activation: max(featureDim, layer outputs). */
    std::size_t blockWidth_ = 0;
    bool hasConv_ = false;
};

} // namespace deepstore::nn

#endif // DEEPSTORE_NN_EXECUTOR_H
