#include "nn/serialize.h"

#include <cstring>
#include <fstream>

#include "common/logging.h"

namespace deepstore::nn {

namespace {

constexpr std::uint32_t kMagic = 0x4E4E5344; // "DSNN" little-endian
constexpr std::uint32_t kVersion = 1;

class Writer
{
  public:
    explicit Writer(std::vector<std::uint8_t> &out) : out_(out) {}

    void
    u32(std::uint32_t v)
    {
        raw(&v, sizeof(v));
    }

    void
    i64(std::int64_t v)
    {
        raw(&v, sizeof(v));
    }

    void
    str(const std::string &s)
    {
        u32(static_cast<std::uint32_t>(s.size()));
        raw(s.data(), s.size());
    }

    void
    floats(const std::vector<float> &v)
    {
        i64(static_cast<std::int64_t>(v.size()));
        raw(v.data(), v.size() * sizeof(float));
    }

    void
    tensor(const Tensor &t)
    {
        u32(static_cast<std::uint32_t>(t.shape().size()));
        for (auto d : t.shape())
            i64(d);
        floats(t.storage());
    }

  private:
    void
    raw(const void *p, std::size_t n)
    {
        const auto *b = static_cast<const std::uint8_t *>(p);
        out_.insert(out_.end(), b, b + n);
    }

    std::vector<std::uint8_t> &out_;
};

class Reader
{
  public:
    explicit Reader(const std::vector<std::uint8_t> &in) : in_(in) {}

    std::uint32_t
    u32()
    {
        std::uint32_t v;
        raw(&v, sizeof(v));
        return v;
    }

    std::int64_t
    i64()
    {
        std::int64_t v;
        raw(&v, sizeof(v));
        return v;
    }

    std::string
    str()
    {
        std::uint32_t n = u32();
        check(n);
        std::string s(reinterpret_cast<const char *>(in_.data() + pos_),
                      n);
        pos_ += n;
        return s;
    }

    std::vector<float>
    floats()
    {
        std::int64_t n = i64();
        if (n < 0)
            fatal("model blob corrupt: negative float count");
        check(static_cast<std::size_t>(n) * sizeof(float));
        std::vector<float> v(static_cast<std::size_t>(n));
        // An empty vector's data() may be null: memcpy must not see it.
        if (!v.empty())
            std::memcpy(v.data(), in_.data() + pos_,
                        v.size() * sizeof(float));
        pos_ += v.size() * sizeof(float);
        return v;
    }

    Tensor
    tensor()
    {
        std::uint32_t rank = u32();
        if (rank > 8)
            fatal("model blob corrupt: tensor rank %u", rank);
        std::vector<std::int64_t> shape(rank);
        for (auto &d : shape)
            d = i64();
        auto data = floats();
        if (shape.empty() && data.empty())
            return Tensor();
        return Tensor(std::move(shape), std::move(data));
    }

    bool atEnd() const { return pos_ == in_.size(); }

  private:
    void
    check(std::size_t n)
    {
        if (pos_ + n > in_.size())
            fatal("model blob truncated at offset %zu (need %zu bytes)",
                  pos_, n);
    }

    void
    raw(void *p, std::size_t n)
    {
        check(n);
        std::memcpy(p, in_.data() + pos_, n);
        pos_ += n;
    }

    const std::vector<std::uint8_t> &in_;
    std::size_t pos_ = 0;
};

void
writeLayer(Writer &w, const Layer &l)
{
    w.str(l.name);
    w.u32(static_cast<std::uint32_t>(l.kind));
    w.u32(static_cast<std::uint32_t>(l.activation));
    w.i64(l.fcIn);
    w.i64(l.fcOut);
    w.u32(l.fcBias ? 1 : 0);
    w.i64(l.inH);
    w.i64(l.inW);
    w.i64(l.inC);
    w.i64(l.kH);
    w.i64(l.kW);
    w.i64(l.outC);
    w.i64(l.stride);
    w.i64(l.pad);
    w.u32(static_cast<std::uint32_t>(l.ewOp));
    w.i64(l.ewSize);
}

Layer
readLayer(Reader &r)
{
    Layer l;
    l.name = r.str();
    l.kind = static_cast<LayerKind>(r.u32());
    l.activation = static_cast<Activation>(r.u32());
    l.fcIn = r.i64();
    l.fcOut = r.i64();
    l.fcBias = r.u32() != 0;
    l.inH = r.i64();
    l.inW = r.i64();
    l.inC = r.i64();
    l.kH = r.i64();
    l.kW = r.i64();
    l.outC = r.i64();
    l.stride = r.i64();
    l.pad = r.i64();
    l.ewOp = static_cast<EwOp>(r.u32());
    l.ewSize = r.i64();
    l.validate();
    return l;
}

} // namespace

std::vector<std::uint8_t>
serializeModel(const Model &model, const ModelWeights &weights)
{
    model.validate();
    if (weights.numLayers() != model.numLayers())
        fatal("serializeModel: weight/layer count mismatch (%zu vs %zu)",
              weights.numLayers(), model.numLayers());

    std::vector<std::uint8_t> out;
    Writer w(out);
    w.u32(kMagic);
    w.u32(kVersion);
    w.str(model.name());
    w.i64(model.featureDim());
    w.u32(model.concatInputs() ? 1 : 0);
    w.u32(static_cast<std::uint32_t>(model.numLayers()));
    for (const auto &l : model.layers())
        writeLayer(w, l);
    for (std::size_t i = 0; i < model.numLayers(); ++i) {
        w.tensor(weights.kernel(i));
        w.tensor(weights.bias(i));
    }
    return out;
}

ModelBundle
deserializeModel(const std::vector<std::uint8_t> &blob)
{
    Reader r(blob);
    if (r.u32() != kMagic)
        fatal("model blob corrupt: bad magic");
    std::uint32_t version = r.u32();
    if (version != kVersion)
        fatal("model blob version %u unsupported (expected %u)",
              version, kVersion);

    std::string name = r.str();
    std::int64_t feature_dim = r.i64();
    bool concat = r.u32() != 0;
    std::uint32_t n_layers = r.u32();
    if (n_layers == 0 || n_layers > 4096)
        fatal("model blob corrupt: layer count %u", n_layers);

    Model model(name, feature_dim, concat);
    for (std::uint32_t i = 0; i < n_layers; ++i)
        model.addLayer(readLayer(r));
    model.validate();

    ModelWeights weights;
    for (std::uint32_t i = 0; i < n_layers; ++i) {
        Tensor kernel = r.tensor();
        Tensor bias = r.tensor();
        weights.append(std::move(kernel), std::move(bias));
    }
    if (!r.atEnd())
        fatal("model blob has trailing bytes");
    return ModelBundle{std::move(model), std::move(weights)};
}

void
saveModelFile(const std::string &path, const Model &model,
              const ModelWeights &weights)
{
    auto blob = serializeModel(model, weights);
    std::ofstream f(path, std::ios::binary);
    if (!f)
        fatal("cannot open '%s' for writing", path.c_str());
    f.write(reinterpret_cast<const char *>(blob.data()),
            static_cast<std::streamsize>(blob.size()));
    if (!f)
        fatal("short write to '%s'", path.c_str());
}

ModelBundle
loadModelFile(const std::string &path)
{
    std::ifstream f(path, std::ios::binary | std::ios::ate);
    if (!f)
        fatal("cannot open '%s' for reading", path.c_str());
    auto size = static_cast<std::size_t>(f.tellg());
    f.seekg(0);
    std::vector<std::uint8_t> blob(size);
    f.read(reinterpret_cast<char *>(blob.data()),
           static_cast<std::streamsize>(size));
    if (!f)
        fatal("short read from '%s'", path.c_str());
    return deserializeModel(blob);
}

} // namespace deepstore::nn
