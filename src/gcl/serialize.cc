#include "serialize.h"

#include <cstring>
#include <fstream>

namespace ncore {

namespace {

constexpr uint32_t kMagic = 0x4e434c44; // "NCLD"
constexpr uint32_t kVersion = 6;

class Writer
{
  public:
    std::vector<uint8_t> bytes;

    void
    u8(uint8_t v)
    {
        bytes.push_back(v);
    }

    void
    u32(uint32_t v)
    {
        for (int i = 0; i < 4; ++i)
            bytes.push_back(uint8_t(v >> (8 * i)));
    }

    void
    u64(uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            bytes.push_back(uint8_t(v >> (8 * i)));
    }

    void
    i32(int32_t v)
    {
        u32(uint32_t(v));
    }

    void
    f32(float v)
    {
        uint32_t u;
        std::memcpy(&u, &v, 4);
        u32(u);
    }

    void
    blob(const uint8_t *p, size_t n)
    {
        u64(n);
        bytes.insert(bytes.end(), p, p + n);
    }

    void
    str(const std::string &s)
    {
        blob(reinterpret_cast<const uint8_t *>(s.data()), s.size());
    }
};

class Reader
{
  public:
    explicit Reader(const std::vector<uint8_t> &b) : bytes_(b) {}

    uint8_t
    u8()
    {
        need(1);
        return bytes_[pos_++];
    }

    uint32_t
    u32()
    {
        need(4);
        uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= uint32_t(bytes_[pos_++]) << (8 * i);
        return v;
    }

    uint64_t
    u64()
    {
        need(8);
        uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= uint64_t(bytes_[pos_++]) << (8 * i);
        return v;
    }

    int32_t i32() { return int32_t(u32()); }

    float
    f32()
    {
        uint32_t u = u32();
        float v;
        std::memcpy(&v, &u, 4);
        return v;
    }

    std::vector<uint8_t>
    blob()
    {
        uint64_t n = u64();
        need(size_t(n));
        std::vector<uint8_t> out(bytes_.begin() + long(pos_),
                                 bytes_.begin() + long(pos_ + n));
        pos_ += size_t(n);
        return out;
    }

    std::string
    str()
    {
        auto b = blob();
        return std::string(b.begin(), b.end());
    }

    bool done() const { return pos_ == bytes_.size(); }

  private:
    void
    need(size_t n)
    {
        fatal_if(pos_ + n > bytes_.size(),
                 "truncated Loadable stream at byte %zu", pos_);
    }

    const std::vector<uint8_t> &bytes_;
    size_t pos_ = 0;
};

void
putLayout(Writer &w, const TensorLayout &l)
{
    w.u8(uint8_t(l.kind));
    w.i32(l.h);
    w.i32(l.w);
    w.i32(l.c);
    w.i32(l.padTop);
    w.i32(l.padBottom);
    w.i32(l.padLeft);
    w.i32(l.padRight);
    w.u8(l.zeroByte);
    w.i32(l.baseRow);
    w.i32(l.rfStride);
    w.i32(l.rfKw);
    w.i32(l.rfOutTiles);
    w.i32(l.rfOutPadL);
    w.i32(l.ny);
    w.i32(l.pitch);
}

TensorLayout
getLayout(Reader &r)
{
    TensorLayout l;
    l.kind = LayoutKind(r.u8());
    l.h = r.i32();
    l.w = r.i32();
    l.c = r.i32();
    l.padTop = r.i32();
    l.padBottom = r.i32();
    l.padLeft = r.i32();
    l.padRight = r.i32();
    l.zeroByte = r.u8();
    l.baseRow = r.i32();
    l.rfStride = r.i32();
    l.rfKw = r.i32();
    l.rfOutTiles = r.i32();
    l.rfOutPadL = r.i32();
    l.ny = r.i32();
    l.pitch = r.i32();
    return l;
}

void
putCode(Writer &w, const std::vector<EncodedInstruction> &code)
{
    w.u64(code.size());
    for (const EncodedInstruction &e : code) {
        w.u64(e.lo);
        w.u64(e.hi);
    }
}

std::vector<EncodedInstruction>
getCode(Reader &r)
{
    uint64_t n = r.u64();
    std::vector<EncodedInstruction> code;
    code.resize(size_t(n));
    for (auto &e : code) {
        e.lo = r.u64();
        e.hi = r.u64();
    }
    return code;
}

} // namespace

std::vector<uint8_t>
serializeLoadable(const Loadable &ld)
{
    Writer w;
    w.u32(kMagic);
    w.u32(kVersion);

    // ---- Graph -----------------------------------------------------
    const Graph &g = ld.graph;
    w.str(g.name());
    w.u32(uint32_t(g.numTensors()));
    for (TensorId id = 0; id < g.numTensors(); ++id) {
        const GirTensor &t = g.tensor(id);
        w.str(t.name);
        w.u32(uint32_t(t.shape.rank()));
        for (int d = 0; d < t.shape.rank(); ++d)
            w.u64(uint64_t(t.shape.dim(d)));
        w.u8(uint8_t(t.dtype));
        w.f32(t.quant.scale);
        w.i32(t.quant.zeroPoint);
        w.u8(t.isConst ? 1 : 0);
        if (t.isConst)
            w.blob(t.value.raw(), t.value.byteSize());
    }
    w.u32(uint32_t(g.nodes().size()));
    for (const Node &n : g.nodes()) {
        w.u8(uint8_t(n.kind));
        w.str(n.name);
        w.u32(uint32_t(n.inputs.size()));
        for (TensorId id : n.inputs)
            w.i32(id);
        w.u32(uint32_t(n.outputs.size()));
        for (TensorId id : n.outputs)
            w.i32(id);
        const OpAttrs &a = n.attrs;
        w.i32(a.strideH);
        w.i32(a.strideW);
        w.i32(a.kernelH);
        w.i32(a.kernelW);
        w.i32(a.padTop);
        w.i32(a.padBottom);
        w.i32(a.padLeft);
        w.i32(a.padRight);
        w.u8(uint8_t(a.fusedAct));
        w.i32(a.axis);
        w.f32(a.beta);
        w.u8(a.transposeB ? 1 : 0);
        w.f32(a.nmsIouThreshold);
        w.f32(a.nmsScoreThreshold);
        w.i32(a.nmsMaxDetections);
    }
    w.u32(uint32_t(g.inputs().size()));
    for (TensorId id : g.inputs())
        w.i32(id);
    w.u32(uint32_t(g.outputs().size()));
    for (TensorId id : g.outputs())
        w.i32(id);

    // ---- Assignment + subgraphs -------------------------------------
    w.u32(uint32_t(ld.nodeAssignment.size()));
    for (int a : ld.nodeAssignment)
        w.i32(a);

    w.u32(uint32_t(ld.subgraphs.size()));
    for (const CompiledSubgraph &sg : ld.subgraphs) {
        w.u32(uint32_t(sg.nodeIds.size()));
        for (int id : sg.nodeIds)
            w.i32(id);
        w.u32(uint32_t(sg.inputs.size()));
        for (TensorId id : sg.inputs)
            w.i32(id);
        w.u32(uint32_t(sg.outputs.size()));
        for (TensorId id : sg.outputs)
            w.i32(id);
        w.u32(uint32_t(sg.layouts.size()));
        for (const auto &kv : sg.layouts) {
            w.i32(kv.first);
            putLayout(w, kv.second);
        }
        w.i32(sg.masks.baseRow);
        putCode(w, sg.code);
        w.u32(uint32_t(sg.rqTable.size()));
        for (const RequantEntry &e : sg.rqTable) {
            w.i32(e.rq.multiplier);
            w.i32(e.rq.shift);
            w.i32(e.rq.offset);
            w.u8(uint8_t(e.outType));
            w.i32(e.actMin);
            w.i32(e.actMax);
            w.u8(e.lutId);
        }
        w.u32(uint32_t(sg.extraMasks.size()));
        for (const auto &kv : sg.extraMasks) {
            w.i32(kv.first);
            w.blob(kv.second.data(), kv.second.size());
        }
        w.u8(sg.weightsPersistent ? 1 : 0);
        w.blob(sg.persistentWeights.data(),
               sg.persistentWeights.size());
        w.blob(sg.streamImage.data(), sg.streamImage.size());
        w.u32(uint32_t(sg.chunks.size()));
        for (const StreamChunk &c : sg.chunks) {
            w.u64(c.dramOffset);
            w.u32(c.rows);
            w.u32(c.targetRow);
            w.u8(c.queue);
        }
        w.i32(sg.maxPoolInitRowIdx);
        w.u64(sg.macs);
        w.i32(sg.dataRowsUsed);
        w.i32(sg.weightRowsUsed);
    }
    return std::move(w.bytes);
}

Loadable
deserializeLoadable(const std::vector<uint8_t> &bytes)
{
    Reader r(bytes);
    fatal_if(r.u32() != kMagic, "not an Ncore Loadable stream");
    uint32_t version = r.u32();
    fatal_if(version != kVersion,
             "Loadable version %u, this build reads %u", version,
             kVersion);

    Loadable ld;

    // ---- Graph -----------------------------------------------------
    Graph g(r.str());
    uint32_t ntensors = r.u32();
    for (uint32_t i = 0; i < ntensors; ++i) {
        GirTensor t;
        t.name = r.str();
        uint32_t rank = r.u32();
        std::vector<int64_t> dims(rank);
        for (auto &d : dims)
            d = int64_t(r.u64());
        t.shape = Shape(dims);
        t.dtype = DType(r.u8());
        t.quant.scale = r.f32();
        t.quant.zeroPoint = r.i32();
        t.isConst = r.u8() != 0;
        if (t.isConst) {
            auto payload = r.blob();
            t.value = Tensor(t.shape, t.dtype, t.quant);
            fatal_if(payload.size() != t.value.byteSize(),
                     "constant payload size mismatch for '%s'",
                     t.name.c_str());
            std::memcpy(t.value.raw(), payload.data(), payload.size());
        }
        g.addTensor(std::move(t));
    }
    uint32_t nnodes = r.u32();
    for (uint32_t i = 0; i < nnodes; ++i) {
        Node n;
        n.kind = OpKind(r.u8());
        n.name = r.str();
        uint32_t nin = r.u32();
        for (uint32_t j = 0; j < nin; ++j)
            n.inputs.push_back(r.i32());
        uint32_t nout = r.u32();
        for (uint32_t j = 0; j < nout; ++j)
            n.outputs.push_back(r.i32());
        OpAttrs &a = n.attrs;
        a.strideH = r.i32();
        a.strideW = r.i32();
        a.kernelH = r.i32();
        a.kernelW = r.i32();
        a.padTop = r.i32();
        a.padBottom = r.i32();
        a.padLeft = r.i32();
        a.padRight = r.i32();
        a.fusedAct = ActFn(r.u8());
        a.axis = r.i32();
        a.beta = r.f32();
        a.transposeB = r.u8() != 0;
        a.nmsIouThreshold = r.f32();
        a.nmsScoreThreshold = r.f32();
        a.nmsMaxDetections = r.i32();
        g.addNode(std::move(n));
    }
    uint32_t nin = r.u32();
    for (uint32_t i = 0; i < nin; ++i)
        g.addInput(r.i32());
    uint32_t nout = r.u32();
    for (uint32_t i = 0; i < nout; ++i)
        g.addOutput(r.i32());
    g.verify();
    ld.graph = std::move(g);

    // ---- Assignment + subgraphs -------------------------------------
    uint32_t nassign = r.u32();
    for (uint32_t i = 0; i < nassign; ++i)
        ld.nodeAssignment.push_back(r.i32());

    uint32_t nsg = r.u32();
    for (uint32_t s = 0; s < nsg; ++s) {
        CompiledSubgraph sg;
        uint32_t n = r.u32();
        for (uint32_t i = 0; i < n; ++i)
            sg.nodeIds.push_back(r.i32());
        n = r.u32();
        for (uint32_t i = 0; i < n; ++i)
            sg.inputs.push_back(r.i32());
        n = r.u32();
        for (uint32_t i = 0; i < n; ++i)
            sg.outputs.push_back(r.i32());
        n = r.u32();
        for (uint32_t i = 0; i < n; ++i) {
            TensorId id = r.i32();
            sg.layouts[id] = getLayout(r);
        }
        sg.masks.baseRow = r.i32();
        sg.code = getCode(r);
        n = r.u32();
        for (uint32_t i = 0; i < n; ++i) {
            RequantEntry e;
            e.rq.multiplier = r.i32();
            e.rq.shift = int8_t(r.i32());
            e.rq.offset = r.i32();
            e.outType = DType(r.u8());
            e.actMin = r.i32();
            e.actMax = r.i32();
            e.lutId = r.u8();
            sg.rqTable.push_back(e);
        }
        n = r.u32();
        for (uint32_t i = 0; i < n; ++i) {
            int row = r.i32();
            sg.extraMasks.push_back({row, r.blob()});
        }
        sg.weightsPersistent = r.u8() != 0;
        sg.persistentWeights = r.blob();
        sg.streamImage = r.blob();
        n = r.u32();
        for (uint32_t i = 0; i < n; ++i) {
            StreamChunk c;
            c.dramOffset = r.u64();
            c.rows = r.u32();
            c.targetRow = r.u32();
            c.queue = r.u8();
            sg.chunks.push_back(c);
        }
        sg.maxPoolInitRowIdx = r.i32();
        sg.macs = r.u64();
        sg.dataRowsUsed = r.i32();
        sg.weightRowsUsed = r.i32();
        ld.subgraphs.push_back(std::move(sg));
    }
    fatal_if(!r.done(), "trailing bytes in Loadable stream");
    return ld;
}

void
saveLoadable(const Loadable &loadable, const std::string &path)
{
    auto bytes = serializeLoadable(loadable);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    fatal_if(!out, "cannot write '%s'", path.c_str());
    out.write(reinterpret_cast<const char *>(bytes.data()),
              long(bytes.size()));
}

Loadable
loadLoadable(const std::string &path)
{
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    fatal_if(!in, "cannot read '%s'", path.c_str());
    std::vector<uint8_t> bytes(size_t(in.tellg()));
    in.seekg(0);
    in.read(reinterpret_cast<char *>(bytes.data()),
            long(bytes.size()));
    return deserializeLoadable(bytes);
}

} // namespace ncore
