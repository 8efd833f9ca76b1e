#include "loadable.h"

#include "common/logging.h"

namespace ncore {

namespace {

std::vector<std::vector<EncodedInstruction>>
segmentProgram(const std::vector<EncodedInstruction> &code,
               int bank_instrs)
{
    std::vector<std::vector<EncodedInstruction>> segs;
    for (size_t at = 0; at < code.size(); at += size_t(bank_instrs)) {
        size_t n = std::min(size_t(bank_instrs), code.size() - at);
        segs.emplace_back(code.begin() + long(at),
                          code.begin() + long(at + n));
    }
    return segs;
}

} // namespace

ModelProgramCache
buildProgramCache(const Loadable &ld, int bank_instrs)
{
    fatal_if(bank_instrs <= 0, "bad IRAM bank size %d", bank_instrs);
    ModelProgramCache cache;
    cache.bankInstrs = bank_instrs;
    cache.subgraphs.reserve(ld.subgraphs.size());
    for (const CompiledSubgraph &sg : ld.subgraphs) {
        SubgraphProgramCache sc;
        sc.codeSegments = segmentProgram(sg.code, bank_instrs);
        sc.bandSegments.reserve(sg.inputBands.size());
        for (const InputBandPlan &bp : sg.inputBands) {
            std::vector<std::vector<std::vector<EncodedInstruction>>>
                bands;
            bands.reserve(bp.bandCode.size());
            for (const auto &band_code : bp.bandCode)
                bands.push_back(segmentProgram(band_code, bank_instrs));
            sc.bandSegments.push_back(std::move(bands));
        }
        cache.subgraphs.push_back(std::move(sc));
    }
    return cache;
}

LoadedModel::LoadedModel(Loadable ld, int bank_instrs)
    : loadable_(std::move(ld)),
      cache_(buildProgramCache(loadable_, bank_instrs))
{}

std::shared_ptr<const LoadedModel>
LoadedModel::create(Loadable ld, int bank_instrs)
{
    return std::shared_ptr<const LoadedModel>(
        new LoadedModel(std::move(ld), bank_instrs));
}

const std::vector<uint64_t> &
LoadedModel::streamBases(SystemMemory &mem) const
{
    std::lock_guard<std::mutex> lock(streamMu_);
    auto it = streamBases_.find(mem.id());
    if (it != streamBases_.end())
        return it->second;

    std::vector<uint64_t> bases(loadable_.subgraphs.size(), 0);
    for (size_t si = 0; si < loadable_.subgraphs.size(); ++si) {
        const CompiledSubgraph &sg = loadable_.subgraphs[si];
        if (sg.weightsPersistent || sg.streamImage.empty())
            continue;
        uint64_t base = mem.allocate(sg.streamImage.size(), 4096);
        mem.write(base, sg.streamImage.data(), sg.streamImage.size());
        bases[si] = base;
    }
    return streamBases_.emplace(mem.id(), std::move(bases)).first->second;
}

} // namespace ncore
