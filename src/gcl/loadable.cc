#include "loadable.h"

namespace ncore {

LoadedModel::LoadedModel(Loadable ld) : loadable_(std::move(ld)) {}

std::shared_ptr<const LoadedModel>
LoadedModel::create(Loadable ld)
{
    return std::shared_ptr<const LoadedModel>(
        new LoadedModel(std::move(ld)));
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
