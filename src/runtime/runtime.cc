#include "runtime.h"

namespace ncore {

namespace {

/**
 * The shared prefix-mask table is model-independent (row g holds the
 * g-group prefix mask); build the 65 row images once per process
 * instead of once per context load.
 */
const std::vector<std::vector<uint8_t>> &
prefixMaskRowImages()
{
    static const std::vector<std::vector<uint8_t>> rows = [] {
        std::vector<std::vector<uint8_t>> r;
        r.reserve(65);
        for (int g = 0; g <= 64; ++g)
            r.push_back(prefixMaskRow(g));
        return r;
    }();
    return rows;
}

} // namespace

NcoreRuntime::NcoreRuntime(NcoreDriver &driver) : driver_(driver)
{
    machine_ = &driver_.claim();
}

NcoreRuntime::~NcoreRuntime()
{
    driver_.release();
}

void
NcoreRuntime::loadModel(const Loadable &loadable)
{
    // Single-owner SharedModel: copy the Loadable into a LoadedModel
    // held only by this context, so the shared path below is the one
    // load implementation.
    loadModel(LoadedModel::create(Loadable(loadable)));
}

void
NcoreRuntime::loadModel(SharedModel model)
{
    fatal_if(!model, "loadModel on a null shared model");
    shared_ = std::move(model);
    model_ = &shared_->loadable();

    // One DRAM image of streamed weights per SystemMemory, shared by
    // every context whose machine is backed by that memory.
    streamBase_ = shared_->streamBases(machine_->sysmem());
    resident_ = -1;
    if (!model_->subgraphs.empty())
        loadImages(0);
}

/** Per-context device-state load of subgraph `si`, common to both
 *  paths: scratchpad mask rows, requant table, persistent weights, DMA
 *  descriptors. Subgraphs share the slots, so one is resident. */
uint64_t
NcoreRuntime::loadImages(int si)
{
    const CompiledSubgraph &sg = model_->subgraphs[size_t(si)];
    uint64_t rows = 0;

    // Shared prefix-mask table (incl. the empty mask).
    const auto &prefix_rows = prefixMaskRowImages();
    for (int g = 0; g <= 64; ++g, ++rows)
        machine_->hostWriteRow(false, sg.masks.rowFor(g),
                               prefix_rows[size_t(g)].data());

    for (size_t i = 0; i < sg.rqTable.size(); ++i)
        machine_->writeRequantEntry(int(i), sg.rqTable[i]);

    if (sg.weightsPersistent) {
        for (size_t r = 0; r * 4096 < sg.persistentWeights.size();
             ++r, ++rows)
            machine_->hostWriteRow(true, int(r),
                                   sg.persistentWeights.data() + r * 4096);
    } else {
        // The stream image is already in DRAM (streamBase_); the
        // driver programs this context's descriptors and the program
        // kicks them per inference.
        for (size_t k = 0; k < sg.chunks.size(); ++k) {
            const StreamChunk &ch = sg.chunks[k];
            DmaDescriptor d;
            d.toNcore = true;
            d.weightRam = true;
            d.ramRow = ch.targetRow;
            d.rowCount = ch.rows;
            d.sysAddr = streamBase_[size_t(si)] + ch.dramOffset;
            d.queue = uint8_t(CompiledSubgraph::kStreamQueue);
            driver_.writeDescriptor(int(k), d);
        }
    }
    resident_ = si;
    return rows * 4096;
}

std::vector<Tensor>
NcoreRuntime::invoke(int subgraph_index, const std::vector<Tensor> &inputs,
                     InvokeStats *st)
{
    fatal_if(!model_, "invoke before loadModel");
    const CompiledSubgraph &sg =
        model_->subgraphs[size_t(subgraph_index)];
    fatal_if(inputs.size() != sg.inputs.size(),
             "subgraph expects %zu inputs, got %zu", sg.inputs.size(),
             inputs.size());
    const uint64_t reload_bytes =
        subgraph_index != resident_ ? loadImages(subgraph_index) : 0;

    // Snapshot the full unified counter registry; the invocation's
    // attribution is the diff (replaces field-by-field hand copying).
    Stats before;
    uint64_t events0 = 0;
    const uint64_t t0 = machine_->cycles();
    if (st) {
        st->counters.clear();
        st->spans.clear();
        st->events.clear();
        machine_->publishStats(before);
        events0 = machine_->eventLog().totalRecorded();
    }

    // Pack inputs into the internal layouts (subgraph edges) through
    // the reusable staging buffer; pack kernels may skip padding
    // lanes, so the buffer is re-zeroed per tensor (cheap memset, no
    // allocation after the first growth).
    for (size_t i = 0; i < inputs.size(); ++i) {
        const TensorLayout &lay = sg.layouts.at(sg.inputs[i]);
        packBuf_.assign(size_t(lay.rows()) * 4096, 0);
        packActivation(inputs[i], 0, lay, packBuf_.data());
        for (int r = 0; r < lay.rows(); ++r)
            machine_->hostWriteRow(false, lay.baseRow + r,
                                   packBuf_.data() + size_t(r) * 4096);
    }

    // The "(subgraph)" bracket mirrors the program's kStartTag/kEndTag
    // events and additionally covers the end-event and halt cycles, so
    // a profiled invoke attributes 100% of device cycles. Each
    // mid-program IRAM bank reload becomes a zero-length "iram_swap"
    // span inside the "program" span.
    machine_->profileMark("(subgraph)", true);
    std::vector<uint64_t> refills;
    const uint64_t begin = machine_->cycles() - t0;
    RunResult res =
        machine_->runStreamed(sg.code, st ? &refills : nullptr);
    fatal_if(res.reason != StopReason::Halted,
             "Ncore program did not run to completion");
    if (st) {
        for (uint64_t c : refills)
            st->spans.push_back({"iram_swap", c - t0, c - t0});
        st->spans.push_back({"program", begin, machine_->cycles() - t0});
    }
    machine_->profileMark("(subgraph)", false);

    // Unpack outputs (the buffer is fully overwritten by the row
    // reads, so no re-zeroing is needed here).
    std::vector<Tensor> outs;
    for (TensorId out_id : sg.outputs) {
        const GirTensor &desc = model_->graph.tensor(out_id);
        const TensorLayout &lay = sg.layouts.at(out_id);
        Tensor t(desc.shape, desc.dtype, desc.quant);
        packBuf_.resize(size_t(lay.rows()) * 4096);
        for (int r = 0; r < lay.rows(); ++r)
            machine_->hostReadRow(false, lay.baseRow + r,
                                  packBuf_.data() + size_t(r) * 4096);
        unpackActivation(packBuf_.data(), lay, t, 0);
        outs.push_back(std::move(t));
    }

    if (st) {
        Stats after;
        machine_->publishStats(after);
        st->counters = after.diffFrom(before);
        st->counters.add(stats::kInvokes, uint64_t(1));
        st->counters.add(stats::kIramSwaps, uint64_t(refills.size()));
        if (reload_bytes > 0)
            st->counters.add(stats::kImageReloadBytes, reload_bytes);

        // Aggregate counter-sourced detail spans, anchored at the
        // invocation origin (duration is exact; position is the
        // window, not an instant — see DESIGN.md "Telemetry").
        uint64_t stall = st->dmaStallCycles();
        if (stall > 0)
            st->spans.push_back({"dma_fence_stall", 0, stall});
        uint64_t dmaBusy = st->counters.counter(stats::kDmaBusyCycles);
        if (dmaBusy > 0)
            st->spans.push_back({"dma_stream_in", 0, dmaBusy});

        auto all = machine_->eventLog().snapshot();
        uint64_t new_events =
            machine_->eventLog().totalRecorded() - events0;
        size_t start = all.size() >= new_events
                           ? all.size() - size_t(new_events)
                           : 0;
        st->events.assign(all.begin() + long(start), all.end());
    }
    return outs;
}

} // namespace ncore
