#include "delegate.h"

#include <cstdio>
#include <unordered_map>

namespace ncore {

double
spanSeconds(const std::vector<TraceSpan> &spans, SpanCat cat)
{
    double s = 0;
    for (const TraceSpan &sp : spans)
        if (sp.cat == cat)
            s += sp.dur;
    return s;
}

InferenceResult
DelegateExecutor::infer(const std::vector<Tensor> &inputs)
{
    const Loadable *model = runtime_.model();
    fatal_if(!model, "delegate executor needs a loaded model");
    const Graph &g = model->graph;
    fatal_if(inputs.size() != g.inputs().size(),
             "model expects %zu inputs", g.inputs().size());

    InferenceResult result;
    double t = 0; ///< Cursor on the sequential inference timeline.
    // Computed tensors; constants are read in place from the graph.
    std::unordered_map<TensorId, Tensor> values;
    auto value = [&](TensorId id) -> const Tensor & {
        const GirTensor &t = g.tensor(id);
        return t.isConst ? t.value : values.at(id);
    };
    for (size_t i = 0; i < inputs.size(); ++i)
        values[g.inputs()[i]] = inputs[i];

    std::vector<bool> done(g.nodes().size(), false);

    for (size_t ni = 0; ni < g.nodes().size(); ++ni) {
        if (done[ni])
            continue;
        int assignment = model->nodeAssignment[ni];

        if (assignment < 0) {
            // x86-resident node: reference kernel + cost model.
            const Node &n = g.nodes()[ni];
            std::vector<const Tensor *> ins;
            for (TensorId in : n.inputs)
                ins.push_back(&value(in));
            values[n.outputs[0]] =
                ReferenceExecutor::executeNode(g, n, ins);
            double cost = cost_.nodeSeconds(g, n);
            result.spans.push_back(
                {opKindName(n.kind), SpanCat::X86Op, t, cost});
            t += cost;
            done[ni] = true;
            continue;
        }

        // First node of an Ncore subgraph: invoke the whole region.
        const CompiledSubgraph &sg =
            model->subgraphs[size_t(assignment)];
        std::vector<Tensor> sg_inputs;
        int64_t edge_bytes = 0;
        for (TensorId in : sg.inputs) {
            sg_inputs.push_back(value(in));
            edge_bytes += int64_t(sg_inputs.back().byteSize());
        }

        InvokeStats st;
        std::vector<Tensor> sg_outputs =
            runtime_.invoke(assignment, sg_inputs, &st);

        // A switch of the resident subgraph first rewrites its images
        // from the host, at the rate of any other host layout write.
        if (uint64_t bytes = st.imageReloadBytes()) {
            double reload = cost_.layoutConversionSeconds(int64_t(bytes));
            result.spans.push_back(
                {"image_reload", SpanCat::Layout, t, reload});
            t += reload;
        }

        for (size_t oi = 0; oi < sg.outputs.size(); ++oi) {
            edge_bytes += int64_t(sg_outputs[oi].byteSize());
            values[sg.outputs[oi]] = std::move(sg_outputs[oi]);
        }

        // Device span plus cycle-exact detail children, placed on the
        // timeline at the invocation's offset.
        const double hz = runtime_.clockHz();
        double dev_dur = double(st.cycles()) / hz;
        char label[32];
        snprintf(label, sizeof label, "subgraph%d", assignment);
        result.spans.push_back({label, SpanCat::Ncore, t, dev_dur});
        for (const CycleSpan &cs : st.spans)
            result.spans.push_back({cs.name, SpanCat::NcoreDetail,
                                    t + double(cs.begin) / hz,
                                    double(cs.cycles()) / hz});
        t += dev_dur;
        result.counters.merge(st.counters);

        double layout_cost = cost_.layoutConversionSeconds(edge_bytes);
        result.spans.push_back(
            {"layout_edges", SpanCat::Layout, t, layout_cost});
        t += layout_cost;

        for (int id : sg.nodeIds)
            done[size_t(id)] = true;
    }

    double fw = cost_.frameworkOverheadSeconds(int(g.nodes().size()));
    result.spans.push_back({"framework", SpanCat::Framework, t, fw});

    // The reported breakdown is *derived from the spans* (summed per
    // category in recording order), not accumulated separately.
    result.timing.ncoreSeconds = spanSeconds(result.spans, SpanCat::Ncore);
    result.timing.x86OpSeconds = spanSeconds(result.spans, SpanCat::X86Op);
    result.timing.layoutSeconds =
        spanSeconds(result.spans, SpanCat::Layout);
    result.timing.frameworkSeconds =
        spanSeconds(result.spans, SpanCat::Framework);
    result.timing.ncoreCycles =
        result.counters.counter(stats::kNcoreCycles);
    result.timing.ncoreMacs = result.counters.counter(stats::kNcoreMacOps);
    result.timing.dmaBytes = result.counters.counter(stats::kDmaBytesRead);

    for (TensorId out : g.outputs())
        result.outputs.push_back(value(out));
    return result;
}

} // namespace ncore
