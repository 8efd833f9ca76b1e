#include "passes.h"

#include <algorithm>
#include <unordered_set>

namespace ncore {

namespace {

/** Number of nodes consuming a tensor. */
int
consumerCount(const Graph &g, TensorId id)
{
    int n = 0;
    for (const Node &node : g.nodes())
        for (TensorId in : node.inputs)
            if (in == id) {
                ++n;
                break;
            }
    return n;
}

bool
isGraphOutput(const Graph &g, TensorId id)
{
    return std::find(g.outputs().begin(), g.outputs().end(), id) !=
           g.outputs().end();
}

/** Remove nodes at the given indices (sorted ascending). */
void
removeNodes(Graph &g, const std::vector<size_t> &dead)
{
    std::vector<Node> kept;
    size_t di = 0;
    for (size_t i = 0; i < g.nodes().size(); ++i) {
        if (di < dead.size() && dead[di] == i) {
            ++di;
            continue;
        }
        kept.push_back(std::move(g.nodes()[i]));
    }
    g.nodes() = std::move(kept);
}

} // namespace

int
fusePads(Graph &g)
{
    int fused = 0;
    std::vector<size_t> dead;

    for (size_t i = 0; i < g.nodes().size(); ++i) {
        Node &pad = g.nodes()[i];
        if (pad.kind != OpKind::Pad)
            continue;
        TensorId padded = pad.outputs[0];
        if (consumerCount(g, padded) != 1 || isGraphOutput(g, padded))
            continue;

        Node *consumer = nullptr;
        for (Node &c : g.nodes())
            if (!c.inputs.empty() && c.inputs[0] == padded &&
                (c.kind == OpKind::Conv2D ||
                 c.kind == OpKind::DepthwiseConv2D ||
                 c.kind == OpKind::MaxPool2D ||
                 c.kind == OpKind::AvgPool2D)) {
                consumer = &c;
                break;
            }
        if (!consumer)
            continue;

        consumer->attrs.padTop += pad.attrs.padTop;
        consumer->attrs.padBottom += pad.attrs.padBottom;
        consumer->attrs.padLeft += pad.attrs.padLeft;
        consumer->attrs.padRight += pad.attrs.padRight;
        consumer->inputs[0] = pad.inputs[0];
        dead.push_back(i);
        ++fused;
    }
    removeNodes(g, dead);
    return fused;
}

int
eliminateDeadNodes(Graph &g)
{
    std::unordered_set<TensorId> live(g.outputs().begin(),
                                      g.outputs().end());
    std::vector<size_t> dead;
    // Reverse sweep: a node is live if any output is live.
    for (size_t ri = g.nodes().size(); ri-- > 0;) {
        Node &n = g.nodes()[ri];
        bool used = false;
        for (TensorId out : n.outputs)
            if (live.count(out))
                used = true;
        if (!used) {
            dead.push_back(ri);
            continue;
        }
        for (TensorId in : n.inputs)
            live.insert(in);
    }
    std::sort(dead.begin(), dead.end());
    removeNodes(g, dead);
    return int(dead.size());
}

int
runStandardPasses(Graph &g)
{
    int total = 0;
    total += fusePads(g);
    total += eliminateDeadNodes(g);
    g.verify();
    return total;
}

} // namespace ncore
