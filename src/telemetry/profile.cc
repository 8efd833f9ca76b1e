#include "telemetry/profile.h"

#include <algorithm>
#include <cstdio>
#include <map>

#include "common/json.h"
#include "gir/graph.h"

namespace ncore {

const char *
cycleBucketName(CycleBucket b)
{
    switch (b) {
      case CycleBucket::Issue: return "issue";
      case CycleBucket::NpuStretch: return "npu_stretch";
      case CycleBucket::CtrlSetup: return "ctrl_setup";
      case CycleBucket::LoopOverhead: return "loop_overhead";
      case CycleBucket::DmaFenceStall: return "dma_fence_stall";
      case CycleBucket::IramSwapWait: return "iram_swap_wait";
      case CycleBucket::OutBackpressure: return "out_backpressure";
    }
    return "?";
}

uint64_t
ProfileCounters::cycles() const
{
    uint64_t sum = 0;
    for (uint64_t b : buckets)
        sum += b;
    return sum;
}

ProfileCounters
ProfileCounters::diffFrom(const ProfileCounters &base) const
{
    ProfileCounters d;
    for (int i = 0; i < kCycleBuckets; ++i)
        d.buckets[size_t(i)] =
            buckets[size_t(i)] - base.buckets[size_t(i)];
    d.instructions = instructions - base.instructions;
    d.macOps = macOps - base.macOps;
    for (int i = 0; i < kIssueSlots; ++i)
        d.slotIssued[size_t(i)] =
            slotIssued[size_t(i)] - base.slotIssued[size_t(i)];
    for (int i = 0; i < 2; ++i) {
        d.ramReads[size_t(i)] =
            ramReads[size_t(i)] - base.ramReads[size_t(i)];
        d.ramWrites[size_t(i)] =
            ramWrites[size_t(i)] - base.ramWrites[size_t(i)];
        d.ramConflicts[size_t(i)] =
            ramConflicts[size_t(i)] - base.ramConflicts[size_t(i)];
    }
    d.dmaBytesRead = dmaBytesRead - base.dmaBytesRead;
    d.dmaBytesWritten = dmaBytesWritten - base.dmaBytesWritten;
    return d;
}

void
ProfileCounters::accumulate(const ProfileCounters &d)
{
    for (int i = 0; i < kCycleBuckets; ++i)
        buckets[size_t(i)] += d.buckets[size_t(i)];
    instructions += d.instructions;
    macOps += d.macOps;
    for (int i = 0; i < kIssueSlots; ++i)
        slotIssued[size_t(i)] += d.slotIssued[size_t(i)];
    for (int i = 0; i < 2; ++i) {
        ramReads[size_t(i)] += d.ramReads[size_t(i)];
        ramWrites[size_t(i)] += d.ramWrites[size_t(i)];
        ramConflicts[size_t(i)] += d.ramConflicts[size_t(i)];
    }
    dmaBytesRead += d.dmaBytesRead;
    dmaBytesWritten += d.dmaBytesWritten;
}

// --------------------------------------------------------------------
// CycleProfile
// --------------------------------------------------------------------

void
CycleProfile::attach(int row_bytes, uint64_t dma_read,
                     uint64_t dma_written)
{
    rowBytes_ = row_bytes;
    // Baselines are set so accumulation continues across re-attach.
    dmaReadBase_ = dma_read - c_.dmaBytesRead;
    dmaWrittenBase_ = dma_written - c_.dmaBytesWritten;
}

void
CycleProfile::syncDma(uint64_t dma_read, uint64_t dma_written)
{
    c_.dmaBytesRead = dma_read - dmaReadBase_;
    c_.dmaBytesWritten = dma_written - dmaWrittenBase_;
}

void
CycleProfile::onStep(const Instruction &in, uint64_t reps,
                     uint64_t body_cost, uint64_t fence_stall)
{
    c_.buckets[size_t(CycleBucket::DmaFenceStall)] += fence_stall;
    c_.instructions += reps;

    const uint32_t slots = populatedSlots(in);
    for (int i = 0; i < kIssueSlots; ++i)
        if (slots & (1u << i))
            c_.slotIssued[size_t(i)] += reps;

    const uint64_t body = reps * body_cost;
    if (bodyEmpty(in)) {
        switch (in.ctrl.op) {
          case CtrlOp::Rep:
          case CtrlOp::LoopBegin:
          case CtrlOp::LoopEnd:
            c_.buckets[size_t(CycleBucket::LoopOverhead)] += body;
            break;
          default:
            c_.buckets[size_t(CycleBucket::CtrlSetup)] += body;
            break;
        }
    } else {
        c_.buckets[size_t(CycleBucket::Issue)] += reps;
        c_.buckets[size_t(CycleBucket::NpuStretch)] +=
            reps * (body_cost - 1);
    }

    if (in.npu.op == NpuOp::Mac || in.npu.op == NpuOp::MacFwd)
        c_.macOps += reps * uint64_t(rowBytes_);

    if (in.dataRead.enable)
        c_.ramReads[0] += reps;
    if (in.weightRead.enable)
        c_.ramReads[1] += reps;
    if (in.write.enable) {
        const size_t ram = in.write.weightRam ? 1 : 0;
        c_.ramWrites[ram] += reps;
        if (in.write.weightRam ? in.weightRead.enable
                               : in.dataRead.enable)
            c_.ramConflicts[ram] += reps;
    }
}

void
CycleProfile::eventMark(uint32_t tag, uint64_t cycle,
                        uint64_t dma_read, uint64_t dma_written)
{
    syncDma(dma_read, dma_written);
    ProfileMark m;
    m.tag = tag;
    m.cycle = cycle;
    m.at = c_;
    marks_.push_back(std::move(m));
}

void
CycleProfile::hostMark(const char *name, bool begin, uint64_t cycle,
                       uint64_t dma_read, uint64_t dma_written,
                       uint64_t useful_macs)
{
    syncDma(dma_read, dma_written);
    ProfileMark m;
    m.name = name;
    m.host = true;
    m.begin = begin;
    m.usefulMacs = useful_macs;
    m.cycle = cycle;
    m.at = c_;
    marks_.push_back(std::move(m));
}

void
CycleProfile::publish(Stats &into) const
{
    for (int i = 0; i < kCycleBuckets; ++i)
        into.add(stats::cycleBucketCounter(CycleBucket(i)),
                 c_.buckets[size_t(i)]);
    for (int i = 0; i < kIssueSlots; ++i)
        into.add(stats::slotIssueCounter(IssueSlot(i)),
                 c_.slotIssued[size_t(i)]);
    for (int ram = 0; ram < 2; ++ram) {
        into.add(stats::ramAccessCounter(ram == 1, false),
                 c_.ramReads[size_t(ram)]);
        into.add(stats::ramAccessCounter(ram == 1, true),
                 c_.ramWrites[size_t(ram)]);
        into.add(stats::ramConflictCounter(ram == 1),
                 c_.ramConflicts[size_t(ram)]);
    }
}

namespace stats {

std::string
cycleBucketCounter(CycleBucket b)
{
    std::string s = "ncore_cycle_bucket_total{bucket=\"";
    s += cycleBucketName(b);
    s += "\"}";
    return s;
}

std::string
slotIssueCounter(IssueSlot slot)
{
    std::string s = "ncore_slot_issue_total{slot=\"";
    s += issueSlotName(slot);
    s += "\"}";
    return s;
}

std::string
ramAccessCounter(bool weight_ram, bool write)
{
    char buf[64];
    snprintf(buf, sizeof buf,
             "ncore_ram_access_total{op=\"%s\",ram=\"%s\"}",
             write ? "write" : "read", weight_ram ? "weight" : "data");
    return buf;
}

std::string
ramConflictCounter(bool weight_ram)
{
    char buf[64];
    snprintf(buf, sizeof buf, "ncore_ram_conflicts_total{ram=\"%s\"}",
             weight_ram ? "weight" : "data");
    return buf;
}

} // namespace stats

// --------------------------------------------------------------------
// Report builder: the attribution join
// --------------------------------------------------------------------

ProfileReport
buildProfileReport(const CycleProfile &prof, const Graph *graph,
                   const std::string &model, double clock_hz)
{
    ProfileReport rep;
    rep.model = model;
    rep.clockHz = clock_hz;
    rep.rowBytes = prof.rowBytes();
    rep.totals = prof.counters();

    // Row registry: node scopes key by id, host/synthetic by name.
    std::vector<LayerProfile> rows;
    std::map<std::string, size_t> index;
    auto rowFor = [&](int node, const std::string &name,
                      const std::string &kind) -> size_t {
        std::string key =
            node >= 0 ? "#" + std::to_string(node) : name;
        auto it = index.find(key);
        if (it != index.end())
            return it->second;
        LayerProfile lp;
        lp.node = node;
        lp.name = name;
        lp.kind = kind;
        rows.push_back(std::move(lp));
        index[key] = rows.size() - 1;
        return rows.size() - 1;
    };
    auto nodeRow = [&](int id) -> size_t {
        if (graph && id >= 0 && size_t(id) < graph->nodes().size()) {
            const Node &n = graph->nodes()[size_t(id)];
            return rowFor(id, n.name, opKindName(n.kind));
        }
        return rowFor(id, "op#" + std::to_string(id), "?");
    };

    // Scope stack of row indices. Closes are tolerant: pop through
    // any still-open inner scopes to the matching row, so a scope a
    // program leaves open cannot absorb the cycles of later marks.
    std::vector<size_t> stack;
    auto close = [&](size_t row) {
        for (size_t i = stack.size(); i-- > 0;)
            if (stack[i] == row) {
                stack.resize(i);
                return;
            }
    };

    ProfileCounters prev;
    size_t unattributed = rowFor(-1, "(unattributed)", "overhead");
    auto attribute = [&](const ProfileCounters &upto) {
        ProfileCounters d = upto.diffFrom(prev);
        prev = upto;
        size_t tgt = stack.empty() ? unattributed : stack.back();
        rows[tgt].d.accumulate(d);
    };

    for (const ProfileMark &m : prof.marks()) {
        attribute(m.at);
        if (m.host) {
            size_t row = rowFor(-1, m.name,
                                m.usefulMacs > 0 ? kProgramKind
                                                 : kHostKind);
            if (m.begin) {
                stack.push_back(row);
                ++rows[row].enters;
                rows[row].usefulMacs += m.usefulMacs;
            } else {
                close(row);
            }
        } else if (m.tag == kProfileSubgraphStart) {
            stack.push_back(rowFor(-1, "(subgraph)", "overhead"));
        } else if (m.tag == kProfileSubgraphEnd) {
            close(rowFor(-1, "(subgraph)", "overhead"));
        } else {
            const int id = int(m.tag >> 2);
            const int phase = int(m.tag & 3);
            size_t row = nodeRow(id);
            if (phase == 1) {
                stack.push_back(row);
                ++rows[row].enters;
            } else if (phase == 2) {
                close(row);
            }
        }
    }
    attribute(prof.counters()); // Tail after the last mark.

    // Derived roofline metrics.
    for (LayerProfile &lp : rows) {
        const uint64_t cyc = lp.cycles();
        const double peak = double(cyc) * double(rep.rowBytes);
        lp.macUtilPct = cyc > 0 ? 100.0 * double(lp.d.macOps) / peak : 0.0;
        if (graph && lp.node >= 0 &&
            size_t(lp.node) < graph->nodes().size())
            lp.usefulMacs =
                uint64_t(Graph::nodeMacs(*graph,
                                         graph->nodes()[size_t(lp.node)])) *
                lp.enters;
        lp.usefulMacPct =
            cyc > 0 ? 100.0 * double(lp.usefulMacs) / peak : 0.0;
        rep.usefulMacs += lp.usefulMacs;
        lp.dramBytes = lp.d.dmaBytesRead + lp.d.dmaBytesWritten;
        uint64_t row_accesses = 0;
        for (int i = 0; i < 2; ++i)
            row_accesses +=
                lp.d.ramReads[size_t(i)] + lp.d.ramWrites[size_t(i)];
        lp.sramBytes = row_accesses * uint64_t(rep.rowBytes);
    }
    rep.unattributedCycles = rows[unattributed].cycles();

    // Keep the synthetic unattributed row only when it claims cycles;
    // sort by cycles descending, name tie-break, for the renderers.
    std::vector<LayerProfile> out;
    for (LayerProfile &lp : rows)
        if (!(lp.name == "(unattributed)" && lp.cycles() == 0))
            out.push_back(std::move(lp));
    std::sort(out.begin(), out.end(),
              [](const LayerProfile &a, const LayerProfile &b) {
                  if (a.cycles() != b.cycles())
                      return a.cycles() > b.cycles();
                  return a.name < b.name;
              });
    rep.rows = std::move(out);
    return rep;
}

// --------------------------------------------------------------------
// Renderers
// --------------------------------------------------------------------

std::string
ProfileReport::text() const
{
    std::string s;
    char buf[256];
    const uint64_t total = totals.cycles();
    auto pct = [&](uint64_t part) {
        return total > 0 ? 100.0 * double(part) / double(total) : 0.0;
    };

    snprintf(buf, sizeof buf,
             "ncore profile: %s  (row %d B, clock %.3g Hz)\n",
             model.c_str(), rowBytes, clockHz);
    s += buf;
    if (!engine.empty()) {
        snprintf(buf, sizeof buf, "  exec engine: %s\n", engine.c_str());
        s += buf;
    }
    snprintf(buf, sizeof buf,
             "  cycles %llu (%.3f ms)  instructions %llu  "
             "mac lanes %llu (%.1f%% of peak)\n",
             (unsigned long long)total,
             clockHz > 0 ? 1e3 * double(total) / clockHz : 0.0,
             (unsigned long long)totals.instructions,
             (unsigned long long)totals.macOps,
             total > 0 ? 100.0 * double(totals.macOps) /
                             (double(total) * double(rowBytes))
                       : 0.0);
    s += buf;
    snprintf(buf, sizeof buf,
             "  useful macs %llu (%.1f%% of peak, %.1f%% of mac lanes)\n",
             (unsigned long long)usefulMacs,
             total > 0 ? 100.0 * double(usefulMacs) /
                             (double(total) * double(rowBytes))
                       : 0.0,
             totals.macOps > 0
                 ? 100.0 * double(usefulMacs) / double(totals.macOps)
                 : 0.0);
    s += buf;
    snprintf(buf, sizeof buf,
             "  dma bytes: %llu in, %llu out\n",
             (unsigned long long)totals.dmaBytesRead,
             (unsigned long long)totals.dmaBytesWritten);
    s += buf;

    s += "  cycle buckets:\n";
    for (int i = 0; i < kCycleBuckets; ++i) {
        snprintf(buf, sizeof buf, "    %-16s %12llu  %6.2f%%\n",
                 cycleBucketName(CycleBucket(i)),
                 (unsigned long long)totals.buckets[size_t(i)],
                 pct(totals.buckets[size_t(i)]));
        s += buf;
    }

    s += "  slot occupancy (% of retired instructions):";
    for (int i = 0; i < kIssueSlots; ++i) {
        snprintf(buf, sizeof buf, "%s %s %.1f%%",
                 i == 0 ? "" : ",", issueSlotName(IssueSlot(i)),
                 totals.instructions > 0
                     ? 100.0 * double(totals.slotIssued[size_t(i)]) /
                           double(totals.instructions)
                     : 0.0);
        s += buf;
    }
    s += '\n';
    snprintf(buf, sizeof buf,
             "  ram rows: data %llur/%lluw (%llu conflicts), "
             "weight %llur/%lluw (%llu conflicts)\n",
             (unsigned long long)totals.ramReads[0],
             (unsigned long long)totals.ramWrites[0],
             (unsigned long long)totals.ramConflicts[0],
             (unsigned long long)totals.ramReads[1],
             (unsigned long long)totals.ramWrites[1],
             (unsigned long long)totals.ramConflicts[1]);
    s += buf;

    s += "  per-layer roofline (cycles desc):\n";
    snprintf(buf, sizeof buf, "    %12s %7s %6s %6s %10s %10s  %s\n",
             "cycles", "%cyc", "mac%", "use%", "dram_KiB", "sram_KiB",
             "layer");
    s += buf;
    for (const LayerProfile &lp : rows) {
        snprintf(buf, sizeof buf,
                 "    %12llu %6.2f%% %5.1f%% %5.1f%% %10.1f %10.1f  "
                 "%s (%s) x%llu\n",
                 (unsigned long long)lp.cycles(), pct(lp.cycles()),
                 lp.macUtilPct, lp.usefulMacPct,
                 double(lp.dramBytes) / 1024.0,
                 double(lp.sramBytes) / 1024.0, lp.name.c_str(),
                 lp.kind.c_str(), (unsigned long long)lp.enters);
        s += buf;
    }
    snprintf(buf, sizeof buf, "  unattributed: %llu cycles\n",
             (unsigned long long)unattributedCycles);
    s += buf;
    return s;
}

std::string
ProfileReport::json() const
{
    std::string out;
    JsonWriter j(&out);
    const uint64_t total = totals.cycles();
    j.beginObject();
    j.field("model", model.c_str());
    if (!engine.empty())
        j.field("engine", engine.c_str());
    j.field("clock_hz", clockHz);
    j.field("row_bytes", rowBytes);
    j.field("total_cycles", total);
    j.field("unattributed_cycles", unattributedCycles);
    j.field("instructions", totals.instructions);
    j.field("mac_ops", totals.macOps);
    j.field("mac_util_pct",
            total > 0 ? 100.0 * double(totals.macOps) /
                            (double(total) * double(rowBytes))
                      : 0.0,
            "%.3f");
    j.field("useful_macs", usefulMacs);
    j.field("useful_mac_pct",
            total > 0 ? 100.0 * double(usefulMacs) /
                            (double(total) * double(rowBytes))
                      : 0.0,
            "%.3f");
    j.field("dma_bytes_read", totals.dmaBytesRead);
    j.field("dma_bytes_written", totals.dmaBytesWritten);
    j.key("buckets").beginObject();
    for (int i = 0; i < kCycleBuckets; ++i)
        j.field(cycleBucketName(CycleBucket(i)),
                totals.buckets[size_t(i)]);
    j.endObject();
    j.key("slot_issue").beginObject();
    for (int i = 0; i < kIssueSlots; ++i)
        j.field(issueSlotName(IssueSlot(i)),
                totals.slotIssued[size_t(i)]);
    j.endObject();
    j.key("ram").beginObject();
    j.field("data_reads", totals.ramReads[0]);
    j.field("data_writes", totals.ramWrites[0]);
    j.field("data_conflicts", totals.ramConflicts[0]);
    j.field("weight_reads", totals.ramReads[1]);
    j.field("weight_writes", totals.ramWrites[1]);
    j.field("weight_conflicts", totals.ramConflicts[1]);
    j.endObject();
    j.key("layers").beginArray();
    for (const LayerProfile &lp : rows) {
        j.beginObject();
        j.field("name", lp.name.c_str());
        j.field("kind", lp.kind.c_str());
        j.field("node", lp.node);
        j.field("enters", lp.enters);
        j.field("cycles", lp.cycles());
        j.field("cycles_pct",
                total > 0 ? 100.0 * double(lp.cycles()) / double(total)
                          : 0.0,
                "%.3f");
        j.field("mac_ops", lp.d.macOps);
        j.field("mac_util_pct", lp.macUtilPct, "%.3f");
        j.field("useful_macs", lp.usefulMacs);
        j.field("useful_mac_pct", lp.usefulMacPct, "%.3f");
        j.field("dram_bytes", lp.dramBytes);
        j.field("sram_bytes", lp.sramBytes);
        j.field("dma_fence_stall_cycles",
                lp.d.buckets[size_t(CycleBucket::DmaFenceStall)]);
        j.key("buckets").beginObject();
        for (int i = 0; i < kCycleBuckets; ++i)
            j.field(cycleBucketName(CycleBucket(i)),
                    lp.d.buckets[size_t(i)]);
        j.endObject();
        j.endObject();
    }
    j.endArray();
    j.endObject();
    j.finish();
    return out;
}

bool
writeProfileJson(const ProfileReport &report, const std::string &path)
{
    FILE *f = fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::string text = report.json();
    size_t wrote = fwrite(text.data(), 1, text.size(), f);
    fclose(f);
    return wrote == text.size();
}

} // namespace ncore
