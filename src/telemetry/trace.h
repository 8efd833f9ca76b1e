/**
 * @file
 * Span/trace model for the stack, in two time domains:
 *
 *  - CycleSpan: device-cycle domain, relative to the start of one
 *    runtime invocation. Recorded by NcoreRuntime::invoke from the
 *    Machine's own perf counters (IRAM bank swaps, DMA-fence stalls,
 *    per-program-segment compute windows). Cycle counts are part of
 *    the simulated architecture, so these are bit-identical across
 *    runs, hosts and thread counts.
 *
 *  - TraceSpan: seconds domain on a *virtual* timeline — either the
 *    sequential inference timeline built by DelegateExecutor, or the
 *    serving engine's discrete-event timeline. Never wall-clock.
 *
 * TraceEvent + chromeTraceJson() render any assembled timeline into
 * Chrome trace-event JSON (the `trace.json` format that loads in
 * chrome://tracing and Perfetto).
 */

#ifndef NCORE_TELEMETRY_TRACE_H
#define NCORE_TELEMETRY_TRACE_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace ncore {

/**
 * Cycle-domain span, relative to an invocation's first cycle.
 * `name` must point to static storage (span names are literals).
 */
struct CycleSpan
{
    const char *name = "";
    uint64_t begin = 0;
    uint64_t end = 0;

    uint64_t cycles() const { return end - begin; }
};

/** Category of a seconds-domain span on an inference timeline. */
enum class SpanCat : uint8_t
{
    Ncore,       ///< One Ncore subgraph invocation (device busy).
    NcoreDetail, ///< Child detail inside an Ncore span (swap, stall).
    X86Op,       ///< One x86-executed graph node.
    Layout,      ///< Host<->device layout conversion.
    Framework,   ///< Fixed per-inference framework overhead.
};

const char *spanCatName(SpanCat c);

/** Seconds-domain span on a virtual (deterministic) timeline. */
struct TraceSpan
{
    std::string name;
    SpanCat cat = SpanCat::Ncore;
    double start = 0.0; ///< Seconds from timeline origin.
    double dur = 0.0;   ///< Seconds.
};

/**
 * One Chrome trace-event. ph 'X' = complete event (ts+dur), 'i' =
 * instant, 'M' = metadata (names a pid/tid track). Timestamps in
 * microseconds. args render as a string->string JSON object in
 * insertion order.
 */
struct TraceEvent
{
    std::string name;
    std::string cat;
    char ph = 'X';
    double tsUs = 0.0;
    double durUs = 0.0;
    int pid = 0;
    int tid = 0;
    std::vector<std::pair<std::string, std::string>> args;
};

/** Complete-event helper. */
TraceEvent completeEvent(std::string name, std::string cat, double ts_us,
                         double dur_us, int pid, int tid);
/** Metadata helper naming a track (thread_name). */
TraceEvent threadNameEvent(int pid, int tid, std::string name);

/**
 * Render events into a Chrome trace-event JSON document. Events are
 * emitted in the order given (callers assemble deterministically);
 * timestamps use a fixed "%.6f" so output is byte-stable.
 */
std::string chromeTraceJson(const std::vector<TraceEvent> &events);

/** chromeTraceJson() to a file; returns false on I/O error. */
bool writeChromeTrace(const std::vector<TraceEvent> &events,
                      const std::string &path);

} // namespace ncore

#endif // NCORE_TELEMETRY_TRACE_H
