/**
 * @file
 * The benchmark's span recorder. Spans are recorded only by the
 * benchmark's own code around its calls into bpsim's public functions;
 * nothing inside src/ is instrumented. Each thread appends to its own
 * buffer (no lock on the hot path), and the buffers are collected and
 * written once, after the traced run.
 */

#ifndef BPSIM_PERFBENCH_TRACE_HH
#define BPSIM_PERFBENCH_TRACE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "stats.hh"

namespace perfbench
{

/** A fresh span id (never 0). */
std::uint64_t newSpanId();

/** Append a finished span to the calling thread's buffer. */
void recordSpan(const Span &s);

/** Record [startNs, endNs) as a new span; returns its id. */
std::uint64_t recordSpan(const char *name, std::uint64_t parent,
                         std::int64_t startNs, std::int64_t endNs,
                         std::uint64_t tag);

/** Move every thread's spans out, ordered by start time. */
std::vector<Span> collectSpans();

/** A trace file keeps at most this many spans (the earliest). */
constexpr std::size_t kMaxTraceSpans = 200000;

/**
 * Write @p spans as a Chrome trace (obs::writeSpanTrace), keeping at
 * most kMaxTraceSpans of them. Returns false on an I/O error.
 */
bool writeChromeTrace(const std::string &path,
                      const std::vector<Span> &spans,
                      const std::vector<std::pair<std::string, std::string>>
                          &metadata);

} // namespace perfbench

#endif // BPSIM_PERFBENCH_TRACE_HH
