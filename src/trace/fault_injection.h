/**
 * @file
 * Trace file I/O under the chaos switchboard (util/chaos.h).
 *
 * chaosOpener() wraps a FileOpener so that every open and every
 * ByteFile it hands out consults the switchboard's trace sections.
 * The suite runner wraps its opener this way under an active chaos
 * campaign, and tests configure the switchboard with `only` set to
 * one section to inject exactly that fault.
 */

#ifndef VLPSIM_TRACE_FAULT_INJECTION_H
#define VLPSIM_TRACE_FAULT_INJECTION_H

#include "trace/byte_file.h"

namespace vlp {
namespace trace {

/**
 * Wrap @p inner so every open and every ByteFile it yields consults
 * the global chaos switchboard (util/chaos.h): sections
 * trace.open.transient / trace.read.transient (throw TransientError),
 * trace.read.short (serve a prefix), and trace.view.refuse (return
 * nullptr, forcing the buffered fallback). Pass-through — zero
 * overhead and zero wrapping — while chaos is disabled at open time.
 */
FileOpener chaosOpener(FileOpener inner);

} // namespace trace
} // namespace vlp

#endif // VLPSIM_TRACE_FAULT_INJECTION_H
