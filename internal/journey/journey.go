// Package journey records deterministic per-request distributed traces
// through the serving stack: a span context is minted when a request
// arrives and threaded through admission, queue wait, dispatch, placement,
// reroute/backoff after host crashes, the startup telemetry stages, pod
// lifetime, and teardown.
//
// The spans live in the telemetry span store, the same one that records
// container startups. The recorder is an observer in the same sense as the
// metrics registry: it is only ever touched from simulation procs (the
// kernel's single-runnable-baton guarantee makes a mutex unnecessary), it
// consumes zero simulated time and zero PRNG draws, and a run with a
// recorder attached renders byte-identically to one without. The canonical
// encoding is a JSONL span log sorted by (trace, start, id) with an FNV-1a
// fingerprint folded into the determinism check.
//
// Perfetto export: journeys render through the same Chrome trace-event
// writer as the kernel trace, as a second process group ("request
// journeys", pid 2) with one thread per request. Timestamps share the
// kernel trace's clock (simulated microseconds since t=0), so loading a
// journey export alongside a kernel trace export lines the two up.
package journey

import (
	"io"

	"fastiov/internal/telemetry"
	"fastiov/internal/trace"
)

// Recorder is one serving run's span store.
type Recorder struct {
	telemetry.Recorder
}

// NewRecorder returns an empty journey recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// ChromePID is the journey track group's process id (the kernel trace
// owns pid 1).
const ChromePID = 2

// WriteChrome writes the journey track group as Chrome trace-event JSON,
// loadable in Perfetto (ui.perfetto.dev) on its own or alongside a kernel
// trace export: process and per-request thread metadata first, then one
// complete ("X") event per span in canonical (trace, start, id) order,
// attributes as event args.
func (r *Recorder) WriteChrome(w io.Writer) error {
	c := trace.NewChromeWriter(w)
	c.ProcessName(ChromePID, "request journeys")
	order := r.CanonicalOrder()
	lastTrace := -1
	for _, i := range order {
		if tr := int(r.Span(i).Trace); tr != lastTrace {
			c.NumberedThreadName(ChromePID, tr, "req-")
			lastTrace = tr
		}
	}
	for _, i := range order {
		sp := r.Span(i)
		c.Span(sp, "journey", ChromePID, int(sp.Trace))
	}
	return c.Close()
}
