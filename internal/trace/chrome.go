package trace

import (
	"encoding/json"
	"fmt"
	"io"

	"fastiov/internal/sim"
	"fastiov/internal/telemetry"
)

// ChromeEvent is one Chrome trace-event object. Timestamps and durations
// are microseconds (float, so sub-µs simulation costs survive). It is
// exported so other observers (the request-journey recorder) can emit
// track groups through the same writer, sharing the same clock.
type ChromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat,omitempty"`
	Ph   string            `json:"ph"`
	TS   float64           `json:"ts"`
	Dur  *float64          `json:"dur,omitempty"`
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

const chromePID = 1 // the simulated host's kernel-trace process group

// US converts a simulated duration to trace-event microseconds.
func US(d sim.Duration) float64 { return float64(d) / 1e3 }

// DurP returns a duration operand for a complete ("X") event.
func DurP(d sim.Duration) *float64 {
	v := US(d)
	return &v
}

// SpanEvents appends one complete ("X") event per span of rec to events,
// visiting span ids in order (every span in Begin order when order is
// nil). tid places a span on a thread; spans it rejects are left out.
// Span attributes become event args.
func SpanEvents(events []ChromeEvent, rec *telemetry.Recorder, order []int, cat string, pid int,
	tid func(sp telemetry.Span) (int, bool)) []ChromeEvent {
	n := len(order)
	if order == nil {
		n = rec.Len()
	}
	for k := 0; k < n; k++ {
		i := k
		if order != nil {
			i = order[k]
		}
		sp := rec.Span(i)
		thread, ok := tid(sp)
		if !ok {
			continue
		}
		ev := ChromeEvent{
			Name: sp.Name, Cat: cat, Ph: "X",
			TS: US(sp.Start), Dur: DurP(sp.Dur()),
			PID: pid, TID: thread,
		}
		if len(sp.Attrs) > 0 {
			ev.Args = make(map[string]string, len(sp.Attrs))
			for _, a := range sp.Attrs {
				ev.Args[a.Key] = a.Val
			}
		}
		events = append(events, ev)
	}
	return events
}

// WriteChromeEvents writes a pre-built event list as Chrome trace-event
// JSON, one object per line (keeps diffs and golden files reviewable).
func WriteChromeEvents(w io.Writer, events []ChromeEvent) error {
	if _, err := io.WriteString(w, "{\"traceEvents\":[\n"); err != nil {
		return err
	}
	for i, ev := range events {
		b, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		sep := ",\n"
		if i == len(events)-1 {
			sep = "\n"
		}
		if _, err := fmt.Fprintf(w, "%s%s", b, sep); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "],\"displayTimeUnit\":\"ms\"}\n")
	return err
}

// ChromeEvents builds the kernel-trace event list: process/thread metadata
// first, then telemetry stage spans, then per-proc service/wait intervals,
// in proc-id order. The output is a pure function of its inputs, so
// seed-fixed reruns are byte-identical. If two procs bind the same
// container the stage spans are left out; WriteChrome reports that as an
// error.
func ChromeEvents(a *Analysis, rec *telemetry.Recorder, bind Binder) []ChromeEvent {
	procOf, _ := a.bindProcs(bind)
	return a.chromeEvents(rec, procOf)
}

// chromeEvents builds the event list with stage spans drawn on the procs
// procOf binds (none when procOf is nil).
func (a *Analysis) chromeEvents(rec *telemetry.Recorder, procOf map[int]int32) []ChromeEvent {
	t := a.t
	events := []ChromeEvent{{
		Name: "process_name", Ph: "M", PID: chromePID, TID: 0,
		Args: map[string]string{"name": "fastiov-sim"},
	}}
	for s, p := range t.procs {
		if p.named {
			events = append(events, ChromeEvent{
				Name: "thread_name", Ph: "M", PID: chromePID, TID: t.procID(int32(s)),
				Args: map[string]string{"name": p.name},
			})
		}
	}

	// Stage spans from the telemetry recorder, drawn on the thread of the
	// container's driving proc; startup roots are left out.
	if rec != nil {
		events = SpanEvents(events, rec, nil, "stage", chromePID, func(sp telemetry.Span) (int, bool) {
			s, ok := procOf[int(sp.Trace)]
			if !ok || sp.Parent < 0 {
				return 0, false
			}
			return t.procID(s), true
		})
	}

	// Blocking intervals: sleeps are the proc doing simulated work, the
	// rest are waits on a named primitive.
	for s, p := range t.procs {
		if !p.named {
			continue
		}
		id := t.procID(int32(s))
		for _, iv := range a.perProc[s] {
			ev := ChromeEvent{
				Ph: "X", TS: US(iv.start), Dur: DurP(iv.end - iv.start),
				PID: chromePID, TID: id,
			}
			if iv.class == sim.WaitSleep {
				ev.Name, ev.Cat = "service", "service"
			} else {
				ev.Name = "wait " + lockName(iv.class, t.objs[iv.obj])
				ev.Cat = "wait"
			}
			events = append(events, ev)
		}
	}
	return events
}

// WriteChrome exports the analyzed trace as Chrome trace-event JSON,
// loadable in Perfetto (ui.perfetto.dev) and chrome://tracing. Procs render
// as threads; sleeps, waits, and telemetry stage spans render as complete
// ("X") events. rec may be nil to omit stage spans. Two procs binding the
// same container are an error.
func WriteChrome(w io.Writer, a *Analysis, rec *telemetry.Recorder, bind Binder) error {
	procOf, err := a.bindProcs(bind)
	if err != nil {
		return err
	}
	return WriteChromeEvents(w, a.chromeEvents(rec, procOf))
}
