package trace

import (
	"io"

	"fastiov/internal/sim"
	"fastiov/internal/telemetry"
)

const chromePID = 1 // the simulated host's kernel-trace process group

// waitPrefixes holds "wait <class> " per wait class: the ASCII prefix of
// a wait event's name, which the blocking object's name completes.
var waitPrefixes = func() (p [numClasses]string) {
	for c := range p {
		p[c] = "wait " + sim.WaitClass(c).String() + " "
	}
	return p
}()

// wait appends the complete event of one blocking interval on a named
// primitive: "wait <class> <obj>", or "wait <class>" for an unnamed one.
func wait(c *telemetry.ChromeWriter, iv interval, obj string, tid int) {
	prefix := waitPrefixes[iv.class]
	if obj == "" {
		prefix = prefix[:len(prefix)-1]
	}
	c.Complete(prefix, obj, "wait", telemetry.US(iv.start), telemetry.US(iv.end-iv.start), chromePID, tid)
}

// WriteChrome exports the analyzed trace as Chrome trace-event JSON:
// process/thread metadata first, then telemetry stage spans, then per-proc
// service/wait intervals, in proc-id order. Procs render as threads;
// sleeps, waits, and the stage spans render as complete ("X") events.
// Stage spans are drawn on the thread of their container's driving proc
// (bindProcs), startup roots left out; rec may be nil to omit them, and
// then no proc is bound. The output is a pure function of its inputs, so
// seed-fixed reruns are byte-identical. Two procs binding the same
// container are an error.
func WriteChrome(w io.Writer, a *Analysis, rec *telemetry.Recorder) error {
	var procOf map[int]int32
	if rec != nil {
		var err error
		if procOf, err = a.bindProcs(); err != nil {
			return err
		}
	}
	t := a.t
	c := telemetry.NewChromeWriter(w)
	c.ProcessName(chromePID, "fastiov-sim")
	for s, p := range t.procs {
		if p.named {
			c.ThreadName(chromePID, t.procID(int32(s)), p.name)
		}
	}
	if rec != nil {
		for i := range rec.Len() {
			sp := rec.Span(i)
			if s, ok := procOf[int(sp.Trace)]; ok && sp.Parent >= 0 {
				c.Span(rec, i, "stage", chromePID, t.procID(s))
			}
		}
	}
	// Blocking intervals: sleeps are the proc doing simulated work, the
	// rest are waits on a named primitive.
	for s, p := range t.procs {
		if !p.named {
			continue
		}
		id := t.procID(int32(s))
		for _, iv := range a.perProc[s] {
			if iv.class == sim.WaitSleep {
				c.Complete("service", "", "service", telemetry.US(iv.start), telemetry.US(iv.end-iv.start), chromePID, id)
			} else {
				wait(c, iv, t.objs[iv.obj], id)
			}
		}
	}
	return c.Close()
}
