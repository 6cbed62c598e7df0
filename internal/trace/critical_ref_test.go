package trace

// This file keeps the critical-path decomposition as it was first written:
// Analyze stored every closed blocking interval of every proc in a
// per-proc index, and CriticalPaths clipped the bound proc's list to each
// container's root-span window after the pass. It is the reference model
// for the windowed replay: the code below is the original interval-store
// decomposition, with the index built by its own pass over the records.

import (
	"fmt"
	"time"

	"fastiov/internal/sim"
	"fastiov/internal/telemetry"
)

// refIntervals is the per-proc interval index: every closed blocking
// interval of every proc, by slot, in close order. t must have passed
// Analyze, so every unblock closes its proc's open block.
func refIntervals(t *Trace) [][]interval {
	perProc := make([][]interval, t.nslots)
	open := make([]interval, t.nslots)
	for r := range t.records() {
		switch Kind(r.kind) {
		case Block:
			open[r.proc] = interval{start: time.Duration(r.at), class: sim.WaitClass(r.class), obj: r.obj}
		case Unblock:
			iv := open[r.proc]
			iv.end = time.Duration(r.at)
			perProc[r.proc] = append(perProc[r.proc], iv)
		}
	}
	return perProc
}

// refBindProcs maps each container to the slot of the one named proc that
// binds to it, in ascending id order; two procs binding the same container
// are an error.
func refBindProcs(t *Trace) (map[int]int32, error) {
	procOf := make(map[int]int32)
	for s, p := range t.procs {
		if !p.named {
			continue
		}
		ctr, ok := containerOf(p.String())
		if !ok {
			continue
		}
		if other, dup := procOf[ctr]; dup {
			return nil, fmt.Errorf("trace: procs %d and %d both bind to container %d",
				t.procID(other), t.procID(int32(s)), ctr)
		}
		procOf[ctr] = int32(s)
	}
	return procOf, nil
}

// refCriticalPaths decomposes every completed container in rec: its
// driving proc's intervals are clipped to the recorder's [start, end]
// window and summed by target.
func refCriticalPaths(t *Trace, perProc [][]interval, rec *telemetry.Recorder) ([]Decomposition, error) {
	procOf, err := refBindProcs(t)
	if err != nil {
		return nil, err
	}
	var out []Decomposition
	for _, ctr := range rec.Traces() {
		total := rec.Total(ctr)
		if total == 0 {
			continue // incomplete (failed under injected faults)
		}
		slot, ok := procOf[ctr]
		if !ok {
			return nil, fmt.Errorf("trace: container %d completed but no proc binds to it", ctr)
		}
		root, _ := rec.RootOf(ctr)
		win := rec.Span(root)
		start, end := win.Start, win.End
		d := Decomposition{Container: ctr, Proc: t.procID(slot), Total: total,
			Blocked: make(map[string]time.Duration)}
		for _, iv := range perProc[slot] {
			lo, hi := iv.start, iv.end
			if lo < start {
				lo = start
			}
			if hi > end {
				hi = end
			}
			if hi <= lo {
				continue
			}
			if iv.class == sim.WaitSleep {
				d.Service += hi - lo
			} else {
				d.Blocked[lockName(iv.class, t.objs[iv.obj])] += hi - lo
			}
		}
		d.Runnable = total - d.Service - d.BlockedTotal()
		if d.Runnable < 0 {
			return nil, fmt.Errorf("trace: container %d: components exceed total (total=%v service=%v blocked=%v)",
				ctr, total, d.Service, d.BlockedTotal())
		}
		out = append(out, d)
	}
	return out, nil
}

// refDecompose is the reference for Analyze(t, recs...): the stream's own
// error first, then each recorder's decomposition in order, stopping at
// the first error.
func refDecompose(t *Trace, recs []*telemetry.Recorder) ([]Decomposition, error) {
	if _, err := Analyze(t); err != nil {
		return nil, err
	}
	perProc := refIntervals(t)
	var out []Decomposition
	for _, rec := range recs {
		ds, err := refCriticalPaths(t, perProc, rec)
		if err != nil {
			return nil, err
		}
		out = append(out, ds...)
	}
	return out, nil
}
