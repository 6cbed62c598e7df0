package trace

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"fastiov/internal/sim"
	"fastiov/internal/telemetry"
)

// Decomposition splits one container's end-to-end startup time into
// mutually exclusive components measured on its driving proc over the
// recorder's [start, end] window:
//
//	Total = Service + Σ Blocked[target] + Runnable
//
// Service is time spent executing simulated work (sleeps), Blocked is time
// parked on each lock/resource/queue, and Runnable is the residual — time
// neither working nor blocked. In the DES wakeups are instantaneous, so
// Runnable is identically zero on a well-instrumented run; a positive value
// would mean an uninstrumented blocking primitive, and a negative one is an
// analysis error.
type Decomposition struct {
	Container int
	Proc      int
	Total     time.Duration
	Service   time.Duration
	Blocked   map[string]time.Duration // "class obj" → parked time
	Runnable  time.Duration
}

// BlockedTotal sums the Blocked components.
func (d *Decomposition) BlockedTotal() time.Duration {
	var total time.Duration
	for _, v := range d.Blocked {
		total += v
	}
	return total
}

// containerOf binds the startup experiment's "ctr-<id>" procs and the
// serverless experiment's "task-<id>" procs to the container whose startup
// they drive. Helper procs (VF async init, scrubber daemons) deliberately
// do not bind: their time is not on the container's synchronous startup
// path.
func containerOf(procName string) (int, bool) {
	for _, prefix := range []string{"ctr-", "task-"} {
		if rest, ok := strings.CutPrefix(procName, prefix); ok {
			id, err := strconv.Atoi(rest)
			if err == nil {
				return id, true
			}
		}
	}
	return 0, false
}

// bindProcs maps each container to the slot of the one named proc that
// binds to it (containerOf). Procs are visited in ascending id order; two
// procs binding the same container are an error, since either could be its
// driving proc.
func (a *Analysis) bindProcs() (map[int]int32, error) {
	t := a.t
	procOf := make(map[int]int32)
	for s, p := range t.procs {
		if !p.named {
			continue
		}
		ctr, ok := containerOf(p.name)
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

// CriticalPaths decomposes every completed container in rec. Each
// container's driving proc is the one bound to it (bindProcs); its
// blocking intervals are clipped to the recorder's [start, end] window and
// summed by target.
func (a *Analysis) CriticalPaths(rec *telemetry.Recorder) ([]Decomposition, error) {
	procOf, err := a.bindProcs()
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
		d := Decomposition{Container: ctr, Proc: a.t.procID(slot), Total: total,
			Blocked: make(map[string]time.Duration)}
		for _, iv := range a.perProc[slot] {
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
				d.Blocked[lockName(iv.class, a.t.objs[iv.obj])] += hi - lo
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

// VerifyCriticalPaths analyzes t and checks that every completed
// container's decomposition is exact: components sum to the recorder's
// total with a non-negative residual. Traced experiment runs call this
// after every simulation, making the identity a standing invariant.
func VerifyCriticalPaths(t *Trace, rec *telemetry.Recorder) error {
	a, err := Analyze(t)
	if err != nil {
		return err
	}
	_, err = a.CriticalPaths(rec)
	return err
}

// PathSummary aggregates decompositions into mean per-container components:
// service, runnable, and the top blocked targets by total time.
type PathSummary struct {
	Containers   int
	MeanTotal    time.Duration
	MeanService  time.Duration
	MeanRunnable time.Duration
	// Targets is sorted by descending total blocked time.
	Targets []PathTarget
}

// PathTarget is one blocking target's aggregate share.
type PathTarget struct {
	Name  string
	Mean  time.Duration // mean per container
	Share float64       // percent of mean total startup time
}

// Summarize aggregates ds (typically one run's containers).
func Summarize(ds []Decomposition) PathSummary {
	var sum PathSummary
	if len(ds) == 0 {
		return sum
	}
	n := time.Duration(len(ds))
	blocked := make(map[string]time.Duration)
	var total time.Duration
	for _, d := range ds {
		total += d.Total
		sum.MeanService += d.Service
		sum.MeanRunnable += d.Runnable
		for name, v := range d.Blocked {
			blocked[name] += v
		}
	}
	sum.Containers = len(ds)
	sum.MeanTotal = total / n
	sum.MeanService /= n
	sum.MeanRunnable /= n
	for name, v := range blocked {
		t := PathTarget{Name: name, Mean: v / n}
		if total > 0 {
			t.Share = 100 * float64(v) / float64(total)
		}
		sum.Targets = append(sum.Targets, t)
	}
	sort.Slice(sum.Targets, func(i, j int) bool {
		if sum.Targets[i].Mean != sum.Targets[j].Mean {
			return sum.Targets[i].Mean > sum.Targets[j].Mean
		}
		return sum.Targets[i].Name < sum.Targets[j].Name
	})
	return sum
}
