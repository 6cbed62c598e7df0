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

// containerPrefixes name the procs that drive a container's startup: the
// startup experiment's "ctr-<id>" and the serverless experiment's
// "task-<id>".
var containerPrefixes = [...]string{"ctr-", "task-"}

// bindName is containerOf for a recorded proc name. A decimal name binds
// when its prefix is a container prefix, without formatting it; any other
// name is parsed.
func bindName(e *procEntry) (int, bool) {
	if !e.decimal {
		return containerOf(e.name)
	}
	for _, c := range containerPrefixes {
		if e.name == c {
			return int(e.idx), true
		}
	}
	return 0, false
}

// containerOf binds the startup experiment's "ctr-<id>" procs and the
// serverless experiment's "task-<id>" procs to the container whose startup
// they drive. Helper procs (VF async init, scrubber daemons) deliberately
// do not bind: their time is not on the container's synchronous startup
// path.
func containerOf(procName string) (int, bool) {
	for _, prefix := range containerPrefixes {
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
func (t *Trace) bindProcs() (map[int]int32, error) {
	procOf := make(map[int]int32)
	for s := range t.procs {
		p := &t.procs[s]
		if !p.named {
			continue
		}
		ctr, ok := bindName(p)
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

// window is one completed container's root-span window, [start, end], and
// the service time of its driving proc clipped to it.
type window struct {
	start, end time.Duration
	service    time.Duration
	ctr        int
	slot       int32 // the driving proc's slot; -1 when no proc binds ctr
	next       int32 // index+1 of the slot's next window (0: none)
	blocked    int32 // index+1 of the window's first blockedSum (0: none)
}

// blockedSum is one window's clipped wait time behind one lock-table
// entry, an entry of the window's list in paths' pool.
type blockedSum struct {
	d    time.Duration
	key  int32 // lockKey of the (object, class) pair
	next int32 // index+1 of the window's next blockedSum (0: none)
}

// paths are the critical-path sums Analyze keeps: one window per completed
// container, in recorder and then container order, and their wait sums
// per lock-table entry.
type paths struct {
	wins  []window
	first []int32 // by proc slot: index+1 of its first window (0: none)
	sums  []blockedSum
}

// bind reads every completed container's root-span window from recs and
// binds it to its driving proc (bindProcs). A container appearing in two
// recorders gets a window in each.
func (p *paths) bind(t *Trace, recs []*telemetry.Recorder) error {
	procOf, err := t.bindProcs()
	if err != nil {
		return err
	}
	for _, rec := range recs {
		for _, ctr := range rec.Traces() {
			if rec.Total(ctr) == 0 {
				continue // incomplete (failed under injected faults)
			}
			root, _ := rec.RootOf(ctr)
			sp := rec.Span(root)
			w := window{start: sp.Start, end: sp.End, ctr: ctr, slot: -1}
			if s, ok := procOf[ctr]; ok {
				if p.first == nil {
					p.first = make([]int32, t.nslots)
				}
				w.slot, w.next = s, p.first[s]
				p.first[s] = int32(len(p.wins) + 1)
			}
			p.wins = append(p.wins, w)
		}
	}
	return nil
}

// add clips a closed interval of proc slot s to each of the slot's windows
// and adds what is left to the window's service time or to its wait sum
// behind the interval's (object, class).
func (p *paths) add(s int32, iv interval) {
	for w := p.first[s]; w != 0; w = p.wins[w-1].next {
		win := &p.wins[w-1]
		lo, hi := max(iv.start, win.start), min(iv.end, win.end)
		if hi <= lo {
			continue
		}
		if iv.class == sim.WaitSleep {
			win.service += hi - lo
			continue
		}
		key := lockKey(iv.obj, iv.class)
		b := win.blocked
		for b != 0 && p.sums[b-1].key != key {
			b = p.sums[b-1].next
		}
		if b == 0 {
			p.sums = append(p.sums, blockedSum{key: key, next: win.blocked})
			b = int32(len(p.sums))
			win.blocked = b
		}
		p.sums[b-1].d += hi - lo
	}
}

// blockedTotal sums win's wait time over every lock-table entry.
func (p *paths) blockedTotal(win *window) time.Duration {
	var total time.Duration
	for b := win.blocked; b != 0; b = p.sums[b-1].next {
		total += p.sums[b-1].d
	}
	return total
}

// check requires every window to be bound and its components to leave a
// non-negative residual, and reports the first window that fails.
func (p *paths) check() error {
	for i := range p.wins {
		win := &p.wins[i]
		if win.slot < 0 {
			return fmt.Errorf("trace: container %d completed but no proc binds to it", win.ctr)
		}
		total, blocked := win.end-win.start, p.blockedTotal(win)
		if total-win.service-blocked < 0 {
			return fmt.Errorf("trace: container %d: components exceed total (total=%v service=%v blocked=%v)",
				win.ctr, total, win.service, blocked)
		}
	}
	return nil
}

// Containers returns the number of completed containers whose critical
// path Analyze checked.
func (a *Analysis) Containers() int { return len(a.paths.wins) }

// CriticalPaths decomposes every completed container in the recorders
// Analyze was given, in recorder and then container order. Each
// container's driving proc is the one bound to it (bindProcs); its
// blocking intervals were clipped to the recorder's [start, end] window
// and summed by target during the pass.
func (a *Analysis) CriticalPaths() []Decomposition {
	p := &a.paths
	out := make([]Decomposition, 0, len(p.wins))
	for i := range p.wins {
		win := &p.wins[i]
		d := Decomposition{Container: win.ctr, Proc: a.t.procID(win.slot), Total: win.end - win.start,
			Service: win.service, Blocked: make(map[string]time.Duration)}
		for b := win.blocked; b != 0; b = p.sums[b-1].next {
			sum := &p.sums[b-1]
			obj, class := sum.key/int32(numClasses), sim.WaitClass(sum.key%int32(numClasses))
			d.Blocked[lockName(class, a.t.objs[obj])] += sum.d
		}
		d.Runnable = d.Total - d.Service - d.BlockedTotal()
		out = append(out, d)
	}
	return out
}

// VerifyCriticalPaths checks that every completed container's
// decomposition in recs is exact: components sum to the recorder's total
// with a non-negative residual. Traced host runs call this after every
// simulation, and fleet.Finish makes the same check through Analyze once
// over every host generation's recorder, making the identity a standing
// invariant. It builds no Decomposition.
func VerifyCriticalPaths(t *Trace, recs ...*telemetry.Recorder) error {
	_, err := Analyze(t, recs...)
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
