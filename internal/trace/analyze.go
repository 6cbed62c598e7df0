package trace

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"fastiov/internal/sim"
)

// Histogram buckets a duration distribution into decades:
// <1µs, <10µs, <100µs, <1ms, <10ms, <100ms, <1s, <10s, ≥10s.
type Histogram struct {
	Counts [9]int
}

// histBounds are the exclusive upper bounds of the first eight buckets.
var histBounds = [8]time.Duration{
	time.Microsecond, 10 * time.Microsecond, 100 * time.Microsecond,
	time.Millisecond, 10 * time.Millisecond, 100 * time.Millisecond,
	time.Second, 10 * time.Second,
}

// Add counts one duration.
func (h *Histogram) Add(d time.Duration) {
	for i, bound := range histBounds {
		if d < bound {
			h.Counts[i]++
			return
		}
	}
	h.Counts[len(h.Counts)-1]++
}

// String renders the bucket counts as "a|b|...|i" (decade buckets from <1µs
// to ≥10s).
func (h Histogram) String() string {
	s := ""
	for i, c := range h.Counts {
		if i > 0 {
			s += "|"
		}
		s += fmt.Sprint(c)
	}
	return s
}

// Blocker is one proc's share of the wait time behind a lock.
type Blocker struct {
	Proc int
	Name string
	Wait time.Duration // wait time of intervals this proc ended
}

// LockStat is the contention profile of one primitive: how often and how
// long procs waited for it, how long holders kept it, how deep its wait
// queue grew, and who the waiters were waiting on.
type LockStat struct {
	Class sim.WaitClass
	Obj   string

	Acquires  int // successful acquisitions (immediate + after a wait)
	Waits     int // acquisitions that had to block
	TotalWait time.Duration
	MaxWait   time.Duration
	WaitHist  Histogram

	Holds     int // completed hold intervals
	TotalHold time.Duration
	MaxHold   time.Duration
	HoldHist  Histogram

	MaxQueue int // deepest observed wait queue
	depth    int // current wait queue, during Analyze

	// blockedBy attributes each completed wait to the proc whose release
	// (or wake) ended it.
	blockedBy map[int]time.Duration
}

// Name renders the primitive as "class obj" (e.g. "mutex vfio-devset-1").
func (s *LockStat) Name() string {
	if s.Obj == "" {
		return s.Class.String()
	}
	return s.Class.String() + " " + s.Obj
}

// MeanWait returns the average blocking wait (0 when never contended).
func (s *LockStat) MeanWait() time.Duration {
	if s.Waits == 0 {
		return 0
	}
	return s.TotalWait / time.Duration(s.Waits)
}

// MeanHold returns the average hold time (0 when never held).
func (s *LockStat) MeanHold() time.Duration {
	if s.Holds == 0 {
		return 0
	}
	return s.TotalHold / time.Duration(s.Holds)
}

// TopBlockers returns the k procs responsible for the most wait time behind
// this primitive, by attributed release/wake causality.
func (s *LockStat) TopBlockers(t *Trace, k int) []Blocker {
	out := make([]Blocker, 0, len(s.blockedBy))
	for id, w := range s.blockedBy {
		out = append(out, Blocker{Proc: id, Name: t.ProcName(id), Wait: w})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Wait != out[j].Wait {
			return out[i].Wait > out[j].Wait
		}
		return out[i].Proc < out[j].Proc
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}

// interval is one closed blocking interval of a proc.
type interval struct {
	start, end time.Duration
	obj        uint32
	class      sim.WaitClass
}

// openWait tracks a proc currently parked; class is WaitNone when the proc
// is not parked.
type openWait struct {
	start   int64
	blocker int32 // slot of the proc whose release or wake ended the wait
	obj     uint32
	class   sim.WaitClass
}

// openHold is one hold a proc has not yet released, an entry of
// holdStacks' pool.
type openHold struct {
	start int64
	key   int32 // the held (object, class) pair's lock-table index
	next  int32 // pool index+1 of the proc's next older open hold (0: none), or of the next free entry
}

// holdStacks are every proc's open holds, most recent first, kept as
// linked entries of one pool; a released entry goes on a free list and is
// reused, so the pool grows only to the most holds open at once.
type holdStacks struct {
	top  []int32 // by proc slot: pool index+1 of its most recent open hold (0: none)
	pool []openHold
	free int32 // pool index+1 of the first free entry (0: none)
}

// push opens a hold of lock-table entry key by proc at start.
func (h *holdStacks) push(proc int32, start int64, key int32) {
	e := openHold{start: start, key: key, next: h.top[proc]}
	if i := h.free; i != 0 {
		h.free = h.pool[i-1].next
		h.pool[i-1] = e
		h.top[proc] = i
		return
	}
	h.pool = append(h.pool, e)
	h.top[proc] = int32(len(h.pool))
}

// pop removes proc's most recent open hold of lock-table entry key and
// returns its start.
func (h *holdStacks) pop(proc, key int32) (int64, bool) {
	link := &h.top[proc]
	for i := *link; i != 0; i = *link {
		e := &h.pool[i-1]
		if e.key == key {
			*link, e.next, h.free = e.next, h.free, i
			return e.start, true
		}
		link = &e.next
	}
	return 0, false
}

// Analysis is the validated, indexed view of a trace: per-proc blocking
// intervals and per-primitive contention stats. Build one with Analyze and
// query it with Profile and CriticalPaths.
type Analysis struct {
	t       *Trace
	perProc [][]interval // by proc slot
	locks   []*LockStat  // in first-use order
}

// lockName renders a (class, object) pair as "class obj".
func lockName(class sim.WaitClass, obj string) string {
	return (&LockStat{Class: class, Obj: obj}).Name()
}

// Analyze replays the event stream, building the per-proc interval index
// and the per-primitive contention profile. It never panics on arbitrary
// input: ill-nested streams — a block inside a block, an unblock or release
// with no matching open, a class/object mismatch, time running backwards —
// are rejected with an error naming the offending event, as are events
// FromEvents could not store.
//
// The replay is one pass over the decoded stream through dense tables
// only: the open wait and the open holds are indexed by proc slot, and the
// lock table has one entry per (object, class) pair holding its stats and
// queue depth. A release closes the most recent open hold of the same pair
// by the same proc.
func Analyze(t *Trace) (*Analysis, error) {
	if t.err != nil {
		return nil, t.err
	}
	a := &Analysis{t: t, perProc: make([][]interval, t.nslots)}
	// Size every proc's interval list up front, carved from one backing
	// array: each unblock appends exactly one interval, and the trace
	// counted them per slot while recording.
	total := 0
	for _, p := range t.procs {
		total += p.unblocks
	}
	backing := make([]interval, total)
	for s, p := range t.procs {
		a.perProc[s], backing = backing[:0:p.unblocks], backing[p.unblocks:]
	}
	waiting := make([]openWait, t.nslots)
	holds := holdStacks{top: make([]int32, t.nslots)}
	table := make([]*LockStat, len(t.objs)*numClasses) // by lockKey
	var lastAt int64

	// stat returns the stats of lock-table entry k, creating them on first
	// use.
	stat := func(k int32, r *record) *LockStat {
		s := table[k]
		if s == nil {
			s = &LockStat{Class: sim.WaitClass(r.class), Obj: t.objs[r.obj]}
			table[k] = s
			a.locks = append(a.locks, s)
		}
		return s
	}

	i := 0
	for r := range t.records() {
		if r.at < lastAt {
			return nil, fmt.Errorf("trace: event %d: time went backwards (%v after %v)",
				i, time.Duration(r.at), time.Duration(lastAt))
		}
		lastAt = r.at
		class := sim.WaitClass(r.class)
		switch Kind(r.kind) {
		case Block:
			if class == sim.WaitNone {
				return nil, fmt.Errorf("trace: event %d: proc %d blocks with no wait class", i, t.procID(r.proc))
			}
			if ow := &waiting[r.proc]; ow.class != sim.WaitNone {
				return nil, fmt.Errorf("trace: event %d: proc %d blocks on %s %q while already blocked on %s %q",
					i, t.procID(r.proc), class, t.objs[r.obj], ow.class, t.objs[ow.obj])
			}
			waiting[r.proc] = openWait{class: class, obj: r.obj, start: r.at}
			if class != sim.WaitSleep {
				s := stat(lockKey(r), r)
				s.depth++
				if s.depth > s.MaxQueue {
					s.MaxQueue = s.depth
				}
			}
		case Unblock:
			ow := waiting[r.proc]
			if ow.class == sim.WaitNone {
				return nil, fmt.Errorf("trace: event %d: proc %d unblocks without a matching block", i, t.procID(r.proc))
			}
			if ow.class != class || ow.obj != r.obj {
				return nil, fmt.Errorf("trace: event %d: proc %d unblocks from %s %q but blocked on %s %q",
					i, t.procID(r.proc), class, t.objs[r.obj], ow.class, t.objs[ow.obj])
			}
			waiting[r.proc] = openWait{}
			a.perProc[r.proc] = append(a.perProc[r.proc],
				interval{start: time.Duration(ow.start), end: time.Duration(r.at), class: class, obj: r.obj})
			if class != sim.WaitSleep {
				s := stat(lockKey(r), r)
				s.depth--
				d := time.Duration(r.at - ow.start)
				s.Waits++
				s.TotalWait += d
				if d > s.MaxWait {
					s.MaxWait = d
				}
				s.WaitHist.Add(d)
				if ow.blocker != 0 {
					if s.blockedBy == nil {
						s.blockedBy = make(map[int]time.Duration)
					}
					s.blockedBy[t.procID(ow.blocker)] += d
				}
			}
		case Acquire:
			k := lockKey(r)
			stat(k, r).Acquires++
			holds.push(r.proc, r.at, k)
			attribute(waiting, r)
		case Release:
			k := lockKey(r)
			start, ok := holds.pop(r.proc, k)
			if !ok {
				return nil, fmt.Errorf("trace: event %d: proc %d releases %s %q without holding it",
					i, t.procID(r.proc), class, t.objs[r.obj])
			}
			s := table[k]
			d := time.Duration(r.at - start)
			s.Holds++
			s.TotalHold += d
			if d > s.MaxHold {
				s.MaxHold = d
			}
			s.HoldHist.Add(d)
		case Wake:
			attribute(waiting, r)
		}
		i++
	}
	return a, nil
}

// lockKey returns the lock-table index of r's (object, class) pair.
func lockKey(r *record) int32 { return int32(r.obj)*int32(numClasses) + int32(r.class) }

// attribute records r's waker as the cause of its proc's open wait, when
// the proc is parked on r's (class, object).
func attribute(waiting []openWait, r *record) {
	if ow := &waiting[r.proc]; ow.class == sim.WaitClass(r.class) && ow.class != sim.WaitNone &&
		ow.obj == r.obj && r.waker != 0 {
		ow.blocker = r.waker
	}
}

// Profile returns the contention profile, worst first: descending total
// wait, then descending total hold, then name. Primitives that were
// acquired but never waited on still appear (with zero wait columns).
func (a *Analysis) Profile() []*LockStat {
	out := slices.Clone(a.locks)
	sort.Slice(out, func(i, j int) bool {
		if out[i].TotalWait != out[j].TotalWait {
			return out[i].TotalWait > out[j].TotalWait
		}
		if out[i].TotalHold != out[j].TotalHold {
			return out[i].TotalHold > out[j].TotalHold
		}
		return out[i].Name() < out[j].Name()
	})
	return out
}
