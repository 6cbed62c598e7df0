package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"fastiov/internal/cluster"
	"fastiov/internal/fleet"
	"fastiov/internal/sim"
)

// --- spans ----------------------------------------------------------------

// span is one timed call into a layer's public API, made from the
// benchmark's own code. Spans of one iteration share Iter; Parent is the
// enclosing span (-1 for an iteration root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Iter   int    `json:"iter"`
	Name   string `json:"name"`
	Arg    string `json:"arg,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; they are written out when the run ends.
// Every method is a no-op on a nil tracer.
type tracer struct {
	t0    time.Time
	iter  int
	spans []span
	open  []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name, arg string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Iter: t.iter, Name: name, Arg: arg, Start: int64(time.Since(t.t0))})
	t.open = append(t.open, id)
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = int64(time.Since(t.t0))
	t.open = t.open[:len(t.open)-1]
}

// median returns the median duration in seconds of the spans named name
// (and, when arg is not empty, carrying arg); 0 when there are none.
func (t *tracer) median(name, arg string) float64 {
	var ds []float64
	for _, s := range t.spans {
		if s.Name == name && (arg == "" || s.Arg == arg) {
			ds = append(ds, s.dur().Seconds())
		}
	}
	return median(ds)
}

// printSummary prints, per span name, the call count, total time and self
// time (total minus the time covered by child spans).
func (t *tracer) printSummary() {
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.dur()
		}
	}
	type row struct {
		name        string
		n           int
		total, self time.Duration
	}
	rows := map[string]*row{}
	for _, s := range t.spans {
		r := rows[s.Name]
		if r == nil {
			r = &row{name: s.Name}
			rows[s.Name] = r
		}
		r.n++
		r.total += s.dur()
		r.self += s.dur() - child[s.ID]
	}
	var list []*row
	for _, r := range rows {
		list = append(list, r)
	}
	sort.Slice(list, func(i, j int) bool { return list[i].self > list[j].self })
	fmt.Printf("%-36s %8s %12s %12s\n", "span", "calls", "total_s", "self_s")
	for _, r := range list {
		fmt.Printf("%-36s %8d %12.6f %12.6f\n", r.name, r.n, r.total.Seconds(), r.self.Seconds())
	}
}

// write stores the spans as JSON lines next to the benchmark binary.
func (t *tracer) write(workload string, seed uint64) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	path := filepath.Join(filepath.Dir(exe), fmt.Sprintf("spans-%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("spans          %d written to %s\n", len(t.spans), path)
	return nil
}

// --- per-layer counters ----------------------------------------------------

// layers collects per-layer samples. acc accumulates into the current
// iteration's value, which flush turns into one sample; add records a
// sample directly. Every method is a no-op on a nil collector.
type layers struct {
	samples map[string][]float64
	cur     map[string]float64
}

func newLayers() *layers {
	return &layers{samples: map[string][]float64{}, cur: map[string]float64{}}
}

func (l *layers) add(name string, v float64) {
	if l != nil {
		l.samples[name] = append(l.samples[name], v)
	}
}

func (l *layers) acc(name string, v float64) {
	if l != nil {
		l.cur[name] += v
	}
}

func (l *layers) flush() {
	for k, v := range l.cur {
		l.add(k, v)
		delete(l.cur, k)
	}
}

func (l *layers) median(name string) float64 { return median(l.samples[name]) }

// kernelWatch counts one simulation kernel's events and procs from its
// Clock, and its blocks, acquires and wakes with a chained probe.
type kernelWatch struct {
	l              *layers
	k              *sim.Kernel
	seq0           uint64
	procs0         int
	block          [sim.WaitWG + 1]int64
	acquire, wakes int64
}

// watchKernel starts counting on k; it must be called before k runs. It
// returns nil outside a traced iteration.
func (e *env) watchKernel(k *sim.Kernel) *kernelWatch {
	if e.ls == nil {
		return nil
	}
	w := &kernelWatch{l: e.ls, k: k}
	_, w.seq0, w.procs0 = k.Clock()
	k.ChainProbe(func(_ sim.Duration, ev sim.ProbeEvent) {
		switch ev.Kind {
		case sim.ProbeBlock:
			if int(ev.Class) < len(w.block) {
				w.block[ev.Class]++
			}
		case sim.ProbeAcquire:
			w.acquire++
		case sim.ProbeWake:
			w.wakes++
		}
	})
	return w
}

func (w *kernelWatch) stop() {
	if w == nil {
		return
	}
	_, seq, procs := w.k.Clock()
	l := w.l
	l.acc("sim.events", float64(seq-w.seq0))
	l.acc("sim.procs", float64(procs-w.procs0))
	l.acc("sim.block.sleep", float64(w.block[sim.WaitSleep]))
	l.acc("sim.block.mutex", float64(w.block[sim.WaitMutex]+w.block[sim.WaitRWRead]+w.block[sim.WaitRWWrite]))
	l.acc("sim.block.resource", float64(w.block[sim.WaitResource]))
	l.acc("sim.block.queue", float64(w.block[sim.WaitQueue]))
	l.acc("sim.block.event", float64(w.block[sim.WaitEvent]))
	l.acc("sim.block.wg", float64(w.block[sim.WaitWG]))
	l.acc("sim.acquire", float64(w.acquire))
	l.acc("sim.wake", float64(w.wakes))
	w.k = nil
}

// allocWatch counts the heap allocations of one call.
type allocWatch struct {
	l       *layers
	name    string
	mallocs uint64
}

func (e *env) watchAllocs(name string) *allocWatch {
	if e.ls == nil {
		return nil
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return &allocWatch{l: e.ls, name: name, mallocs: ms.Mallocs}
}

func (w *allocWatch) stop() {
	if w == nil {
		return
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	w.l.acc(w.name, float64(ms.Mallocs-w.mallocs))
}

// --- placement timing ------------------------------------------------------

// timedSched counts and times a fleet scheduler's Place calls.
type timedSched struct {
	fleet.Scheduler
	calls int
	busy  time.Duration
}

func (t *timedSched) Place(hosts []fleet.HostState) (int, error) {
	t0 := time.Now()
	i, err := t.Scheduler.Place(hosts)
	t.busy += time.Since(t0)
	t.calls++
	return i, err
}

// timedScorer is a timedSched over a policy that also scores hosts: the
// fleet attaches scores to journey placement spans only when its scheduler
// implements fleet.Scorer, so the wrapper must too, exactly then.
type timedScorer struct {
	*timedSched
	fleet.Scorer
}

func wrapScheduler(s fleet.Scheduler) (fleet.Scheduler, *timedSched) {
	t := &timedSched{Scheduler: s}
	if sc, ok := s.(fleet.Scorer); ok {
		return timedScorer{t, sc}, t
	}
	return t, t
}

// timePlacement wraps f's scheduler in a traced iteration.
func (e *env) timePlacement(f *fleet.Fleet) {
	if !e.wrapSched {
		return
	}
	var t *timedSched
	f.Sched, t = wrapScheduler(f.Sched)
	e.scheds = append(e.scheds, t)
}

// --- the traced run ----------------------------------------------------------

// tracedRun reports per-layer metrics. Its time is split into phases: plain
// and traced iterations alternate (the difference in run_s is the tracing
// overhead), then the workload's own extra measurements run, then plain
// iterations run under the CPU profiler. Every iteration's output is
// checked, so the tracing wrappers are shown not to change it.
func tracedRun(w *workload, e *env, seconds float64) (result, error) {
	tr, ls := newTracer(), newLayers()
	setTraced := func(on bool) {
		if on {
			e.tr, e.ls, e.wrapSched = tr, ls, true
		} else {
			e.tr, e.ls, e.wrapSched = nil, nil, false
		}
	}
	start := time.Now()
	until := func(frac float64) time.Time {
		return start.Add(time.Duration(frac * seconds * float64(time.Second)))
	}
	v := &verifier{want: e.want}

	// Boot: prepare repeats so boot-path spans have a median.
	setTraced(true)
	tr.iter = -1
	for i := 0; i < 3; i++ {
		if err := w.prepare(e); err != nil {
			return result{}, fmt.Errorf("prepare: %w", err)
		}
	}
	setTraced(false)
	v.verify(measure(w, e)) // warm-up

	var plainRuns, tracedRuns []float64
	for len(tracedRuns) == 0 || time.Now().Before(until(0.45)) {
		s := measure(w, e)
		v.verify(s)
		plainRuns = append(plainRuns, s.run.Seconds())

		setTraced(true)
		tr.iter++
		root := tr.begin("iteration", w.name)
		s = measure(w, e)
		tr.end(root)
		setTraced(false)
		v.verify(s)
		tracedRuns = append(tracedRuns, s.run.Seconds())
		if ev := ls.cur["sim.events"]; ev > 0 {
			ls.acc("sim.ns_per_event", float64(s.run.Nanoseconds())/ev)
		}
		var calls int
		var busy time.Duration
		for _, t := range e.scheds {
			calls += t.calls
			busy += t.busy
		}
		e.scheds = nil
		if calls > 0 {
			ls.acc("fleet.place_calls", float64(calls))
			ls.acc("fleet.place_s", busy.Seconds())
			ls.acc("fleet.place_ns_per_call", float64(busy.Nanoseconds())/float64(calls))
		}
		ls.flush()
	}
	overhead := median(tracedRuns) - median(plainRuns)
	ls.add("bench.overhead_s", overhead)
	ls.add("bench.overhead_pct", 100*overhead/median(plainRuns))

	if w.extras != nil {
		if err := w.extras(e, ls, v, until(0.75)); err != nil {
			return result{}, err
		}
	}

	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return result{}, err
	}
	for n := 0; n == 0 || time.Now().Before(until(1)); n++ {
		v.verify(once(w, e))
	}
	pprof.StopCPUProfile()
	fold, err := foldProfile(prof.Bytes())
	if err != nil {
		return result{}, err
	}

	v.print()
	tr.printSummary()
	if err := tr.write(w.name, e.simSeed); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
	}
	out := result{Correct: v.failed == 0, Attempted: v.attempted, Failed: v.failed, Metrics: map[string]metric{}}
	for _, m := range perLayerMetrics() {
		val := m.value(tr, ls, fold)
		out.Metrics[m.name] = metric{Value: val, Unit: m.unit}
	}
	fmt.Printf("profile        %d samples at 100 Hz\n", fold.samples)
	return out, nil
}

// once runs one untimed iteration without the forced collections and heap
// reads measure makes, for profiling.
func once(w *workload, e *env) sample {
	var s sample
	var it iteration
	if it, s.err = w.setup(e); s.err != nil {
		return s
	}
	if s.err = it.run(); s.err != nil {
		return s
	}
	s.fp, s.err = it.check()
	s.headline = it.headline()
	return s
}

// hostWorkCounts boots each baseline with the metrics registry on, runs the
// c=200 wave once, and records the registry's final work counts. These are
// the simulated work the host layers do: the bases for per-unit ratios,
// which must never move under a pure speed-up.
func hostWorkCounts(e *env, ls *layers) error {
	for _, b := range baselines {
		opts, err := cluster.OptionsFor(b)
		if err != nil {
			return err
		}
		opts.Seed = e.simSeed
		opts.Metrics = true
		h, err := cluster.NewHost(cluster.DefaultHostSpec(), opts)
		if err != nil {
			return err
		}
		res := h.StartupExperiment(hostC200N)
		if res.Err != nil {
			return res.Err
		}
		reg := res.Metrics
		ls.acc("fastiovd.lazy_zeroed", reg.Final("fastiovd_lazy_zeroed_total"))
		ls.acc("fastiovd.scrub_zeroed", reg.Final("fastiovd_scrub_zeroed_total"))
		ls.acc("fastiovd.instant_zeroed", reg.Final("fastiovd_instant_zeroed_total"))
		ls.acc("kvm.ept_violations", reg.Final("kvm_ept_violations_total"))
		ls.acc("hostmem.zeroed_bytes", reg.Final(cluster.MetricZeroedBytes))
		if peak := reg.Final(cluster.MetricDevsetQueuePeak); peak > ls.cur["vfio.devset_queue_peak"] {
			ls.cur["vfio.devset_queue_peak"] = peak
		}
	}
	ls.flush()
	return nil
}
