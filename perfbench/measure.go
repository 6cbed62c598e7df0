package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

// minIterations is the fewest measured iterations a run makes, however
// short --seconds is.
const minIterations = 3

// sample is one measured iteration.
type sample struct {
	setup, run time.Duration
	allocs     uint64
	allocBytes uint64
	retained   int64
	fp         []byte
	headline   string
	err        error
}

// measure runs one iteration: a forced GC outside the timed window, the
// set-up (setupReps times, median kept), the timed run bracketed by heap
// statistics, the output check, and a second forced GC with the result
// still reachable to find what it retains.
func measure(w *workload, e *env) sample {
	var s sample
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	base := ms.HeapAlloc

	var it iteration
	setups := make([]float64, 0, w.setupReps)
	for r := 0; r < w.setupReps; r++ {
		it = nil
		t0 := time.Now()
		it, s.err = w.setup(e)
		setups = append(setups, float64(time.Since(t0)))
		if s.err != nil {
			return s
		}
	}
	s.setup = time.Duration(median(setups))

	runtime.ReadMemStats(&ms)
	mallocs, total := ms.Mallocs, ms.TotalAlloc
	t0 := time.Now()
	s.err = it.run()
	s.run = time.Since(t0)
	runtime.ReadMemStats(&ms)
	s.allocs, s.allocBytes = ms.Mallocs-mallocs, ms.TotalAlloc-total
	if s.err != nil {
		return s
	}
	s.fp, s.err = it.check()
	s.headline = it.headline()

	runtime.GC()
	runtime.ReadMemStats(&ms)
	s.retained = int64(ms.HeapAlloc) - int64(base)
	runtime.KeepAlive(it)
	return s
}

// verifier checks every iteration's fingerprint against the recorded
// checksum and against the run's first iteration.
type verifier struct {
	want, first       string
	attempted, failed int
	headline          string
}

func (v *verifier) verify(s sample) {
	v.attempted++
	if s.err != nil {
		v.fail("iteration failed: %v", s.err)
		return
	}
	sum := checksum(s.fp)
	if v.first == "" {
		v.first, v.headline = sum, s.headline
	}
	switch {
	case sum != v.first:
		v.fail("fingerprint %s disagrees with the run's first iteration %s", sum, v.first)
	case sum != v.want:
		v.fail("fingerprint %s does not match the recorded checksum %q", sum, v.want)
	}
}

func (v *verifier) fail(format string, args ...any) {
	v.failed++
	if v.failed <= 3 {
		fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	}
}

func (v *verifier) print() {
	fmt.Printf("simulated: %s\n", v.headline)
	ratio := float64(v.failed) / float64(v.attempted)
	fmt.Printf("%-14s %g (%d of %d iterations)\n", "fail_ratio", ratio, v.failed, v.attempted)
	if v.failed == 0 {
		fmt.Printf("checksum       %s matches the recorded output\n", v.first)
	}
}

// plainRun measures the workload for the given time and reports the
// end-to-end metrics.
func plainRun(w *workload, e *env, seconds float64) (result, error) {
	if err := w.prepare(e); err != nil {
		return result{}, fmt.Errorf("prepare: %w", err)
	}
	v := &verifier{want: e.want}
	v.verify(measure(w, e)) // warm-up: checked, timings discarded

	var setup, run, allocs, allocMB, retainedMB []float64
	start := time.Now()
	for len(run) < minIterations || time.Since(start).Seconds() < seconds {
		s := measure(w, e)
		v.verify(s)
		setup = append(setup, s.setup.Seconds())
		run = append(run, s.run.Seconds())
		allocs = append(allocs, float64(s.allocs))
		allocMB = append(allocMB, float64(s.allocBytes)/1e6)
		retainedMB = append(retainedMB, float64(s.retained)/1e6)
	}

	v.print()
	out := result{Correct: v.failed == 0, Attempted: v.attempted, Failed: v.failed, Metrics: map[string]metric{}}
	for _, m := range []struct {
		name, unit string
		vals       []float64
	}{
		{"setup_s", "s", setup},
		{"run_s", "s", run},
		{"allocs", "count", allocs},
		{"alloc_mb", "MB", allocMB},
		{"retained_mb", "MB", retainedMB},
	} {
		printDist(m.name, m.unit, m.vals)
		out.Metrics[m.name] = metric{Value: median(m.vals), Unit: m.unit}
	}
	return out, nil
}

// printDist prints a metric's median plus the highest percentile that has
// at least ten samples beyond it, with the sample count.
func printDist(name, unit string, vals []float64) {
	line := fmt.Sprintf("%-14s median %.6g %s", name, median(vals), unit)
	for _, p := range []float64{99.9, 99, 95, 90, 75} {
		if float64(len(vals))*(1-p/100) >= 10 {
			line += fmt.Sprintf("  p%g %.6g %s", p, percentile(vals, p), unit)
			break
		}
	}
	fmt.Printf("%s  (n=%d)\n", line, len(vals))
}

func median(vals []float64) float64 { return percentile(vals, 50) }

// percentile interpolates linearly between the closest ranks; 0 for no
// values.
func percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}
