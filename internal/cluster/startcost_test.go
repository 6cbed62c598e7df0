package cluster

import (
	"runtime"
	"testing"
)

// TestStartAllocsPerPod pins the heap allocations one pod start costs,
// teardown included: the mallocs of an audited StartupExperiment(40) less
// those of an audited StartupExperiment(20), each on a freshly booted host,
// over the 20 extra starts. Boot and per-run costs cancel out. The
// simulation allocates the same on every run, but Mallocs is process-wide
// and also counts the runtime's own allocations, which add a few now and
// then (one run in fifty read 40.2 instead of 38.05 for vanilla); each
// count is the least of three runs, which drops them. It does not depend
// on wall time, so a regression fails here and not only in the allocation
// gates of the benchmark job.
func TestStartAllocsPerPod(t *testing.T) {
	for _, c := range []struct {
		baseline string
		max      float64
	}{
		{BaselineVanilla, 25},
		{BaselineFastIOV, 27},
		{BaselineNoNet, 47},
	} {
		t.Run(c.baseline, func(t *testing.T) {
			opts, err := OptionsFor(c.baseline)
			if err != nil {
				t.Fatal(err)
			}
			opts.Audit = true
			run := func(n int) uint64 {
				h, err := NewHost(DefaultHostSpec(), opts)
				if err != nil {
					t.Fatal(err)
				}
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				res := h.StartupExperiment(n)
				runtime.ReadMemStats(&after)
				if res.Err != nil || !res.Leaks.Clean() {
					t.Fatalf("c=%d: err %v, leaks:\n%s", n, res.Err, res.Leaks)
				}
				return after.Mallocs - before.Mallocs
			}
			mallocs := func(n int) uint64 {
				return min(run(n), run(n), run(n))
			}
			perPod := float64(mallocs(40)-mallocs(20)) / 20
			t.Logf("%.2f allocations per start", perPod)
			if perPod > c.max {
				t.Errorf("%.2f allocations per start, want at most %v", perPod, c.max)
			}
		})
	}
}
