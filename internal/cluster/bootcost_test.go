package cluster

import (
	"runtime"
	"slices"
	"testing"

	"fastiov/internal/sim"
)

// TestBootCostIndependentOfVFCount pins that booting a host, directly or
// from a snapshot recipe, costs O(1) heap allocations in the VF count: the
// VF pool, PCI devices and VFIO registrations live in per-host tables, and
// lock names are formatted on first read. Each case boots at 64 and at 256 VFs;
// the allocation counts may differ by a small constant only.
func TestBootCostIndependentOfVFCount(t *testing.T) {
	const slack = 8
	specs := []struct {
		name      string
		baseline  string
		slotReset bool
	}{
		{"vanilla", BaselineVanilla, false},
		{"fastiov", BaselineFastIOV, false},
		{"slot-reset", BaselineVanilla, true},
	}
	boots := []struct {
		name string
		boot func(t *testing.T, spec HostSpec, opts Options) func()
	}{
		{"NewHost", func(t *testing.T, spec HostSpec, opts Options) func() {
			return func() {
				if _, err := NewHost(spec, opts); err != nil {
					t.Fatal(err)
				}
			}
		}},
		{"NewHostOn", func(t *testing.T, spec HostSpec, opts Options) func() {
			opts.Scope = "h007-"
			return func() {
				k := sim.NewKernel()
				if _, err := NewHostOn(k, sim.NewRand(sim.SplitSeed(opts.Seed, 7)), spec, opts); err != nil {
					t.Fatal(err)
				}
			}
		}},
		{"RestoreSnapshot", func(t *testing.T, spec HostSpec, opts Options) func() {
			h, err := NewHost(spec, opts)
			if err != nil {
				t.Fatal(err)
			}
			snap, err := CaptureSnapshot(h)
			if err != nil {
				t.Fatal(err)
			}
			return func() {
				if _, err := RestoreSnapshot(snap); err != nil {
					t.Fatal(err)
				}
			}
		}},
	}
	for _, sc := range specs {
		for _, bc := range boots {
			t.Run(sc.name+"/"+bc.name, func(t *testing.T) {
				opts, err := OptionsFor(sc.baseline)
				if err != nil {
					t.Fatal(err)
				}
				var allocs [2]float64
				for i, vfs := range []int{64, 256} {
					spec := DefaultHostSpec()
					spec.NumVFs = vfs
					spec.NIC.SlotReset = sc.slotReset
					allocs[i] = testing.AllocsPerRun(5, bc.boot(t, spec, opts))
				}
				if d := allocs[1] - allocs[0]; d > slack || d < -slack {
					t.Errorf("allocs at 64 VFs %v, at 256 VFs %v: differ by more than %d", allocs[0], allocs[1], slack)
				}
				if bc.name == "NewHost" && !sc.slotReset && allocs[1] > 100 {
					t.Errorf("NewHost on the default spec: %v allocs, want at most 100", allocs[1])
				}
			})
		}
	}
}

// TestBootBytesIndependentOfMemorySize pins that booting a host allocates
// no per-page state: content state lives in chunks allocated on a page's
// first transition away from Dirty, so NewHost's heap bytes may differ
// between a 16 GB, a 256 GB and a 1 TB host by less than 8 KB.
func TestBootBytesIndependentOfMemorySize(t *testing.T) {
	const slack = 8 << 10
	for _, baseline := range []string{BaselineVanilla, BaselineFastIOV} {
		t.Run(baseline, func(t *testing.T) {
			opts, err := OptionsFor(baseline)
			if err != nil {
				t.Fatal(err)
			}
			var bytes []float64
			for _, gb := range []int64{16, 256, 1024} {
				spec := DefaultHostSpec()
				spec.Memory.TotalBytes = gb << 30
				bytes = append(bytes, bytesPerRun(5, func() {
					if _, err := NewHost(spec, opts); err != nil {
						t.Fatal(err)
					}
				}))
			}
			if slices.Max(bytes)-slices.Min(bytes) >= slack {
				t.Errorf("NewHost bytes per boot at 16 GB, 256 GB, 1 TB: %.0f: differ by %d or more", bytes, slack)
			}
		})
	}
}

// bytesPerRun returns the average heap bytes one call of f allocates,
// measured on one P after a warm-up call, as testing.AllocsPerRun does for
// allocation counts.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestHostsHoldNoGoroutines pins that a host holds no goroutine for procs
// that have not run: a fastiov boot spawns the fastiovd scrubber, and a
// proc gets its coroutine only when the kernel first resumes it. Hosts
// booted and snapshotted but never run, and hosts whose run has returned,
// leave the goroutine count where it was.
func TestHostsHoldNoGoroutines(t *testing.T) {
	opts, err := OptionsFor(BaselineFastIOV)
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	for range 200 {
		h, err := NewHost(DefaultHostSpec(), opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := CaptureSnapshot(h); err != nil {
			t.Fatal(err)
		}
	}
	for range 3 {
		h, err := NewHost(DefaultHostSpec(), opts)
		if err != nil {
			t.Fatal(err)
		}
		h.StartupExperiment(5)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d goroutines left behind by 203 hosts", n-before)
	}
}
