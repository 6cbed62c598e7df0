package cluster

import (
	"testing"

	"fastiov/internal/sim"
)

// TestBootCostIndependentOfVFCount pins that booting a host and restoring
// a boot snapshot cost O(1) heap allocations in the VF count: the VF pool,
// PCI devices and VFIO registrations live in per-host tables, and lock
// names are formatted on first read. Each case boots at 64 and at 256 VFs;
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
				k := sim.NewKernel(opts.Seed)
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
