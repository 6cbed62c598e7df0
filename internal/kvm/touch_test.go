package kvm

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"fastiov/internal/cost"
	"fastiov/internal/fastiovd"
	"fastiov/internal/hostmem"
	"fastiov/internal/sim"
)

// touchFn is a TouchRange implementation under comparison.
type touchFn func(vm *VM, p *sim.Proc, gpa, bytes int64, write bool) error

// refTouchRange is TouchRange as the per-page Touch loop it replaced: the
// reference the step chain must reproduce.
func refTouchRange(vm *VM, p *sim.Proc, gpa, bytes int64, write bool) error {
	ps := vm.mem.PageSize()
	start := gpa / ps * ps
	for a := start; a < gpa+bytes; a += ps {
		if err := vm.Touch(p, a, write); err != nil {
			return err
		}
	}
	return nil
}

// touchRig is one host for a TouchRange scenario: 64 pages of 2 MB, an
// optional fastiovd hook, and a log of every probe event plus the host's
// observable state at the end.
type touchRig struct {
	k   *sim.Kernel
	mem *hostmem.Allocator
	h   *KVM
	mod *fastiovd.Module
	vms []*VM
	log strings.Builder
}

const ps = hostmem.PageSize2M

func newTouchRig(maxRunPages, zeroStreams int64, hooked bool) *touchRig {
	r := &touchRig{k: sim.NewKernel()}
	cfg := hostmem.DefaultConfig()
	cfg.TotalBytes = 64 * ps
	cfg.MaxRunPages = maxRunPages
	cfg.ZeroStreams = zeroStreams
	c := cost.Default()
	r.mem = hostmem.New(r.k, cfg, c)
	r.h = New(r.k, r.mem, &c)
	if hooked {
		r.mod = fastiovd.New(r.k, r.mem, &c)
		r.h.Hook = r.mod
	}
	r.k.SetProbe(func(at time.Duration, ev sim.ProbeEvent) {
		waker := ""
		if ev.Waker != nil {
			waker = ev.Waker.Name()
		}
		fmt.Fprintf(&r.log, "%v %v %v %q %s %s %d\n", at, ev.Kind, ev.Class, ev.Obj, ev.Proc.Name(), waker, ev.N)
	})
	return r
}

// vm creates a VM with one slot of pages pages at GPA 0, backed by a fresh
// region unless demand is set.
func (r *touchRig) vm(p *sim.Proc, pages int64, demand bool) (*VM, *hostmem.Region) {
	vm := r.h.CreateVM()
	r.vms = append(r.vms, vm)
	var region *hostmem.Region
	if !demand {
		region, _ = r.mem.Allocate(p, pages*ps)
	}
	if _, err := vm.AddSlot("ram", 0, pages*ps, region); err != nil {
		panic(err)
	}
	return vm, region
}

// touch runs one range and logs its error.
func (r *touchRig) touch(touch touchFn, vm *VM, p *sim.Proc, gpa, bytes int64, write bool) {
	if err := touch(vm, p, gpa, bytes, write); err != nil {
		fmt.Fprintf(&r.log, "%v %s: %v\n", p.Now(), p.Name(), err)
	}
}

// ticker sleeps in EPT-fault-cost steps alongside the guest, so the guest's
// fault sleeps queue and tie with its wakes.
func (r *touchRig) ticker(n int) {
	r.k.Go("ticker", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			p.Sleep(r.h.costs.EPTFaultCost)
		}
	})
}

func (r *touchRig) result() string {
	r.k.Run()
	now, seq, procs := r.k.Clock()
	fmt.Fprintf(&r.log, "clock %v %d %d total-faults=%d violations=%d zeroed=%d digest=%x\n",
		now, seq, procs, r.h.TotalFaults, r.mem.Violations, r.mem.ZeroedBytes, r.mem.StateDigest())
	for _, vm := range r.vms {
		fmt.Fprintf(&r.log, "vm%d faults=%d hits=%d ept=%d\n", vm.PID, vm.Faults, vm.Hits, vm.EPTEntries())
	}
	if m := r.mod; m != nil {
		fmt.Fprintf(&r.log, "fastiovd lazy=%d scrub=%d corrupt=%d tracked=%d\n",
			m.LazyZeroed, m.ScrubZeroed, m.Corruptions, m.TrackedTotal())
	}
	return r.log.String()
}

// touchScenarios each build a host, drive it with the given TouchRange and
// return the rig's log.
var touchScenarios = map[string]func(touch touchFn) string{
	// One contiguous backed run with mixed page states: reads, writes,
	// hits on a second pass, and a ticker that makes every fault sleep
	// queue.
	"contiguous": func(touch touchFn) string {
		r := newTouchRig(0, 4, false)
		r.ticker(40)
		r.k.Go("guest", func(p *sim.Proc) {
			vm, region := r.vm(p, 16, false)
			r.mem.ZeroPage(p, region.Runs[0].Start+3)
			r.mem.WriteData(region.Runs[0].Start + 5)
			r.touch(touch, vm, p, 0, 8*ps, false)
			r.touch(touch, vm, p, 4*ps, 12*ps, true)
			r.touch(touch, vm, p, 0, 16*ps, false)
		})
		return r.result()
	},
	// A backed region fragmented into runs of at most 3 pages.
	"fragmented": func(touch touchFn) string {
		r := newTouchRig(3, 4, false)
		r.ticker(30)
		r.k.Go("guest", func(p *sim.Proc) {
			r.mem.Allocate(p, ps) // shift the runs off page 0
			vm, _ := r.vm(p, 20, false)
			r.touch(touch, vm, p, 0, 20*ps, true)
			r.touch(touch, vm, p, 2*ps, 6*ps, false)
		})
		return r.result()
	},
	// A demand-paged slot: every first touch allocates and zeroes on the
	// coroutine; pages the host wrote first are already allocated.
	"demand": func(touch touchFn) string {
		r := newTouchRig(0, 1, false)
		r.ticker(30)
		r.k.Go("guest", func(p *sim.Proc) {
			vm, _ := r.vm(p, 12, true)
			if err := vm.HostWrite(p, 2*ps, 3*ps); err != nil {
				panic(err)
			}
			r.touch(touch, vm, p, 0, 12*ps, false)
			r.touch(touch, vm, p, 0, 12*ps, true)
		})
		return r.result()
	},
	// fastiovd-hooked: a registered region the scrubber sweeps while the
	// guest faults through it (tracked pages zero on the fault path,
	// in-flight ones wait for the scrubber, scrubbed ones step), with one
	// zeroing stream so the scrubber and the fault path contend; a second
	// VM's instant-zeroed pages are never tracked.
	"hooked": func(touch touchFn) string {
		r := newTouchRig(0, 1, true)
		r.mod.StartScrubber(20*time.Microsecond, 2)
		r.k.Go("host", func(p *sim.Proc) {
			vm, region := r.vm(p, 24, false)
			r.mod.Register(p, vm.PID, region)
			other, oreg := r.vm(p, 6, false)
			r.mod.RegisterInstant(p, other.PID, oreg)
			for i, off := range []time.Duration{0, 30 * time.Microsecond, 150 * time.Microsecond} {
				r.k.Go(fmt.Sprintf("guest%d", i), func(q *sim.Proc) {
					q.Sleep(off)
					r.touch(touch, vm, q, int64(i)*8*ps, 8*ps, i%2 == 0)
					r.touch(touch, other, q, 0, 6*ps, true)
				})
			}
		})
		return r.result()
	},
	// Unaligned ranges: the first page is the one holding gpa, the last
	// the one holding gpa+bytes-1.
	"unaligned": func(touch touchFn) string {
		r := newTouchRig(0, 4, false)
		r.ticker(20)
		r.k.Go("guest", func(p *sim.Proc) {
			vm, _ := r.vm(p, 10, false)
			r.touch(touch, vm, p, ps/2, 3*ps, false)
			r.touch(touch, vm, p, 5*ps+1, 1, true)
			r.touch(touch, vm, p, 7*ps-1, 2, false)
		})
		return r.result()
	},
	// A range running off the end of guest memory fails at the first page
	// outside it, after touching the ones before.
	"out-of-range": func(touch touchFn) string {
		r := newTouchRig(0, 4, false)
		r.ticker(10)
		r.k.Go("guest", func(p *sim.Proc) {
			vm, _ := r.vm(p, 4, false)
			r.touch(touch, vm, p, 2*ps, 4*ps, false)
			r.touch(touch, vm, p, 0, 4*ps, true)
		})
		return r.result()
	},
	// Two procs touch one VM at once.
	"shared-vm": func(touch touchFn) string {
		r := newTouchRig(0, 4, false)
		r.k.Go("host", func(p *sim.Proc) {
			vm, _ := r.vm(p, 16, false)
			for i := 0; i < 2; i++ {
				r.k.Go(fmt.Sprintf("vcpu%d", i), func(q *sim.Proc) {
					r.touch(touch, vm, q, int64(i)*4*ps, 10*ps, i == 0)
				})
			}
		})
		return r.result()
	},
}

// TestTouchRangeMatchesTouchLoop runs every scenario with TouchRange and
// with the per-page Touch loop: the probe stream, the fault and hit counts,
// EPT entries, page states, violations and fastiovd's counters must match.
func TestTouchRangeMatchesTouchLoop(t *testing.T) {
	for name, run := range touchScenarios {
		t.Run(name, func(t *testing.T) {
			want, got := run(refTouchRange), run((*VM).TouchRange)
			if got == want {
				return
			}
			g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
			for i := 0; i < len(g) && i < len(w); i++ {
				if g[i] != w[i] {
					t.Fatalf("diverges at line %d:\n got: %s\nwant: %s", i, g[i], w[i])
				}
			}
			t.Fatalf("line counts differ: %d vs %d", len(g), len(w))
		})
	}
}

// TestEmptyRangeTouchesNothing: a range of zero or negative length touches
// no page, aligned or not, for guest and host writes alike.
func TestEmptyRangeTouchesNothing(t *testing.T) {
	for _, tc := range []struct {
		name       string
		gpa, bytes int64
	}{
		{"aligned-zero", 2 * ps, 0},
		{"unaligned-zero", 2*ps + 7, 0},
		{"unaligned-negative", 2*ps + 7, -ps},
		{"aligned-negative", 0, -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k, mem, h := newHost(16 * ps)
			k.Go("t", func(p *sim.Proc) {
				vm := h.CreateVM()
				if _, err := vm.AddSlot("ram", 0, 4*ps, nil); err != nil {
					t.Fatal(err)
				}
				if err := vm.TouchRange(p, tc.gpa, tc.bytes, true); err != nil {
					t.Fatal(err)
				}
				if err := vm.HostWrite(p, tc.gpa, tc.bytes); err != nil {
					t.Fatal(err)
				}
				if vm.Faults != 0 || vm.Hits != 0 || vm.EPTEntries() != 0 || h.DemandPages() != 0 {
					t.Errorf("faults=%d hits=%d ept=%d demand pages=%d, want none",
						vm.Faults, vm.Hits, vm.EPTEntries(), h.DemandPages())
				}
			})
			k.Run()
			if mem.FreePages() != 16 {
				t.Errorf("%d pages free, want all 16", mem.FreePages())
			}
		})
	}
}
