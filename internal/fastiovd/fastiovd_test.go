package fastiovd

import (
	"testing"
	"time"

	"fastiov/internal/cost"
	"fastiov/internal/hostmem"
	"fastiov/internal/kvm"
	"fastiov/internal/sim"
)

const mb = int64(1) << 20

type rig struct {
	k   *sim.Kernel
	mem *hostmem.Allocator
	h   *kvm.KVM
	mod *Module
}

// testCosts is the default cost model the tests charge; none edits it.
var testCosts = cost.Default()

func newRig() *rig {
	k := sim.NewKernel()
	cfg := hostmem.DefaultConfig()
	cfg.TotalBytes = 2 << 30
	mem := hostmem.New(k, cfg, testCosts)
	h := kvm.New(k, mem, &testCosts)
	mod := New(k, mem, &testCosts)
	h.Hook = mod
	return &rig{k: k, mem: mem, h: h, mod: mod}
}

func TestLazyZeroOnFirstFault(t *testing.T) {
	r := newRig()
	r.k.Go("t", func(p *sim.Proc) {
		region, _ := r.mem.Allocate(p, 16*mb)
		vm := r.h.CreateVM()
		vm.AddSlot("ram", 0, 16*mb, region)
		r.mod.Register(p, vm.PID, region)
		if r.mod.Tracked(vm.PID) != 8 {
			t.Fatalf("tracked %d pages, want 8", r.mod.Tracked(vm.PID))
		}
		// Guest reads everything: each first touch must zero just in time.
		if err := vm.TouchRange(p, 0, 16*mb, false); err != nil {
			t.Fatal(err)
		}
		if r.mod.Tracked(vm.PID) != 0 {
			t.Errorf("%d pages still tracked after full touch", r.mod.Tracked(vm.PID))
		}
	})
	r.k.Run()
	if r.mem.Violations != 0 {
		t.Errorf("lazy zeroing exposed %d dirty pages", r.mem.Violations)
	}
	if r.mod.LazyZeroed != 8 {
		t.Errorf("lazy-zeroed %d pages, want 8", r.mod.LazyZeroed)
	}
	if r.mod.Corruptions != 0 {
		t.Errorf("corruptions = %d", r.mod.Corruptions)
	}
}

func TestUntouchedPagesNeverZeroed(t *testing.T) {
	// The second benefit of lazy zeroing (§3.2.3): memory the app never
	// touches is never cleared at all.
	r := newRig()
	r.k.Go("t", func(p *sim.Proc) {
		region, _ := r.mem.Allocate(p, 32*mb)
		vm := r.h.CreateVM()
		vm.AddSlot("ram", 0, 32*mb, region)
		r.mod.Register(p, vm.PID, region)
		vm.TouchRange(p, 0, 8*mb, true) // touch only a quarter
	})
	r.k.Run()
	if r.mod.LazyZeroed != 4 {
		t.Errorf("lazy-zeroed %d pages, want 4", r.mod.LazyZeroed)
	}
	if r.mod.TrackedTotal() != 12 {
		t.Errorf("tracked = %d, want 12 untouched pages", r.mod.TrackedTotal())
	}
}

func TestRegistrationDefersZeroCost(t *testing.T) {
	// Registering must be orders of magnitude cheaper than zeroing: that
	// is the entire point of decoupling.
	r := newRig()
	var regCost, zeroCost time.Duration
	r.k.Go("t", func(p *sim.Proc) {
		regionA, _ := r.mem.Allocate(p, 512*mb)
		start := p.Now()
		r.mod.Register(p, 1, regionA)
		regCost = p.Now() - start

		regionB, _ := r.mem.Allocate(p, 512*mb)
		start = p.Now()
		r.mem.ZeroRegion(p, regionB)
		zeroCost = p.Now() - start
	})
	r.k.Run()
	if regCost*100 > zeroCost {
		t.Errorf("registration (%v) not ≪ zeroing (%v)", regCost, zeroCost)
	}
}

func TestInstantZeroingListPreventsCorruption(t *testing.T) {
	// Correct protocol: BIOS/kernel region goes on the instant-zeroing
	// list; the hypervisor writes it; guest boots and reads it. No page is
	// lazily zeroed after the hypervisor write → no corruption.
	r := newRig()
	r.k.Go("t", func(p *sim.Proc) {
		ram, _ := r.mem.Allocate(p, 16*mb)
		kernelRegion, _ := r.mem.Allocate(p, 8*mb)
		vm := r.h.CreateVM()
		vm.AddSlot("ram", 0, 16*mb, ram)
		vm.AddSlot("kernel", 16*mb, 8*mb, kernelRegion)
		r.mod.Register(p, vm.PID, ram)
		r.mod.RegisterInstant(p, vm.PID, kernelRegion)
		// Hypervisor loads the kernel image.
		vm.HostWrite(p, 16*mb, 8*mb)
		// Guest boots: reads kernel, touches RAM.
		vm.TouchRange(p, 16*mb, 8*mb, false)
		vm.TouchRange(p, 0, 16*mb, true)
	})
	r.k.Run()
	if r.mod.Corruptions != 0 {
		t.Errorf("corruptions = %d with instant-zeroing list", r.mod.Corruptions)
	}
	if r.mem.Violations != 0 {
		t.Errorf("violations = %d", r.mem.Violations)
	}
	if r.mod.InstantZeroed != 4 {
		t.Errorf("instant-zeroed %d pages, want 4", r.mod.InstantZeroed)
	}
}

func TestMissingInstantListCausesCorruption(t *testing.T) {
	// Negative test (the §4.3.2 crash): track the kernel region like
	// ordinary RAM, let the hypervisor write it, then boot. The first
	// guest fault lazily zeroes the freshly written kernel — corruption.
	r := newRig()
	r.k.Go("t", func(p *sim.Proc) {
		kernelRegion, _ := r.mem.Allocate(p, 8*mb)
		vm := r.h.CreateVM()
		vm.AddSlot("kernel", 0, 8*mb, kernelRegion)
		r.mod.Register(p, vm.PID, kernelRegion) // WRONG: no instant list
		vm.HostWrite(p, 0, 8*mb)
		vm.TouchRange(p, 0, 8*mb, false)
	})
	r.k.Run()
	if r.mod.Corruptions == 0 {
		t.Error("expected corruption when hypervisor-written pages are lazily zeroed")
	}
}

func TestProactiveFaultFencesVirtioWrite(t *testing.T) {
	// Para-virtualized transfer (§4.3.2 second exception): the frontend
	// proactively faults the shared buffer (a read of the first byte of
	// each page) BEFORE the backend writes file data. Then the backend
	// write lands on an already-zeroed page and no later zeroing occurs.
	r := newRig()
	r.k.Go("t", func(p *sim.Proc) {
		ram, _ := r.mem.Allocate(p, 16*mb)
		vm := r.h.CreateVM()
		vm.AddSlot("ram", 0, 16*mb, ram)
		r.mod.Register(p, vm.PID, ram)

		buf := int64(4 * mb) // shared buffer GPA
		// Frontend: proactive EPT faults over the buffer.
		vm.TouchRange(p, buf, 4*mb, false)
		// Backend: writes file data into the buffer (host-side write).
		vm.HostWrite(p, buf, 4*mb)
		// Guest reads the file data.
		vm.TouchRange(p, buf, 4*mb, false)
	})
	r.k.Run()
	if r.mod.Corruptions != 0 {
		t.Errorf("corruptions = %d with proactive faults", r.mod.Corruptions)
	}
	if r.mem.Violations != 0 {
		t.Errorf("violations = %d", r.mem.Violations)
	}
}

func TestMissingProactiveFaultCorruptsVirtioData(t *testing.T) {
	// Negative: backend writes first, THEN the guest's first touch faults
	// and fastiovd zeroes the freshly written file data.
	r := newRig()
	r.k.Go("t", func(p *sim.Proc) {
		ram, _ := r.mem.Allocate(p, 16*mb)
		vm := r.h.CreateVM()
		vm.AddSlot("ram", 0, 16*mb, ram)
		r.mod.Register(p, vm.PID, ram)
		vm.HostWrite(p, 4*mb, 4*mb)         // backend writes unfenced buffer
		vm.TouchRange(p, 4*mb, 4*mb, false) // guest read faults → zeroes data
	})
	r.k.Run()
	if r.mod.Corruptions == 0 {
		t.Error("expected corruption without proactive faults")
	}
}

func TestScrubberDrainsTable(t *testing.T) {
	r := newRig()
	r.mod.StartScrubber(time.Millisecond, 16)
	r.k.Go("t", func(p *sim.Proc) {
		region, _ := r.mem.Allocate(p, 64*mb)
		vm := r.h.CreateVM()
		vm.AddSlot("ram", 0, 64*mb, region)
		r.mod.Register(p, vm.PID, region)
		p.Sleep(100 * time.Millisecond)
	})
	r.k.Run()
	if r.mod.TrackedTotal() != 0 {
		t.Errorf("scrubber left %d pages tracked", r.mod.TrackedTotal())
	}
	if r.mod.ScrubZeroed != 32 {
		t.Errorf("scrub-zeroed %d pages, want 32", r.mod.ScrubZeroed)
	}
}

func TestScrubberAndFaultPathCompose(t *testing.T) {
	// Pages zeroed by the scrubber must not be re-zeroed by the fault path
	// and vice versa; the total equals the region page count.
	r := newRig()
	r.mod.StartScrubber(500*time.Microsecond, 2)
	r.k.Go("t", func(p *sim.Proc) {
		region, _ := r.mem.Allocate(p, 64*mb)
		vm := r.h.CreateVM()
		vm.AddSlot("ram", 0, 64*mb, region)
		r.mod.Register(p, vm.PID, region)
		// Slowly touch all pages while the scrubber races.
		for off := int64(0); off < 64*mb; off += 2 * mb {
			p.Sleep(300 * time.Microsecond)
			if err := vm.Touch(p, off, false); err != nil {
				t.Fatal(err)
			}
		}
	})
	r.k.Run()
	if got := r.mod.LazyZeroed + r.mod.ScrubZeroed; got != 32 {
		t.Errorf("lazy(%d)+scrub(%d) = %d, want 32", r.mod.LazyZeroed, r.mod.ScrubZeroed, got)
	}
	if r.mem.Violations != 0 {
		t.Errorf("violations = %d", r.mem.Violations)
	}
}

// TestWriteDuringZeroingIsCorruption: a write that lands on a claimed page
// while its zeroer holds membw is erased when the page is marked zeroed,
// so it counts as a corruption, as a write before the claim does; each
// zeroing counts at most once. The write stands for any store the
// protocol failed to fence (a hypervisor or device write).
func TestWriteDuringZeroingIsCorruption(t *testing.T) {
	// Zeroing one 2 MB page holds membw for about 195µs; the scrubber
	// claims its first page at 1ms.
	for _, c := range []struct {
		name    string
		scrub   bool
		writeAt time.Duration
	}{
		{"scrubber hold", true, time.Millisecond + 100*time.Microsecond},
		{"fault hold", false, 100 * time.Microsecond},
		{"before the claim", true, 500 * time.Microsecond},
	} {
		t.Run(c.name, func(t *testing.T) {
			r := newRig()
			if c.scrub {
				r.mod.StartScrubber(time.Millisecond, 1)
			}
			var page int64
			r.k.Go("guest", func(p *sim.Proc) {
				region, _ := r.mem.Allocate(p, 2*mb)
				page = region.Runs[0].Start
				vm := r.h.CreateVM()
				vm.AddSlot("ram", 0, 2*mb, region)
				r.mod.Register(p, vm.PID, region)
				if !c.scrub {
					if err := vm.Touch(p, 0, false); err != nil {
						t.Error(err)
					}
				}
				p.Sleep(5 * time.Millisecond) // outlive the scrubber's first pass
			})
			r.k.Go("writer", func(p *sim.Proc) {
				p.Sleep(c.writeAt)
				r.mem.WriteData(page)
			})
			r.k.Run()
			if r.mod.Corruptions != 1 {
				t.Errorf("corruptions = %d, want 1", r.mod.Corruptions)
			}
			if r.mod.LazyZeroed+r.mod.ScrubZeroed != 1 {
				t.Errorf("lazy(%d)+scrub(%d) zeroings, want 1", r.mod.LazyZeroed, r.mod.ScrubZeroed)
			}
		})
	}
}

// TestDaemonCrashWakesClaimWaiter: a guest fault waiting for the
// scrubber's claim on its page must not wait forever when the daemon dies
// mid-zero. The rolled-back claim wakes the fault, which zeroes the page
// before the guest reads it.
func TestDaemonCrashWakesClaimWaiter(t *testing.T) {
	r := newRig()
	r.mod.StartScrubber(time.Millisecond, 1)
	var vm *kvm.VM
	r.k.Go("register", func(p *sim.Proc) {
		region, _ := r.mem.Allocate(p, 4*mb)
		vm = r.h.CreateVM()
		vm.AddSlot("ram", 0, 4*mb, region)
		r.mod.Register(p, vm.PID, region)
	})
	touched := false
	// The scrubber wakes at 1 ms and holds membw for page 0 about 195us.
	r.k.Go("vcpu", func(p *sim.Proc) {
		p.Sleep(1050 * time.Microsecond)
		if err := vm.Touch(p, 0, false); err != nil {
			t.Error(err)
		}
		touched = true
	})
	r.k.Go("crash", func(p *sim.Proc) {
		p.Sleep(1100 * time.Microsecond)
		r.mod.CrashDaemon(p)
	})
	r.k.RunFor(50 * time.Millisecond)
	if !touched {
		t.Fatal("the fault still waits for a claim its dead zeroer rolled back")
	}
	if r.mod.LazyZeroed != 1 || r.mod.ScrubberRestarts != 1 {
		t.Errorf("lazy-zeroed %d, restarts %d; want the fault to zero the page after one crash",
			r.mod.LazyZeroed, r.mod.ScrubberRestarts)
	}
	if r.mem.Violations != 0 {
		t.Errorf("%d reads of residual data", r.mem.Violations)
	}
}

func TestReleaseDropsTable(t *testing.T) {
	r := newRig()
	r.k.Go("t", func(p *sim.Proc) {
		region, _ := r.mem.Allocate(p, 16*mb)
		r.mod.Register(p, 42, region)
		r.mod.Release(42)
	})
	r.k.Run()
	if r.mod.TrackedTotal() != 0 {
		t.Error("release left pages tracked")
	}
}

func TestTwoVMsTrackedIndependently(t *testing.T) {
	r := newRig()
	r.k.Go("t", func(p *sim.Proc) {
		ra, _ := r.mem.Allocate(p, 8*mb)
		rb, _ := r.mem.Allocate(p, 16*mb)
		vmA := r.h.CreateVM()
		vmB := r.h.CreateVM()
		vmA.AddSlot("ram", 0, 8*mb, ra)
		vmB.AddSlot("ram", 0, 16*mb, rb)
		r.mod.Register(p, vmA.PID, ra)
		r.mod.Register(p, vmB.PID, rb)
		if r.mod.Tracked(vmA.PID) != 4 || r.mod.Tracked(vmB.PID) != 8 {
			t.Fatalf("tracked A=%d B=%d", r.mod.Tracked(vmA.PID), r.mod.Tracked(vmB.PID))
		}
		vmA.TouchRange(p, 0, 8*mb, true)
		if r.mod.Tracked(vmA.PID) != 0 {
			t.Error("A still tracked")
		}
		if r.mod.Tracked(vmB.PID) != 8 {
			t.Error("touching A drained B's table")
		}
	})
	r.k.Run()
}

func TestFaultOnUntrackedPIDIsNoop(t *testing.T) {
	r := newRig()
	r.k.Go("t", func(p *sim.Proc) {
		region, _ := r.mem.Allocate(p, 8*mb)
		r.mem.ZeroRegion(p, region)
		vm := r.h.CreateVM()
		vm.AddSlot("ram", 0, 8*mb, region)
		// No Register call: fastiovd must pass faults through untouched.
		vm.TouchRange(p, 0, 8*mb, false)
	})
	r.k.Run()
	if r.mod.LazyZeroed != 0 {
		t.Errorf("lazy-zeroed %d pages for untracked VM", r.mod.LazyZeroed)
	}
}
