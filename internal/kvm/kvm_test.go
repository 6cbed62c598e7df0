package kvm

import (
	"testing"
	"time"

	"fastiov/internal/hostmem"
	"fastiov/internal/sim"
)

const mb = int64(1) << 20

func newHost(totalBytes int64) (*sim.Kernel, *hostmem.Allocator, *KVM) {
	k := sim.NewKernel(1)
	cfg := hostmem.DefaultConfig()
	cfg.TotalBytes = totalBytes
	mem := hostmem.New(k, cfg)
	return k, mem, New(k, mem)
}

func TestBackedSlotTranslation(t *testing.T) {
	k, mem, h := newHost(1 << 30)
	k.Go("t", func(p *sim.Proc) {
		region, err := mem.Allocate(p, 64*mb)
		if err != nil {
			t.Fatal(err)
		}
		mem.ZeroRegion(p, region)
		vm := h.CreateVM()
		if _, err := vm.AddSlot("ram", 0, 64*mb, region); err != nil {
			t.Fatal(err)
		}
		if err := vm.Touch(p, 4*mb, false); err != nil {
			t.Fatal(err)
		}
		if vm.Faults != 1 {
			t.Errorf("faults = %d, want 1", vm.Faults)
		}
		// Same page again: EPT hit.
		if err := vm.Touch(p, 4*mb+100, false); err != nil {
			t.Fatal(err)
		}
		if vm.Faults != 1 || vm.Hits != 1 {
			t.Errorf("faults=%d hits=%d, want 1/1", vm.Faults, vm.Hits)
		}
	})
	k.Run()
}

func TestFaultChargesCostOnceOnly(t *testing.T) {
	k, mem, h := newHost(1 << 30)
	k.Go("t", func(p *sim.Proc) {
		region, _ := mem.Allocate(p, 8*mb)
		mem.ZeroRegion(p, region)
		vm := h.CreateVM()
		vm.AddSlot("ram", 0, 8*mb, region)
		vm.Touch(p, 0, false)
		start := p.Now()
		for i := 0; i < 100; i++ {
			vm.Touch(p, 100, false) // hits
		}
		if p.Now() != start {
			t.Error("EPT hits should be free")
		}
	})
	k.Run()
}

func TestDemandSlotAllocatesAndZeroes(t *testing.T) {
	k, mem, h := newHost(1 << 30)
	var violations int
	k.Go("t", func(p *sim.Proc) {
		vm := h.CreateVM()
		vm.AddSlot("ram", 0, 32*mb, nil)
		free := mem.FreePages()
		if err := vm.TouchRange(p, 0, 8*mb, false); err != nil {
			t.Fatal(err)
		}
		if got := free - mem.FreePages(); got != 4 { // 8 MB = 4 x 2 MB pages
			t.Errorf("demand-allocated %d pages, want 4", got)
		}
		violations = mem.Violations
	})
	k.Run()
	if violations != 0 {
		t.Errorf("demand paging exposed %d dirty pages", violations)
	}
}

func TestGuestReadOfUnzeroedBackedPageIsViolation(t *testing.T) {
	// Passthrough with zeroing skipped entirely (no fastiovd): reading the
	// backed RAM leaks residual data. This is why vanilla VFIO zeroes
	// eagerly and why FastIOV must zero in the fault path.
	k, mem, h := newHost(1 << 30)
	k.Go("t", func(p *sim.Proc) {
		region, _ := mem.Allocate(p, 8*mb) // NOT zeroed
		vm := h.CreateVM()
		vm.AddSlot("ram", 0, 8*mb, region)
		vm.Touch(p, 0, false)
	})
	k.Run()
	if mem.Violations == 0 {
		t.Error("reading unzeroed backed memory should be a violation")
	}
}

// recordHook is a FaultHook that records every page it runs for and has
// work for every page.
type recordHook struct{ pages []int64 }

func (h *recordHook) OnEPTFault(_ *sim.Proc, _ int, hpa int64) { h.pages = append(h.pages, hpa) }
func (h *recordHook) FaultPending(int, int64) bool             { return true }

func TestFaultHookRuns(t *testing.T) {
	k, mem, h := newHost(1 << 30)
	hook := &recordHook{}
	h.Hook = hook
	k.Go("t", func(p *sim.Proc) {
		region, _ := mem.Allocate(p, 8*mb)
		mem.ZeroRegion(p, region)
		vm := h.CreateVM()
		vm.AddSlot("ram", 0, 8*mb, region)
		vm.TouchRange(p, 0, 8*mb, false)
		vm.TouchRange(p, 0, 8*mb, false) // second pass: hits, no hook
	})
	k.Run()
	if len(hook.pages) != 4 {
		t.Errorf("hook ran %d times, want 4", len(hook.pages))
	}
}

func TestSlotOverlapRejected(t *testing.T) {
	k, mem, h := newHost(1 << 30)
	k.Go("t", func(p *sim.Proc) {
		region, _ := mem.Allocate(p, 16*mb)
		vm := h.CreateVM()
		if _, err := vm.AddSlot("a", 0, 16*mb, region); err != nil {
			t.Fatal(err)
		}
		if _, err := vm.AddSlot("b", 8*mb, 8*mb, nil); err == nil {
			t.Error("overlapping slot accepted")
		}
		_ = mem
	})
	k.Run()
}

func TestTouchOutsideSlotsFails(t *testing.T) {
	k, _, h := newHost(1 << 30)
	k.Go("t", func(p *sim.Proc) {
		vm := h.CreateVM()
		vm.AddSlot("ram", 0, 8*mb, nil)
		if err := vm.Touch(p, 64*mb, false); err == nil {
			t.Error("touch outside slots should fail")
		}
	})
	k.Run()
}

func TestBackingTooSmallRejected(t *testing.T) {
	k, mem, h := newHost(1 << 30)
	k.Go("t", func(p *sim.Proc) {
		region, _ := mem.Allocate(p, 4*mb)
		vm := h.CreateVM()
		if _, err := vm.AddSlot("ram", 0, 64*mb, region); err == nil {
			t.Error("undersized backing accepted")
		}
	})
	k.Run()
}

func TestHostWriteMarksPages(t *testing.T) {
	k, mem, h := newHost(1 << 30)
	k.Go("t", func(p *sim.Proc) {
		region, _ := mem.Allocate(p, 8*mb)
		vm := h.CreateVM()
		vm.AddSlot("ram", 0, 8*mb, region)
		if err := vm.HostWrite(p, 0, 4*mb); err != nil {
			t.Fatal(err)
		}
		hpa, err := vm.ResolveHPA(p, 0)
		if err != nil {
			t.Fatal(err)
		}
		if mem.State(hpa) != hostmem.Written {
			t.Errorf("host-written page state = %v", mem.State(hpa))
		}
		// Host writes must not populate the EPT.
		if vm.EPTEntries() != 0 {
			t.Errorf("host write installed %d EPT entries", vm.EPTEntries())
		}
	})
	k.Run()
}

func TestGuestReadOfHostWrittenPageIsClean(t *testing.T) {
	// The guest reading kernel code the hypervisor loaded is legitimate.
	k, mem, h := newHost(1 << 30)
	k.Go("t", func(p *sim.Proc) {
		region, _ := mem.Allocate(p, 8*mb)
		vm := h.CreateVM()
		vm.AddSlot("ram", 0, 8*mb, region)
		vm.HostWrite(p, 0, 8*mb)
		vm.TouchRange(p, 0, 8*mb, false)
	})
	k.Run()
	if mem.Violations != 0 {
		t.Errorf("violations = %d", mem.Violations)
	}
}

func TestDestroyVMFreesDemandPages(t *testing.T) {
	k, mem, h := newHost(1 << 30)
	k.Go("t", func(p *sim.Proc) {
		before := mem.FreePages()
		vm := h.CreateVM()
		vm.AddSlot("ram", 0, 32*mb, nil)
		vm.TouchRange(p, 0, 32*mb, true)
		h.DestroyVM(p, vm)
		if mem.FreePages() != before {
			t.Errorf("demand pages leaked: %d vs %d", mem.FreePages(), before)
		}
	})
	k.Run()
}

func TestPIDsAreUnique(t *testing.T) {
	_, _, h := newHost(1 << 30)
	a, b := h.CreateVM(), h.CreateVM()
	if a.PID == b.PID {
		t.Error("duplicate PIDs")
	}
}

func TestEPTFaultCostCharged(t *testing.T) {
	k, mem, h := newHost(1 << 30)
	h.EPTFaultCost = time.Millisecond
	k.Go("t", func(p *sim.Proc) {
		region, _ := mem.Allocate(p, 8*mb)
		mem.ZeroRegion(p, region)
		vm := h.CreateVM()
		vm.AddSlot("ram", 0, 8*mb, region)
		start := p.Now()
		vm.TouchRange(p, 0, 8*mb, false) // 4 faults
		if got := p.Now() - start; got != 4*time.Millisecond {
			t.Errorf("fault cost = %v, want 4ms", got)
		}
	})
	k.Run()
}
