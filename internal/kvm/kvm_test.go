package kvm

import (
	"fmt"
	"testing"
	"time"

	"fastiov/internal/cost"
	"fastiov/internal/hostmem"
	"fastiov/internal/iommu"
	"fastiov/internal/sim"
)

const mb = int64(1) << 20

func newHost(totalBytes int64) (*sim.Kernel, *hostmem.Allocator, *KVM) {
	k := sim.NewKernel()
	cfg := hostmem.DefaultConfig()
	cfg.TotalBytes = totalBytes
	c := cost.Default()
	mem := hostmem.New(k, cfg, c)
	return k, mem, New(k, mem, &c)
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

// A slot backed by a fragmented region must resolve every page, in any
// order, to the page the flattened region holds at that index.
func TestFragmentedSlotLookup(t *testing.T) {
	runs := []hostmem.Run{{Start: 40, Count: 3}, {Start: 7, Count: 1}, {Start: 100, Count: 5}, {Start: 12, Count: 2}}
	var flat []int64
	for _, r := range runs {
		for pg := r.Start; pg < r.Start+r.Count; pg++ {
			flat = append(flat, pg)
		}
	}
	c := cost.Default()
	vm := &VM{mem: hostmem.New(sim.NewKernel(), hostmem.DefaultConfig(), c)}
	slot, err := vm.AddSlot("ram", 0, int64(len(flat))*hostmem.PageSize2M, &hostmem.Region{Runs: runs})
	if err != nil {
		t.Fatal(err)
	}
	for _, idx := range []int{0, 1, 2, 3, 4, 8, 9, 10, 5, 3, 0, 10, 7, 6, 2, 9} {
		if got := slot.hpaAt(int64(idx)); got != flat[idx] {
			t.Errorf("hpaAt(%d) = %d, want %d", idx, got, flat[idx])
		}
	}
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
	h.costs.EPTFaultCost = time.Millisecond
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

// The last page of a slot whose page count is not a multiple of 64 (the
// default 48 MB firmware slot: 24 pages) faults once, then hits, through
// Touch and TouchRange alike; the page after it is outside guest memory.
func TestLastPageOfOddSlotFaultsOnceThenHits(t *testing.T) {
	k, mem, h := newHost(1 << 30)
	hook := &recordHook{}
	k.Go("t", func(p *sim.Proc) {
		ps := mem.PageSize()
		const fwBase, fwBytes = 64 * mb, 48 * mb
		ram, _ := mem.Allocate(p, 64*mb)
		fw, _ := mem.Allocate(p, fwBytes)
		mem.ZeroRegion(p, fw)
		vm := h.CreateVM()
		if _, err := vm.AddSlot("ram", 0, 64*mb, ram); err != nil {
			t.Fatal(err)
		}
		if _, err := vm.AddSlot("firmware", fwBase, fwBytes, fw); err != nil {
			t.Fatal(err)
		}
		last := fw.Runs[len(fw.Runs)-1]
		lastHPA := last.Start + last.Count - 1
		h.Hook = hook
		if err := vm.Touch(p, fwBase+fwBytes-1, false); err != nil {
			t.Fatal(err)
		}
		if err := vm.Touch(p, fwBase+fwBytes-ps, true); err != nil {
			t.Fatal(err)
		}
		if vm.Faults != 1 || vm.Hits != 1 || vm.EPTEntries() != 1 {
			t.Errorf("faults=%d hits=%d ept=%d, want 1/1/1", vm.Faults, vm.Hits, vm.EPTEntries())
		}
		if len(hook.pages) != 1 || hook.pages[0] != lastHPA {
			t.Errorf("hook ran for %v, want [%d]", hook.pages, lastHPA)
		}
		if mem.State(lastHPA) != hostmem.Written {
			t.Errorf("last page state %v after the guest write", mem.State(lastHPA))
		}
		h.Hook = nil
		if err := vm.TouchRange(p, fwBase, fwBytes, false); err != nil {
			t.Fatal(err)
		}
		if vm.Faults != 24 || vm.Hits != 2 || vm.EPTEntries() != 24 {
			t.Errorf("after the range: faults=%d hits=%d ept=%d, want 24/2/24", vm.Faults, vm.Hits, vm.EPTEntries())
		}
		if err := vm.Touch(p, fwBase+fwBytes, false); err == nil {
			t.Error("touching the page after the firmware slot should fail")
		}
	})
	k.Run()
	if mem.Violations != 0 {
		t.Errorf("violations = %d", mem.Violations)
	}
}

// A demand page first allocated by a host write takes exactly one EPT
// fault on the guest's first touch, for the page the host wrote, and is
// neither reallocated nor zeroed again.
func TestHostWrittenDemandPageFaultsOnce(t *testing.T) {
	k, mem, h := newHost(1 << 30)
	hook := &recordHook{}
	h.Hook = hook
	k.Go("t", func(p *sim.Proc) {
		ps := mem.PageSize()
		vm := h.CreateVM()
		if _, err := vm.AddSlot("ram", 0, 32*mb, nil); err != nil {
			t.Fatal(err)
		}
		if err := vm.HostWrite(p, 2*ps, ps); err != nil {
			t.Fatal(err)
		}
		hpa, err := vm.ResolveHPA(p, 2*ps)
		if err != nil {
			t.Fatal(err)
		}
		if vm.Faults != 0 || vm.EPTEntries() != 0 {
			t.Errorf("host write took faults=%d ept=%d", vm.Faults, vm.EPTEntries())
		}
		for i := 0; i < 2; i++ {
			if err := vm.Touch(p, 2*ps+5, false); err != nil {
				t.Fatal(err)
			}
		}
		if vm.Faults != 1 || vm.Hits != 1 || vm.EPTEntries() != 1 {
			t.Errorf("faults=%d hits=%d ept=%d, want 1/1/1", vm.Faults, vm.Hits, vm.EPTEntries())
		}
		if len(hook.pages) != 1 || hook.pages[0] != hpa {
			t.Errorf("hook ran for %v, want [%d]", hook.pages, hpa)
		}
		if mem.State(hpa) != hostmem.Written || h.DemandPages() != 1 {
			t.Errorf("state %v, demand pages %d; want written, 1", mem.State(hpa), h.DemandPages())
		}
	})
	k.Run()
	if mem.Violations != 0 {
		t.Errorf("violations = %d", mem.Violations)
	}
}

// EPTEntries counts the translations installed by Touch and by TouchRange,
// on backed and demand slots, each page once.
func TestEPTEntriesCountsTouchAndTouchRange(t *testing.T) {
	k, mem, h := newHost(1 << 30)
	k.Go("t", func(p *sim.Proc) {
		ps := mem.PageSize()
		region, _ := mem.Allocate(p, 8*ps)
		mem.ZeroRegion(p, region)
		vm := h.CreateVM()
		if _, err := vm.AddSlot("ram", 0, 8*ps, region); err != nil {
			t.Fatal(err)
		}
		if _, err := vm.AddSlot("image", 8*ps, 8*ps, nil); err != nil {
			t.Fatal(err)
		}
		steps := []struct {
			touch     func() error
			wantTotal int
		}{
			{func() error { return vm.Touch(p, ps, false) }, 1},
			{func() error { return vm.TouchRange(p, 0, 4*ps, true) }, 4},
			{func() error { return vm.TouchRange(p, 7*ps, 3*ps, false) }, 7},
			{func() error { return vm.Touch(p, 9*ps, true) }, 7},
			{func() error { return vm.Touch(p, 15*ps, false) }, 8},
			{func() error { return vm.TouchRange(p, 0, 16*ps, false) }, 16},
		}
		for i, s := range steps {
			if err := s.touch(); err != nil {
				t.Fatal(err)
			}
			if got := vm.EPTEntries(); got != s.wantTotal {
				t.Errorf("step %d: EPTEntries = %d, want %d", i, got, s.wantTotal)
			}
		}
		if vm.Faults != 16 {
			t.Errorf("faults = %d, want 16", vm.Faults)
		}
	})
	k.Run()
}

// A guest of fragmented 4 KiB pages (every region cut into 16-page
// pieces) holds one run per region in its IOMMU domain and in each slot,
// since the pieces are HPA-contiguous; every page still translates to the
// page the flattened region holds there.
func TestFragmentedMappingKeepsOneRunPerRange(t *testing.T) {
	k := sim.NewKernel()
	cfg := hostmem.DefaultConfig()
	cfg.TotalBytes = 4096 * hostmem.PageSize4K
	cfg.PageSize = hostmem.PageSize4K
	cfg.MaxRunPages = 16
	c := cost.Default()
	mem := hostmem.New(k, cfg, c)
	h := New(k, mem, &c)
	u := iommu.New(k, mem.PageSize(), &c)
	const ps = hostmem.PageSize4K
	k.Go("t", func(p *sim.Proc) {
		vm, dom := h.CreateVM(), u.CreateDomain()
		var gpa int64
		var flat []int64 // the per-page reference, by GPA page
		for i, pages := range []int64{300, 100, 37} {
			r, err := mem.Allocate(p, pages*ps)
			if err != nil {
				t.Fatal(err)
			}
			if want := int((pages + 15) / 16); len(r.Runs) != want {
				t.Fatalf("region %d: %d pieces, want %d", i, len(r.Runs), want)
			}
			for _, run := range r.Runs {
				for pg := run.Start; pg < run.Start+run.Count; pg++ {
					flat = append(flat, pg)
				}
			}
			if err := dom.Map(p, gpa, r); err != nil {
				t.Fatal(err)
			}
			slot, err := vm.AddSlot(fmt.Sprint("region", i), gpa, pages*ps, r)
			if err != nil {
				t.Fatal(err)
			}
			if runs := slot.pages.Runs(); len(runs) != 1 || slot.pages.Check() != nil {
				t.Errorf("region %d: slot runs %v (%v), want one", i, runs, slot.pages.Check())
			}
			gpa += pages * ps
			if _, err := mem.Allocate(p, ps); err != nil { // keep the regions apart in HPA
				t.Fatal(err)
			}
		}
		if len(dom.Runs()) != 3 {
			t.Errorf("domain runs %v, want one per region", dom.Runs())
		}
		for idx, want := range flat {
			g := int64(idx) * ps
			if hpa, err := dom.Translate(g + 5); err != nil || hpa != want*ps+5 {
				t.Fatalf("Translate(%#x) = %#x, %v; want %#x", g+5, hpa, err, want*ps+5)
			}
			slot, err := vm.slotFor(g)
			if err != nil {
				t.Fatal(err)
			}
			if got := slot.hpaAt((g - slot.GPABase) / ps); got != want {
				t.Fatalf("hpaAt of GPA page %d = %d, want %d", idx, got, want)
			}
		}
	})
	k.Run()
}

// Faulting in a 16-page demand slot from consecutive host pages, as a
// fastiov guest's image slot is, keeps one run in the slot itself: the
// touch allocates nothing.
func TestDemandSlotTouchAllocatesNothing(t *testing.T) {
	k, _, h := newHost(1 << 30)
	const pages = 16
	var vms []*VM
	for range 8 {
		vm := h.CreateVM()
		if _, err := vm.AddSlot("image", 0, pages*hostmem.PageSize2M, nil); err != nil {
			t.Fatal(err)
		}
		vms = append(vms, vm)
	}
	k.Go("t", func(p *sim.Proc) {
		next := 0
		allocs := testing.AllocsPerRun(5, func() {
			vm := vms[next]
			next++
			if err := vm.TouchRange(p, 0, pages*hostmem.PageSize2M, true); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("touching a %d-page demand slot: %v allocs, want 0", pages, allocs)
		}
		if runs := vms[next-1].slots[0].pages.Runs(); len(runs) != 1 || runs[0].N != pages {
			t.Errorf("demand slot runs %v, want one of %d pages", runs, pages)
		}
	})
	k.Run()
}
