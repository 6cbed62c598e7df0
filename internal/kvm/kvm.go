// Package kvm models the KVM hypervisor module: per-VM memory slots, the
// Extended Page Table (EPT), and the EPT-violation path (§4.3.2, Fig. 9)
// that FastIOV intercepts to implement lazy zeroing.
//
// Address spaces follow the paper's Fig. 3: the guest uses GPAs; memory
// slots map GPA ranges to host regions (HPAs); the EPT caches GPA→HPA after
// the first touch of each page raises an EPT violation that KVM resolves.
// The HPA of a slot page is already fixed by the slot, so the EPT is stored
// as one present bit per slot page. A slot keeps its slot page → HPA page
// map in one run-length pagetab.Table: a backed slot's backing runs, merged
// where they are HPA-contiguous, or the pages demand paging has allocated
// so far. A fragmented 4 KiB region and a demand slot faulted in from
// consecutive host pages are each one run.
package kvm

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"fastiov/internal/hostmem"
	"fastiov/internal/pagetab"
	"fastiov/internal/sim"
)

// FaultHook is invoked on every EPT violation with the resolving HPA page,
// before the EPT entry is installed. fastiovd's Module is the hook: its
// lazy zeroing runs here (§5 "we modify the KVM module to trigger lazy
// zeroing before it inserts the EPT entry").
type FaultHook interface {
	// OnEPTFault runs during the violation of pid's access to hpaPage.
	OnEPTFault(p *sim.Proc, pid int, hpaPage int64)
	// FaultPending reports whether OnEPTFault has work for the page. It
	// must be exact: when it reports false, OnEPTFault would return
	// without any effect, and TouchRange skips the call.
	FaultPending(pid int, hpaPage int64) bool
}

// KVM is the hypervisor kernel module.
type KVM struct {
	k   *sim.Kernel
	mem *hostmem.Allocator

	// EPTFaultCost is the fixed vmexit + resolve + EPT-insert cost of one
	// violation (excluding any hook work such as lazy zeroing).
	EPTFaultCost time.Duration

	// Hook, when non-nil, runs during every EPT violation.
	Hook FaultHook

	// TotalFaults counts EPT violations across all VMs, live and exited —
	// the module-wide counter the metrics sampler reads.
	TotalFaults int

	nextPID int
	vms     map[int]*VM
	spare   []hostmem.Run // DestroyVM's scratch run list
}

// New creates the module.
func New(k *sim.Kernel, mem *hostmem.Allocator) *KVM {
	return &KVM{
		k:            k,
		mem:          mem,
		EPTFaultCost: 15 * time.Microsecond,
		vms:          make(map[int]*VM),
	}
}

// MemSlot maps a GPA range to backing memory. Backing == nil means the slot
// is demand-paged: pages are allocated (and zeroed by the host fault
// handler) on first touch — the non-passthrough fast path that SR-IOV's
// up-front DMA mapping forecloses (§3.2.3).
type MemSlot struct {
	Name    string
	GPABase int64
	Bytes   int64
	Backing *hostmem.Region

	// pages maps slot page index -> HPA page: the backing region's runs in
	// slot order, or the demand-allocated pages. first backs its first run.
	pages pagetab.Table
	first [1]pagetab.Run
	// mapped is the EPT present bit per slot page. A slot of at most 256
	// pages (every default-geometry slot) keeps its bits in bits.
	mapped []uint64
	bits   [4]uint64
}

// VM is one microVM as KVM sees it.
type VM struct {
	PID   int
	kvm   *KVM
	mem   *hostmem.Allocator
	slots []*MemSlot
	ept   int // installed EPT translations

	// first holds the first slots, one per guest region, and ptrs backs
	// slots, so a VM and its slots are one allocation.
	first [hostmem.GuestRegions]MemSlot
	ptrs  [hostmem.GuestRegions]*MemSlot

	// Faults counts EPT violations taken; Hits counts translations served
	// from the EPT without a fault. §6.5's "<1% overhead" argument rests on
	// Faults ≪ Hits for any real workload.
	Faults int
	Hits   int

	// touch is TouchRange's stepper, kept here so a range allocates
	// nothing.
	touch touchStepper
}

// CreateVM registers a new microVM and returns its handle. The PID is the
// host process id fastiovd uses as its first-tier hash key.
func (h *KVM) CreateVM() *VM {
	h.nextPID++
	vm := &VM{
		PID: h.nextPID,
		kvm: h,
		mem: h.mem,
	}
	vm.slots = vm.ptrs[:0]
	h.vms[vm.PID] = vm
	return vm
}

// DestroyVM removes the VM. Each demand slot's pages are freed in one
// Free call as runs sorted by HPA, merged where HPA-contiguous; backed
// regions are owned (and freed) by the VFIO/hypervisor layer.
func (h *KVM) DestroyVM(p *sim.Proc, vm *VM) {
	for _, s := range vm.slots {
		if s.Backing != nil || len(s.pages.Runs()) == 0 {
			continue
		}
		// Free may block on the zone lock, so the scratch list is taken
		// while it runs: a VM destroyed meanwhile builds its own.
		runs := h.spare[:0]
		h.spare = nil
		var pages int64
		for _, r := range s.pages.Runs() {
			runs = append(runs, hostmem.Run{Start: r.Val, Count: r.N})
			pages += r.N
		}
		slices.SortFunc(runs, func(a, b hostmem.Run) int { return cmp.Compare(a.Start, b.Start) })
		n := 0
		for _, r := range runs {
			if n > 0 && runs[n-1].Start+runs[n-1].Count == r.Start {
				runs[n-1].Count += r.Count
			} else {
				runs[n] = r
				n++
			}
		}
		h.mem.Free(p, &hostmem.Region{Runs: runs[:n], Bytes: pages * h.mem.PageSize()})
		h.spare = runs[:0]
		s.pages = pagetab.Table{}
	}
	delete(h.vms, vm.PID)
}

// LiveVMs returns the number of VMs created and not yet destroyed — a
// conservation input for host-wide leak audits.
func (h *KVM) LiveVMs() int { return len(h.vms) }

// DemandPages returns the total number of demand-faulted pages currently
// backing live VMs. DestroyVM returns them to the host allocator, so after
// a full teardown this must be zero.
func (h *KVM) DemandPages() int {
	total := 0
	for _, vm := range h.vms {
		for _, s := range vm.slots {
			if s.Backing == nil {
				total += int(s.pages.Len())
			}
		}
	}
	return total
}

// AddSlot attaches a memory slot. Slots must not overlap.
func (vm *VM) AddSlot(name string, gpaBase, bytes int64, backing *hostmem.Region) (*MemSlot, error) {
	ps := vm.mem.PageSize()
	if gpaBase%ps != 0 {
		return nil, fmt.Errorf("kvm: unaligned slot base %#x", gpaBase)
	}
	for _, s := range vm.slots {
		if gpaBase < s.GPABase+s.Bytes && s.GPABase < gpaBase+bytes {
			return nil, fmt.Errorf("kvm: slot %q overlaps %q", name, s.Name)
		}
	}
	pages := (bytes + ps - 1) / ps
	var slot *MemSlot
	if n := len(vm.slots); n < len(vm.first) {
		slot = &vm.first[n]
	} else {
		slot = new(MemSlot)
	}
	*slot = MemSlot{Name: name, GPABase: gpaBase, Bytes: bytes, Backing: backing}
	slot.pages = pagetab.With(slot.first[:])
	if words := (pages + 63) / 64; words <= int64(len(slot.bits)) {
		slot.mapped = slot.bits[:words]
	} else {
		slot.mapped = make([]uint64, words)
	}
	if backing != nil {
		if backing.PageCount()*ps < bytes {
			return nil, fmt.Errorf("kvm: backing region too small for slot %q", name)
		}
		var off int64
		for _, r := range backing.Runs {
			slot.pages.Insert(off, r.Start, r.Count)
			off += r.Count
		}
	}
	vm.slots = append(vm.slots, slot)
	return slot, nil
}

// hpaAt returns the HPA page backing page idx of a backed slot.
func (s *MemSlot) hpaAt(idx int64) int64 {
	hpa, _ := s.pages.Get(idx)
	return hpa
}

// present reports whether slot page idx has an EPT entry.
func (s *MemSlot) present(idx int64) bool { return s.mapped[idx>>6]&(1<<(idx&63)) != 0 }

// slotFor finds the slot containing gpa.
func (vm *VM) slotFor(gpa int64) (*MemSlot, error) {
	for _, s := range vm.slots {
		if gpa >= s.GPABase && gpa < s.GPABase+s.Bytes {
			return s, nil
		}
	}
	return nil, fmt.Errorf("kvm: GPA %#x outside guest memory (pid %d)", gpa, vm.PID)
}

// Touch models one guest access to gpa. On an EPT hit it is free (hardware
// translation). On a miss it takes the full violation path: resolve the
// HPA (allocating on demand for unbacked slots), run the fault hook (lazy
// zeroing), install the EPT entry, and charge the fault cost. Reads are
// checked against residual-data exposure (hostmem.GuestRead).
func (vm *VM) Touch(p *sim.Proc, gpa int64, write bool) error {
	slot, err := vm.slotFor(gpa)
	if err != nil {
		return err
	}
	idx := (gpa - slot.GPABase) / vm.mem.PageSize()
	hpa, ok := slot.pages.Get(idx)
	if !slot.present(idx) {
		if !ok {
			// Demand paging: the host fault handler allocates and zeroes
			// the page before mapping it (standard lazy zeroing, available
			// only without passthrough DMA).
			if hpa, err = vm.mem.AllocatePage(p); err != nil {
				return err
			}
			vm.mem.ZeroPage(p, hpa)
			slot.pages.Set(idx, hpa)
		}
		if vm.kvm.Hook != nil {
			vm.kvm.Hook.OnEPTFault(p, vm.PID, hpa)
		}
		vm.install(slot, idx)
		p.Sleep(vm.kvm.EPTFaultCost)
	} else {
		vm.Hits++
	}
	vm.access(hpa, write)
	return nil
}

// install enters a resolved violation of slot page idx into the EPT and
// the fault counters.
func (vm *VM) install(slot *MemSlot, idx int64) {
	if !slot.present(idx) {
		slot.mapped[idx>>6] |= 1 << (idx & 63)
		vm.ept++
	}
	vm.Faults++
	vm.kvm.TotalFaults++
}

// access is the guest's access to hpa once it is mapped.
func (vm *VM) access(hpa int64, write bool) {
	if write {
		vm.mem.WriteData(hpa)
	} else {
		vm.mem.GuestRead(hpa)
	}
}

// TouchRange touches every page in [gpa, gpa+bytes) exactly as Touch on
// each page in turn would. The pages run as a step chain (sim.Proc.Steps),
// so the fault sleeps of a range cost no coroutine switches; a page whose
// fault may block still goes through Touch. An empty range touches
// nothing.
func (vm *VM) TouchRange(p *sim.Proc, gpa, bytes int64, write bool) error {
	if bytes <= 0 {
		return nil
	}
	ps := vm.mem.PageSize()
	s := &vm.touch
	if s.owner != nil && !s.owner.Finished() {
		s = new(touchStepper) // another proc is mid-range on this VM
	}
	*s = touchStepper{vm: vm, owner: p, write: write, addr: gpa / ps * ps, end: gpa + bytes}
	for {
		p.Steps(s)
		if s.err != nil || s.addr >= s.end {
			break
		}
		if s.err = vm.Touch(p, s.addr, write); s.err != nil {
			break
		}
		s.addr += ps
	}
	s.owner = nil
	return s.err
}

// touchStepper runs TouchRange's pages as a sim.Stepper. An EPT hit, and a
// fault on a backed page that the hook has no work for, never block, so a
// step takes them inline and sleeps the fault cost between steps. A page
// whose fault may block — on a demand-paged slot, or one the hook has work
// for — ends the chain, and TouchRange takes it through Touch.
type touchStepper struct {
	vm    *VM
	owner *sim.Proc // the proc running the range; nil when free
	// addr is the next page to touch and end the end of the range; hpa is
	// the page whose access follows the fault sleep when faulted is set.
	addr, end int64
	hpa       int64
	err       error
	write     bool
	faulted   bool
}

// Step implements sim.Stepper.
func (s *touchStepper) Step() (time.Duration, bool) {
	vm := s.vm
	ps := vm.mem.PageSize()
	if s.faulted {
		s.faulted = false
		vm.access(s.hpa, s.write)
		s.addr += ps
	}
	for ; s.addr < s.end; s.addr += ps {
		slot, err := vm.slotFor(s.addr)
		if err != nil {
			s.err = err
			return 0, false
		}
		idx := (s.addr - slot.GPABase) / ps
		if slot.present(idx) {
			hpa, _ := slot.pages.Get(idx)
			vm.Hits++
			vm.access(hpa, s.write)
			continue
		}
		if slot.Backing == nil {
			return 0, false
		}
		hpa := slot.hpaAt(idx)
		if h := vm.kvm.Hook; h != nil && h.FaultPending(vm.PID, hpa) {
			return 0, false
		}
		vm.install(slot, idx)
		s.hpa, s.faulted = hpa, true
		return vm.kvm.EPTFaultCost, true
	}
	return 0, false
}

// HostWrite models the hypervisor writing into guest memory before or
// outside guest execution (BIOS/kernel image load, virtio backend buffer
// fill). Host writes use the host mapping directly — they do NOT take EPT
// faults (the first exception case of §4.3.2). The written pages are marked
// as holding live data; if fastiovd later zeroes one, that is the crash the
// instant-zeroing list exists to prevent.
func (vm *VM) HostWrite(p *sim.Proc, gpa, bytes int64) error {
	if bytes <= 0 {
		return nil
	}
	ps := vm.mem.PageSize()
	start := gpa / ps * ps
	for a := start; a < gpa+bytes; a += ps {
		hpa, err := vm.ResolveHPA(p, a)
		if err != nil {
			return err
		}
		vm.mem.WriteData(hpa)
	}
	return nil
}

// ResolveHPA translates a GPA to its HPA page through the slot tables
// (GPA→HVA→HPA in the paper's Fig. 9; we fold HVA into the slot lookup),
// allocating demand pages if needed.
func (vm *VM) ResolveHPA(p *sim.Proc, gpa int64) (int64, error) {
	ps := vm.mem.PageSize()
	slot, err := vm.slotFor(gpa)
	if err != nil {
		return 0, err
	}
	idx := (gpa - slot.GPABase) / ps
	if hpa, ok := slot.pages.Get(idx); ok {
		return hpa, nil
	}
	r, err := vm.mem.Allocate(p, ps)
	if err != nil {
		return 0, err
	}
	hpa := r.Runs[0].Start
	vm.mem.ZeroPage(p, hpa)
	slot.pages.Set(idx, hpa)
	return hpa, nil
}

// EPTEntries returns the number of installed translations.
func (vm *VM) EPTEntries() int { return vm.ept }
