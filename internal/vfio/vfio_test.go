package vfio

import (
	"testing"
	"time"

	"fastiov/internal/cost"
	"fastiov/internal/hostmem"
	"fastiov/internal/iommu"
	"fastiov/internal/nic"
	"fastiov/internal/pci"
	"fastiov/internal/sim"
)

// rig bundles a small host: 1 GB RAM, one NIC with nVFs VFs pre-bound to
// vfio-pci, and a VFIO driver in the given mode.
type rig struct {
	k    *sim.Kernel
	topo *pci.Topology
	mem  *hostmem.Allocator
	mmu  *iommu.IOMMU
	drv  *Driver
	vds  []*Device
}

func newRig(t *testing.T, mode LockMode, nVFs int) *rig {
	t.Helper()
	k := sim.NewKernel()
	c := cost.Default()
	topo := pci.NewTopology()
	memCfg := hostmem.DefaultConfig()
	memCfg.TotalBytes = 8 << 30
	mem := hostmem.New(k, memCfg, c)
	mmu := iommu.New(k, mem.PageSize(), &c)
	card := nic.New(k, topo, nic.DefaultConfig(), &c)
	if err := card.CreateVFs(nVFs, topo); err != nil {
		t.Fatal(err)
	}
	drv := New(k, topo, mem, mmu, mode, &c)
	r := &rig{k: k, topo: topo, mem: mem, mmu: mmu, drv: drv}
	for _, vf := range card.VFs() {
		vf.Dev.BindBoot("vfio-pci")
		vd, err := drv.Register(vf.Dev)
		if err != nil {
			t.Fatal(err)
		}
		r.vds = append(r.vds, vd)
	}
	return r
}

func TestBusResetDevicesShareDevset(t *testing.T) {
	r := newRig(t, LockGlobal, 8)
	set := r.vds[0].Set
	for _, vd := range r.vds {
		if vd.Set != set {
			t.Fatal("bus-reset VFs should share one devset")
		}
	}
	if len(set.Devices()) != 8 {
		t.Errorf("devset has %d devices, want 8", len(set.Devices()))
	}
}

func TestSlotResetDevicesGetOwnDevset(t *testing.T) {
	k := sim.NewKernel()
	c := cost.Default()
	topo := pci.NewTopology()
	mem := hostmem.New(k, hostmem.Config{TotalBytes: 1 << 30, PageSize: hostmem.PageSize2M, ZeroStreams: 1}, c)
	mmu := iommu.New(k, mem.PageSize(), &c)
	drv := New(k, topo, mem, mmu, LockGlobal, &c)
	var sets []*DevSet
	for i := 0; i < 3; i++ {
		d := topo.AddDevice(&pci.Device{Addr: pci.BDF{Bus: 1, Dev: i, Fn: 0}, Reset: pci.ResetSlot})
		d.BindBoot("vfio-pci")
		vd, err := drv.Register(d)
		if err != nil {
			t.Fatal(err)
		}
		sets = append(sets, vd.Set)
	}
	if sets[0] == sets[1] || sets[1] == sets[2] {
		t.Error("slot-reset devices must form singleton devsets")
	}
}

func TestRegisterRequiresVFIODriver(t *testing.T) {
	k := sim.NewKernel()
	c := cost.Default()
	topo := pci.NewTopology()
	mem := hostmem.New(k, hostmem.Config{TotalBytes: 1 << 30, PageSize: hostmem.PageSize2M, ZeroStreams: 1}, c)
	drv := New(k, topo, mem, iommu.New(k, mem.PageSize(), &c), LockGlobal, &c)
	d := topo.AddDevice(&pci.Device{Addr: pci.BDF{Bus: 1, Dev: 0, Fn: 0}})
	d.BindBoot("ice")
	if _, err := drv.Register(d); err == nil {
		t.Error("registering a device bound to another driver should fail")
	}
}

func TestDuplicateRegisterFails(t *testing.T) {
	r := newRig(t, LockGlobal, 1)
	if _, err := r.drv.Register(r.vds[0].PDev); err == nil {
		t.Error("duplicate register should fail")
	}
}

// openAll opens n devices concurrently and returns the makespan.
func openAll(t *testing.T, mode LockMode, n int) time.Duration {
	t.Helper()
	r := newRig(t, mode, n)
	for i := 0; i < n; i++ {
		vd := r.vds[i]
		r.k.Go("open", func(p *sim.Proc) { r.drv.Open(p, vd) })
	}
	end := r.k.Run()
	for i := 0; i < n; i++ {
		if r.vds[i].OpenCount() != 1 {
			t.Fatalf("vd %d open count %d", i, r.vds[i].OpenCount())
		}
	}
	if got := r.vds[0].Set.TotalOpen(); got != n {
		t.Fatalf("devset total open = %d, want %d", got, n)
	}
	return end
}

func TestGlobalLockSerializesOpens(t *testing.T) {
	n := 32
	end := openAll(t, LockGlobal, n)
	// Each open holds the global mutex for >= busScan(n devices)+reset.
	costs := cost.Default()
	minPer := time.Duration(n)*costs.BusScanPerDevice + costs.DeviceReset
	if end < time.Duration(n)*minPer {
		t.Errorf("global-lock makespan %v, want >= %v (fully serialized)", end, time.Duration(n)*minPer)
	}
}

func TestParentChildParallelizesOpens(t *testing.T) {
	n := 32
	serial := openAll(t, LockGlobal, n)
	parallel := openAll(t, LockParentChild, n)
	if parallel*4 > serial {
		t.Errorf("parent-child makespan %v not ≪ global %v", parallel, serial)
	}
	// A single open costs check+reset+fd; all n run concurrently.
	costs := cost.Default()
	one := costs.OpenCountCheck + costs.DeviceReset + costs.FDSetup
	if parallel != one {
		t.Errorf("parent-child makespan %v, want %v (fully parallel)", parallel, one)
	}
}

func TestOpenScalesLinearlyWithBusPopulation(t *testing.T) {
	// The vanilla open's hold time grows with devices on the bus — the root
	// cause of 4-vfio-dev's near-linear growth (Fig. 5).
	small := openAll(t, LockGlobal, 8)
	large := openAll(t, LockGlobal, 32)
	// 4x devices with per-open cost independent of population would give a
	// 4x makespan; the bus scan makes it strictly superlinear.
	if large <= small*4 {
		t.Errorf("open cost not superlinear in bus population: 8 VFs %v, 32 VFs %v", small, large)
	}
}

func TestSecondOpenSkipsReset(t *testing.T) {
	r := newRig(t, LockGlobal, 4)
	var first, second time.Duration
	r.k.Go("t", func(p *sim.Proc) {
		start := p.Now()
		r.drv.Open(p, r.vds[0])
		first = p.Now() - start
		start = p.Now()
		r.drv.Open(p, r.vds[0])
		second = p.Now() - start
	})
	r.k.Run()
	if second >= first {
		t.Errorf("second open (%v) should be cheaper than first (%v): no reset", second, first)
	}
	if r.vds[0].OpenCount() != 2 {
		t.Errorf("open count = %d, want 2", r.vds[0].OpenCount())
	}
}

func TestCloseRestoresCounts(t *testing.T) {
	r := newRig(t, LockParentChild, 2)
	r.k.Go("t", func(p *sim.Proc) {
		r.drv.Open(p, r.vds[0])
		r.drv.Open(p, r.vds[1])
		r.drv.Close(p, r.vds[0])
		r.drv.Close(p, r.vds[1])
	})
	r.k.Run()
	if r.vds[0].Set.TotalOpen() != 0 {
		t.Errorf("total open = %d after closes", r.vds[0].Set.TotalOpen())
	}
}

func TestCloseUnopenedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	r := newRig(t, LockGlobal, 1)
	r.k.Go("t", func(p *sim.Proc) { r.drv.Close(p, r.vds[0]) })
	r.k.Run()
}

func TestResetSetFailsWhileOpen(t *testing.T) {
	r := newRig(t, LockParentChild, 4)
	r.k.Go("t", func(p *sim.Proc) {
		r.drv.Open(p, r.vds[0])
		if err := r.drv.ResetSet(p, r.vds[0].Set); err == nil {
			t.Error("reset of busy devset should fail")
		}
		r.drv.Close(p, r.vds[0])
		if err := r.drv.ResetSet(p, r.vds[0].Set); err != nil {
			t.Errorf("reset of idle devset failed: %v", err)
		}
	})
	r.k.Run()
}

func TestResetExcludesOpensUnderParentChild(t *testing.T) {
	// While a devset-wide reset (write lock) runs, opens (read lock) must
	// wait — the consistency half of the hierarchical framework.
	r := newRig(t, LockParentChild, 8)
	var resetDone, openDone time.Duration
	r.k.Go("reset", func(p *sim.Proc) {
		if err := r.drv.ResetSet(p, r.vds[0].Set); err != nil {
			t.Errorf("reset: %v", err)
		}
		resetDone = p.Now()
	})
	r.k.Go("open", func(p *sim.Proc) {
		p.Sleep(time.Microsecond) // arrive during the reset
		r.drv.Open(p, r.vds[1])
		openDone = p.Now()
	})
	r.k.Run()
	if openDone < resetDone {
		t.Errorf("open finished at %v before reset at %v", openDone, resetDone)
	}
}

func TestUnregisterOpenDeviceFails(t *testing.T) {
	r := newRig(t, LockGlobal, 2)
	r.k.Go("t", func(p *sim.Proc) {
		r.drv.Open(p, r.vds[0])
		if err := r.drv.Unregister(r.vds[0]); err == nil {
			t.Error("unregister of open device should fail")
		}
		r.drv.Close(p, r.vds[0])
		if err := r.drv.Unregister(r.vds[0]); err != nil {
			t.Errorf("unregister: %v", err)
		}
	})
	r.k.Run()
	if len(r.vds[1].Set.Devices()) != 1 {
		t.Errorf("devset should have 1 device left, has %d", len(r.vds[1].Set.Devices()))
	}
}

func TestMapDMAEagerZeroes(t *testing.T) {
	r := newRig(t, LockGlobal, 1)
	r.k.Go("t", func(p *sim.Proc) {
		r.drv.Open(p, r.vds[0])
		region, err := r.drv.MapDMA(p, r.vds[0], 0, 64<<20, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, run := range region.Runs {
			for pg := run.Start; pg < run.Start+run.Count; pg++ {
				if r.mem.State(pg) != hostmem.Zeroed {
					t.Fatalf("page %d not zeroed after eager MapDMA", pg)
				}
				if !r.mem.Pinned(pg) {
					t.Fatalf("page %d not pinned", pg)
				}
			}
		}
		if r.vds[0].Domain().MappedPages() != int(region.PageCount()) {
			t.Errorf("mapped %d pages, want %d", r.vds[0].Domain().MappedPages(), region.PageCount())
		}
	})
	r.k.Run()
}

func TestMapDMADeferredSkipsZeroing(t *testing.T) {
	r := newRig(t, LockParentChild, 1)
	var deferred []*hostmem.Region
	hook := func(p *sim.Proc, region *hostmem.Region) { deferred = append(deferred, region) }
	r.k.Go("t", func(p *sim.Proc) {
		r.drv.Open(p, r.vds[0])
		region, err := r.drv.MapDMA(p, r.vds[0], 0, 64<<20, hook)
		if err != nil {
			t.Fatal(err)
		}
		dirty := 0
		for _, run := range region.Runs {
			for pg := run.Start; pg < run.Start+run.Count; pg++ {
				if r.mem.State(pg) == hostmem.Dirty {
					dirty++
				}
			}
		}
		if dirty == 0 {
			t.Error("deferred MapDMA should leave pages dirty for lazy zeroing")
		}
	})
	r.k.Run()
	if len(deferred) != 1 {
		t.Errorf("hook called %d times, want 1", len(deferred))
	}
}

func TestMapDMABeforeOpenIsLegal(t *testing.T) {
	// QEMU maps guest memory through the container before obtaining the
	// device fd, so MapDMA must work on a registered-but-unopened device.
	r := newRig(t, LockGlobal, 1)
	r.k.Go("t", func(p *sim.Proc) {
		if _, err := r.drv.MapDMA(p, r.vds[0], 0, 1<<20, nil); err != nil {
			t.Errorf("MapDMA before Open failed: %v", err)
		}
	})
	r.k.Run()
}

func TestMapDMADuplicateIOVAFails(t *testing.T) {
	r := newRig(t, LockGlobal, 1)
	r.k.Go("t", func(p *sim.Proc) {
		r.drv.Open(p, r.vds[0])
		if _, err := r.drv.MapDMA(p, r.vds[0], 0, 2<<20, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := r.drv.MapDMA(p, r.vds[0], 0, 2<<20, nil); err == nil {
			t.Error("duplicate IOVA mapping should fail")
		}
	})
	r.k.Run()
}

func TestUnmapDMAFreesAndUnpins(t *testing.T) {
	r := newRig(t, LockGlobal, 1)
	r.k.Go("t", func(p *sim.Proc) {
		r.drv.Open(p, r.vds[0])
		before := r.mem.FreePages()
		region, err := r.drv.MapDMA(p, r.vds[0], 0, 32<<20, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.drv.UnmapDMA(p, r.vds[0], 0); err != nil {
			t.Fatal(err)
		}
		if r.mem.FreePages() != before {
			t.Errorf("pages not returned: %d vs %d", r.mem.FreePages(), before)
		}
		for _, run := range region.Runs {
			for pg := run.Start; pg < run.Start+run.Count; pg++ {
				if r.mem.Pinned(pg) {
					t.Fatalf("page %d still pinned after unmap", pg)
				}
			}
		}
		if err := r.drv.ReleaseDomain(r.vds[0]); err != nil {
			t.Errorf("release domain: %v", err)
		}
	})
	r.k.Run()
}

func TestUnmapUnknownIOVAFails(t *testing.T) {
	r := newRig(t, LockGlobal, 1)
	r.k.Go("t", func(p *sim.Proc) {
		r.drv.Open(p, r.vds[0])
		if err := r.drv.UnmapDMA(p, r.vds[0], 0x1000000); err == nil {
			t.Error("unmap of unknown IOVA should fail")
		}
	})
	r.k.Run()
}

func TestReleaseDomainWithLiveMappingsFails(t *testing.T) {
	r := newRig(t, LockGlobal, 1)
	r.k.Go("t", func(p *sim.Proc) {
		r.drv.Open(p, r.vds[0])
		if _, err := r.drv.MapDMA(p, r.vds[0], 0, 2<<20, nil); err != nil {
			t.Fatal(err)
		}
		if err := r.drv.ReleaseDomain(r.vds[0]); err == nil {
			t.Error("release with live mappings should fail")
		}
	})
	r.k.Run()
}

func TestDMAWriteThroughMapping(t *testing.T) {
	// End-to-end: map guest memory, have the NIC DMA-write into it, and
	// verify translations and page states.
	k := sim.NewKernel()
	c := cost.Default()
	topo := pci.NewTopology()
	memCfg := hostmem.DefaultConfig()
	memCfg.TotalBytes = 4 << 30
	mem := hostmem.New(k, memCfg, c)
	mmu := iommu.New(k, mem.PageSize(), &c)
	card := nic.New(k, topo, nic.DefaultConfig(), &c)
	if err := card.CreateVFs(2, topo); err != nil {
		t.Fatal(err)
	}
	drv := New(k, topo, mem, mmu, LockParentChild, &c)
	vf := &card.VFs()[0]
	vf.Dev.BindBoot("vfio-pci")
	vd, _ := drv.Register(vf.Dev)
	k.Go("t", func(p *sim.Proc) {
		drv.Open(p, vd)
		if _, err := drv.MapDMA(p, vd, 0, 16<<20, nil); err != nil {
			t.Fatal(err)
		}
		if err := card.DMAWrite(p, vd.Domain(), mem, 4<<20, 2<<20); err != nil {
			t.Fatalf("DMA write: %v", err)
		}
		// DMA outside the mapped window must fault.
		if err := card.DMAWrite(p, vd.Domain(), mem, 64<<20, 1<<20); err == nil {
			t.Error("DMA to unmapped IOVA should fault")
		}
	})
	k.Run()
}
