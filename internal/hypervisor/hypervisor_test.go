package hypervisor

import (
	"testing"
	"time"

	"fastiov/internal/cost"
	"fastiov/internal/fastiovd"
	"fastiov/internal/hostmem"
	"fastiov/internal/iommu"
	"fastiov/internal/kvm"
	"fastiov/internal/nic"
	"fastiov/internal/pci"
	"fastiov/internal/sim"
	"fastiov/internal/telemetry"
	"fastiov/internal/vfio"
)

type rig struct {
	k    *sim.Kernel
	mem  *hostmem.Allocator
	env  *Env
	card *nic.NIC
	vds  []*vfio.Device
	lazy *fastiovd.Module
}

// smallLayout keeps tests fast: 64 MB RAM, 32 MB image, 8 MB firmware.
func smallLayout() Layout {
	return Layout{RAMBytes: 64 << 20, ImageBytes: 32 << 20, FirmwareBytes: 8 << 20}
}

func newRig(t *testing.T, lazy bool) *rig {
	t.Helper()
	k := sim.NewKernel()
	c := cost.Default()
	memCfg := hostmem.DefaultConfig()
	memCfg.TotalBytes = 4 << 30
	mem := hostmem.New(k, memCfg, c)
	topo := pci.NewTopology()
	card := nic.New(k, topo, nic.DefaultConfig(), &c)
	if err := card.CreateVFs(4, topo); err != nil {
		t.Fatal(err)
	}
	mmu := iommu.New(k, mem.PageSize(), &c)
	drv := vfio.New(k, topo, mem, mmu, vfio.LockParentChild, &c)
	kv := kvm.New(k, mem, &c)
	var mod *fastiovd.Module
	if lazy {
		mod = fastiovd.New(k, mem, &c)
		kv.Hook = mod
	}
	cpu := sim.NewResource("cpu", 8)
	env := NewEnv(k, sim.NewRand(1), mem, kv, drv, mod, cpu, &c)
	r := &rig{k: k, mem: mem, env: env, card: card, lazy: mod}
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

func TestAttachMapsAllRegions(t *testing.T) {
	r := newRig(t, false)
	mvm := new(MicroVM).Init(r.env, 0, smallLayout(), nil)
	r.k.Go("t", func(p *sim.Proc) {
		mvm.Start(p)
		if err := mvm.AttachVF(p, r.vds[0], false); err != nil {
			t.Fatal(err)
		}
		// RAM + firmware + image all translated in the IOMMU domain.
		wantPages := (64 + 8 + 32) << 20 / int(r.mem.PageSize())
		if got := mvm.VFDevice().Domain().MappedPages(); got != wantPages {
			t.Errorf("mapped pages = %d, want %d", got, wantPages)
		}
		if mvm.ImageSkipped() {
			t.Error("image skipped without skip option")
		}
	})
	r.k.Run()
}

func TestSkipImageLeavesItUnmapped(t *testing.T) {
	r := newRig(t, false)
	mvm := new(MicroVM).Init(r.env, 0, smallLayout(), nil)
	r.k.Go("t", func(p *sim.Proc) {
		mvm.Start(p)
		if err := mvm.AttachVF(p, r.vds[0], true); err != nil {
			t.Fatal(err)
		}
		wantPages := (64 + 8) << 20 / int(r.mem.PageSize())
		if got := mvm.VFDevice().Domain().MappedPages(); got != wantPages {
			t.Errorf("mapped pages = %d, want %d (image excluded)", got, wantPages)
		}
		if !mvm.ImageSkipped() {
			t.Error("skip flag lost")
		}
		// The image slot still works — demand-paged.
		if err := mvm.VM.TouchRange(p, mvm.Layout.ImageBase(), 4<<20, false); err != nil {
			t.Errorf("image demand paging failed: %v", err)
		}
	})
	r.k.Run()
}

func TestEagerAttachZeroesRAM(t *testing.T) {
	r := newRig(t, false)
	mvm := new(MicroVM).Init(r.env, 0, smallLayout(), nil)
	r.k.Go("t", func(p *sim.Proc) {
		mvm.Start(p)
		mvm.AttachVF(p, r.vds[0], true)
		// Guest can read all RAM with no violations.
		if err := mvm.VM.TouchRange(p, 0, mvm.Layout.RAMBytes, false); err != nil {
			t.Fatal(err)
		}
	})
	r.k.Run()
	if r.mem.Violations != 0 {
		t.Errorf("violations = %d", r.mem.Violations)
	}
}

func TestLazyAttachDefersZeroing(t *testing.T) {
	r := newRig(t, true)
	mvm := new(MicroVM).Init(r.env, 0, smallLayout(), nil)
	r.k.Go("t", func(p *sim.Proc) {
		mvm.Start(p)
		mvm.AttachVF(p, r.vds[0], true)
		// RAM pages are tracked, not zeroed.
		if got := r.lazy.Tracked(mvm.VM.PID); got != 32 { // 64 MB / 2 MB
			t.Errorf("tracked = %d, want 32", got)
		}
		// Reading still yields zeroes (fault-path zeroing).
		if err := mvm.VM.TouchRange(p, 0, mvm.Layout.RAMBytes, false); err != nil {
			t.Fatal(err)
		}
	})
	r.k.Run()
	if r.mem.Violations != 0 || r.lazy.Corruptions != 0 {
		t.Errorf("violations=%d corruptions=%d", r.mem.Violations, r.lazy.Corruptions)
	}
}

func TestFirmwareProtocolUnderLazyZeroing(t *testing.T) {
	// Firmware must go on the instant-zeroing list; the hypervisor write
	// plus guest boot read must not corrupt.
	r := newRig(t, true)
	mvm := new(MicroVM).Init(r.env, 0, smallLayout(), nil)
	r.k.Go("t", func(p *sim.Proc) {
		mvm.Start(p)
		mvm.AttachVF(p, r.vds[0], true)
		if err := mvm.LoadFirmware(p); err != nil {
			t.Fatal(err)
		}
		if err := mvm.VM.TouchRange(p, mvm.Layout.FirmwareBase(), mvm.Layout.FirmwareBytes, false); err != nil {
			t.Fatal(err)
		}
	})
	r.k.Run()
	if r.lazy.Corruptions != 0 {
		t.Errorf("firmware corrupted %d pages", r.lazy.Corruptions)
	}
	if r.lazy.InstantZeroed == 0 {
		t.Error("firmware not on the instant-zeroing list")
	}
}

func TestVirtioFSReadProactiveIsSafe(t *testing.T) {
	r := newRig(t, true)
	mvm := new(MicroVM).Init(r.env, 0, smallLayout(), nil)
	r.k.Go("t", func(p *sim.Proc) {
		mvm.Start(p)
		mvm.AttachVF(p, r.vds[0], true)
		if err := mvm.VirtioFSRead(p, 48<<20, true); err != nil {
			t.Fatal(err)
		}
	})
	r.k.Run()
	if r.lazy.Corruptions != 0 {
		t.Errorf("corruptions = %d with proactive faults", r.lazy.Corruptions)
	}
}

func TestVirtioFSReadWithoutProactiveCorrupts(t *testing.T) {
	// The negative control for §4.3.2's second exception.
	r := newRig(t, true)
	mvm := new(MicroVM).Init(r.env, 0, smallLayout(), nil)
	r.k.Go("t", func(p *sim.Proc) {
		mvm.Start(p)
		mvm.AttachVF(p, r.vds[0], true)
		if err := mvm.VirtioFSRead(p, 16<<20, false); err != nil {
			t.Fatal(err)
		}
	})
	r.k.Run()
	if r.lazy.Corruptions == 0 {
		t.Error("expected corruption without proactive faults under lazy zeroing")
	}
}

func TestVirtioFSCursorWraps(t *testing.T) {
	r := newRig(t, false)
	mvm := new(MicroVM).Init(r.env, 0, smallLayout(), nil)
	r.k.Go("t", func(p *sim.Proc) {
		mvm.Start(p)
		mvm.AttachVF(p, r.vds[0], true)
		// Transfer more than RAM: the shared-buffer cursor must wrap.
		if err := mvm.VirtioFSRead(p, 200<<20, false); err != nil {
			t.Fatal(err)
		}
	})
	r.k.Run()
}

func TestSpansRecorded(t *testing.T) {
	r := newRig(t, false)
	var stages []telemetry.Stage
	rec := func(st telemetry.Stage, s, e time.Duration) { stages = append(stages, st) }
	mvm := new(MicroVM).Init(r.env, 0, smallLayout(), rec)
	r.k.Go("t", func(p *sim.Proc) {
		mvm.Start(p)
		mvm.MapGuestMemory(p, r.vds[0], false)
		mvm.SetupVirtioFS(p)
		mvm.OpenDevice(p)
	})
	r.k.Run()
	want := map[telemetry.Stage]bool{}
	for _, s := range stages {
		want[s] = true
	}
	for _, s := range []telemetry.Stage{telemetry.StageDMARAM, telemetry.StageDMAImage, telemetry.StageVirtioFS, telemetry.StageVFIODev} {
		if !want[s] {
			t.Errorf("stage %s not recorded (got %v)", s, stages)
		}
	}
}

func TestTeardownReleasesEverything(t *testing.T) {
	for _, lazy := range []bool{false, true} {
		r := newRig(t, lazy)
		freePages := r.mem.FreePages()
		mvm := new(MicroVM).Init(r.env, 0, smallLayout(), nil)
		r.k.Go("t", func(p *sim.Proc) {
			mvm.Start(p)
			mvm.AttachVF(p, r.vds[0], false)
			mvm.LoadFirmware(p)
			if err := mvm.Teardown(p); err != nil {
				t.Fatal(err)
			}
		})
		r.k.Run()
		if got := r.mem.FreePages(); got != freePages {
			t.Errorf("lazy=%v: pages leaked: %d vs %d", lazy, got, freePages)
		}
		if r.vds[0].OpenCount() != 0 {
			t.Errorf("lazy=%v: device still open", lazy)
		}
		if lazy && r.lazy.TrackedTotal() != 0 {
			t.Errorf("fastiovd table not drained on teardown")
		}
	}
}

func TestTeardownWithSkipImage(t *testing.T) {
	r := newRig(t, true)
	freePages := r.mem.FreePages()
	mvm := new(MicroVM).Init(r.env, 0, smallLayout(), nil)
	r.k.Go("t", func(p *sim.Proc) {
		mvm.Start(p)
		mvm.AttachVF(p, r.vds[0], true)
		// Touch some demand-paged image memory so teardown must free it.
		mvm.VM.TouchRange(p, mvm.Layout.ImageBase(), 8<<20, false)
		if err := mvm.Teardown(p); err != nil {
			t.Fatal(err)
		}
	})
	r.k.Run()
	if got := r.mem.FreePages(); got != freePages {
		t.Errorf("pages leaked: %d vs %d", got, freePages)
	}
}

func TestSetupMemoryDemandNoUpfrontCost(t *testing.T) {
	r := newRig(t, false)
	mvm := new(MicroVM).Init(r.env, 0, smallLayout(), nil)
	r.k.Go("t", func(p *sim.Proc) {
		mvm.Start(p)
		before := r.mem.FreePages()
		if err := mvm.SetupMemoryDemand(p); err != nil {
			t.Fatal(err)
		}
		if r.mem.FreePages() != before {
			t.Error("demand setup allocated pages up front")
		}
	})
	r.k.Run()
}

func TestLayoutBases(t *testing.T) {
	l := DefaultLayout()
	if l.RAMBase() != 0 {
		t.Error("RAM not at 0")
	}
	if l.ImageBase() != l.RAMBytes {
		t.Error("image base wrong")
	}
	if l.FirmwareBase() != l.RAMBytes+l.ImageBytes {
		t.Error("firmware base wrong")
	}
	if l.Total() != l.RAMBytes+l.ImageBytes+l.FirmwareBytes {
		t.Error("total wrong")
	}
}
