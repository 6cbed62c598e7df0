package guest

import (
	"testing"
	"time"

	"fastiov/internal/cost"
	"fastiov/internal/fastiovd"
	"fastiov/internal/hostmem"
	"fastiov/internal/hypervisor"
	"fastiov/internal/iommu"
	"fastiov/internal/kvm"
	"fastiov/internal/nic"
	"fastiov/internal/pci"
	"fastiov/internal/sim"
	"fastiov/internal/vfio"
)

type rig struct {
	k       *sim.Kernel
	mem     *hostmem.Allocator
	env     *hypervisor.Env
	card    *nic.NIC
	vd      *vfio.Device
	irqLock *sim.Mutex
	lazy    *fastiovd.Module
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
	if err := card.CreateVFs(2, topo); err != nil {
		t.Fatal(err)
	}
	drv := vfio.New(k, topo, mem, iommu.New(k, mem.PageSize(), &c), vfio.LockParentChild, &c)
	kv := kvm.New(k, mem, &c)
	var mod *fastiovd.Module
	if lazy {
		mod = fastiovd.New(k, mem, &c)
		kv.Hook = mod
	}
	env := hypervisor.NewEnv(k, sim.NewRand(1), mem, kv, drv, mod, sim.NewResource("cpu", 8), &c)
	vf := &card.VFs()[0]
	vf.Dev.BindBoot("vfio-pci")
	vd, err := drv.Register(vf.Dev)
	if err != nil {
		t.Fatal(err)
	}
	return &rig{k: k, mem: mem, env: env, card: card, vd: vd, irqLock: sim.NewMutex("irq"), lazy: mod}
}

func layout() hypervisor.Layout {
	return hypervisor.Layout{RAMBytes: 64 << 20, ImageBytes: 32 << 20, FirmwareBytes: 8 << 20}
}

// startVM builds and attaches a microVM ready for guest work.
func (r *rig) startVM(t *testing.T, p *sim.Proc) *hypervisor.MicroVM {
	t.Helper()
	mvm := new(hypervisor.MicroVM).Init(r.env, 0, layout(), nil)
	mvm.Start(p)
	if err := mvm.AttachVF(p, r.vd, true); err != nil {
		t.Fatal(err)
	}
	if err := mvm.LoadFirmware(p); err != nil {
		t.Fatal(err)
	}
	return mvm
}

func TestBootFiresEventAndTouchesMemory(t *testing.T) {
	r := newRig(t, false)
	r.k.Go("t", func(p *sim.Proc) {
		mvm := r.startVM(t, p)
		vf, _ := r.card.AllocVF()
		g := new(Guest).Init(mvm, vf, r.irqLock)
		if g.Booted().Fired() {
			t.Error("booted before Boot")
		}
		if err := g.Boot(p); err != nil {
			t.Fatal(err)
		}
		if !g.Booted().Fired() {
			t.Error("boot event not fired")
		}
		if mvm.VM.EPTEntries() == 0 {
			t.Error("boot touched no memory")
		}
	})
	r.k.Run()
	if r.mem.Violations != 0 {
		t.Errorf("violations = %d", r.mem.Violations)
	}
}

func TestDriverInitRaisesLinkAndFiresReady(t *testing.T) {
	r := newRig(t, false)
	r.k.Go("t", func(p *sim.Proc) {
		mvm := r.startVM(t, p)
		vf, _ := r.card.AllocVF()
		g := new(Guest).Init(mvm, vf, r.irqLock)
		g.Boot(p)
		g.InitVFDriver(p)
		if !vf.LinkUp {
			t.Error("link not up after driver init")
		}
		if !g.IfaceReady().Fired() {
			t.Error("iface-ready not fired")
		}
	})
	r.k.Run()
}

func TestDriverInitWaitsForBoot(t *testing.T) {
	r := newRig(t, false)
	var bootDone, initDone sim.Duration
	r.k.Go("t", func(p *sim.Proc) {
		mvm := r.startVM(t, p)
		vf, _ := r.card.AllocVF()
		g := new(Guest).Init(mvm, vf, r.irqLock)
		r.k.Go("init", func(q *sim.Proc) {
			g.InitVFDriver(q)
			initDone = q.Now()
		})
		p.Sleep(50 * time.Millisecond)
		g.Boot(p)
		bootDone = p.Now()
	})
	r.k.Run()
	if initDone <= bootDone {
		t.Errorf("driver init finished at %v, before/at boot completion %v", initDone, bootDone)
	}
}

func TestNoVFFiresReadyImmediately(t *testing.T) {
	r := newRig(t, false)
	r.k.Go("t", func(p *sim.Proc) {
		mvm := new(hypervisor.MicroVM).Init(r.env, 0, layout(), nil)
		mvm.Start(p)
		if err := mvm.SetupMemoryDemand(p); err != nil {
			t.Fatal(err)
		}
		g := new(Guest).Init(mvm, nil, r.irqLock)
		start := p.Now()
		g.InitVFDriver(p)
		if p.Now() != start {
			t.Error("no-VF init should be free")
		}
		if !g.IfaceReady().Fired() {
			t.Error("ready not fired")
		}
		g.WaitIfaceReady(p) // poll delay only applies with a VF
		if p.Now() != start {
			t.Error("no-VF wait should not add poll delay")
		}
	})
	r.k.Run()
}

func TestWaitIfaceReadyAddsPollDelay(t *testing.T) {
	r := newRig(t, false)
	r.k.Go("t", func(p *sim.Proc) {
		mvm := r.startVM(t, p)
		vf, _ := r.card.AllocVF()
		r.env.Costs.AgentPollInterval = 100 * time.Millisecond
		g := new(Guest).Init(mvm, vf, r.irqLock)
		g.Boot(p)
		g.InitVFDriver(p)
		before := p.Now()
		g.WaitIfaceReady(p)
		delay := p.Now() - before
		if delay < 0 || delay >= 100*time.Millisecond {
			t.Errorf("poll delay %v outside [0, 100ms)", delay)
		}
	})
	r.k.Run()
}

func TestIrqLockSerializesDriverInits(t *testing.T) {
	// Two guests initialize their VF drivers simultaneously: the host
	// irq-routing lock forces the second's MSI-X setup to wait — the
	// §3.2.4 contention FastIOV masks with asynchrony.
	r := newRig(t, false)
	r.env.Costs.AgentPollInterval = 0
	var ends []sim.Duration
	for i := 0; i < 2; i++ {
		i := i
		r.k.Go("vm", func(p *sim.Proc) {
			mvm := new(hypervisor.MicroVM).Init(r.env, i, layout(), nil)
			mvm.Start(p)
			if err := mvm.SetupMemoryDemand(p); err != nil {
				t.Error(err)
				return
			}
			g := new(Guest).Init(mvm, &r.card.VFs()[i], r.irqLock)
			if err := g.Boot(p); err != nil {
				t.Error(err)
				return
			}
			g.InitVFDriver(p)
			ends = append(ends, p.Now())
		})
	}
	r.k.Run()
	if len(ends) != 2 {
		t.Fatalf("%d inits completed", len(ends))
	}
	gap := ends[1] - ends[0]
	if gap < 0 {
		gap = -gap
	}
	if hold := r.env.Costs.IrqSetupHold; gap < hold {
		t.Errorf("irq setups overlapped: completion gap %v < hold %v", gap, hold)
	}
}

func TestLaunchAppTransfersImage(t *testing.T) {
	r := newRig(t, true)
	r.k.Go("t", func(p *sim.Proc) {
		mvm := r.startVM(t, p)
		vf, _ := r.card.AllocVF()
		g := new(Guest).Init(mvm, vf, r.irqLock)
		g.Boot(p)
		if err := g.LaunchApp(p, 32<<20, true); err != nil {
			t.Fatal(err)
		}
	})
	r.k.Run()
	if r.lazy.Corruptions != 0 {
		t.Errorf("corruptions = %d", r.lazy.Corruptions)
	}
	if r.mem.Violations != 0 {
		t.Errorf("violations = %d", r.mem.Violations)
	}
}

func TestLaunchAppZeroImageBytes(t *testing.T) {
	r := newRig(t, false)
	r.k.Go("t", func(p *sim.Proc) {
		mvm := r.startVM(t, p)
		g := new(Guest).Init(mvm, nil, r.irqLock)
		g.Boot(p)
		if err := g.LaunchApp(p, 0, false); err != nil {
			t.Fatal(err)
		}
	})
	r.k.Run()
}
