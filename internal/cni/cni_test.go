package cni

import (
	"testing"
	"time"

	"fastiov/internal/cost"
	"fastiov/internal/hostmem"
	"fastiov/internal/iommu"
	"fastiov/internal/nic"
	"fastiov/internal/pci"
	"fastiov/internal/sim"
	"fastiov/internal/telemetry"
	"fastiov/internal/vfio"
)

type rig struct {
	k    *sim.Kernel
	card *nic.NIC
	drv  *vfio.Driver
	rtnl *sim.Mutex
	cg   *sim.Mutex

	costs *cost.Model
}

// newRig builds a host with nVFs VFs; preBind binds them to vfio-pci at
// boot (the fixed-CNI discipline).
func newRig(t *testing.T, nVFs int, preBind bool) *rig {
	t.Helper()
	k := sim.NewKernel()
	c := cost.Default()
	topo := pci.NewTopology()
	memCfg := hostmem.DefaultConfig()
	memCfg.TotalBytes = 1 << 30
	mem := hostmem.New(k, memCfg, c)
	card := nic.New(k, topo, nic.DefaultConfig(), &c)
	if err := card.CreateVFs(nVFs, topo); err != nil {
		t.Fatal(err)
	}
	drv := vfio.New(k, topo, mem, iommu.New(k, mem.PageSize(), &c), vfio.LockGlobal, &c)
	if preBind {
		card.VFBlock().BindBoot("vfio-pci")
		if err := drv.RegisterVFs(card.VFBlock()); err != nil {
			t.Fatal(err)
		}
	}
	return &rig{k: k, card: card, drv: drv, rtnl: sim.NewMutex("rtnl"), cg: sim.NewMutex("cgroup"), costs: &c}
}

func TestFixedSRIOVReturnsVFIODevice(t *testing.T) {
	r := newRig(t, 2, true)
	plugin := NewSRIOV("sriov", r.card, r.drv, r.rtnl, r.costs, false)
	r.k.Go("t", func(p *sim.Proc) {
		res, err := plugin.Add(p, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.VF == nil || res.VFIODev == nil {
			t.Fatal("fixed CNI must return a VFIO-registered VF")
		}
		if res.VF.Dev.Driver() != "vfio-pci" {
			t.Errorf("VF driver = %q, want vfio-pci (never rebound)", res.VF.Dev.Driver())
		}
		if res.Ifname() == "" {
			t.Error("no sandbox interface name")
		}
		if err := plugin.Del(p, 0, &res); err != nil {
			t.Fatal(err)
		}
	})
	r.k.Run()
	if r.card.FreeVFs() != 2 {
		t.Errorf("VF not returned to pool: %d free", r.card.FreeVFs())
	}
}

func TestRebindSRIOVBindsHostDriver(t *testing.T) {
	r := newRig(t, 1, false)
	plugin := NewSRIOV("sriov-rebind", r.card, r.drv, r.rtnl, r.costs, true)
	r.k.Go("t", func(p *sim.Proc) {
		res, err := plugin.Add(p, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.VFIODev != nil {
			t.Error("rebind CNI should not return a VFIO device")
		}
		if res.VF.Dev.Driver() != "iavf" {
			t.Errorf("VF driver = %q, want iavf", res.VF.Dev.Driver())
		}
		if err := plugin.Del(p, 0, &res); err != nil {
			t.Fatal(err)
		}
		if res.VF.Dev.Driver() != "" {
			t.Errorf("driver after del = %q", res.VF.Dev.Driver())
		}
	})
	r.k.Run()
}

func TestFixedFasterThanRebind(t *testing.T) {
	measure := func(rebind bool) sim.Duration {
		r := newRig(t, 1, !rebind)
		plugin := NewSRIOV("x", r.card, r.drv, r.rtnl, r.costs, rebind)
		var elapsed sim.Duration
		r.k.Go("t", func(p *sim.Proc) {
			start := p.Now()
			if _, err := plugin.Add(p, 0, nil); err != nil {
				t.Fatal(err)
			}
			elapsed = p.Now() - start
		})
		r.k.Run()
		return elapsed
	}
	if fixed, rebind := measure(false), measure(true); fixed >= rebind {
		t.Errorf("fixed CNI add (%v) should be faster than rebind (%v)", fixed, rebind)
	}
}

func TestVFExhaustion(t *testing.T) {
	r := newRig(t, 1, true)
	plugin := NewSRIOV("sriov", r.card, r.drv, r.rtnl, r.costs, false)
	r.k.Go("t", func(p *sim.Proc) {
		if _, err := plugin.Add(p, 0, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := plugin.Add(p, 1, nil); err == nil {
			t.Error("second add with one VF should fail")
		}
	})
	r.k.Run()
}

func TestFixedCNIRequiresRegistration(t *testing.T) {
	r := newRig(t, 1, false) // VFs not pre-bound
	plugin := NewSRIOV("sriov", r.card, r.drv, r.rtnl, r.costs, false)
	r.k.Go("t", func(p *sim.Proc) {
		if _, err := plugin.Add(p, 0, nil); err == nil {
			t.Error("fixed CNI on unregistered VF should fail")
		}
	})
	r.k.Run()
	// The failed add must have returned the VF to the pool.
	if r.card.FreeVFs() != 1 {
		t.Errorf("leaked VF on failure: %d free", r.card.FreeVFs())
	}
}

func TestIPvtapRecordsStages(t *testing.T) {
	r := newRig(t, 1, false)
	plugin := NewIPvtap(r.rtnl, r.cg, r.costs)
	var stages []telemetry.Stage
	rec := func(st telemetry.Stage, s, e time.Duration) { stages = append(stages, st) }
	r.k.Go("t", func(p *sim.Proc) {
		res, err := plugin.Add(p, 3, rec)
		if err != nil {
			t.Fatal(err)
		}
		if res.VF != nil {
			t.Error("software CNI returned a VF")
		}
		if res.Ifname() != "ipvtap3" {
			t.Errorf("ifname = %q", res.Ifname())
		}
		if err := plugin.Del(p, 3, &res); err != nil {
			t.Fatal(err)
		}
	})
	r.k.Run()
	if len(stages) != 2 || stages[0] != telemetry.StageAddCNI || stages[1] != telemetry.StageCgroup {
		t.Errorf("stages = %v", stages)
	}
}

func TestIPvtapContendsOnRTNL(t *testing.T) {
	r := newRig(t, 1, false)
	plugin := NewIPvtap(r.rtnl, r.cg, r.costs)
	n := 8
	for i := 0; i < n; i++ {
		i := i
		r.k.Go("add", func(p *sim.Proc) {
			if _, err := plugin.Add(p, i, nil); err != nil {
				t.Error(err)
			}
		})
	}
	end := r.k.Run()
	costs := cost.Default()
	// The rtnl and cgroup phases pipeline across containers, but within
	// each lock the adds serialize: makespan >= n * rtnl hold.
	minSerial := time.Duration(n) * costs.RTNLHoldIpvtap
	if end < minSerial {
		t.Errorf("ipvtap adds not serialized: makespan %v < %v", end, minSerial)
	}
}

func TestNoNetworkPlugin(t *testing.T) {
	k := sim.NewKernel()
	var plugin Plugin = NoNetwork{}
	if plugin.Name() != "no-network" {
		t.Error("name")
	}
	k.Go("t", func(p *sim.Proc) {
		res, err := plugin.Add(p, 0, nil)
		if err != nil || res.VF != nil {
			t.Errorf("res=%+v err=%v", res, err)
		}
		if err := plugin.Del(p, 0, &res); err != nil {
			t.Error(err)
		}
	})
	k.Run()
}

func TestSRIOVDelWithoutVFFails(t *testing.T) {
	r := newRig(t, 1, true)
	plugin := NewSRIOV("sriov", r.card, r.drv, r.rtnl, r.costs, false)
	r.k.Go("t", func(p *sim.Proc) {
		if err := plugin.Del(p, 0, &Result{}); err == nil {
			t.Error("del without VF should fail")
		}
	})
	r.k.Run()
}
