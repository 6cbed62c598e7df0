package pci

import (
	"testing"
	"time"

	"fastiov/internal/sim"
)

func TestTopologyAddLookup(t *testing.T) {
	topo := NewTopology()
	d := topo.AddDevice(&Device{Addr: BDF{Bus: 3, Dev: 1, Fn: 0}})
	got, ok := topo.Lookup(BDF{Bus: 3, Dev: 1, Fn: 0})
	if !ok || got != d {
		t.Fatal("lookup failed")
	}
	if d.Bus().Number != 3 {
		t.Errorf("bus = %d", d.Bus().Number)
	}
	if _, ok := topo.Lookup(BDF{Bus: 9}); ok {
		t.Error("lookup of absent device succeeded")
	}
}

func TestDuplicateBDFPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	topo := NewTopology()
	topo.AddDevice(&Device{Addr: BDF{Bus: 1}})
	topo.AddDevice(&Device{Addr: BDF{Bus: 1}})
}

func TestBusGroupsDevices(t *testing.T) {
	topo := NewTopology()
	for i := 0; i < 5; i++ {
		topo.AddDevice(&Device{Addr: BDF{Bus: 7, Dev: i}})
	}
	topo.AddDevice(&Device{Addr: BDF{Bus: 8, Dev: 0}})
	bus := topo.AddBus(7)
	if len(bus.Devices()) != 5 {
		t.Errorf("bus 7 has %d devices, want 5", len(bus.Devices()))
	}
	if len(topo.Buses()) != 2 {
		t.Errorf("buses = %d, want 2", len(topo.Buses()))
	}
}

func TestBindUnbindLifecycle(t *testing.T) {
	k := sim.NewKernel()
	topo := NewTopology()
	d := topo.AddDevice(&Device{Addr: BDF{Bus: 1}})
	k.Go("t", func(p *sim.Proc) {
		d.Bind(p, "vfio-pci", time.Millisecond)
		if d.Driver() != "vfio-pci" {
			t.Errorf("driver = %q", d.Driver())
		}
		if p.Now() != time.Millisecond {
			t.Errorf("bind cost not charged: %v", p.Now())
		}
		d.Unbind(p, time.Millisecond)
		if d.Driver() != "" {
			t.Errorf("driver after unbind = %q", d.Driver())
		}
	})
	k.Run()
}

func TestDoubleBindPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	k := sim.NewKernel()
	topo := NewTopology()
	d := topo.AddDevice(&Device{Addr: BDF{Bus: 1}})
	k.Go("t", func(p *sim.Proc) {
		d.Bind(p, "a", 0)
		d.Bind(p, "b", 0)
	})
	k.Run()
}

func TestUnbindUnboundPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	k := sim.NewKernel()
	topo := NewTopology()
	d := topo.AddDevice(&Device{Addr: BDF{Bus: 1}})
	k.Go("t", func(p *sim.Proc) { d.Unbind(p, 0) })
	k.Run()
}

func TestBindBoot(t *testing.T) {
	topo := NewTopology()
	d := topo.AddDevice(&Device{Addr: BDF{Bus: 1}})
	d.BindBoot("ice")
	if d.Driver() != "ice" {
		t.Errorf("driver = %q", d.Driver())
	}
}

func TestBDFString(t *testing.T) {
	if got := (BDF{Bus: 0x17, Dev: 2, Fn: 1}).String(); got != "17:02.1" {
		t.Errorf("BDF string = %q", got)
	}
}

func TestResetScopeString(t *testing.T) {
	if ResetSlot.String() != "slot" || ResetBus.String() != "bus" {
		t.Error("reset scope strings wrong")
	}
}

func TestAddVFsBlock(t *testing.T) {
	topo := NewTopology()
	pf := topo.AddDevice(&Device{Addr: BDF{Bus: 0x17}})
	vfs := topo.AddVFs(pf, 10, Device{DevID: 0x1889, Reset: ResetSlot})
	vfs.BindBoot("vfio-pci")
	for i := range vfs.Len() {
		vf := vfs.Init(new(Device), i)
		if want := (BDF{Bus: 0x17, Dev: 1 + i/8, Fn: i % 8}); vf.Addr != want {
			t.Errorf("VF %d at %s, want %s", i, vf.Addr, want)
		}
		if !vf.IsVF || vf.Parent != pf || vf.DevID != 0x1889 || vf.Reset != ResetSlot || vf.Bus() != pf.Bus() {
			t.Errorf("VF %d = %+v", i, vf)
		}
		if b, n := vf.VFBlock(); b != vfs || n != i || vf.Driver() != "vfio-pci" || !topo.Has(vf) {
			t.Errorf("VF %d: block %p number %d driver %q", i, b, n, vf.Driver())
		}
	}
	// The VFs are a count: the bus scan sees them, the device list does not.
	if pf.Bus().Population() != 11 || len(pf.Bus().Devices()) != 1 {
		t.Errorf("bus population %d, %d placed devices; want 11, 1", pf.Bus().Population(), len(pf.Bus().Devices()))
	}
	if b, _ := pf.VFBlock(); b != nil {
		t.Error("PF reports a VF block")
	}
	if _, ok := topo.Lookup(BDF{Bus: 0x17, Dev: 2, Fn: 1}); ok {
		t.Error("lookup found a VF record the topology does not hold")
	}
}

func TestAddVFsOverlapPanics(t *testing.T) {
	for _, tc := range []struct {
		taken BDF
		n     int
		panic bool
	}{
		{BDF{Bus: 1, Dev: 1, Fn: 3}, 3, false},
		{BDF{Bus: 1, Dev: 1, Fn: 3}, 4, true},
		{BDF{Bus: 1, Dev: 3, Fn: 0}, 16, false},
		{BDF{Bus: 1, Dev: 3, Fn: 0}, 17, true},
		{BDF{Bus: 2, Dev: 1, Fn: 0}, 8, false},
	} {
		topo := NewTopology()
		pf := topo.AddDevice(&Device{Addr: BDF{Bus: 1}})
		topo.AddDevice(&Device{Addr: tc.taken})
		got := func() (panicked bool) {
			defer func() { panicked = recover() != nil }()
			topo.AddVFs(pf, tc.n, Device{})
			return false
		}()
		if got != tc.panic {
			t.Errorf("%d VFs with %s taken: panic %v, want %v", tc.n, tc.taken, got, tc.panic)
		}
	}
}

// A device placed after a VF block may not take one of the block's
// addresses: the block holds them without a record each.
func TestAddDeviceInVFRangePanics(t *testing.T) {
	for _, tc := range []struct {
		addr  BDF
		panic bool
	}{
		{BDF{Bus: 1, Dev: 1, Fn: 0}, true},
		{BDF{Bus: 1, Dev: 2, Fn: 1}, true},
		{BDF{Bus: 1, Dev: 2, Fn: 2}, false},
		{BDF{Bus: 2, Dev: 1, Fn: 0}, false},
	} {
		topo := NewTopology()
		pf := topo.AddDevice(&Device{Addr: BDF{Bus: 1}})
		topo.AddVFs(pf, 10, Device{})
		got := func() (panicked bool) {
			defer func() { panicked = recover() != nil }()
			topo.AddDevice(&Device{Addr: tc.addr})
			return false
		}()
		if got != tc.panic {
			t.Errorf("device at %s after 10 VFs: panic %v, want %v", tc.addr, got, tc.panic)
		}
	}
}
