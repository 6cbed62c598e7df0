package nic

import (
	"testing"
	"time"

	"fastiov/internal/cost"
	"fastiov/internal/pci"
	"fastiov/internal/sim"
)

// testCosts is the default cost model the tests charge.
var testCosts = cost.Default()

func newCard(t *testing.T, vfs int) (*sim.Kernel, *pci.Topology, *NIC) {
	t.Helper()
	k := sim.NewKernel()
	topo := pci.NewTopology()
	n := New(k, topo, DefaultConfig(), &testCosts)
	if err := n.CreateVFs(vfs, topo); err != nil {
		t.Fatal(err)
	}
	return k, topo, n
}

func TestPFBoundAtBoot(t *testing.T) {
	_, _, n := newCard(t, 1)
	if n.PF().Driver() != "ice" {
		t.Errorf("PF driver = %q", n.PF().Driver())
	}
	if n.PF().Reset != pci.ResetSlot {
		t.Error("PF should support slot reset")
	}
}

func TestVFsShareBusWithPF(t *testing.T) {
	_, _, n := newCard(t, 16)
	bus := n.PF().Bus()
	for range n.NumVFs() {
		vf, err := n.AllocVF()
		if err != nil {
			t.Fatal(err)
		}
		if vf.Dev.Bus() != bus {
			t.Fatal("VF on different bus than PF")
		}
		if !vf.Dev.IsVF || vf.Dev.Parent != n.PF() {
			t.Fatal("VF parentage wrong")
		}
		if vf.Dev.Reset != pci.ResetBus {
			t.Error("E810-like VFs should be bus-reset only")
		}
	}
	// PF + 16 VFs on the bus.
	if got := bus.Population(); got != 17 {
		t.Errorf("bus population = %d, want 17", got)
	}
}

func TestSlotResetOption(t *testing.T) {
	k := sim.NewKernel()
	topo := pci.NewTopology()
	cfg := DefaultConfig()
	cfg.SlotReset = true
	n := New(k, topo, cfg, &testCosts)
	if err := n.CreateVFs(2, topo); err != nil {
		t.Fatal(err)
	}
	if vf, _ := n.AllocVF(); vf.Dev.Reset != pci.ResetSlot {
		t.Error("SlotReset config ignored")
	}
}

func TestVFLimit(t *testing.T) {
	k := sim.NewKernel()
	topo := pci.NewTopology()
	n := New(k, topo, DefaultConfig(), &testCosts)
	if err := n.CreateVFs(257, topo); err == nil {
		t.Error("creating 257 VFs on a 256-VF card should fail")
	}
}

func TestDoubleCreateFails(t *testing.T) {
	_, topo, n := newCard(t, 2)
	if err := n.CreateVFs(2, topo); err == nil {
		t.Error("second CreateVFs should fail")
	}
}

func TestAllocReleasePool(t *testing.T) {
	_, _, n := newCard(t, 3)
	a, err := n.AllocVF()
	if err != nil {
		t.Fatal(err)
	}
	if !a.Assigned {
		t.Error("allocated VF not marked assigned")
	}
	if n.FreeVFs() != 2 {
		t.Errorf("free = %d", n.FreeVFs())
	}
	b, _ := n.AllocVF()
	c, _ := n.AllocVF()
	if _, err := n.AllocVF(); err == nil {
		t.Error("empty pool alloc should fail")
	}
	n.ReleaseVF(a)
	n.ReleaseVF(b)
	n.ReleaseVF(c)
	if n.FreeVFs() != 3 {
		t.Errorf("free after release = %d", n.FreeVFs())
	}
}

func TestReleaseUnassignedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	_, _, n := newCard(t, 1)
	vf, _ := n.AllocVF()
	n.ReleaseVF(vf)
	n.ReleaseVF(vf)
}

func TestReleaseResetsState(t *testing.T) {
	_, _, n := newCard(t, 1)
	vf, _ := n.AllocVF()
	vf.LinkUp = true
	vf.HostIfname = "eth0"
	n.ReleaseVF(vf)
	if vf.LinkUp || vf.HostIfname != "" {
		t.Error("release did not reset VF state")
	}
}

func TestMACsUnique(t *testing.T) {
	_, _, n := newCard(t, 64)
	seen := map[string]bool{}
	for range n.NumVFs() {
		vf, _ := n.AllocVF()
		if seen[vf.MAC()] {
			t.Fatalf("duplicate MAC %s", vf.MAC())
		}
		seen[vf.MAC()] = true
	}
}

func TestTransferTimeMatchesLaneRate(t *testing.T) {
	k, _, n := newCard(t, 1)
	var elapsed time.Duration
	k.Go("t", func(p *sim.Proc) {
		start := p.Now()
		// One lane = 25 Gbps / 16 lanes = 1.5625 Gbps. 16 MB * 8 bits /
		// 1.5625e9 = ~85.9 ms.
		n.Transfer(p, 16<<20)
		elapsed = p.Now() - start
	})
	k.Run()
	want := time.Duration(int64(16<<20) * 8 * int64(time.Second) / (25_000_000_000 / 16))
	if elapsed != want {
		t.Errorf("transfer took %v, want %v", elapsed, want)
	}
}

func TestConcurrentTransfersShareLanes(t *testing.T) {
	k, _, n := newCard(t, 1)
	// 32 concurrent transfers on 16 lanes: second batch queues.
	for i := 0; i < 32; i++ {
		k.Go("x", func(p *sim.Proc) { n.Transfer(p, 1<<20) })
	}
	end := k.Run()
	one := time.Duration(int64(1<<20) * 8 * int64(time.Second) / (25_000_000_000 / 16))
	if end != 2*one {
		t.Errorf("makespan %v, want %v (two waves)", end, 2*one)
	}
}

func TestCardBackref(t *testing.T) {
	_, _, n := newCard(t, 1)
	if vf, _ := n.AllocVF(); vf.Card() != n {
		t.Error("VF card backref wrong")
	}
}

// Leases and releases in any interleaving hand VFs out in the order of
// the slice queue the free list replaced (lease from the front, release to
// the back), a VF keeps the record its first lease built, and churn
// allocates nothing once every VF has been leased.
func TestVFChurnKeepsOrderWithoutAllocating(t *testing.T) {
	const vfs = 8
	_, _, n := newCard(t, vfs)
	var ref []int // VF numbers in hand-out order
	for i := range n.NumVFs() {
		ref = append(ref, i)
	}
	var leased []*VF
	recs := map[int]*VF{}
	state := uint64(0x9E3779B97F4A7C15)
	for op := 0; op < 5000; op++ {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		if state%2 == 0 && len(leased) > 0 {
			i := int(state>>8) % len(leased)
			vf := leased[i]
			leased = append(leased[:i], leased[i+1:]...)
			n.ReleaseVF(vf)
			ref = append(ref, vf.Index)
			continue
		}
		vf, err := n.AllocVF()
		if len(ref) == 0 {
			if err == nil {
				t.Fatalf("op %d: leased %s from an empty pool", op, vf.Name())
			}
			continue
		}
		if err != nil || vf.Index != ref[0] {
			t.Fatalf("op %d: AllocVF = %v, %v; want VF %d", op, vf, err, ref[0])
		}
		if rec, ok := recs[vf.Index]; ok && rec != vf {
			t.Fatalf("op %d: VF %d has a new record", op, vf.Index)
		}
		recs[vf.Index] = vf
		ref = ref[1:]
		leased = append(leased, vf)
		if n.FreeVFs() != len(ref) {
			t.Fatalf("op %d: FreeVFs = %d, want %d", op, n.FreeVFs(), len(ref))
		}
	}
	if len(recs) != vfs {
		t.Fatalf("%d of %d VFs leased", len(recs), vfs)
	}
	for _, vf := range leased {
		n.ReleaseVF(vf)
	}
	// AllocsPerRun rounds down, so one run is many cycles: a list that
	// reallocated every few cycles would read above 0.
	allocs := testing.AllocsPerRun(10, func() {
		for range 1000 {
			a, _ := n.AllocVF()
			b, _ := n.AllocVF()
			n.ReleaseVF(a)
			n.ReleaseVF(b)
		}
	})
	if allocs != 0 {
		t.Fatalf("lease/release churn: %v allocs per 1000 cycles, want 0", allocs)
	}
}
