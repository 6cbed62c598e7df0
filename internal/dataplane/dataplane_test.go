package dataplane

import (
	"testing"

	"fastiov/internal/cost"
	"fastiov/internal/hostmem"
	"fastiov/internal/iommu"
	"fastiov/internal/kvm"
	"fastiov/internal/nic"
	"fastiov/internal/pci"
	"fastiov/internal/sim"
	"fastiov/internal/vfio"
)

const mb = int64(1) << 20

type rig struct {
	k   *sim.Kernel
	mem *hostmem.Allocator
	vm  *kvm.VM
	dom *iommu.Domain
	nic *nic.NIC

	costs *cost.Model
}

// newRig builds a VM with a 32 MB DMA-mapped RX window at IOVA/GPA 0.
func newRig(t *testing.T) *rig {
	t.Helper()
	k := sim.NewKernel()
	c := cost.Default()
	cfg := hostmem.DefaultConfig()
	cfg.TotalBytes = 2 << 30
	mem := hostmem.New(k, cfg, c)
	topo := pci.NewTopology()
	card := nic.New(k, topo, nic.DefaultConfig(), &c)
	if err := card.CreateVFs(1, topo); err != nil {
		t.Fatal(err)
	}
	drv := vfio.New(k, topo, mem, iommu.New(k, mem.PageSize(), &c), vfio.LockParentChild, &c)
	vf, err := card.AllocVF()
	if err != nil {
		t.Fatal(err)
	}
	vf.Dev.BindBoot("vfio-pci")
	vd, err := drv.Register(vf.Dev)
	if err != nil {
		t.Fatal(err)
	}
	kv := kvm.New(k, mem, &c)
	vm := kv.CreateVM()
	r := &rig{k: k, mem: mem, vm: vm, nic: card, costs: &c}
	k.Go("setup", func(p *sim.Proc) {
		drv.Open(p, vd)
		region, err := drv.MapDMA(p, vd, 0, 32*mb, nil)
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := vm.AddSlot("rx", 0, 32*mb, region); err != nil {
			t.Error(err)
		}
		r.dom = vd.Domain()
	})
	k.Run()
	return r
}

func TestPassthroughStream(t *testing.T) {
	r := newRig(t)
	var res Result
	r.k.Go("rx", func(p *sim.Proc) {
		pt := &Passthrough{NIC: r.nic, Domain: r.dom, Mem: r.mem, VM: r.vm, Costs: r.costs}
		var err error
		res, err = pt.Stream(p, 10000, 1500, 0, 32*mb)
		if err != nil {
			t.Error(err)
		}
	})
	r.k.Run()
	if res.Packets != 10000 {
		t.Fatalf("packets = %d", res.Packets)
	}
	if res.Throughput <= 0 {
		t.Error("zero throughput")
	}
	if res.LatP99 < res.LatP50 {
		t.Error("p99 < p50")
	}
	if r.mem.Violations != 0 {
		t.Errorf("violations = %d", r.mem.Violations)
	}
}

func TestPassthroughFaultsOutsideWindow(t *testing.T) {
	r := newRig(t)
	r.k.Go("rx", func(p *sim.Proc) {
		pt := &Passthrough{NIC: r.nic, Domain: r.dom, Mem: r.mem, VM: r.vm, Costs: r.costs}
		// IOVA base beyond the mapped 32 MB: IOMMU fault.
		if _, err := pt.Stream(p, 1, 1500, 64*mb, 32*mb); err == nil {
			t.Error("DMA outside mapping should fault")
		}
	})
	r.k.Run()
}

func TestWindowSmallerThanPacketRejected(t *testing.T) {
	r := newRig(t)
	r.k.Go("rx", func(p *sim.Proc) {
		pt := &Passthrough{NIC: r.nic, Domain: r.dom, Mem: r.mem, VM: r.vm, Costs: r.costs}
		if _, err := pt.Stream(p, 1, 9000, 0, 1500); err == nil {
			t.Error("tiny window accepted")
		}
		vr := &Virtio{Mem: r.mem, VM: r.vm, Costs: r.costs}
		if _, err := vr.Stream(p, 1, 9000, 0, 1500); err == nil {
			t.Error("tiny window accepted (virtio)")
		}
	})
	r.k.Run()
}

func TestVirtioStream(t *testing.T) {
	r := newRig(t)
	var res Result
	r.k.Go("rx", func(p *sim.Proc) {
		vr := &Virtio{Mem: r.mem, VM: r.vm, Costs: r.costs}
		var err error
		res, err = vr.Stream(p, 10000, 1500, 0, 32*mb)
		if err != nil {
			t.Error(err)
		}
	})
	r.k.Run()
	if res.Packets != 10000 || res.Throughput <= 0 {
		t.Fatalf("res = %+v", res)
	}
}

func TestPassthroughBeatsVirtio(t *testing.T) {
	// The paper's premise (§1): passthrough throughput and latency beat
	// the software path.
	r := newRig(t)
	var ptRes, vRes Result
	r.k.Go("rx", func(p *sim.Proc) {
		pt := &Passthrough{NIC: r.nic, Domain: r.dom, Mem: r.mem, VM: r.vm, Costs: r.costs}
		var err error
		ptRes, err = pt.Stream(p, 20000, 1500, 0, 32*mb)
		if err != nil {
			t.Error(err)
			return
		}
		vr := &Virtio{Mem: r.mem, VM: r.vm, Costs: r.costs}
		vRes, err = vr.Stream(p, 20000, 1500, 0, 32*mb)
		if err != nil {
			t.Error(err)
		}
	})
	r.k.Run()
	if ptRes.Throughput <= vRes.Throughput {
		t.Errorf("passthrough (%.2f Gbps) should beat virtio (%.2f Gbps)", ptRes.Throughput, vRes.Throughput)
	}
	if ptRes.LatP50 >= vRes.LatP50 {
		t.Errorf("passthrough p50 (%v) should beat virtio (%v)", ptRes.LatP50, vRes.LatP50)
	}
}

func TestCoalescingImprovesThroughput(t *testing.T) {
	r := newRig(t)
	var coalesced, perPacket Result
	r.k.Go("rx", func(p *sim.Proc) {
		costs := cost.Default()
		pt := &Passthrough{NIC: r.nic, Domain: r.dom, Mem: r.mem, VM: r.vm, Costs: &costs}
		var err error
		coalesced, err = pt.Stream(p, 10000, 1500, 0, 32*mb)
		if err != nil {
			t.Error(err)
			return
		}
		costs.CoalesceBatch = 1
		perPacket, err = pt.Stream(p, 10000, 1500, 0, 32*mb)
		if err != nil {
			t.Error(err)
		}
	})
	r.k.Run()
	if coalesced.Throughput <= perPacket.Throughput {
		t.Errorf("coalescing (%.2f) should beat per-packet irqs (%.2f)",
			coalesced.Throughput, perPacket.Throughput)
	}
}

// A stream's latency sample is sized for its n packets up front: once the
// window is faulted in, a stream allocates the sample and nothing per
// packet, on both paths.
func TestStreamAllocsIndependentOfPackets(t *testing.T) {
	r := newRig(t)
	r.k.Go("rx", func(p *sim.Proc) {
		pt := &Passthrough{NIC: r.nic, Domain: r.dom, Mem: r.mem, VM: r.vm, Costs: r.costs}
		vr := &Virtio{Mem: r.mem, VM: r.vm, Costs: r.costs}
		for _, s := range []struct {
			name   string
			stream func(n int) (Result, error)
		}{
			{"passthrough", func(n int) (Result, error) { return pt.Stream(p, n, 1500, 0, 32*mb) }},
			{"virtio", func(n int) (Result, error) { return vr.Stream(p, n, 1500, 0, 32*mb) }},
		} {
			if _, err := s.stream(30000); err != nil { // fault in the window
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(3, func() {
				if _, err := s.stream(20000); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > 2 {
				t.Errorf("%s: %v allocs per 20000-packet stream, want at most 2 (the sample)", s.name, allocs)
			}
		}
	})
	r.k.Run()
}
