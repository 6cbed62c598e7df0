// Package nic models an SR-IOV capable network interface card (the paper's
// testbed uses a 25 GbE Intel E810 with 256 VFs): the physical function and
// its driver, VF pre-creation and pooling, per-VF host network interfaces,
// the DMA engine that moves packet data through the IOMMU, and the shared
// link bandwidth used by the serverless download phase.
package nic

import (
	"fmt"
	"time"

	"fastiov/internal/hostmem"
	"fastiov/internal/iommu"
	"fastiov/internal/pci"
	"fastiov/internal/sim"
)

// Config describes the card.
type Config struct {
	Name       string
	Bus        int // PCI bus the PF and all VFs share
	MaxVFs     int
	LinkBps    int64         // link speed in bits/sec (25 GbE default)
	VFCreation time.Duration // hardware config time per VF at pre-creation
	SlotReset  bool          // whether VFs support slot-level reset (rare)
}

// DefaultConfig mirrors the testbed's Intel E810.
func DefaultConfig() Config {
	return Config{
		Name:       "e810",
		Bus:        0x17,
		MaxVFs:     256,
		LinkBps:    25_000_000_000,
		VFCreation: 30 * time.Millisecond,
	}
}

// VF is one virtual function.
type VF struct {
	Index int
	Dev   *pci.Device
	MAC   string

	// HostIfname is the Linux network interface name when the VF is bound
	// to the host network driver ("" otherwise).
	HostIfname string

	// Assigned marks the VF as leased to a container.
	Assigned bool

	// LinkUp is set once the guest driver brings the interface up.
	LinkUp bool

	nic *NIC
}

// Card returns the NIC this VF belongs to.
func (vf *VF) Card() *NIC { return vf.nic }

// NIC is the SR-IOV card.
type NIC struct {
	k    *sim.Kernel
	cfg  Config
	pf   *pci.Device
	vfs  []*VF
	free []*VF

	// link models the shared 25 GbE pipe: capacity is expressed in "lanes"
	// of linkBps/lanes each so concurrent downloads share fairly.
	link      *sim.Resource
	laneBps   int64
	linkLanes int64
}

// New creates the card and places its PF on the topology.
func New(k *sim.Kernel, topo *pci.Topology, cfg Config) *NIC {
	if cfg.MaxVFs <= 0 {
		panic("nic: MaxVFs must be positive")
	}
	if cfg.LinkBps <= 0 {
		cfg.LinkBps = 25_000_000_000
	}
	pf := topo.AddDevice(&pci.Device{
		Addr:   pci.BDF{Bus: cfg.Bus, Dev: 0, Fn: 0},
		Name:   cfg.Name + "-pf",
		Vendor: 0x8086,
		DevID:  0x1593,
		Reset:  pci.ResetSlot, // PFs support FLR
	})
	lanes := int64(16)
	n := &NIC{
		k:         k,
		cfg:       cfg,
		pf:        pf,
		link:      sim.NewResource(cfg.Name+"-link", lanes),
		laneBps:   cfg.LinkBps / lanes,
		linkLanes: lanes,
	}
	pf.BindBoot("ice") // PF driver attaches during host boot
	return n
}

// PF returns the physical function device.
func (n *NIC) PF() *pci.Device { return n.pf }

// Clone returns a deep copy of the card bound to kernel k, re-pointing the
// PF and every VF at the cloned PCI devices in remap (from
// pci.Topology.Clone). VF pool order is preserved exactly — AllocVF hands
// out VFs in free-list order, so the clone leases the same VFs in the same
// sequence as the original would. The link resource is recreated fresh
// under its original name; the card must be quiescent (no in-flight
// transfers), which boot-prefix snapshots guarantee.
func (n *NIC) Clone(k *sim.Kernel, remap map[*pci.Device]*pci.Device) *NIC {
	c := &NIC{
		k:         k,
		cfg:       n.cfg,
		pf:        remap[n.pf],
		link:      sim.NewResource(n.link.Name(), n.linkLanes),
		laneBps:   n.laneBps,
		linkLanes: n.linkLanes,
	}
	c.vfs = make([]*VF, len(n.vfs))
	for i, vf := range n.vfs {
		c.vfs[i] = &VF{
			Index:      vf.Index,
			Dev:        remap[vf.Dev],
			MAC:        vf.MAC,
			HostIfname: vf.HostIfname,
			Assigned:   vf.Assigned,
			LinkUp:     vf.LinkUp,
			nic:        c,
		}
	}
	c.free = make([]*VF, len(n.free))
	for i, vf := range n.free {
		c.free[i] = c.vfs[vf.Index]
	}
	return c
}

// CreateVFs performs the one-time VF pre-creation the Kubelet triggers after
// host boot (§2.3): NIC hardware configuration per VF, placing each VF on
// the PF's bus. Time for this step is charged but, as in the paper, it is
// outside the measured startup window.
func (n *NIC) CreateVFs(p *sim.Proc, count int, topo *pci.Topology) error {
	if count > n.cfg.MaxVFs {
		return fmt.Errorf("nic: %d VFs exceeds card limit %d", count, n.cfg.MaxVFs)
	}
	if len(n.vfs) > 0 {
		return fmt.Errorf("nic: VFs already created")
	}
	reset := pci.ResetBus
	if n.cfg.SlotReset {
		reset = pci.ResetSlot
	}
	for i := 0; i < count; i++ {
		if p != nil {
			p.Sleep(n.cfg.VFCreation)
		}
		dev := topo.AddDevice(&pci.Device{
			// VFs pack 8 functions per device number, offset past the PF.
			Addr:   pci.BDF{Bus: n.cfg.Bus, Dev: 1 + i/8, Fn: i % 8},
			Name:   fmt.Sprintf("%s-vf%d", n.cfg.Name, i),
			Vendor: 0x8086,
			DevID:  0x1889,
			Reset:  reset,
			IsVF:   true,
			Parent: n.pf,
		})
		vf := &VF{
			Index: i,
			Dev:   dev,
			MAC:   fmt.Sprintf("02:00:00:00:%02x:%02x", i/256, i%256),
			nic:   n,
		}
		n.vfs = append(n.vfs, vf)
		n.free = append(n.free, vf)
	}
	return nil
}

// VFs returns all created VFs.
func (n *NIC) VFs() []*VF { return n.vfs }

// AllocVF leases a free VF from the pool.
func (n *NIC) AllocVF() (*VF, error) {
	if len(n.free) == 0 {
		return nil, fmt.Errorf("nic: no free VFs (of %d)", len(n.vfs))
	}
	vf := n.free[0]
	n.free = n.free[1:]
	vf.Assigned = true
	return vf, nil
}

// ReleaseVF returns a VF to the pool (container terminated).
func (n *NIC) ReleaseVF(vf *VF) {
	if !vf.Assigned {
		panic("nic: releasing unassigned VF " + vf.Dev.Name)
	}
	vf.Assigned = false
	vf.LinkUp = false
	vf.HostIfname = ""
	n.free = append(n.free, vf)
}

// FreeVFs returns the number of unassigned VFs.
func (n *NIC) FreeVFs() int { return len(n.free) }

// DMAWrite models the NIC's DMA engine writing bytes of received packet
// data into guest memory at iova, translating through the IOMMU domain. The
// written pages are marked as holding live data. Fails with an IOMMU fault
// if any page is unmapped.
func (n *NIC) DMAWrite(p *sim.Proc, dom *iommu.Domain, mem *hostmem.Allocator, iova, bytes int64) error {
	pageSize := mem.PageSize()
	for off := int64(0); off < bytes; off += pageSize {
		hpa, err := dom.Translate(iova + off)
		if err != nil {
			return err
		}
		mem.WriteData(hpa / pageSize)
	}
	return nil
}

// Transfer occupies one link lane for the time needed to move bytes at the
// lane rate, modeling a TCP stream's share of the 25 GbE link. Concurrent
// transfers beyond the lane count queue FIFO.
func (n *NIC) Transfer(p *sim.Proc, bytes int64) {
	d := time.Duration(bytes * 8 * int64(time.Second) / n.laneBps)
	n.link.Use(p, 1, d)
}
