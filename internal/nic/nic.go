// Package nic models an SR-IOV capable network interface card (the paper's
// testbed uses a 25 GbE Intel E810 with 256 VFs): the physical function and
// its driver, VF pre-creation and pooling, per-VF host network interfaces,
// the DMA engine that moves packet data through the IOMMU, and the shared
// link bandwidth used by the serverless download phase.
package nic

import (
	"fmt"
	"strconv"
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

// Name returns the VF's device name, "<card>-vf<index>".
func (vf *VF) Name() string { return vf.nic.cfg.Name + "-vf" + strconv.Itoa(vf.Index) }

// MAC returns the VF's locally administered MAC address, derived from its
// index.
func (vf *VF) MAC() string {
	return fmt.Sprintf("02:00:00:00:%02x:%02x", vf.Index/256, vf.Index%256)
}

// NIC is the SR-IOV card.
type NIC struct {
	k    *sim.Kernel
	cfg  Config
	pf   *pci.Device
	vfs  []VF  // by VF number
	free []*VF // into vfs, in lease order from free[head] on
	head int

	// link models the shared 25 GbE pipe: capacity is expressed in "lanes"
	// of linkBps/lanes each so concurrent downloads share fairly.
	link    *sim.Resource
	laneBps int64
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
		Vendor: 0x8086,
		DevID:  0x1593,
		Reset:  pci.ResetSlot, // PFs support FLR
	})
	lanes := int64(16)
	n := &NIC{
		k:       k,
		cfg:     cfg,
		pf:      pf,
		link:    sim.NewResource(cfg.Name+"-link", lanes),
		laneBps: cfg.LinkBps / lanes,
	}
	pf.BindBoot("ice") // PF driver attaches during host boot
	return n
}

// PF returns the physical function device.
func (n *NIC) PF() *pci.Device { return n.pf }

// CreateVFs performs the one-time VF pre-creation the Kubelet triggers after
// host boot (§2.3): NIC hardware configuration per VF, placing the VFs on
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
	devs := topo.AddVFs(n.pf, count, pci.Device{Vendor: 0x8086, DevID: 0x1889, Reset: reset})
	n.vfs = make([]VF, count)
	n.free = make([]*VF, count)
	for i := range n.vfs {
		if p != nil {
			p.Sleep(n.cfg.VFCreation)
		}
		n.vfs[i] = VF{Index: i, Dev: &devs[i], nic: n}
		n.free[i] = &n.vfs[i]
	}
	return nil
}

// VFs returns all created VFs, indexed by VF number (not a copy).
func (n *NIC) VFs() []VF { return n.vfs }

// AllocVF leases a free VF from the pool.
func (n *NIC) AllocVF() (*VF, error) {
	if n.FreeVFs() == 0 {
		return nil, fmt.Errorf("nic: no free VFs (of %d)", len(n.vfs))
	}
	vf := n.free[n.head]
	n.head++
	if n.head == len(n.free) {
		n.free, n.head = n.free[:0], 0
	}
	vf.Assigned = true
	return vf, nil
}

// ReleaseVF returns a VF to the pool (container terminated).
func (n *NIC) ReleaseVF(vf *VF) {
	if !vf.Assigned {
		panic("nic: releasing unassigned VF " + vf.Name())
	}
	vf.Assigned = false
	vf.LinkUp = false
	vf.HostIfname = ""
	// The list is a FIFO in one backing array sized for every VF: a full
	// tail slides the queue to the front instead of growing it.
	if n.head > 0 && len(n.free) == cap(n.free) {
		k := copy(n.free, n.free[n.head:])
		n.free, n.head = n.free[:k], 0
	}
	n.free = append(n.free, vf)
}

// FreeVFs returns the number of unassigned VFs.
func (n *NIC) FreeVFs() int { return len(n.free) - n.head }

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
