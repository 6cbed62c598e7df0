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

	"fastiov/internal/cost"
	"fastiov/internal/hostmem"
	"fastiov/internal/iommu"
	"fastiov/internal/pci"
	"fastiov/internal/sim"
)

// Config describes the card.
type Config struct {
	Name      string
	Bus       int // PCI bus the PF and all VFs share
	MaxVFs    int
	SlotReset bool // whether VFs support slot-level reset (rare)
}

// DefaultConfig mirrors the testbed's Intel E810.
func DefaultConfig() Config {
	return Config{Name: "e810", Bus: 0x17, MaxVFs: 256}
}

// VF is one virtual function: its NIC state and its PCI record, built at
// the VF's first lease.
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

	nic  *NIC
	next *VF        // the next released VF in the free list
	dev  pci.Device // backs Dev
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
	k   *sim.Kernel
	cfg Config
	pf  *pci.Device
	vfs *pci.VFBlock // nil until CreateVFs

	// The free list is a FIFO. It starts as every VF in number order, and
	// a released VF joins its tail behind all of them, so it is the VFs
	// never leased, [fresh, n), then the released ones in release order,
	// linked through VF.next from head to tail. A VF's record is built
	// when fresh passes it and is never dropped.
	fresh      int
	head, tail *VF
	released   int

	// link models the shared 25 GbE pipe: capacity is expressed in "lanes"
	// of linkBps/lanes each so concurrent downloads share fairly.
	link    *sim.Resource
	laneBps int64
}

// New creates the card and places its PF on the topology; its link runs at
// the model's LinkBps.
func New(k *sim.Kernel, topo *pci.Topology, cfg Config, c *cost.Model) *NIC {
	if cfg.MaxVFs <= 0 {
		panic("nic: MaxVFs must be positive")
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
		laneBps: c.LinkBps / lanes,
	}
	pf.BindBoot("ice") // PF driver attaches during host boot
	return n
}

// PF returns the physical function device.
func (n *NIC) PF() *pci.Device { return n.pf }

// CreateVFs performs the one-time VF pre-creation the Kubelet triggers after
// host boot (§2.3), placing the VFs on the PF's bus. As in the paper, it is
// outside the measured startup window, so it takes no simulated time. The
// VFs are a count on the bus until they are leased.
func (n *NIC) CreateVFs(count int, topo *pci.Topology) error {
	if count > n.cfg.MaxVFs {
		return fmt.Errorf("nic: %d VFs exceeds card limit %d", count, n.cfg.MaxVFs)
	}
	if n.vfs != nil {
		return fmt.Errorf("nic: VFs already created")
	}
	reset := pci.ResetBus
	if n.cfg.SlotReset {
		reset = pci.ResetSlot
	}
	n.vfs = topo.AddVFs(n.pf, count, pci.Device{Vendor: 0x8086, DevID: 0x1889, Reset: reset})
	return nil
}

// VFBlock returns the card's VFs as the PCI topology holds them (nil
// before CreateVFs): what host boot binds and registers.
func (n *NIC) VFBlock() *pci.VFBlock { return n.vfs }

// NumVFs returns the number of created VFs.
func (n *NIC) NumVFs() int {
	if n.vfs == nil {
		return 0
	}
	return n.vfs.Len()
}

// AllocVF leases a free VF from the pool.
func (n *NIC) AllocVF() (*VF, error) {
	var vf *VF
	switch {
	case n.fresh < n.NumVFs():
		vf = &VF{Index: n.fresh, nic: n}
		vf.Dev = n.vfs.Init(&vf.dev, n.fresh)
		n.fresh++
	case n.head != nil:
		vf = n.head
		if n.head = vf.next; n.head == nil {
			n.tail = nil
		}
		vf.next = nil
		n.released--
	default:
		return nil, fmt.Errorf("nic: no free VFs (of %d)", n.NumVFs())
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
	if n.tail == nil {
		n.head = vf
	} else {
		n.tail.next = vf
	}
	n.tail = vf
	n.released++
}

// FreeVFs returns the number of unassigned VFs.
func (n *NIC) FreeVFs() int { return n.NumVFs() - n.fresh + n.released }

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
