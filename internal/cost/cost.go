// Package cost is the simulator's one calibration: every substrate cost
// constant, from the paper's published numbers and standard hardware
// figures (DESIGN.md §5). A host boots from one Model
// (cluster.Options.Costs), keeps one copy of it and hands each substrate a
// pointer to that copy; no substrate keeps a default or a fallback of its
// own. Startup shapes must emerge from contention
// over these costs, not from fitting them per figure.
package cost

import (
	"fmt"
	"reflect"
	"strconv"
	"time"
)

// Model is the flat cost model, grouped by the substrate that charges it.
type Model struct {
	// Host memory (hostmem), the DMA-map pipeline of Fig. 6.
	ZeroBytesPerSec     int64         // one zeroing stream's rate: one core's non-temporal stores
	RetrieveCostPerRun  time.Duration // collecting one contiguous free run ("retrieving")
	RetrieveCostPerPage time.Duration // marginal per-page retrieval
	PinCostPerPage      time.Duration // per-page refcount pinning

	// IOMMU and KVM.
	MapCostPerPage time.Duration // installing one I/O page-table entry
	EPTFaultCost   time.Duration // vmexit + resolve + EPT insert of one violation, hook work excluded

	// fastiovd (§5): deferred-zeroing bookkeeping and the scrubber thread.
	RegisterCostPerPage time.Duration // bookkeeping insert per deferred page
	ScrubInterval       time.Duration // scrubber wake period
	ScrubPagesPerPass   int           // pages the scrubber zeroes per wake

	// NIC: link speed in bits/sec, shared by the serverless downloads.
	LinkBps int64

	// VFIO device open (§3.2.2): the dominant term is the PCI bus scan over
	// the full VF population under the devset lock.
	BusScanPerDevice time.Duration // membership scan, per device on the bus
	OpenCountCheck   time.Duration // validating the devset's total open count
	DeviceReset      time.Duration // function-level reset at open and release
	FDSetup          time.Duration // fd allocation, region info queries, irq setup
	Bind             time.Duration // sysfs driver bind (§5's rebind flaw pays it per start)
	Unbind           time.Duration // sysfs driver unbind

	// Hypervisor (Kata-QEMU).
	ProcessStart   time.Duration // fork and initialize QEMU and its device model
	VirtioFSDaemon time.Duration // start virtiofsd and the shared directory
	// VhostLockHold is the host-global vhost registration hold that makes
	// 2-virtiofs grow with concurrency (§3.2.1).
	VhostLockHold        time.Duration
	FSMountGuest         time.Duration // guest-side mount once virtiofsd is up
	VirtioBytesPerSec    int64         // one virtioFS stream's copy rate (also the firmware memcpy)
	VirtioChunk          int64         // shared-buffer bytes per vring descriptor batch
	ImageCopyBytesPerSec int64         // filling the pinned image pages with file content
	VDPADeviceAdd        time.Duration // `vdpa dev add` + char-device setup (§7)
	VDPALockHold         time.Duration // the lighter vhost hold of a vdpa device

	// Guest.
	KernelBoot time.Duration // guest kernel CPU time from firmware entry to agent start
	// BootTouchBase and BootTouchFrac size the RAM the guest writes during
	// boot as base + frac*RAM: the kernel working set plus per-byte
	// metadata, the pages whose lazy zeroing moves into boot under FastIOV.
	BootTouchBase   int64
	BootTouchFrac   float64
	PCIEnum         time.Duration // enumerating the passthrough device
	DriverProbe     time.Duration // the VF driver registering its netdev
	VDPAPCIEnum     time.Duration // PCIEnum for the standard virtio-net driver
	VDPADriverProbe time.Duration // DriverProbe for the standard virtio-net driver
	// IrqSetupHold is the MSI-X/irqfd hold on the host-global interrupt
	// routing lock: readiness "a few hundred milliseconds up to seconds"
	// at high concurrency (§3.2.4).
	IrqSetupHold      time.Duration
	AgentNetConfig    time.Duration // the agent's MAC/IP assignment
	AgentPollInterval time.Duration // readiness polling period; 0 turns polling off
	ContainerCreate   time.Duration // creating the container process

	// CNI plugins.
	VFParamSetup     time.Duration // PF-driver call setting MAC, VLAN, spoof check
	MoveToNNS        time.Duration // moving an interface into the sandbox namespace
	RTNLHoldDummy    time.Duration // rtnl hold creating (or deleting) a dummy interface
	RTNLHoldIpvtap   time.Duration // rtnl hold creating an ipvtap device (§6.4's addCNI)
	IpvtapCgroupHold time.Duration // software CNIs' per-device cgroup work (§6.4)
	IPConfig         time.Duration // address and route configuration
	AddTimeout       time.Duration // device-wait budget an injected add fault burns

	// Container engine.
	NNSCreate  time.Duration // network-namespace creation
	CgroupHold time.Duration // hold on the host-global cgroup lock
	CgroupWork time.Duration // cgroup hierarchy setup CPU time

	// Data plane (§2.2): a 25 GbE NIC with NAPI-style coalescing and a
	// single-queue virtio path.
	IOMMULookup          time.Duration // IOTLB-hit translation per DMA descriptor
	IrqInject            time.Duration // the hypervisor's irqfd relay
	CoalesceBatch        int           // packets amortizing one interrupt
	GuestRxWork          time.Duration // guest driver work per packet
	HostStackWork        time.Duration // host network stack per packet (software path)
	VhostCopyBytesPerSec int64         // vhost worker's copy rate into the vring
	VringKick            time.Duration // guest notify per batch (virtio path)
}

// Default is the testbed calibration: two Xeon 6348 sockets, 256 GB
// DDR4-3200 in 2 MB hugepages, a 25 GbE Intel E810 with 256 VFs (§3.1).
func Default() Model {
	return Model{
		// ~10 GB/s per core, bounded at ~50 GB/s by hostmem's stream count.
		ZeroBytesPerSec:     10 << 30,
		RetrieveCostPerRun:  2 * time.Microsecond,
		RetrieveCostPerPage: 150 * time.Nanosecond,
		PinCostPerPage:      20 * time.Microsecond,

		MapCostPerPage: 300 * time.Nanosecond,
		EPTFaultCost:   15 * time.Microsecond,

		RegisterCostPerPage: 120 * time.Nanosecond,
		ScrubInterval:       2 * time.Millisecond,
		ScrubPagesPerPass:   8,

		LinkBps: 25_000_000_000,

		BusScanPerDevice: 320 * time.Microsecond,
		OpenCountCheck:   100 * time.Microsecond,
		DeviceReset:      8 * time.Millisecond,
		FDSetup:          2 * time.Millisecond,
		Bind:             25 * time.Millisecond,
		Unbind:           15 * time.Millisecond,

		ProcessStart:         40 * time.Millisecond,
		VirtioFSDaemon:       15 * time.Millisecond,
		VhostLockHold:        21 * time.Millisecond,
		FSMountGuest:         5 * time.Millisecond,
		VirtioBytesPerSec:    4 << 30,
		VirtioChunk:          8 << 20,
		ImageCopyBytesPerSec: 6 << 30,
		VDPADeviceAdd:        5 * time.Millisecond,
		VDPALockHold:         21 * time.Millisecond / 4, // a quarter of a vhost-user bring-up

		KernelBoot:        200 * time.Millisecond,
		BootTouchBase:     96 << 20,
		BootTouchFrac:     0.02,
		PCIEnum:           5 * time.Millisecond,
		DriverProbe:       12 * time.Millisecond,
		VDPAPCIEnum:       2 * time.Millisecond,
		VDPADriverProbe:   4 * time.Millisecond,
		IrqSetupHold:      48 * time.Millisecond,
		AgentNetConfig:    8 * time.Millisecond,
		AgentPollInterval: 600 * time.Millisecond,
		ContainerCreate:   30 * time.Millisecond,

		VFParamSetup:     2 * time.Millisecond,
		MoveToNNS:        1 * time.Millisecond,
		RTNLHoldDummy:    1 * time.Millisecond,
		RTNLHoldIpvtap:   18 * time.Millisecond,
		IpvtapCgroupHold: 12 * time.Millisecond,
		IPConfig:         2 * time.Millisecond,
		AddTimeout:       20 * time.Millisecond,

		NNSCreate:  2 * time.Millisecond,
		CgroupHold: 4500 * time.Microsecond,
		CgroupWork: 5 * time.Millisecond,

		IOMMULookup:          120 * time.Nanosecond,
		IrqInject:            2 * time.Microsecond,
		CoalesceBatch:        32,
		GuestRxWork:          600 * time.Nanosecond,
		HostStackWork:        2500 * time.Nanosecond,
		VhostCopyBytesPerSec: 12 << 30,
		VringKick:            1500 * time.Nanosecond,
	}
}

// Validate rejects a model a substrate would divide by or loop on: every
// rate, chunk and batch must be positive. Durations may be zero.
func (m *Model) Validate() error {
	for _, f := range []struct {
		name string
		v    int64
	}{
		{"ZeroBytesPerSec", m.ZeroBytesPerSec},
		{"ScrubPagesPerPass", int64(m.ScrubPagesPerPass)},
		{"LinkBps", m.LinkBps},
		{"VirtioBytesPerSec", m.VirtioBytesPerSec},
		{"VirtioChunk", m.VirtioChunk},
		{"ImageCopyBytesPerSec", m.ImageCopyBytesPerSec},
		{"CoalesceBatch", int64(m.CoalesceBatch)},
		{"VhostCopyBytesPerSec", m.VhostCopyBytesPerSec},
	} {
		if f.v <= 0 {
			return fmt.Errorf("cost: %s must be positive, got %d", f.name, f.v)
		}
	}
	return nil
}

// String spells the model's field values in declaration order, durations
// as integer nanoseconds: what a scenario key needs, in one allocation
// rather than one per duration.
func (m Model) String() string {
	var b []byte
	v := reflect.ValueOf(m)
	for i := range v.NumField() {
		if f := v.Field(i); f.CanInt() {
			b = strconv.AppendInt(append(b, ' '), f.Int(), 10)
		} else {
			b = strconv.AppendFloat(append(b, ' '), f.Float(), 'g', -1, 64)
		}
	}
	return string(b[1:])
}
