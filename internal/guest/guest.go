// Package guest models the microVM's interior: the trimmed guest kernel's
// boot, the VF (NIC) driver's two-step initialization into a Linux network
// interface (§3.2.4), and the secure-container agent that configures MAC/IP
// addresses and gates application execution on network readiness.
package guest

import (
	"time"

	"fastiov/internal/hypervisor"
	"fastiov/internal/nic"
	"fastiov/internal/sim"
)

// Costs is the guest-side cost model.
type Costs struct {
	// KernelBoot is the guest kernel's CPU time from firmware entry to
	// agent start.
	KernelBoot time.Duration
	// BootTouchBase and BootTouchFrac size the guest RAM written during
	// boot as base + frac*RAM: a fixed kernel working set (code, slab,
	// initial page cache) plus per-byte metadata (struct page, page
	// tables). These are the pages whose lazy zeroing cost moves into the
	// boot path under FastIOV's decoupled zeroing.
	BootTouchBase int64
	BootTouchFrac float64
	// PCIEnum is the CPU cost of enumerating the passthrough device.
	PCIEnum time.Duration
	// DriverProbe is the VF driver's CPU work registering the netdev.
	DriverProbe time.Duration
	// IrqSetupHold is how long MSI-X/irqfd setup holds the host-global
	// interrupt-routing lock — the serialization that makes interface
	// readiness "a few hundred milliseconds up to seconds" at high
	// concurrency (§3.2.4).
	IrqSetupHold time.Duration
	// AgentNetConfig is the agent's MAC/IP assignment work.
	AgentNetConfig time.Duration
	// AgentPollInterval is the period of the agent/runtime readiness
	// polling loop; interface availability is only observed at poll
	// boundaries, adding a uniform detection delay.
	AgentPollInterval time.Duration
	// ContainerCreate is the CPU work of creating the container process
	// once its image is in the guest.
	ContainerCreate time.Duration
}

// DefaultCosts mirrors the calibration in DESIGN.md.
func DefaultCosts() Costs {
	return Costs{
		KernelBoot:        200 * time.Millisecond,
		BootTouchBase:     96 << 20,
		BootTouchFrac:     0.02,
		PCIEnum:           5 * time.Millisecond,
		DriverProbe:       12 * time.Millisecond,
		IrqSetupHold:      48 * time.Millisecond,
		AgentNetConfig:    8 * time.Millisecond,
		AgentPollInterval: 600 * time.Millisecond,
		ContainerCreate:   30 * time.Millisecond,
	}
}

// Guest is one microVM interior.
type Guest struct {
	MVM   *hypervisor.MicroVM
	VF    *nic.VF // nil without SR-IOV
	Costs Costs

	// irqLock is the host-global interrupt-routing lock shared by every
	// guest on the host.
	irqLock *sim.Mutex

	booted     sim.Event
	ifaceReady sim.Event
}

// Init makes g the guest state and returns it. irqLock is host-global and
// shared. A sandbox holds its guest by value.
func (g *Guest) Init(mvm *hypervisor.MicroVM, vf *nic.VF, irqLock *sim.Mutex, costs Costs) *Guest {
	*g = Guest{MVM: mvm, VF: vf, Costs: costs, irqLock: irqLock}
	g.booted.Init(mvm.Env.K, "guest-booted")
	g.ifaceReady.Init(mvm.Env.K, "iface-ready")
	return g
}

// Boot runs the guest kernel from firmware entry to agent readiness:
// executes kernel code (reading the firmware region), then initializes
// kernel data structures, writing BootTouchFrac of RAM. Under lazy zeroing
// these first touches carry the deferred zeroing cost.
func (g *Guest) Boot(p *sim.Proc) error {
	l := g.MVM.Layout
	// Execute kernel code: read the hypervisor-loaded firmware.
	if err := g.MVM.VM.TouchRange(p, l.FirmwareBase(), l.FirmwareBytes, false); err != nil {
		return err
	}
	g.MVM.Env.CPU.Use(p, 1, g.Costs.KernelBoot)
	// Kernel writes its working set across RAM.
	touch := g.Costs.BootTouchBase + int64(float64(l.RAMBytes)*g.Costs.BootTouchFrac)
	if touch > l.RAMBytes {
		touch = l.RAMBytes
	}
	if err := g.MVM.VM.TouchRange(p, l.RAMBase(), touch, true); err != nil {
		return err
	}
	// Mount the root filesystem: read a slice of the image region.
	if err := g.MVM.VM.TouchRange(p, l.ImageBase(), l.ImageBytes/8, false); err != nil {
		return err
	}
	g.booted.Fire(p)
	return nil
}

// Booted returns the boot-completion event.
func (g *Guest) Booted() *sim.Event { return &g.booted }

// InitVFDriver performs the two-step interface initialization (§3.2.4):
// (1) the VF driver enumerates the PCI device, registers the netdev (MSI-X
// setup under the host irq-routing lock), and raises the link; (2) the
// agent assigns MAC and IP. Fires the interface-ready event when done.
func (g *Guest) InitVFDriver(p *sim.Proc) {
	if g.VF == nil {
		g.ifaceReady.Fire(p)
		return
	}
	g.booted.Await(p)
	env := g.MVM.Env
	env.CPU.Use(p, 1, g.Costs.PCIEnum)
	env.CPU.Use(p, 1, g.Costs.DriverProbe)
	// MSI-X vectors and irqfd routes are installed through the host's
	// global interrupt-routing state.
	g.irqLock.Lock(p)
	p.Sleep(g.Costs.IrqSetupHold)
	g.irqLock.Unlock(p)
	g.VF.LinkUp = true
	env.CPU.Use(p, 1, g.Costs.AgentNetConfig)
	g.ifaceReady.Fire(p)
}

// IfaceReady returns the network-readiness event the agent polls.
func (g *Guest) IfaceReady() *sim.Event { return &g.ifaceReady }

// WaitIfaceReady blocks until the interface is available, plus the
// detection delay of the periodic readiness polling loop (§4.2.2: the
// agent "periodically check[s] the status of the network interface").
func (g *Guest) WaitIfaceReady(p *sim.Proc) {
	g.ifaceReady.Await(p)
	if g.VF != nil && g.Costs.AgentPollInterval > 0 {
		p.Sleep(g.MVM.Env.Rand.Duration(g.Costs.AgentPollInterval))
	}
}

// LaunchApp transfers the container image into the guest over virtioFS and
// creates the container process. proactive selects FastIOV's modified
// virtio frontend (required for correctness under lazy zeroing).
func (g *Guest) LaunchApp(p *sim.Proc, imageBytes int64, proactive bool) error {
	g.booted.Await(p)
	if imageBytes > 0 {
		if err := g.MVM.VirtioFSRead(p, imageBytes, proactive); err != nil {
			return err
		}
	}
	g.MVM.Env.CPU.Use(p, 1, g.Costs.ContainerCreate)
	return nil
}
