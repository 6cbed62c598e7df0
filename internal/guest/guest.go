// Package guest models the microVM's interior: the trimmed guest kernel's
// boot, the VF (NIC) driver's two-step initialization into a Linux network
// interface (§3.2.4), and the secure-container agent that configures MAC/IP
// addresses and gates application execution on network readiness.
package guest

import (
	"fastiov/internal/hypervisor"
	"fastiov/internal/nic"
	"fastiov/internal/sim"
)

// Guest is one microVM interior.
type Guest struct {
	MVM *hypervisor.MicroVM
	VF  *nic.VF // nil without SR-IOV

	// irqLock is the host-global interrupt-routing lock shared by every
	// guest on the host.
	irqLock *sim.Mutex

	booted     sim.Event
	ifaceReady sim.Event
}

// Init makes g the guest state and returns it. irqLock is host-global and
// shared. A sandbox holds its guest by value; its costs are the host's
// (mvm.Env.Costs).
func (g *Guest) Init(mvm *hypervisor.MicroVM, vf *nic.VF, irqLock *sim.Mutex) *Guest {
	*g = Guest{MVM: mvm, VF: vf, irqLock: irqLock}
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
	c := g.MVM.Env.Costs
	g.MVM.Env.CPU.Use(p, 1, c.KernelBoot)
	// Kernel writes its working set across RAM.
	touch := c.BootTouchBase + int64(float64(l.RAMBytes)*c.BootTouchFrac)
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
// agent assigns MAC and IP. Fires the interface-ready event when done. A
// vdpa device is driven by the standard virtio-net driver: a lighter probe,
// no vendor-specific setup.
func (g *Guest) InitVFDriver(p *sim.Proc) {
	if g.VF == nil {
		g.ifaceReady.Fire(p)
		return
	}
	g.booted.Await(p)
	env, c := g.MVM.Env, g.MVM.Env.Costs
	enum, probe := c.PCIEnum, c.DriverProbe
	if g.MVM.VDPA() {
		enum, probe = c.VDPAPCIEnum, c.VDPADriverProbe
	}
	env.CPU.Use(p, 1, enum)
	env.CPU.Use(p, 1, probe)
	// MSI-X vectors and irqfd routes are installed through the host's
	// global interrupt-routing state.
	g.irqLock.Lock(p)
	p.Sleep(c.IrqSetupHold)
	g.irqLock.Unlock(p)
	g.VF.LinkUp = true
	env.CPU.Use(p, 1, c.AgentNetConfig)
	g.ifaceReady.Fire(p)
}

// IfaceReady returns the network-readiness event the agent polls.
func (g *Guest) IfaceReady() *sim.Event { return &g.ifaceReady }

// WaitIfaceReady blocks until the interface is available, plus the
// detection delay of the periodic readiness polling loop (§4.2.2: the
// agent "periodically check[s] the status of the network interface").
func (g *Guest) WaitIfaceReady(p *sim.Proc) {
	g.ifaceReady.Await(p)
	if poll := g.MVM.Env.Costs.AgentPollInterval; g.VF != nil && poll > 0 {
		p.Sleep(g.MVM.Env.Rand.Duration(poll))
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
	g.MVM.Env.CPU.Use(p, 1, g.MVM.Env.Costs.ContainerCreate)
	return nil
}
