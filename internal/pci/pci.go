// Package pci models the host PCI topology: buses, devices, SR-IOV
// physical/virtual functions, reset capabilities, and sysfs-style driver
// binding. The devset behaviour at the heart of the paper's first bottleneck
// (§3.2.2) is determined by this topology: devices without slot-level reset
// share a bus-level reset domain with every other device on their bus.
package pci

import (
	"fmt"
	"time"

	"fastiov/internal/sim"
)

// ResetScope describes the finest reset granularity a device supports.
type ResetScope uint8

const (
	// ResetBus means the device can only be reset together with every other
	// device on its bus (the common case for VFs on NICs like the Intel
	// E810 and IPU E2100, per §3.2.2).
	ResetBus ResetScope = iota
	// ResetSlot means the device supports slot-level (function-level)
	// reset and forms a singleton devset.
	ResetSlot
)

func (r ResetScope) String() string {
	if r == ResetSlot {
		return "slot"
	}
	return "bus"
}

// BDF is a PCI bus/device/function address.
type BDF struct {
	Bus, Dev, Fn int
}

func (a BDF) String() string { return fmt.Sprintf("%02x:%02x.%d", a.Bus, a.Dev, a.Fn) }

// Device is one PCI function.
type Device struct {
	Addr   BDF
	Vendor uint16
	DevID  uint16
	Reset  ResetScope

	// IsVF marks SR-IOV virtual functions; Parent is their PF.
	IsVF   bool
	Parent *Device

	driver string
	bus    *Bus
	block  *VFBlock // the SR-IOV block a VF belongs to
	data   any      // the bound driver's record of the device
}

// Driver returns the name of the currently bound driver ("" if unbound).
func (d *Device) Driver() string { return d.driver }

// Bus returns the bus this device sits on.
func (d *Device) Bus() *Bus { return d.bus }

// DriverData returns the record a driver attached with SetDriverData (nil
// if none), as Linux's dev_get_drvdata does.
func (d *Device) DriverData() any { return d.data }

// SetDriverData attaches a driver's record of the device.
func (d *Device) SetDriverData(v any) { d.data = v }

// VFBlock returns the SR-IOV block a VF belongs to and its VF number in
// it; the block is nil for any other device.
func (d *Device) VFBlock() (*VFBlock, int) {
	if d.block == nil {
		return nil, 0
	}
	return d.block, (d.Addr.Dev-1)*8 + d.Addr.Fn
}

// Bind binds the device to a driver, charging the bind cost (sysfs
// driver_override + probe). Binding over an existing driver panics: callers
// must unbind first, as the kernel requires.
func (d *Device) Bind(p *sim.Proc, driver string, cost time.Duration) {
	if d.driver != "" {
		panic(fmt.Sprintf("pci: %s already bound to %s", d.Addr, d.driver))
	}
	if cost > 0 {
		p.Sleep(cost)
	}
	d.driver = driver
}

// BindBoot binds without charging time, for drivers attached during host
// boot (outside the measured startup window).
func (d *Device) BindBoot(driver string) {
	if d.driver != "" {
		panic(fmt.Sprintf("pci: %s already bound to %s", d.Addr, d.driver))
	}
	d.driver = driver
}

// Unbind releases the device from its driver.
func (d *Device) Unbind(p *sim.Proc, cost time.Duration) {
	if d.driver == "" {
		panic(fmt.Sprintf("pci: %s not bound", d.Addr))
	}
	if cost > 0 {
		p.Sleep(cost)
	}
	d.driver = ""
}

// Bus is one PCI bus segment.
type Bus struct {
	Number  int
	topo    *Topology
	devices []*Device
	vfs     *VFBlock // the SR-IOV block on the bus, if any
}

// Devices returns the devices placed on the bus with AddDevice (not a
// copy). A VF block's functions have no entry here; Population counts
// them.
func (b *Bus) Devices() []*Device { return b.devices }

// Population returns the number of functions on the bus, VFs included:
// what a bus scan walks.
func (b *Bus) Population() int {
	n := len(b.devices)
	if b.vfs != nil {
		n += b.vfs.n
	}
	return n
}

// VFBlock is a PF's SR-IOV virtual functions, placed on the PF's bus as a
// count: VF i sits at device 1+i/8, function i%8. A VF has no Device until
// its owner builds one with Init, so a host pays for the VFs it uses, not
// for the ones it creates.
type VFBlock struct {
	pf     *Device
	n      int
	vf     Device // what every VF's record starts as
	driver string // the driver bound to every VF at boot
}

// Len returns the number of VFs in the block.
func (b *VFBlock) Len() int { return b.n }

// PF returns the physical function the VFs belong to.
func (b *VFBlock) PF() *Device { return b.pf }

// Reset returns the reset scope every VF of the block supports.
func (b *VFBlock) Reset() ResetScope { return b.vf.Reset }

// addr returns VF i's address.
func (b *VFBlock) addr(i int) BDF {
	return BDF{Bus: b.pf.Addr.Bus, Dev: 1 + i/8, Fn: i % 8}
}

// BindBoot binds every VF of the block to driver during host boot, at no
// cost; a record Init builds later starts bound to it. It must run before
// the first Init.
func (b *VFBlock) BindBoot(driver string) {
	if b.driver != "" {
		panic(fmt.Sprintf("pci: VFs of %s already bound to %s", b.pf.Addr, b.driver))
	}
	b.driver = driver
}

// Driver returns the driver bound to the block's VFs at boot ("" if none).
func (b *VFBlock) Driver() string { return b.driver }

// Init makes *d the record of VF i: the block's template with its
// address, parentage, bus and boot driver filled in.
func (b *VFBlock) Init(d *Device, i int) *Device {
	if i < 0 || i >= b.n {
		panic(fmt.Sprintf("pci: VF %d of %s out of range [0, %d)", i, b.pf.Addr, b.n))
	}
	*d = b.vf
	d.Addr = b.addr(i)
	d.IsVF, d.Parent = true, b.pf
	d.driver, d.bus, d.block = b.driver, b.pf.bus, b
	return d
}

// Topology is the host's set of PCI buses.
type Topology struct {
	buses []*Bus // in creation order
}

// NewTopology returns an empty topology.
func NewTopology() *Topology { return &Topology{} }

// AddBus creates (or returns) bus number n.
func (t *Topology) AddBus(n int) *Bus {
	for _, b := range t.buses {
		if b.Number == n {
			return b
		}
	}
	b := &Bus{Number: n, topo: t}
	t.buses = append(t.buses, b)
	return b
}

// AddDevice places a device on a bus. The device's Addr.Bus must match.
func (t *Topology) AddDevice(d *Device) *Device {
	b := t.AddBus(d.Addr.Bus)
	for _, o := range b.devices {
		if o.Addr == d.Addr {
			panic("pci: duplicate BDF " + d.Addr.String())
		}
	}
	if b.vfs != nil && inVFRange(d.Addr, b.vfs.n) {
		panic("pci: duplicate BDF " + d.Addr.String())
	}
	d.bus = b
	b.devices = append(b.devices, d)
	return d
}

// inVFRange reports whether addr is one of the device.function slots
// [8, 8+n) that a block of n VFs covers.
func inVFRange(addr BDF, n int) bool {
	slot := addr.Dev*8 + addr.Fn
	return addr.Fn < 8 && slot >= 8 && slot < 8+n
}

// AddVFs places n virtual functions of pf on pf's bus as one block; each
// VF's record is a copy of vf with its address, IsVF and Parent filled in
// (see VFBlock.Init). VFs pack 8 functions per device number, offset past
// the PF: VF i sits at device 1+i/8, function i%8. A bus holds at most one
// block.
func (t *Topology) AddVFs(pf *Device, n int, vf Device) *VFBlock {
	b := pf.bus
	if b.vfs != nil && b.vfs.n > 0 && n > 0 {
		panic("pci: duplicate BDF " + b.vfs.addr(0).String())
	}
	for _, o := range b.devices {
		if inVFRange(o.Addr, n) {
			panic("pci: duplicate BDF " + o.Addr.String())
		}
	}
	b.vfs = &VFBlock{pf: pf, n: n, vf: vf}
	return b.vfs
}

// Lookup finds a device placed with AddDevice by address.
func (t *Topology) Lookup(addr BDF) (*Device, bool) {
	for _, b := range t.buses {
		if b.Number != addr.Bus {
			continue
		}
		for _, d := range b.devices {
			if d.Addr == addr {
				return d, true
			}
		}
	}
	return nil, false
}

// Has reports whether d sits on one of the topology's buses.
func (t *Topology) Has(d *Device) bool { return d.bus != nil && d.bus.topo == t }

// Buses returns all buses in creation order (not a copy).
func (t *Topology) Buses() []*Bus { return t.buses }
