// Package pci models the host PCI topology: buses, devices, SR-IOV
// physical/virtual functions, reset capabilities, and sysfs-style driver
// binding. The devset behaviour at the heart of the paper's first bottleneck
// (§3.2.2) is determined by this topology: devices without slot-level reset
// share a bus-level reset domain with every other device on their bus.
package pci

import (
	"fmt"
	"slices"
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
	index  int
}

// Driver returns the name of the currently bound driver ("" if unbound).
func (d *Device) Driver() string { return d.driver }

// Bus returns the bus this device sits on.
func (d *Device) Bus() *Bus { return d.bus }

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

// Index returns the device's position in its topology: devices are
// numbered in the order they were added, from 0.
func (d *Device) Index() int { return d.index }

// Bus is one PCI bus segment.
type Bus struct {
	Number  int
	devices []*Device
}

// Devices returns the devices on the bus (not a copy).
func (b *Bus) Devices() []*Device { return b.devices }

// Topology is the host's set of PCI buses.
type Topology struct {
	buses []*Bus    // in creation order
	devs  []*Device // by Index
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
	b := &Bus{Number: n}
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
	t.place(b, d)
	return d
}

// AddVFs places n virtual functions of pf on pf's bus in one block, each a
// copy of vf with its address, IsVF and Parent filled in. VFs pack 8
// functions per device number, offset past the PF: VF i sits at device
// 1+i/8, function i%8. The block is returned and indexed by VF number.
func (t *Topology) AddVFs(pf *Device, n int, vf Device) []Device {
	b := pf.bus
	// The block covers device.function slots [8, 8+n) of the bus.
	for _, o := range b.devices {
		if slot := o.Addr.Dev*8 + o.Addr.Fn; o.Addr.Fn < 8 && slot >= 8 && slot < 8+n {
			panic("pci: duplicate BDF " + o.Addr.String())
		}
	}
	block := make([]Device, n)
	t.devs = slices.Grow(t.devs, n)
	b.devices = slices.Grow(b.devices, n)
	for i := range block {
		d := &block[i]
		*d = vf
		d.Addr = BDF{Bus: b.Number, Dev: 1 + i/8, Fn: i % 8}
		d.IsVF, d.Parent = true, pf
		t.place(b, d)
	}
	return block
}

// place appends d to bus b and to the topology's device order.
func (t *Topology) place(b *Bus, d *Device) {
	d.bus = b
	d.index = len(t.devs)
	b.devices = append(b.devices, d)
	t.devs = append(t.devs, d)
}

// Len returns the number of devices.
func (t *Topology) Len() int { return len(t.devs) }

// Device returns the device with index i.
func (t *Topology) Device(i int) *Device { return t.devs[i] }

// Lookup finds a device by address.
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

// Buses returns all buses in creation order (not a copy).
func (t *Topology) Buses() []*Bus { return t.buses }

// Clone deep-copies the topology into one block of devices, preserving
// device indexes, per-bus device order (which higher layers iterate),
// parents and driver bindings. Sibling structures (NIC VF pools, VFIO
// registrations) re-point at the clone by index: clone.Device(d.Index()).
func (t *Topology) Clone() *Topology {
	devs := make([]Device, len(t.devs))
	buses := make([]Bus, len(t.buses))
	nt := &Topology{buses: make([]*Bus, len(t.buses)), devs: make([]*Device, len(t.devs))}
	for i, d := range t.devs {
		devs[i] = *d
		nt.devs[i] = &devs[i]
	}
	for i, b := range t.buses {
		nb := &buses[i]
		nb.Number = b.Number
		nb.devices = make([]*Device, len(b.devices))
		for j, d := range b.devices {
			nd := nt.devs[d.index]
			nd.bus = nb
			nb.devices[j] = nd
		}
		nt.buses[i] = nb
	}
	// A parent may sit anywhere in the device order.
	for _, nd := range nt.devs {
		if nd.Parent != nil {
			nd.Parent = nt.devs[nd.Parent.index]
		}
	}
	return nt
}
