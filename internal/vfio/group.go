package vfio

import (
	"fmt"
	"time"

	"fastiov/internal/hostmem"
	"fastiov/internal/sim"
)

// This file models the VFIO userspace API surface the hypervisor actually
// programs against (§2.1, Fig. 2): IOMMU groups and containers.
//
//   - A Group is the unit of assignment: the set of devices that cannot be
//     isolated from one another by the IOMMU. SR-IOV VFs get singleton
//     groups (they are ACS-isolated functions).
//   - A Container (/dev/vfio/vfio) is one I/O address space; groups attach
//     to it, and DMA mappings are established per container.
//
// The UAPI ordering rules are enforced as in the kernel: a device fd can
// only be obtained from a group attached to a container; a group attaches
// to at most one container; mappings die with the container.
//
// Note the orthogonality to devsets: groups partition devices by *IOMMU
// isolation*, devsets by *reset domain*. VFs are singleton groups and yet
// share one big devset — which is exactly why their opens contend (§3.2.2).

// Group is one IOMMU group.
type Group struct {
	ID     int
	driver *Driver
	dev    *Device // the group's only member
	cont   *Container
}

// Container is one I/O address space (a /dev/vfio/vfio fd). Each attached
// group's device gets its own IOMMU domain; the container's DMA mappings
// go through its first group's device, which keeps the one table of
// mappings.
type Container struct {
	ID     int
	driver *Driver
	groups []*Group
	one    [1]*Group // backs groups for the usual single group
	closed bool
}

// Group returns the device's IOMMU group (created at Register).
func (vd *Device) Group() *Group { return &vd.group }

// OpenContainer creates a fresh container.
func (d *Driver) OpenContainer() *Container {
	d.nextCont++
	c := &Container{ID: d.nextCont, driver: d}
	c.groups = c.one[:0]
	return c
}

// AttachGroup implements VFIO_GROUP_SET_CONTAINER: binds the group's
// devices to the container's I/O address space. A group may be attached to
// only one container at a time; the group's device gets an IOMMU domain
// of its own, which Close destroys.
func (c *Container) AttachGroup(p *sim.Proc, g *Group) error {
	if c.closed {
		return fmt.Errorf("vfio: container %d closed", c.ID)
	}
	if g.cont != nil {
		return fmt.Errorf("vfio: group %d already attached to container %d", g.ID, g.cont.ID)
	}
	if g.dev.domain != nil {
		return fmt.Errorf("vfio: device %s already has a domain", g.dev.PDev.Addr)
	}
	g.dev.domain = c.driver.mmu.InitDomain(&g.dev.dom)
	g.cont = c
	c.groups = append(c.groups, g)
	return nil
}

// GetDeviceFD implements VFIO_GROUP_GET_DEVICE_FD: the open path that runs
// through the devset lock (§3.2.2). It requires the group to be attached
// to a container first — the ordering QEMU's vfio realize follows. The
// second result is the time spent in FLR retry backoff (always zero
// without fault injection), so the hypervisor can surface it as a retry
// telemetry span.
func (g *Group) GetDeviceFD(p *sim.Proc, vd *Device) (int, time.Duration, error) {
	if g.cont == nil {
		return 0, 0, fmt.Errorf("vfio: group %d not attached to a container", g.ID)
	}
	if g.dev != vd {
		return 0, 0, fmt.Errorf("vfio: device %s not in group %d", vd.PDev.Addr, g.ID)
	}
	return g.driver.OpenErr(p, vd)
}

// MapDMA implements VFIO_IOMMU_MAP_DMA at container scope: the mapping
// pipeline of Fig. 6 into the container's shared domain.
func (c *Container) MapDMA(p *sim.Proc, iovaBase, bytes int64, hook ZeroHook) (*hostmem.Region, error) {
	if c.closed {
		return nil, fmt.Errorf("vfio: container %d closed", c.ID)
	}
	if len(c.groups) == 0 {
		return nil, fmt.Errorf("vfio: container %d has no attached groups", c.ID)
	}
	// Delegate to the first attached device's mapping path.
	vd := c.groups[0].dev
	if _, dup := vd.mapping(iovaBase); dup {
		return nil, fmt.Errorf("vfio: container %d IOVA %#x already mapped", c.ID, iovaBase)
	}
	return c.driver.MapDMA(p, vd, iovaBase, bytes, hook)
}

// UnmapDMA implements VFIO_IOMMU_UNMAP_DMA.
func (c *Container) UnmapDMA(p *sim.Proc, iovaBase int64) error {
	if len(c.groups) == 0 {
		return fmt.Errorf("vfio: container %d: no mapping at %#x", c.ID, iovaBase)
	}
	vd := c.groups[0].dev
	if _, ok := vd.mapping(iovaBase); !ok {
		return fmt.Errorf("vfio: container %d: no mapping at %#x", c.ID, iovaBase)
	}
	return c.driver.UnmapDMA(p, vd, iovaBase)
}

// Close tears the container down: every mapping is unmapped, every
// attached group's domain is destroyed, and groups detach. Devices must be
// closed first.
func (c *Container) Close(p *sim.Proc) error {
	if c.closed {
		return nil
	}
	for _, g := range c.groups {
		if g.dev.openCount > 0 {
			return fmt.Errorf("vfio: device %s still open", g.dev.PDev.Addr)
		}
	}
	// Each attached group's device has its own domain. Unmap each in
	// ascending IOVA order, so teardown is deterministic, then destroy it.
	for _, g := range c.groups {
		vd := g.dev
		for m := vd.mappings(); len(m) > 0; m = vd.mappings() {
			if err := c.driver.UnmapDMA(p, vd, m[0].iova); err != nil {
				return err
			}
		}
		if dom := vd.domain; dom != nil {
			vd.domain = nil
			c.driver.mmu.DestroyDomain(dom)
		}
	}
	for _, g := range c.groups {
		g.cont = nil
	}
	c.groups = nil
	c.closed = true
	return nil
}
