// Package vfio models the Linux VFIO driver: userspace-assignable devices,
// device sets (devsets) that group devices by reset domain, the device-open
// path the hypervisor takes during VF registration, and the DMA memory
// mapping path (retrieve → zero → pin → map, Fig. 6).
//
// Two lock disciplines are implemented side by side:
//
//   - LockGlobal: the vanilla driver's single devset-wide mutex, which
//     serializes every open/close of every VF sharing a bus-level reset
//     domain — the paper's bottleneck 1 (§3.2.2).
//   - LockParentChild: FastIOV's hierarchical decomposition (§4.2.1) — a
//     devset-level rwlock plus a per-device mutex, making inter-device
//     opens parallel while devset-wide operations (reset) stay exclusive.
package vfio

import (
	"fmt"
	"maps"
	"slices"
	"strconv"
	"time"

	"fastiov/internal/fault"
	"fastiov/internal/hostmem"
	"fastiov/internal/iommu"
	"fastiov/internal/pci"
	"fastiov/internal/sim"
)

// LockMode selects the devset locking discipline.
type LockMode uint8

const (
	// LockGlobal is the vanilla single-mutex design.
	LockGlobal LockMode = iota
	// LockParentChild is FastIOV's hierarchical rwlock+mutex design.
	LockParentChild
)

func (m LockMode) String() string {
	if m == LockParentChild {
		return "parent-child"
	}
	return "global-mutex"
}

// Costs is the open-path cost model. Defaults approximate the testbed: the
// dominant term is the PCI bus scan over the full VF population performed
// under the devset lock.
type Costs struct {
	// BusScanPerDevice is the per-device cost of the membership scan the
	// open path performs over every device on the bus.
	BusScanPerDevice time.Duration
	// OpenCountCheck is the fixed cost of validating the devset's total
	// open count.
	OpenCountCheck time.Duration
	// DeviceReset is the function-level reset issued when a device is
	// opened or released.
	DeviceReset time.Duration
	// FDSetup covers fd allocation, region info queries, and irq setup.
	FDSetup time.Duration
	// Bind/Unbind are the sysfs driver (re)bind costs (§5's implementation
	// flaw: vanilla SR-IOV CNI pays these on every container start).
	Bind   time.Duration
	Unbind time.Duration
}

// DefaultCosts mirrors the calibration in DESIGN.md §5.
func DefaultCosts() Costs {
	return Costs{
		BusScanPerDevice: 320 * time.Microsecond,
		OpenCountCheck:   100 * time.Microsecond,
		DeviceReset:      8 * time.Millisecond,
		FDSetup:          2 * time.Millisecond,
		Bind:             25 * time.Millisecond,
		Unbind:           15 * time.Millisecond,
	}
}

// ZeroHook, when non-nil, replaces eager zeroing in the DMA-map path:
// FastIOV's fastiovd module registers the region for lazy zeroing instead.
type ZeroHook func(p *sim.Proc, region *hostmem.Region)

// FaultStats counts the driver's fault-handling outcomes for reports.
type FaultStats struct {
	// ResetRetries is the number of FLR reissues after injected failures.
	ResetRetries int
	// ResetExhausted counts opens that failed after exhausting FLR retries.
	ResetExhausted int
	// BusResetFailures counts injected devset-wide reset failures.
	BusResetFailures int
	// SlotFallbacks counts per-device slot resets issued as graceful
	// degradation after a bus-level reset failed.
	SlotFallbacks int
}

// Driver is the VFIO driver instance.
type Driver struct {
	k     *sim.Kernel
	topo  *pci.Topology
	mem   *hostmem.Allocator
	mmu   *iommu.IOMMU
	mode  LockMode
	costs Costs

	// Faults, when non-nil, injects reset failures on the open and
	// devset-reset paths; Retry bounds the in-lock FLR reissue loop. Both
	// are inert at their zero values.
	Faults *fault.Injector
	Retry  fault.Policy
	// Stats accumulates fault-handling counters (all zero without faults).
	Stats FaultStats

	// Scope prefixes every lock name the driver creates (devset and
	// per-device locks). Multi-host simulations sharing one kernel set a
	// per-host scope (e.g. "h003-") before the first Register so name-matching
	// observers (trace profiles) can tell hosts apart; the empty default
	// keeps the historical names.
	Scope string

	busSets map[int]*DevSet // bus number -> shared devset
	// devices maps a PCI device's topology index to its registration (nil
	// when unregistered). Registrations and singleton devsets are carved
	// from blocks (devPool, setPool) sized to the devices that may still
	// register, so a host's 256 VFs cost a few allocations, not 256.
	devices    []*Device
	registered int
	devPool    []Device
	setPool    []DevSet
	// devPrefix and setPrefix are Scope plus the lock-name prefixes, fixed
	// at the first Register; lock names are formatted from them on first
	// read.
	devPrefix, setPrefix string

	nextFD    int
	nextSet   int
	nextGroup int
	nextCont  int

	// devsetWaits tallies the procs parked on any of the driver's devset
	// locks (see DevsetWaits).
	devsetWaits sim.WaitCount
}

// New creates a driver.
func New(k *sim.Kernel, topo *pci.Topology, mem *hostmem.Allocator, mmu *iommu.IOMMU, mode LockMode, costs Costs) *Driver {
	return &Driver{
		k:       k,
		topo:    topo,
		mem:     mem,
		mmu:     mmu,
		mode:    mode,
		costs:   costs,
		busSets: make(map[int]*DevSet),
	}
}

// Mode returns the configured lock discipline.
func (d *Driver) Mode() LockMode { return d.mode }

// DevsetWaits is the host's devset queue: the procs parked on any devset
// lock, summed over every devset and both disciplines, with the peak taken
// over that sum — the paper's §3.2 serialization signal.
func (d *Driver) DevsetWaits() *sim.WaitCount { return &d.devsetWaits }

// DevSet groups devices sharing a reset domain (§3.2.2).
type DevSet struct {
	ID      int
	devices []*Device
	solo    [1]*Device // backs devices for a singleton devset
	// totalOpen is the devset's global state: the sum of member open
	// counts. Under LockGlobal it is guarded by the global mutex; under
	// LockParentChild it is maintained under the per-child mutex and read
	// exactly under the write lock (an intra-parent operation).
	totalOpen int

	global sim.Mutex   // vanilla discipline
	rw     sim.RWMutex // hierarchical discipline (parent lock)
}

// Devices returns the member devices.
func (s *DevSet) Devices() []*Device { return s.devices }

// TotalOpen returns the devset-wide open count.
func (s *DevSet) TotalOpen() int { return s.totalOpen }

// Device is a VFIO-bound device.
type Device struct {
	PDev *pci.Device
	Set  *DevSet

	openCount int
	mu        sim.Mutex // child lock (hierarchical discipline)
	fd        int

	domain *iommu.Domain
	// dmaRegions tracks live DMA mappings: iovaBase -> backing region. It
	// stays nil until the first MapDMA.
	dmaRegions map[int64]*hostmem.Region
	// group is the device's IOMMU group (singleton for ACS-isolated VFs).
	group Group
}

// OpenCount returns the device's local open count.
func (vd *Device) OpenCount() int { return vd.openCount }

// FD returns the last fd handed out by Open (0 if never opened).
func (vd *Device) FD() int { return vd.fd }

// Domain returns the device's IOMMU domain (nil until first DMA map).
func (vd *Device) Domain() *iommu.Domain { return vd.domain }

// Register admits a PCI device into VFIO management, forming or joining its
// devset: slot-reset-capable devices get a singleton devset; bus-reset
// devices join the shared devset of their bus. The device must already be
// bound to the vfio-pci driver.
func (d *Driver) Register(pdev *pci.Device) (*Device, error) {
	if pdev.Driver() != "vfio-pci" {
		return nil, fmt.Errorf("vfio: %s bound to %q, not vfio-pci", pdev.Addr, pdev.Driver())
	}
	id := pdev.Index()
	if id >= d.topo.Len() || d.topo.Device(id) != pdev {
		return nil, fmt.Errorf("vfio: %s not in the driver's topology", pdev.Addr)
	}
	if _, dup := d.Lookup(pdev); dup {
		return nil, fmt.Errorf("vfio: %s already registered", pdev.Addr)
	}
	if d.devPrefix == "" {
		d.devPrefix, d.setPrefix = d.Scope+DevLockPrefix, d.Scope+DevsetLockPrefix
	}
	if id >= len(d.devices) {
		d.devices = append(d.devices, make([]*Device, d.topo.Len()-len(d.devices))...)
	}
	rest := d.topo.Len() - d.registered // devices that may still register
	var set *DevSet
	if pdev.Reset == pci.ResetSlot {
		d.nextSet++
		set = d.newSet(take(&d.setPool, rest), d.nextSet)
		set.devices = set.solo[:0]
	} else if set = d.busSets[pdev.Addr.Bus]; set == nil {
		d.nextSet++
		set = d.newSet(new(DevSet), d.nextSet)
		set.devices = make([]*Device, 0, rest)
		d.busSets[pdev.Addr.Bus] = set
	}
	vd := take(&d.devPool, rest)
	d.nextGroup++
	d.initDevice(vd, pdev, set, Group{ID: d.nextGroup})
	set.devices = append(set.devices, vd)
	d.devices[id] = vd
	d.registered++
	return vd, nil
}

// take returns the first element of *pool, refilling the pool with a block
// of n zero elements when it is empty.
func take[T any](pool *[]T, n int) *T {
	if len(*pool) == 0 {
		*pool = make([]T, max(n, 1))
	}
	x := &(*pool)[0]
	*pool = (*pool)[1:]
	return x
}

// initDevice sets vd up as pdev's registration in set, in IOMMU group g.
// Every ACS-isolated function forms a singleton IOMMU group (Fig. 2).
func (d *Driver) initDevice(vd *Device, pdev *pci.Device, set *DevSet, g Group) {
	*vd = Device{PDev: pdev, Set: set, group: g}
	a := pdev.Addr
	vd.mu.Init(sim.IndexedName(d.devPrefix, a.Bus<<16|a.Dev<<8|a.Fn, appendBDF))
	vd.group.driver, vd.group.dev = d, vd
}

// appendBDF renders a BDF packed as bus<<16 | dev<<8 | fn, as BDF.String
// does.
func appendBDF(b []byte, packed int) []byte {
	return append(b, pci.BDF{Bus: packed >> 16, Dev: packed >> 8 & 0xff, Fn: packed & 0xff}.String()...)
}

// DevsetLockPrefix prefixes the sim-lock name of every devset-wide
// primitive ("vfio-devset-<id>"). Trace consumers (the contention
// experiment) match on it to attribute wait time to devset serialization.
const DevsetLockPrefix = "vfio-devset-"

// DevLockPrefix prefixes per-device lock names ("vfio-dev-<addr>").
const DevLockPrefix = "vfio-dev-"

// newSet initializes s as devset id with its two locks.
func (d *Driver) newSet(s *DevSet, id int) *DevSet {
	s.ID = id
	name := sim.IndexedName(d.setPrefix, id, appendDecimal)
	s.global.Init(name).CountWaiters(&d.devsetWaits)
	s.rw.Init(name).CountWaiters(&d.devsetWaits)
	return s
}

func appendDecimal(b []byte, i int) []byte { return strconv.AppendInt(b, int64(i), 10) }

// Clone returns a deep copy of the driver bound to kernel k, with every
// registered device re-pointed at its counterpart in topo (a
// pci.Topology.Clone of the driver's topology) and wired to the given
// allocator and IOMMU. Registrations are copied into one block, and so are
// singleton devsets; devset and device locks are recreated fresh under
// their original names, and id counters (fd, devset, group, container)
// carry over so post-clone allocations continue the original numbering.
//
// Clone is restricted to quiescent drivers — no open devices, no live DMA
// mappings or domains, no container attachments — which is exactly the
// state a boot-prefix snapshot captures; it errors otherwise rather than
// silently dropping state. Faults is NOT carried over; the caller wires
// the clone's injector.
func (d *Driver) Clone(k *sim.Kernel, topo *pci.Topology, mem *hostmem.Allocator, mmu *iommu.IOMMU) (*Driver, error) {
	c := &Driver{
		k:          k,
		topo:       topo,
		mem:        mem,
		mmu:        mmu,
		mode:       d.mode,
		costs:      d.costs,
		Retry:      d.Retry,
		Stats:      d.Stats,
		Scope:      d.Scope,
		busSets:    make(map[int]*DevSet, len(d.busSets)),
		devices:    make([]*Device, len(d.devices)),
		registered: d.registered,
		devPrefix:  d.devPrefix,
		setPrefix:  d.setPrefix,
		nextFD:     d.nextFD,
		nextSet:    d.nextSet,
		nextGroup:  d.nextGroup,
		nextCont:   d.nextCont,
	}
	for id, vd := range d.devices {
		if vd == nil {
			continue
		}
		if vd.openCount > 0 || vd.domain != nil || len(vd.dmaRegions) > 0 || vd.group.cont != nil {
			return nil, fmt.Errorf("vfio: clone of %s with live state (opens=%d, domain=%v, mappings=%d)",
				vd.PDev.Addr, vd.openCount, vd.domain != nil, len(vd.dmaRegions))
		}
		nv := take(&c.devPool, d.registered)
		c.initDevice(nv, topo.Device(id), nil, Group{ID: vd.group.ID})
		nv.fd = vd.fd
		c.devices[id] = nv
		if vd.Set.solo[0] == vd { // a slot-reset device's singleton devset
			nv.Set = c.newSet(take(&c.setPool, d.registered), vd.Set.ID)
			nv.Set.devices = append(nv.Set.solo[:0], nv)
		}
	}
	// Member order is preserved: ResetSet iterates it, so a reordered
	// clone would simulate differently. Quiescent members have no opens,
	// so neither has the devset.
	for bus, s := range d.busSets {
		cs := c.newSet(new(DevSet), s.ID)
		cs.devices = make([]*Device, len(s.devices), cap(s.devices))
		for i, vd := range s.devices {
			cs.devices[i] = c.devices[vd.PDev.Index()]
			cs.devices[i].Set = cs
		}
		c.busSets[bus] = cs
	}
	return c, nil
}

// Unregister removes a device from VFIO management. It must be closed.
func (d *Driver) Unregister(vd *Device) error {
	if vd.openCount > 0 {
		return fmt.Errorf("vfio: %s still open", vd.PDev.Addr)
	}
	d.devices[vd.PDev.Index()] = nil
	d.registered--
	for i, m := range vd.Set.devices {
		if m == vd {
			vd.Set.devices = append(vd.Set.devices[:i], vd.Set.devices[i+1:]...)
			break
		}
	}
	return nil
}

// Lookup returns the VFIO device for a PCI device.
func (d *Driver) Lookup(pdev *pci.Device) (*Device, bool) {
	if id := pdev.Index(); id < len(d.devices) {
		if vd := d.devices[id]; vd != nil && vd.PDev == pdev {
			return vd, true
		}
	}
	return nil, false
}

// RegisteredCount returns the number of devices currently registered — a
// conservation input for host-wide leak audits.
func (d *Driver) RegisteredCount() int { return d.registered }

// AppendCanonical appends every registration in device order (devset, fd,
// open count, group), then each bus devset's members in order.
func (d *Driver) AppendCanonical(b []byte) []byte {
	for _, vd := range d.devices {
		if vd != nil {
			b = fmt.Appendf(b, "vfio %s set=%d fd=%d opens=%d group=%d\n",
				vd.PDev.Addr, vd.Set.ID, vd.fd, vd.openCount, vd.group.ID)
		}
	}
	for _, bus := range slices.Sorted(maps.Keys(d.busSets)) {
		s := d.busSets[bus]
		b = fmt.Appendf(b, "devset %d bus=%02x open=%d members", s.ID, bus, s.totalOpen)
		for _, vd := range s.devices {
			b = strconv.AppendInt(append(b, ' '), int64(vd.PDev.Index()), 10)
		}
		b = append(b, '\n')
	}
	return b
}

// TotalOpens returns the host-wide sum of device fd open counts.
func (d *Driver) TotalOpens() int {
	total := 0
	for _, vd := range d.devices {
		if vd != nil {
			total += vd.openCount
		}
	}
	return total
}

// Open performs the device-open path of VF registration (§3.2.2): the
// hypervisor obtains an fd for the device, which resets the function and
// updates the devset open state. The locking discipline determines whether
// concurrent opens of different devices in the same devset serialize.
// Open panics if the reset fails, which cannot happen without an injector;
// fault-aware callers use OpenErr.
func (d *Driver) Open(p *sim.Proc, vd *Device) int {
	fd, _, err := d.OpenErr(p, vd)
	if err != nil {
		panic("vfio: open of " + vd.PDev.Addr.String() + " failed without fault injection: " + err.Error())
	}
	return fd
}

// OpenErr is Open with fault handling exposed: it returns the fd, the
// total time spent in backoff waits between FLR reissues (zero when the
// first reset succeeded), and the error that remained after the retry
// budget ran out. Retries happen under the devset lock, exactly where the
// real driver reissues a stuck FLR.
func (d *Driver) OpenErr(p *sim.Proc, vd *Device) (fd int, retried time.Duration, err error) {
	switch d.mode {
	case LockGlobal:
		vd.Set.global.Lock(p)
		retried, err = d.openWork(p, vd, true)
		vd.Set.global.Unlock(p)
	case LockParentChild:
		// Inter-child operation: parent read lock + child mutex. Opens of
		// different devices proceed in parallel; a devset-wide reset
		// (write lock) excludes them all.
		vd.Set.rw.RLock(p)
		vd.mu.Lock(p)
		retried, err = d.openWork(p, vd, false)
		vd.mu.Unlock(p)
		vd.Set.rw.RUnlock(p)
	}
	if err != nil {
		return 0, retried, err
	}
	return vd.fd, retried, nil
}

// openWork is the body of the open path. Under the vanilla discipline it
// includes the full-bus membership scan; under the hierarchical discipline
// the scan is deferred to devset-wide reset, which is the only operation
// that needs the devset-global view. Devset state mutates only when the
// reset succeeded, so a failed open leaves no open count behind.
func (d *Driver) openWork(p *sim.Proc, vd *Device, scanBus bool) (time.Duration, error) {
	if scanBus {
		n := len(vd.PDev.Bus().Devices())
		p.Sleep(time.Duration(n) * d.costs.BusScanPerDevice)
	}
	p.Sleep(d.costs.OpenCountCheck)
	var retried time.Duration
	if vd.openCount == 0 {
		r, err := d.resetDevice(p)
		retried = r
		if err != nil {
			d.Stats.ResetExhausted++
			return retried, fmt.Errorf("vfio: open %s: %w", vd.PDev.Addr, err)
		}
	}
	p.Sleep(d.costs.FDSetup)
	vd.openCount++
	vd.Set.totalOpen++
	d.nextFD++
	vd.fd = d.nextFD
	return retried, nil
}

// resetDevice issues a function-level reset, reissuing it with backoff
// when the injector fails it. It returns the cumulative backoff wait so
// callers can surface the retry overlay in telemetry. Without an injector
// it is exactly one DeviceReset sleep.
func (d *Driver) resetDevice(p *sim.Proc) (time.Duration, error) {
	var retried time.Duration
	attempts := 0
	err := fault.Do(p, d.Retry, d.Faults, "vfio-flr", func() error {
		attempts++
		p.Sleep(d.Faults.Inflate(fault.SiteVFIOReset, d.costs.DeviceReset))
		return d.Faults.Fail(fault.SiteVFIOReset)
	}, func(ws, we time.Duration) { retried += we - ws })
	if attempts > 1 {
		d.Stats.ResetRetries += attempts - 1
	}
	return retried, err
}

// Close releases one open of the device, resetting it on last close.
func (d *Driver) Close(p *sim.Proc, vd *Device) {
	release := func() {
		if vd.openCount <= 0 {
			panic("vfio: close of unopened device " + vd.PDev.Addr.String())
		}
		vd.openCount--
		vd.Set.totalOpen--
		if vd.openCount == 0 {
			// Teardown reset: latency-inflatable but never failed — a
			// release path has nothing useful to do with the error.
			p.Sleep(d.Faults.Inflate(fault.SiteVFIOReset, d.costs.DeviceReset))
		}
	}
	switch d.mode {
	case LockGlobal:
		vd.Set.global.Lock(p)
		n := len(vd.PDev.Bus().Devices())
		p.Sleep(time.Duration(n) * d.costs.BusScanPerDevice)
		release()
		vd.Set.global.Unlock(p)
	case LockParentChild:
		vd.Set.rw.RLock(p)
		vd.mu.Lock(p)
		release()
		vd.mu.Unlock(p)
		vd.Set.rw.RUnlock(p)
	}
}

// ResetSet performs a devset-wide (bus-level) reset: an intra-parent
// operation. It fails if any member is open (the open-count invariant the
// devset exists to protect). Under both disciplines it is fully exclusive.
func (d *Driver) ResetSet(p *sim.Proc, s *DevSet) error {
	var unlock func()
	switch d.mode {
	case LockGlobal:
		s.global.Lock(p)
		unlock = func() { s.global.Unlock(p) }
	case LockParentChild:
		s.rw.Lock(p)
		unlock = func() { s.rw.Unlock(p) }
	}
	defer unlock()
	if len(s.devices) > 0 {
		n := len(s.devices[0].PDev.Bus().Devices())
		p.Sleep(time.Duration(n) * d.costs.BusScanPerDevice)
	}
	if s.totalOpen > 0 {
		return fmt.Errorf("vfio: devset %d busy: %d opens", s.ID, s.totalOpen)
	}
	for range s.devices {
		p.Sleep(d.Faults.Inflate(fault.SiteBusReset, d.costs.DeviceReset))
	}
	if err := d.Faults.Fail(fault.SiteBusReset); err != nil {
		// Graceful degradation: the bus-level secondary reset failed, so
		// fall back to slot-level resets of each member function, each
		// with its own FLR retry budget. Only if a member's retries also
		// run dry does the devset reset fail.
		d.Stats.BusResetFailures++
		for _, vd := range s.devices {
			d.Stats.SlotFallbacks++
			if _, rerr := d.resetDevice(p); rerr != nil {
				return fmt.Errorf("vfio: devset %d: bus reset failed, slot reset of %s: %w", s.ID, vd.PDev.Addr, rerr)
			}
		}
	}
	return nil
}

// MapDMA is the DMA memory mapping path (Fig. 6): retrieve host pages for
// the guest region, zero them (eagerly, or via the hook's deferred
// discipline), pin them, and install IOVA→HPA translations. Returns the
// backing host region.
//
// Note the ordering: QEMU's vfio realize path sets up the IOMMU container
// and maps guest memory through its memory listener BEFORE obtaining the
// device fd, so MapDMA is legal on a registered-but-unopened device. This
// matches the paper's Fig. 5, where 1-dma-ram precedes 4-vfio-dev.
func (d *Driver) MapDMA(p *sim.Proc, vd *Device, iovaBase, bytes int64, hook ZeroHook) (*hostmem.Region, error) {
	if _, dup := vd.dmaRegions[iovaBase]; dup {
		return nil, fmt.Errorf("vfio: IOVA %#x already mapped for %s", iovaBase, vd.PDev.Addr)
	}
	if vd.domain == nil {
		vd.domain = d.mmu.CreateDomain()
	}
	if vd.dmaRegions == nil {
		vd.dmaRegions = make(map[int64]*hostmem.Region)
	}
	region, err := d.mem.Allocate(p, bytes) // retrieve
	if err != nil {
		return nil, err
	}
	if hook != nil {
		hook(p, region) // deferred (lazy) zeroing
	} else {
		d.mem.ZeroRegion(p, region) // eager zeroing
	}
	d.mem.Pin(p, region) // pin
	if err := vd.domain.Map(p, iovaBase, region); err != nil {
		d.mem.Unpin(p, region)
		d.mem.Free(p, region)
		return nil, err
	}
	vd.dmaRegions[iovaBase] = region
	return region, nil
}

// UnmapDMA tears down a mapping, unpinning and freeing the host pages.
func (d *Driver) UnmapDMA(p *sim.Proc, vd *Device, iovaBase int64) error {
	region, ok := vd.dmaRegions[iovaBase]
	if !ok {
		return fmt.Errorf("vfio: no mapping at IOVA %#x for %s", iovaBase, vd.PDev.Addr)
	}
	delete(vd.dmaRegions, iovaBase)
	vd.domain.Unmap(p, iovaBase, region.Bytes)
	d.mem.Unpin(p, region)
	d.mem.Free(p, region)
	return nil
}

// ReleaseDomain destroys the device's IOMMU domain after all mappings are
// gone (container teardown).
func (d *Driver) ReleaseDomain(vd *Device) error {
	if len(vd.dmaRegions) > 0 {
		return fmt.Errorf("vfio: %d live mappings on %s", len(vd.dmaRegions), vd.PDev.Addr)
	}
	if vd.domain != nil {
		d.mmu.DestroyDomain(vd.domain)
		vd.domain = nil
	}
	return nil
}

// BindCost and UnbindCost expose the sysfs (re)bind costs for the CNI layer.
func (d *Driver) BindCost() time.Duration   { return d.costs.Bind }
func (d *Driver) UnbindCost() time.Duration { return d.costs.Unbind }
